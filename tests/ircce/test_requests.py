"""Unit tests for the non-blocking request machinery (iRCCE + lightweight)."""

import gc
import weakref

import numpy as np
import pytest

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.core.ops import SUM
from repro.core.registry import make_communicator
from repro.faults import FaultInjector, FaultPlan
from repro.ircce.api import ANY, IRCCE
from repro.ircce.requests import RequestError
from repro.lwnb.api import LWNB


def machine(cores=4):
    return Machine(SCCConfig(topology=f"mesh:{cores // 2}x1"))


@pytest.fixture(params=[IRCCE, LWNB], ids=["ircce", "lwnb"])
def layer_cls(request):
    return request.param


class TestBasicNonBlocking:
    def test_isend_irecv_roundtrip(self, layer_cls):
        m = machine()
        layer = layer_cls(m)
        payload = np.linspace(0, 5, 80)

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, payload, 1)
                yield from layer.wait(env, req)
            elif env.rank == 1:
                out = np.empty(80)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
                return out
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        assert np.array_equal(result.values[1], payload)

    def test_cyclic_exchange_any_order_no_deadlock(self, layer_cls):
        """Optimization A: non-blocking primitives make the odd-even
        ordering obsolete — everyone can isend first."""
        m = machine(4)
        layer = layer_cls(m)

        def program(env):
            right = (env.rank + 1) % env.size
            left = (env.rank - 1) % env.size
            out = np.empty(16)
            sreq = yield from layer.isend(env, np.full(16, float(env.rank)), right)
            rreq = yield from layer.irecv(env, out, left)
            yield from layer.wait_all(env, [sreq, rreq])
            return out[0]

        result = m.run_spmd(program)
        assert result.values == [3.0, 0.0, 1.0, 2.0]

    def test_wait_is_idempotent(self, layer_cls):
        m = machine()
        layer = layer_cls(m)

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, np.zeros(8), 1)
                yield from layer.wait(env, req)
                yield from layer.wait(env, req)  # second wait: no-op
                return env.now
            elif env.rank == 1:
                out = np.empty(8)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
            else:
                yield from env.compute(0)

        m.run_spmd(program)  # must not raise

    def test_test_probe(self, layer_cls):
        m = machine()
        layer = layer_cls(m)

        def program(env):
            if env.rank == 0:
                yield from env.compute(200_000)
                req = yield from layer.isend(env, np.zeros(8), 1)
                yield from layer.wait(env, req)
            elif env.rank == 1:
                out = np.empty(8)
                req = yield from layer.irecv(env, out, 0)
                probe = yield from layer.test(env, req)  # sender is late
                yield from layer.wait(env, req)
                done = yield from layer.test(env, req)
                return (probe, done)
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.values[1] == (False, True)

    def test_self_send_rejected(self, layer_cls):
        m = machine()
        layer = layer_cls(m)

        def program(env):
            if env.rank == 0:
                yield from layer.isend(env, np.zeros(1), 0)
            else:
                yield from env.compute(0)

        with pytest.raises(RequestError):
            m.run_spmd(program)

    def test_overlap_shortens_round(self, layer_cls):
        """A non-blocking exchange completes faster than the serialized
        blocking send-then-recv of the same pair."""
        from repro.rcce.api import RCCE

        data = np.zeros(600)

        def run_nb():
            m = machine(2)
            layer = layer_cls(m)

            def program(env):
                other = 1 - env.rank
                out = np.empty(600)
                sreq = yield from layer.isend(env, data, other)
                rreq = yield from layer.irecv(env, out, other)
                yield from layer.wait_all(env, [sreq, rreq])

            return m.run_spmd(program).elapsed_ps

        def run_blocking():
            m = machine(2)
            rcce = RCCE(m)

            def program(env):
                other = 1 - env.rank
                out = np.empty(600)
                if env.rank % 2 == 0:
                    yield from rcce.send(env, data, other)
                    yield from rcce.recv(env, out, other)
                else:
                    yield from rcce.recv(env, out, other)
                    yield from rcce.send(env, data, other)

            return m.run_spmd(program).elapsed_ps

        # Only the lightweight layer is obliged to win (iRCCE's per-call
        # overhead can eat the overlap gain on a single exchange).
        if layer_cls is LWNB:
            assert run_nb() < run_blocking()


class TestIRCCEFeatures:
    def test_many_outstanding_requests(self):
        m = machine(4)
        layer = IRCCE(m)

        def program(env):
            if env.rank == 0:
                reqs = []
                for dst in (1, 2, 3):
                    req = yield from layer.isend(env, np.full(8, float(dst)), dst)
                    reqs.append(req)
                yield from layer.wait_all(env, reqs)
            else:
                out = np.empty(8)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
                return out[0]

        result = m.run_spmd(program)
        assert result.values[1:] == [1.0, 2.0, 3.0]

    def test_request_list_grows_and_shrinks(self):
        m = machine(4)
        layer = IRCCE(m)
        observed = []

        def program(env):
            if env.rank == 0:
                reqs = []
                for dst in (1, 2, 3):
                    req = yield from layer.isend(env, np.zeros(8), dst)
                    reqs.append(req)
                observed.append(len(layer.pending(env.core_id)))
                yield from layer.wait_all(env, reqs)
                observed.append(len(layer.pending(env.core_id)))
            else:
                out = np.empty(8)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)

        m.run_spmd(program)
        assert observed == [3, 0]

    def test_wildcard_recv(self):
        m = machine(4)
        layer = IRCCE(m)

        def program(env):
            if env.rank == 2:
                out = np.empty(8)
                req = yield from layer.irecv(env, out, ANY)
                src, nbytes = yield from layer.wait(env, req)
                return (src, nbytes, out[0])
            elif env.rank == 1:
                yield from env.compute(1000)
                req = yield from layer.isend(env, np.full(8, 7.0), 2)
                yield from layer.wait(env, req)
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.values[2] == (1, 64, 7.0)

    def test_cancel_unmatched_recv(self):
        m = machine(4)
        layer = IRCCE(m)

        def program(env):
            if env.rank == 0:
                out = np.empty(8)
                req = yield from layer.irecv(env, out, 1)
                yield from env.compute(1000)
                yield from layer.cancel(env, req)
                assert req.cancelled
                return len(layer.pending(env.core_id))
            yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.values[0] == 0

    def test_cancel_completed_rejected(self):
        m = machine(4)
        layer = IRCCE(m)

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, np.zeros(8), 1)
                yield from layer.wait(env, req)
                yield from layer.cancel(env, req)
            elif env.rank == 1:
                out = np.empty(8)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
            else:
                yield from env.compute(0)

        with pytest.raises(RequestError):
            m.run_spmd(program)


class TestLWNBRestrictions:
    def test_second_outstanding_send_rejected(self):
        m = machine(4)
        layer = LWNB(m)

        def program(env):
            if env.rank == 0:
                yield from layer.isend(env, np.zeros(8), 1)
                yield from layer.isend(env, np.zeros(8), 2)  # one too many
            else:
                yield from env.compute(0)

        with pytest.raises(RequestError):
            m.run_spmd(program)

    def test_send_plus_recv_is_allowed(self):
        m = machine(2)
        layer = LWNB(m)

        def program(env):
            other = 1 - env.rank
            out = np.empty(8)
            sreq = yield from layer.isend(env, np.full(8, float(env.rank)), other)
            rreq = yield from layer.irecv(env, out, other)
            yield from layer.wait_all(env, [sreq, rreq])
            return out[0]

        result = m.run_spmd(program)
        assert result.values == [1.0, 0.0]

    def test_slot_freed_after_wait(self):
        m = machine(2)
        layer = LWNB(m)

        def program(env):
            other = 1 - env.rank
            out = np.empty(8)
            for _ in range(3):  # sequential rounds reuse the single slot
                sreq = yield from layer.isend(env, np.zeros(8), other)
                rreq = yield from layer.irecv(env, out, other)
                yield from layer.wait_all(env, [sreq, rreq])
            return True

        result = m.run_spmd(program)
        assert all(result.values)

    def test_wildcard_rejected(self):
        m = machine(4)
        layer = LWNB(m)

        def program(env):
            if env.rank == 0:
                out = np.empty(8)
                yield from layer.irecv(env, out, ANY)
            else:
                yield from env.compute(0)

        with pytest.raises(RequestError):
            m.run_spmd(program)


class TestOverheadOrdering:
    def test_lwnb_cheaper_than_ircce(self):
        """Optimization B's premise: same transfer, less software time."""
        def run(layer_cls):
            m = machine(2)
            layer = layer_cls(m)

            def program(env):
                other = 1 - env.rank
                out = np.empty(64)
                for _ in range(8):
                    sreq = yield from layer.isend(env, np.zeros(64), other)
                    rreq = yield from layer.irecv(env, out, other)
                    yield from layer.wait_all(env, [sreq, rreq])

            return m.run_spmd(program).elapsed_ps

        assert run(LWNB) < run(IRCCE)


class TestReclaimedWithoutCyclicGC:
    """Runs pause the cyclic collector, so request sub-processes have to
    die by reference counting once their request is dropped."""

    def test_finished_isend_process_is_freed_once_waited_on(self, layer_cls):
        m = machine(4)
        layer = layer_cls(m)

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, np.zeros(8), 1)
                refs = weakref.ref(req.proc), weakref.ref(req.proc._token)
                yield from layer.wait(env, req)
                del req
                return [ref() for ref in refs]
            if env.rank == 1:
                req = yield from layer.irecv(env, np.empty(8), 0)
                yield from layer.wait(env, req)
            yield from env.compute(0)

        gc.disable()
        try:
            result = m.run_spmd(program)
        finally:
            gc.enable()
        assert result.values[0] == [None, None]

    def test_object_count_is_flat_over_a_long_ring(self):
        """200 ring Allreduces on ``lightweight_balanced``: nothing the
        kernel allocates per round may pile up until the collector runs."""
        m = machine(4)
        comm = make_communicator(m, "lightweight_balanced")
        data = np.arange(64.0)

        def program(env):
            counts = {}
            for rnd in range(1, 201):
                yield from comm.allreduce(env, data, SUM)
                if env.rank == 0 and rnd in (50, 200):
                    counts[rnd] = len(gc.get_objects())
            return counts

        gc.disable()
        try:
            counts = m.run_spmd(program).values[0]
        finally:
            gc.enable()
        assert counts[200] - counts[50] < 50


class TestRequestHoldUnderVerify:
    """A request's channel-lock hold, cancellation and retirement
    (``NonBlockingLayer._held``) wrap a one-run message and the checksum
    verify policy's chunk runs alike.  With an inert plan (``checksums``
    on, no fault rates) the two must agree on timing, event count, lock
    state and outstanding counts."""

    @staticmethod
    def _exchange(layer, env, n):
        # Two multi-chunk isends queue on rank 0's send lock.
        if env.rank == 0:
            reqs = []
            for i in range(2):
                reqs.append((yield from layer.isend(env, np.full(n, float(i)),
                                                    1)))
            yield from layer.wait_all(env, reqs)
        elif env.rank == 1:
            outs = [np.empty(n), np.empty(n)]
            reqs = []
            for out in outs:
                reqs.append((yield from layer.irecv(env, out, 0)))
            yield from layer.wait_all(env, reqs)
            return [out[0] for out in outs]
        else:
            yield from env.compute(0)

    @staticmethod
    def _cancel_queued(layer, env, n):
        # The second irecv waits on the recv lock behind the first and is
        # cancelled there.
        if env.rank == 0:
            yield from env.compute(5000)
            req = yield from layer.isend(env, np.full(n, 3.0), 1)
            yield from layer.wait(env, req)
        elif env.rank == 1:
            out = np.empty(n)
            first = yield from layer.irecv(env, out, 0)
            second = yield from layer.irecv(env, np.empty(n), 0)
            yield from env.compute(1000)
            yield from layer.cancel(env, second)
            left = layer._outstanding[(env.core_id, "recv")]
            yield from layer.wait(env, first)
            return out[0], left
        else:
            yield from env.compute(0)

    @staticmethod
    def _cancel_holding(layer, env, n):
        # The irecv from rank 0 holds its lock, waiting on the sent flag,
        # when it is cancelled (the one from rank 2 stays outstanding);
        # the next irecv from rank 0 must get the lock.
        if env.rank in (0, 2):
            yield from env.compute(5000)
            req = yield from layer.isend(env, np.full(n, 4.0 + env.rank), 1)
            yield from layer.wait(env, req)
        elif env.rank == 1:
            other = np.empty(n)
            reqs = [(yield from layer.irecv(env, other, 2))]
            req = yield from layer.irecv(env, np.empty(n), 0)
            yield from env.compute(1000)
            yield from layer.cancel(env, req)
            left = layer._outstanding[(env.core_id, "recv")]
            out = np.empty(n)
            reqs.append((yield from layer.irecv(env, out, 0)))
            yield from layer.wait_all(env, reqs)
            return out[0], other[0], left
        else:
            yield from env.compute(0)

    @staticmethod
    def _cancel_send(layer, env, n):
        # An unmatched isend to rank 1 is cancelled while it holds the
        # send lock, waiting for the receiver; the isend to rank 2 queued
        # behind it must then get the lock.
        if env.rank == 0:
            req = yield from layer.isend(env, np.zeros(n), 1)
            queued = yield from layer.isend(env, np.full(n, 5.0), 2)
            yield from env.compute(1000)
            yield from layer.cancel(env, req)
            left = layer._outstanding[(env.core_id, "send")]
            yield from layer.wait(env, queued)
            return left
        if env.rank == 2:
            out = np.empty(n)
            req = yield from layer.irecv(env, out, 0)
            yield from layer.wait(env, req)
            return out[0]
        yield from env.compute(0)

    def _run(self, scenario, checksums):
        m = machine(4)
        if checksums:
            FaultInjector(FaultPlan(checksums=True)).install(m)
        layer = IRCCE(m)
        # Three MPB chunks per message.
        n = (m.config.mpb_payload_bytes // 8) * 2 + 3

        def program(env):
            value = yield from scenario(layer, env, n)
            return value, env.now    # each rank's exit ps

        result = m.run_spmd(program)
        assert ("faults.xfer" in m.services) == checksums
        return {
            "values": result.values,
            "accounts": [dict(a.states) for a in result.accounts],
            "events": m.sim.events_processed,
            "locks": sorted((key, lock._locked, len(lock._queue))
                            for key, lock in layer._locks.items()),
            "outstanding": sorted(layer._outstanding.items()),
            "listed": {core: len(reqs)
                       for core, reqs in layer.request_lists.items()},
        }

    @pytest.mark.parametrize("scenario", ["_exchange", "_cancel_queued",
                                          "_cancel_holding", "_cancel_send"])
    def test_verify_policy_holds_requests_like_run_ops(self, scenario):
        body = getattr(self, scenario)
        plain = self._run(body, checksums=False)
        verified = self._run(body, checksums=True)
        assert verified == plain
        assert all(not locked and not queued
                   for _key, locked, queued in plain["locks"])
        assert all(count == 0 for _key, count in plain["outstanding"])
        assert all(count == 0 for count in plain["listed"].values())
