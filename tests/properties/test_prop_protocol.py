"""Property-based tests of the point-to-point protocol layers.

Random message schedules between random pairs must deliver every payload
intact and in per-channel FIFO order, on every layer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.ircce.api import IRCCE
from repro.lwnb.api import LWNB
from repro.rcce.api import RCCE
from repro.rckmpi.channel import RCKMPIP2P

P = 4

# A schedule: list of (src, dst, length) with src != dst.
pairs = st.tuples(st.integers(0, P - 1), st.integers(0, P - 1),
                  st.integers(1, 300)).filter(lambda t: t[0] != t[1])
schedules = st.lists(pairs, min_size=1, max_size=10)


def _machine():
    return Machine(SCCConfig(topology="mesh:2x1"))


def _payload(i, n):
    return np.arange(n, dtype=np.float64) + 1000.0 * i


@given(schedule=schedules)
@settings(max_examples=25, deadline=None)
def test_nonblocking_layers_deliver_everything(schedule):
    """Issue all sends/recvs of the schedule per rank, wait, verify."""
    for layer_cls in (IRCCE, RCKMPIP2P):
        m = _machine()
        layer = layer_cls(m)
        outs = {}

        def program(env):
            reqs = []
            for i, (src, dst, n) in enumerate(schedule):
                if env.rank == src:
                    req = yield from layer.isend(env, _payload(i, n), dst)
                    reqs.append(req)
                if env.rank == dst:
                    buf = np.empty(n)
                    outs[i] = buf
                    req = yield from layer.irecv(env, buf, src)
                    reqs.append(req)
            yield from layer.wait_all(env, reqs)

        m.run_spmd(program)
        for i, (_src, _dst, n) in enumerate(schedule):
            np.testing.assert_array_equal(outs[i], _payload(i, n))


@given(schedule=schedules)
@settings(max_examples=15, deadline=None)
def test_lwnb_sequential_schedule_delivers(schedule):
    """The lightweight layer allows one in-flight send/recv: run the
    schedule one message at a time (globally ordered), still intact."""
    m = _machine()
    layer = LWNB(m)
    rcce = RCCE(m)
    outs = {}

    def program(env):
        for i, (src, dst, n) in enumerate(schedule):
            if env.rank == src:
                req = yield from layer.isend(env, _payload(i, n), dst)
                yield from layer.wait(env, req)
            elif env.rank == dst:
                buf = np.empty(n)
                outs[i] = buf
                req = yield from layer.irecv(env, buf, src)
                yield from layer.wait(env, req)
            # Global barrier between schedule steps keeps at most one
            # operation in flight per core.
            yield from rcce.barrier(env)

    m.run_spmd(program)
    for i, (_src, _dst, n) in enumerate(schedule):
        np.testing.assert_array_equal(outs[i], _payload(i, n))


@given(lengths=st.lists(st.integers(1, 400), min_size=1, max_size=8))
@settings(max_examples=20, deadline=None)
def test_per_channel_fifo_order(lengths):
    """Messages on one (src, dst) channel arrive in send order, for the
    blocking layer (the flag protocol admits only one in-flight chunk)."""
    m = _machine()
    rcce = RCCE(m)
    received = []

    def program(env):
        if env.rank == 0:
            for i, n in enumerate(lengths):
                yield from rcce.send(env, _payload(i, n), 1)
        elif env.rank == 1:
            for i, n in enumerate(lengths):
                buf = np.empty(n)
                yield from rcce.recv(env, buf, 0)
                received.append(buf[0])
        else:
            yield from env.compute(0)

    m.run_spmd(program)
    assert received == [1000.0 * i for i in range(len(lengths))]


@given(n=st.integers(0, 2000), seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_payload_bitexact_across_layers(n, seed):
    """Any byte pattern survives any layer (NaNs, infs, denormals...)."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, size=n * 8, dtype=np.uint8)
    payload = raw.view(np.float64) if n else np.empty(0)

    for layer_cls in (IRCCE, LWNB, RCKMPIP2P):
        m = _machine()
        layer = layer_cls(m)
        out = np.empty(n)

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, payload, 1)
                yield from layer.wait(env, req)
            elif env.rank == 1:
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
            else:
                yield from env.compute(0)

        m.run_spmd(program)
        assert out.tobytes() == payload.tobytes()
