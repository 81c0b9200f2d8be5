"""The announcement channel exists only where a wildcard receive reads it.

Every message used to post a ``p2p.pending`` announcement and force a
``p2p.incoming`` flag, read only by iRCCE's ``irecv(ANY)`` and
``iprobe``.  The chunk tables now keep their ``NOTE`` rows only on a
machine where iRCCE registered itself: the blocking and lightweight
stacks announce nothing, and iRCCE's wildcard matching still works
across senders.
"""

import numpy as np
import pytest

from repro.bench.runner import launch_collective
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.ircce.api import ANY, IRCCE


@pytest.mark.parametrize("stack", ["blocking", "lightweight",
                                   "lightweight_balanced", "mpb"])
def test_stacks_without_wildcards_announce_nothing(stack):
    machine, _ = launch_collective("allreduce", stack, 552, cores=8)
    assert "p2p.pending" not in machine.services
    assert not [key for key in machine._flags if key[1] == "p2p.incoming"]


def test_ircce_registers_the_announcement_channel():
    machine, _ = launch_collective("allreduce", "ircce", 552, cores=8)
    assert machine.services["p2p.pending"]          # one queue per core
    assert [key for key in machine._flags if key[1] == "p2p.incoming"]


def four_cores():
    return Machine(SCCConfig(topology="mesh:2x1"))


def test_wildcard_receives_match_senders_in_arrival_order():
    machine = four_cores()
    layer = IRCCE(machine)

    def program(env):
        if env.rank == 0:
            got = []
            for _ in range(3):
                out = np.empty(8)
                req = yield from layer.irecv(env, out, ANY)
                src, nbytes = yield from layer.wait(env, req)
                got.append((src, nbytes, out[0]))
            return got
        # Rank 3 posts first, rank 1 last.
        yield from env.compute(2000 * (4 - env.rank))
        req = yield from layer.isend(env, np.full(8, float(env.rank)), 0)
        yield from layer.wait(env, req)

    assert machine.run_spmd(program).values[0] == [
        (3, 64, 3.0), (2, 64, 2.0), (1, 64, 1.0)]


def test_iprobe_sees_posted_messages_without_taking_them():
    machine = four_cores()
    layer = IRCCE(machine)

    def program(env):
        if env.rank == 0:
            early = yield from layer.iprobe(env)
            yield from env.compute(50_000)      # both senders have posted
            first = yield from layer.iprobe(env)
            from_one = yield from layer.iprobe(env, 1)
            values = []
            for src in (1, 2):
                out = np.empty(8)
                req = yield from layer.irecv(env, out, src)
                yield from layer.wait(env, req)
                values.append(out[0])
            drained = yield from layer.iprobe(env)
            return early, first, from_one, values, drained
        if env.rank in (1, 2):
            yield from env.compute(1000 * (3 - env.rank))   # rank 2 first
            req = yield from layer.isend(env, np.full(8, 10.0 * env.rank), 0)
            yield from layer.wait(env, req)
        else:
            yield from env.compute(0)

    assert machine.run_spmd(program).values[0] == (
        None, (2, 64), (1, 64), [10.0, 20.0], None)
