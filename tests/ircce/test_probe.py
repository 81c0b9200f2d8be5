"""Unit tests for iRCCE's non-blocking probe."""

import numpy as np

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.ircce.api import ANY, IRCCE


def machine():
    return Machine(SCCConfig(topology="mesh:2x1"))


def test_probe_empty_returns_none():
    m = machine()
    layer = IRCCE(m)

    def program(env):
        if env.rank == 0:
            return (yield from layer.iprobe(env))
        yield from env.compute(0)

    result = m.run_spmd(program)
    assert result.values[0] is None


def test_probe_sees_pending_message_without_consuming():
    m = machine()
    layer = IRCCE(m)

    def program(env):
        if env.rank == 1:
            req = yield from layer.isend(env, np.zeros(24), 0)
            yield from layer.wait(env, req)
        elif env.rank == 0:
            yield from env.sleep(10_000_000)  # let the sender post
            probe1 = yield from layer.iprobe(env)
            probe2 = yield from layer.iprobe(env)  # still there
            out = np.empty(24)
            req = yield from layer.irecv(env, out, 1)
            yield from layer.wait(env, req)
            return probe1, probe2
        else:
            yield from env.compute(0)

    result = m.run_spmd(program)
    probe1, probe2 = result.values[0]
    assert probe1 == (1, 192)
    assert probe2 == probe1


def test_probe_filters_by_source():
    m = machine()
    layer = IRCCE(m)

    def program(env):
        if env.rank == 2:
            req = yield from layer.isend(env, np.zeros(8), 0)
            yield from layer.wait(env, req)
        elif env.rank == 0:
            yield from env.sleep(10_000_000)
            from_two = yield from layer.iprobe(env, src=2)
            from_three = yield from layer.iprobe(env, src=3)
            any_src = yield from layer.iprobe(env, src=ANY)
            out = np.empty(8)
            req = yield from layer.irecv(env, out, 2)
            yield from layer.wait(env, req)
            return from_two, from_three, any_src
        else:
            yield from env.compute(0)

    result = m.run_spmd(program)
    from_two, from_three, any_src = result.values[0]
    assert from_two == (2, 64)
    assert from_three is None
    assert any_src == (2, 64)
