"""Bit-identity golden pins for the simulator kernel.

Kernel optimizations (inline first-callback slots, direct heap pushes, the
GC pause, the per-channel lock caches, and the direct-resume parking
tokens that replaced the per-wait ``Timeout``/``Event``) are pure
wall-clock work: they must not move virtual time or the event count by a
single unit.  Any kernel change that alters dispatch order, event
accounting, or modeled latency shows up here as an exact-value mismatch,
not a tolerance creep.

``GOLDEN`` pins rank 0's elapsed time and the event count of four
kernels; its constants were produced by the straightforward
pre-optimization kernel.  ``DIGESTS`` pins *every* rank's exit
picosecond and *every* core's ``TimeAccount`` for all seven stacks, plus
a seeded fault-jitter run and an iRCCE cancel scenario; they were
recorded on the Event-per-wait kernel (commit b3b0ef1) by running this
file as a script, before the token kernel existed.  Sizes 552/554
exercise the padded-tail path (RCCE's extra put/get call, the paper's
period-4 spikes); p=47 the non-power-of-two paths.

The ``("chaos", stack, profile, seed, n)`` digests pin seeded-fault
*timing*: the six Fig.-9 stacks under the ``light``/``default``/``heavy``
chaos profiles at p=8, n=64 and n=1100 doubles (two 8000-B chunks, the
multi-chunk retransmit path), with the injector's fault counts folded in
and a run that raises pinned by its error type and virtual time.  They
were recorded on commit 2271203 — the generator-per-protocol stacks —
before the micro-op interpreter (``repro.hw.protocol``) replaced them.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.runner import launch_collective, program_for
from repro.core.ops import SUM
from repro.core.registry import make_communicator
from repro.faults.campaign import CHAOS_PROFILES
from repro.faults.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.ircce.api import IRCCE
from repro.sim.clock import us_to_ps
from repro.sim.errors import DeadlockError, WatchdogTimeout

#: (stack, size) -> (events processed, simulated elapsed microseconds).
GOLDEN = {
    ("lightweight_balanced", 552): (104529, 1186.929),
    ("lightweight_balanced", 554): (104561, 1185.517),
    ("blocking", 552): (47899, 2987.329),
    ("ircce", 552): (107692, 2461.687),
}


def kernel_run(stack: str, size: int) -> tuple[int, float]:
    """(events processed, simulated elapsed us) of one p=48 Allreduce."""
    machine, result = launch_collective("allreduce", stack, size, cores=48)
    return machine.sim.events_processed, result.elapsed_us


@pytest.mark.parametrize("stack,size", sorted(GOLDEN))
def test_kernel_bit_identity(stack, size):
    events, simulated_us = kernel_run(stack, size)
    assert events == GOLDEN[(stack, size)][0]
    assert simulated_us == pytest.approx(GOLDEN[(stack, size)][1],
                                         abs=0.001)


def test_kernel_is_deterministic_across_repeats():
    assert (kernel_run("lightweight_balanced", 552)
            == kernel_run("lightweight_balanced", 552))


# -- whole-run digests ------------------------------------------------------
JITTER_PLAN = FaultPlan(mesh_jitter_prob=0.2, flag_stale_prob=0.1,
                        core_stall_prob=0.05, seed=11)


#: Virtual-time budget of a chaos digest run (the campaign's own).
CHAOS_WATCHDOG_PS = us_to_ps(50_000.0)


def _digest(machine: Machine, exits, *extra) -> str:
    """Event count, every rank's exit ps, every core's time account
    (and whatever ``extra`` a scenario adds)."""
    accounts = [sorted(core.account.states.items())
                for core in machine.cores]
    text = repr((machine.sim.events_processed, exits, accounts) + extra)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def allreduce_digest(stack: str, cores: int, size: int,
                     plan: FaultPlan | None = None,
                     chaos: bool = False) -> str:
    """``chaos`` runs under the campaign's watchdog, folds the injector's
    fault counts into the digest and pins a run that raises by
    ``(error type, virtual time)`` in place of the exit times."""
    machine = Machine(SCCConfig())
    injector = None
    if plan is not None:
        injector = FaultInjector(plan).install(machine)
    comm = make_communicator(machine, stack)
    rng = np.random.default_rng(20120901)
    inputs = [rng.normal(size=size) for _ in range(cores)]
    measured = program_for("allreduce", comm, inputs, SUM)

    def program(env):
        yield from measured(env)
        return env.now

    if not chaos:
        result = machine.run_spmd(program, ranks=list(range(cores)))
        return _digest(machine, result.values)
    try:
        exits = machine.run_spmd(program, ranks=list(range(cores)),
                                 watchdog_ps=CHAOS_WATCHDOG_PS).values
    except (FaultError, WatchdogTimeout, DeadlockError) as exc:
        exits = (type(exc).__name__, machine.sim.now)
    return _digest(machine, exits, injector.summary())


def cancel_digest() -> str:
    """Rank 0 cancels a receive queued behind another on the channel lock,
    then the one holding it, then completes a real transfer."""
    machine = Machine(SCCConfig())
    layer = IRCCE(machine)

    def program(env):
        if env.rank == 0:
            out = np.empty(8)
            held = yield from layer.irecv(env, np.empty(8), 1)
            queued = yield from layer.irecv(env, np.empty(8), 1)
            yield from env.compute(1000)
            yield from layer.cancel(env, queued)
            yield from layer.cancel(env, held)
            req = yield from layer.irecv(env, out, 2)
            yield from layer.wait(env, req)
            assert out[0] == 3.0
        elif env.rank == 2:
            yield from env.compute(5000)
            req = yield from layer.isend(env, np.full(8, 3.0), 0)
            yield from layer.wait(env, req)
        else:
            yield from env.compute(0)
        return env.now

    result = machine.run_spmd(program, ranks=list(range(4)))
    return _digest(machine, result.values)


def digest_for(key) -> str:
    if key == "jitter":
        return allreduce_digest("lightweight", 8, 552, JITTER_PLAN)
    if key == "cancel":
        return cancel_digest()
    if key[0] == "chaos":
        _, stack, profile, seed, size = key
        return allreduce_digest(
            stack, 8, size, CHAOS_PROFILES[profile].with_seed(seed),
            chaos=True)
    return allreduce_digest(*key)  # (stack, cores, size)


DIGESTS: dict = {
    ("blocking", 2, 552): "bd2634ff2b4cf69d",
    ("blocking", 2, 554): "c94bfbdd4087cbce",
    ("blocking", 47, 552): "76f6cdd2f23ebeed",
    ("blocking", 47, 554): "7faf1fdd25d5f720",
    ("blocking", 48, 552): "4dd9fc6cdd9b933e",
    ("blocking", 48, 554): "ecacb734a623eb83",
    ("ircce", 2, 552): "60f751900f735eed",
    ("ircce", 2, 554): "a60c906a6567f3ed",
    ("ircce", 47, 552): "fd44c8625d9f6ac2",
    ("ircce", 47, 554): "4cef3790a16417bb",
    ("ircce", 48, 552): "2bf991c2c8642fcc",
    ("ircce", 48, 554): "cb4d3dee2067568a",
    ("lightweight", 2, 552): "7f83edb4ef646834",
    ("lightweight", 2, 554): "ceb73b16384c7235",
    ("lightweight", 47, 552): "fd981f86c2ef320e",
    ("lightweight", 47, 554): "f68339e3298aff97",
    ("lightweight", 48, 552): "b714fa496613eb50",
    ("lightweight", 48, 554): "0eee07d860219a16",
    ("lightweight_balanced", 2, 552): "7f83edb4ef646834",
    ("lightweight_balanced", 2, 554): "ceb73b16384c7235",
    ("lightweight_balanced", 47, 552): "4d190db173d251ca",
    ("lightweight_balanced", 47, 554): "7722f2fb913f8a2c",
    ("lightweight_balanced", 48, 552): "0bf1224ccf070ab6",
    ("lightweight_balanced", 48, 554): "b948ab00022cb6f3",
    ("mpb", 2, 552): "8f2fcce9038c4aaf",
    ("mpb", 2, 554): "1cbbc8a8bc0d21ce",
    ("mpb", 47, 552): "2e99dff6cc7b7383",
    ("mpb", 47, 554): "ef5726028690d9e3",
    ("mpb", 48, 552): "3ab033905b3ea8ca",
    ("mpb", 48, 554): "46c0ddd38175a41f",
    ("rckmpi", 2, 552): "b7a715d4358263f0",
    ("rckmpi", 2, 554): "12cbfa8f62ce70fb",
    ("rckmpi", 47, 552): "624e7f4c27e19ea6",
    ("rckmpi", 47, 554): "8c47778809dfa467",
    ("rckmpi", 48, 552): "148af952f62d352e",
    ("rckmpi", 48, 554): "2431db0083ec2eaa",
    ("tuned", 2, 552): "7f83edb4ef646834",
    ("tuned", 2, 554): "ceb73b16384c7235",
    ("tuned", 47, 552): "4d190db173d251ca",
    ("tuned", 47, 554): "7722f2fb913f8a2c",
    ("tuned", 48, 552): "0bf1224ccf070ab6",
    ("tuned", 48, 554): "b948ab00022cb6f3",
    "jitter": "c799202317ed76bb",
    "cancel": "ef08f38dde64ba4a",
}
DIGESTS.update({
    ("chaos", "rckmpi", "light", 1, 64): "5239f8d719312651",
    ("chaos", "rckmpi", "light", 1, 1100): "55a68ec6f0941b3e",
    ("chaos", "rckmpi", "light", 2, 64): "58fec28c07022d38",
    ("chaos", "rckmpi", "light", 2, 1100): "6126436d0ba30d7c",
    ("chaos", "rckmpi", "default", 1, 64): "f81ac9a38d70007e",
    ("chaos", "rckmpi", "default", 1, 1100): "edc5d0e8dc33e34f",
    ("chaos", "rckmpi", "default", 2, 64): "5dc86e11276ac867",
    ("chaos", "rckmpi", "default", 2, 1100): "cdafdb6e67b9696c",
    ("chaos", "rckmpi", "heavy", 1, 64): "122c905ddd374377",
    ("chaos", "rckmpi", "heavy", 1, 1100): "60b65ddf92254986",
    ("chaos", "rckmpi", "heavy", 2, 64): "b809e370fa554f29",
    ("chaos", "rckmpi", "heavy", 2, 1100): "1015853266c88b48",
    ("chaos", "blocking", "light", 1, 64): "ed025020998b7a41",
    ("chaos", "blocking", "light", 1, 1100): "4d80b9b366517dfb",
    ("chaos", "blocking", "light", 2, 64): "dece8605f66520ed",
    ("chaos", "blocking", "light", 2, 1100): "1071f2e7b59ceeef",
    ("chaos", "blocking", "default", 1, 64): "9cfe804b70385af7",
    ("chaos", "blocking", "default", 1, 1100): "ecfa336d774a67e7",
    ("chaos", "blocking", "default", 2, 64): "7d022c66eb521135",
    ("chaos", "blocking", "default", 2, 1100): "a1d59407ed50f703",
    ("chaos", "blocking", "heavy", 1, 64): "4030e49196191b2f",
    ("chaos", "blocking", "heavy", 1, 1100): "38733b2a3e9bb6e9",
    ("chaos", "blocking", "heavy", 2, 64): "06838a29c92f8a33",
    ("chaos", "blocking", "heavy", 2, 1100): "aaf031ae4dca317b",
    ("chaos", "ircce", "light", 1, 64): "02ea8bc5fc6eea43",
    ("chaos", "ircce", "light", 1, 1100): "2e45c0cc76df9b1b",
    ("chaos", "ircce", "light", 2, 64): "dd5db6cfdd39fbfc",
    ("chaos", "ircce", "light", 2, 1100): "3e3782119971152b",
    ("chaos", "ircce", "default", 1, 64): "8eb9a0f6dc52cade",
    ("chaos", "ircce", "default", 1, 1100): "a4a9a9f378f7e491",
    ("chaos", "ircce", "default", 2, 64): "8e1f60e4df6e97b9",
    ("chaos", "ircce", "default", 2, 1100): "af42f3437f5bcbe7",
    ("chaos", "ircce", "heavy", 1, 64): "7c89e4c8c139ecca",
    ("chaos", "ircce", "heavy", 1, 1100): "e2128f3423a82a8b",
    ("chaos", "ircce", "heavy", 2, 64): "b42665a43f559d12",
    ("chaos", "ircce", "heavy", 2, 1100): "dc3dbf2a85bb5584",
    ("chaos", "lightweight", "light", 1, 64): "5caa10ed8d749d0d",
    ("chaos", "lightweight", "light", 1, 1100): "121d39559ba94f85",
    ("chaos", "lightweight", "light", 2, 64): "3be9b3c8d38a050a",
    ("chaos", "lightweight", "light", 2, 1100): "222237cd75bc1b19",
    ("chaos", "lightweight", "default", 1, 64): "316a691864fb58f9",
    ("chaos", "lightweight", "default", 1, 1100): "da369800e80c42f4",
    ("chaos", "lightweight", "default", 2, 64): "bd0ef05e86f46f7b",
    ("chaos", "lightweight", "default", 2, 1100): "94dda89e1362b4c3",
    ("chaos", "lightweight", "heavy", 1, 64): "2e37f6f038b30fab",
    ("chaos", "lightweight", "heavy", 1, 1100): "d850667444778d51",
    ("chaos", "lightweight", "heavy", 2, 64): "52adb93ddba573c4",
    ("chaos", "lightweight", "heavy", 2, 1100): "7407025d7b090af4",
    ("chaos", "lightweight_balanced", "light", 1, 64): "5caa10ed8d749d0d",
    ("chaos", "lightweight_balanced", "light", 1, 1100): "e979deeaf4c7c7d9",
    ("chaos", "lightweight_balanced", "light", 2, 64): "3be9b3c8d38a050a",
    ("chaos", "lightweight_balanced", "light", 2, 1100): "87b64fe0d4168980",
    ("chaos", "lightweight_balanced", "default", 1, 64): "316a691864fb58f9",
    ("chaos", "lightweight_balanced", "default", 1, 1100): "5dc170e5e7366707",
    ("chaos", "lightweight_balanced", "default", 2, 64): "bd0ef05e86f46f7b",
    ("chaos", "lightweight_balanced", "default", 2, 1100): "8a92465d13bfd0d9",
    ("chaos", "lightweight_balanced", "heavy", 1, 64): "2e37f6f038b30fab",
    ("chaos", "lightweight_balanced", "heavy", 1, 1100): "be2e610924fed843",
    ("chaos", "lightweight_balanced", "heavy", 2, 64): "52adb93ddba573c4",
    ("chaos", "lightweight_balanced", "heavy", 2, 1100): "d9040a5014b50063",
    ("chaos", "mpb", "light", 1, 64): "9e3cb9743673ef90",
    ("chaos", "mpb", "light", 1, 1100): "1b249e5f745bf71a",
    ("chaos", "mpb", "light", 2, 64): "82c7cd617de0347c",
    ("chaos", "mpb", "light", 2, 1100): "c21fecbbd1d80023",
    ("chaos", "mpb", "default", 1, 64): "84c5d8ac2a0d7c3a",
    ("chaos", "mpb", "default", 1, 1100): "02f440df9e90d59d",
    ("chaos", "mpb", "default", 2, 64): "4526d773428c7ec1",
    ("chaos", "mpb", "default", 2, 1100): "d11961906d5c607a",
    ("chaos", "mpb", "heavy", 1, 64): "978e062023d5eaf7",
    ("chaos", "mpb", "heavy", 1, 1100): "dd332157d6c03e50",
    ("chaos", "mpb", "heavy", 2, 64): "786f834876af902b",
    ("chaos", "mpb", "heavy", 2, 1100): "81ac607bdfcf5cfc",
})


@pytest.mark.parametrize("key", list(DIGESTS), ids=str)
def test_every_rank_and_account_identical(key):
    assert digest_for(key) == DIGESTS[key]


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python <this file>
    import pprint
    pprint.pprint({key: digest_for(key) for key in DIGESTS}, sort_dicts=False)
