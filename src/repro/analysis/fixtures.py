"""Known-bad SPMD schedules the sanitizer must flag.

Each fixture builds a tiny protocol that violates exactly one rule of the
MPB discipline (see :mod:`repro.analysis.sanitizer`): reading before the
writer's flag, overwriting a published buffer, reusing an unconsumed
slot, racing a flag, reading corrupted bytes.  They serve two purposes:

* **Detector tests** — ``tests/analysis/test_sanitizer_gate.py`` runs
  every fixture and asserts the expected rule fires (a sanitizer that
  goes quiet on these is broken, the mirror image of the clean-stack
  gate asserting zero findings on the real collectives).
* **Worked examples** — each fixture is the runnable form of one entry
  in the diagnostic catalogue of ``docs/static-analysis.md``.

The ``stale-read`` fixture is seeded through the fault injector's
payload-corruption hook (``payload_corrupt_prob=1``) rather than by
poking MPB bytes directly, so it exercises the same
:meth:`~repro.analysis.sanitizer.Sanitizer.on_corrupt` path real chaos
runs do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

import numpy as np

from repro.analysis.sanitizer import Sanitizer
from repro.faults import FaultInjector, FaultPlan
from repro.hw.machine import CoreEnv, Machine
from repro.hw.mpb import MPBError
from repro.rcce.transfer import get_bytes, put_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.races import RaceDetector, Scenario

#: Virtual-time offsets that order the two ranks' accesses decisively
#: (both are orders of magnitude above any single MPB access cost).
_EARLY_PS = 10_000_000      # 10 us: after the writer's copy has landed
_LATE_PS = 50_000_000       # 50 us: long after the reader misbehaved

_PAYLOAD = np.arange(64, dtype=np.uint8)


@dataclass(frozen=True)
class Fixture:
    """One known-bad schedule and the rule(s) it must trigger."""

    name: str
    rules: tuple[str, ...]
    builder: Callable[[Machine], Callable[[CoreEnv], Generator]]
    plan: Optional[FaultPlan] = None
    ranks: int = 2


def _read_before_publish(machine: Machine):
    region = machine.mpbs[1].alloc(_PAYLOAD.size)
    sent = machine.flag(1, "fx.sent")

    def program(env: CoreEnv) -> Generator:
        if env.rank == 1:
            yield from put_bytes(env, region, _PAYLOAD)
            yield from env.sleep(_LATE_PS)
            yield from sent.set_by(env.core)    # far too late
        else:
            yield from env.sleep(_EARLY_PS)
            # BUG: reads the freshly written bytes without waiting for
            # the writer's flag — the data is there, but nothing
            # synchronized on it.
            yield from get_bytes(env, region, _PAYLOAD.size)
            yield from sent.wait_set(env.core)
    return program


def _uninit_read(machine: Machine):
    region = machine.mpbs[1].alloc(_PAYLOAD.size)

    def program(env: CoreEnv) -> Generator:
        if env.rank == 0:
            # BUG: reads a slot nobody has ever written.
            yield from get_bytes(env, region, _PAYLOAD.size)
        else:
            yield from env.sleep(_EARLY_PS)
    return program


def _write_while_reader_pending(machine: Machine):
    region = machine.mpbs[0].alloc(_PAYLOAD.size)
    sent = machine.flag(1, "fx.sent")

    def program(env: CoreEnv) -> Generator:
        if env.rank == 0:
            yield from put_bytes(env, region, _PAYLOAD)
            yield from sent.set_by(env.core)    # published to rank 1
            # BUG: overwrites the buffer before rank 1 (who was just
            # signalled) consumed it — no ready hand-back in between.
            yield from put_bytes(env, region, _PAYLOAD[::-1].copy())
        else:
            yield from sent.wait_set(env.core)
            yield from env.sleep(_LATE_PS)      # lags; reads too late
            yield from get_bytes(env, region, _PAYLOAD.size)
    return program


def _overlapping_alloc(machine: Machine):
    sent = machine.flag(1, "fx.sent")

    def program(env: CoreEnv) -> Generator:
        if env.rank == 0:
            mpb = env.my_mpb()
            region = mpb.alloc(_PAYLOAD.size)
            yield from put_bytes(env, region, _PAYLOAD)
            yield from sent.set_by(env.core)
            # BUG: recycles the allocator while the slot's bytes are
            # still published to an unconsumed reader.
            mpb.reset_alloc()
            mpb.alloc(_PAYLOAD.size)
        else:
            yield from sent.wait_set(env.core)
            yield from env.sleep(_LATE_PS)
    return program


def _oob_access(machine: Machine):
    region = machine.mpbs[0].alloc(32)

    def program(env: CoreEnv) -> Generator:
        if env.rank == 0:
            try:
                # BUG: reads past the end of the allocated slot.  The
                # hardware model raises; the sanitizer records the site.
                region.read(region.size + 32, actor=env.core_id)
            except MPBError:
                pass
        yield from env.sleep(_EARLY_PS)
    return program


def _flag_double_set(machine: Machine):
    go = machine.flag(0, "fx.go")

    def program(env: CoreEnv) -> Generator:
        if env.rank == 0:
            yield from go.set_by(env.core)
        else:
            yield from env.sleep(_EARLY_PS)
            # BUG: second set while rank 0's (unobserved) signal is
            # still up — one of the two notifications is lost.
            yield from go.set_by(env.core)
    return program


def _stale_read(machine: Machine):
    region = machine.mpbs[1].alloc(_PAYLOAD.size)
    sent = machine.flag(1, "fx.sent")

    def program(env: CoreEnv) -> Generator:
        if env.rank == 1:
            # The injector (payload_corrupt_prob=1, checksums off)
            # flips a byte right after this copy lands; publishing and
            # reading it without any verify pass is a stale read.
            yield from put_bytes(env, region, _PAYLOAD)
            yield from sent.set_by(env.core)
        else:
            yield from sent.wait_set(env.core)
            yield from get_bytes(env, region, _PAYLOAD.size)
    return program


FIXTURES: tuple[Fixture, ...] = (
    Fixture("read-before-publish", ("read-before-publish",),
            _read_before_publish),
    Fixture("uninit-read", ("uninit-read",), _uninit_read),
    Fixture("write-while-reader-pending", ("write-while-reader-pending",),
            _write_while_reader_pending),
    Fixture("overlapping-alloc", ("overlapping-alloc",), _overlapping_alloc),
    Fixture("oob-access", ("oob-access",), _oob_access),
    Fixture("flag-double-set", ("flag-double-set",), _flag_double_set),
    Fixture("stale-read", ("stale-read",), _stale_read,
            plan=FaultPlan(payload_corrupt_prob=1.0, checksums=False,
                           seed=20120901)),
)


def fixture(name: str) -> Fixture:
    for fx in FIXTURES:
        if fx.name == name:
            return fx
    raise KeyError(f"no fixture named {name!r}; "
                   f"have {[f.name for f in FIXTURES]}")


def _run(fx: Fixture, observers: Sequence) -> None:
    """Run ``fx`` on a fresh bare machine (no communicator: the fixtures
    drive the hardware directly) with ``observers`` installed in order."""
    machine = Machine()
    for observer in observers:
        observer.install(machine)
    machine.run_spmd(fx.builder(machine), ranks=list(range(fx.ranks)))


def _injector(fx: Fixture) -> list:
    return [FaultInjector(fx.plan)] if fx.plan is not None else []


def run_fixture(fx: Fixture) -> Sanitizer:
    """Run one fixture under a fresh machine; returns its sanitizer."""
    san = Sanitizer()
    _run(fx, _injector(fx) + [san])
    return san


# ---------------------------------------------------------------------- #
# Known-racy fixtures for the happens-before detector.
#
# Unlike the sanitizer fixtures above (whose 10/50 us offsets make the
# misbehaviour unambiguous in the one observed schedule), these keep the
# two unordered accesses only a few hundred nanoseconds apart: close
# enough that the interleaving explorer's bounded timing perturbations
# (mesh jitter, port congestion, flag staleness, core stalls — see
# :func:`repro.analysis.races.perturbation_plans`) can actually reverse
# them, turning the candidate into a *confirmed* race.  The
# ``alloc-without-ack`` fixture is the deliberate exception: a reversed
# replay of it produces no conflicting access at all, so it stays a
# candidate the explorer classifies as benign — exercising that half of
# the verdict logic.
# ---------------------------------------------------------------------- #

#: Orders the two unordered accesses in the unperturbed schedule while
#: staying inside the explorer's perturbation budget (~0.6-9 us shifts).
_NEAR_PS = 300_000          # 0.3 us
_RACE_GAP_PS = 700_000      # 0.7 us
_ACK_GAP_PS = 1_500_000     # 1.5 us
_ALLOC_GAP_PS = 4_000_000   # 4 us: past the peer's full 64 B put (~2.3 us)


def _flag_before_payload(machine: Machine):
    region = machine.mpbs[1].alloc(_PAYLOAD.size)
    sent = machine.flag(1, "fx.sent")

    def program(env: CoreEnv) -> Generator:
        if env.rank == 1:
            # BUG: raises the guard flag *before* the payload it guards
            # lands — the flag edge orders nothing.
            yield from sent.set_by(env.core)
            yield from put_bytes(env, region, _PAYLOAD)
        else:
            yield from sent.wait_set(env.core)
            yield from env.sleep(_RACE_GAP_PS)
            yield from get_bytes(env, region, _PAYLOAD.size)
    return program


def _missing_consume_ack(machine: Machine):
    region = machine.mpbs[0].alloc(_PAYLOAD.size)
    sent = machine.flag(0, "fx.sent")

    def program(env: CoreEnv) -> Generator:
        if env.rank == 0:
            yield from put_bytes(env, region, _PAYLOAD)
            yield from sent.set_by(env.core)
            yield from env.sleep(_ACK_GAP_PS)
            # BUG: reuses the slot with no ready hand-back from the
            # reader — nothing orders the overwrite after the read.
            yield from put_bytes(env, region, _PAYLOAD[::-1].copy())
        else:
            yield from sent.wait_set(env.core)
            yield from get_bytes(env, region, _PAYLOAD.size)
    return program


def _unordered_write_write(machine: Machine):
    region = machine.mpbs[0].alloc(_PAYLOAD.size)

    def program(env: CoreEnv) -> Generator:
        # BUG: both ranks write the same slot with no flag edge between
        # them; only the sleep offsets pick a winner.
        if env.rank == 0:
            yield from put_bytes(env, region, _PAYLOAD)
        else:
            yield from env.sleep(_NEAR_PS)
            yield from put_bytes(env, region, _PAYLOAD[::-1].copy())
    return program


def _unsynced_read(machine: Machine):
    region = machine.mpbs[1].alloc(_PAYLOAD.size)

    def program(env: CoreEnv) -> Generator:
        if env.rank == 1:
            yield from put_bytes(env, region, _PAYLOAD)
        else:
            # BUG: no flag anywhere — the read lands after the write
            # purely because of the sleep.
            yield from env.sleep(_RACE_GAP_PS)
            yield from get_bytes(env, region, _PAYLOAD.size)
    return program


def _skipped_flag_wait(machine: Machine):
    region = machine.mpbs[1].alloc(_PAYLOAD.size)
    init = machine.flag(1, "fx.init")
    sent = machine.flag(1, "fx.sent")

    def program(env: CoreEnv) -> Generator:
        if env.rank == 1:
            yield from init.set_by(env.core)
            yield from put_bytes(env, region, _PAYLOAD)
            yield from sent.set_by(env.core)
        else:
            yield from init.wait_set(env.core)
            yield from env.sleep(_RACE_GAP_PS)
            # BUG: skips the sent wait — a publishing flag edge exists,
            # the reader just never acquires it.
            yield from get_bytes(env, region, _PAYLOAD.size)
    return program


def _flag_race_set_set(machine: Machine):
    go = machine.flag(0, "fx.go")

    def program(env: CoreEnv) -> Generator:
        # BUG: two unsynchronized setters; either transition can be the
        # one that survives.
        if env.rank == 1:
            yield from env.sleep(_NEAR_PS)
        yield from go.set_by(env.core)
    return program


def _flag_race_set_clear(machine: Machine):
    ack = machine.flag(0, "fx.ack")

    def program(env: CoreEnv) -> Generator:
        if env.rank == 0:
            yield from ack.set_by(env.core)
        else:
            yield from env.sleep(_NEAR_PS)
            # BUG: clears a signal it never observed being raised — in
            # the other order the set is silently lost.
            yield from ack.clear_by(env.core)
    return program


def _alloc_without_ack(machine: Machine):
    region = machine.mpbs[0].alloc(_PAYLOAD.size)

    def program(env: CoreEnv) -> Generator:
        if env.rank == 1:
            yield from put_bytes(env, region, _PAYLOAD)
        else:
            yield from env.sleep(_ALLOC_GAP_PS)
            # BUG: recycles the slot without any completed handshake
            # ordering it after the peer's write.
            mpb = env.my_mpb()
            mpb.reset_alloc()
            mpb.alloc(_PAYLOAD.size)
    return program


#: Known-racy schedules and the race rule each must trigger (one fixture
#: per rule of :data:`repro.analysis.races.RULES`).
RACE_FIXTURES: tuple[Fixture, ...] = (
    Fixture("flag-before-payload", ("race-guarded-payload",),
            _flag_before_payload),
    Fixture("missing-consume-ack", ("race-mpb-rw",), _missing_consume_ack),
    Fixture("unordered-write-write", ("race-mpb-ww",),
            _unordered_write_write),
    Fixture("unsynced-read", ("race-latency-coincidence",), _unsynced_read),
    Fixture("skipped-flag-wait", ("race-mpb-wr",), _skipped_flag_wait),
    Fixture("flag-race-set-set", ("race-flag-set-set",), _flag_race_set_set),
    Fixture("flag-race-set-clear", ("race-flag-set-clear",),
            _flag_race_set_clear),
    Fixture("alloc-without-ack", ("race-alloc-unordered",),
            _alloc_without_ack),
)


def race_fixture(name: str) -> Fixture:
    for fx in RACE_FIXTURES:
        if fx.name == name:
            return fx
    raise KeyError(f"no race fixture named {name!r}; "
                   f"have {[f.name for f in RACE_FIXTURES]}")


def race_fixture_scenario(fx: Fixture) -> "Scenario":
    """The fixture as an explorer :class:`~repro.analysis.races.Scenario`."""
    from repro.analysis.races import Scenario

    return Scenario(fx.name, partial(_run, fx))


def run_race_fixture(fx: Fixture) -> "RaceDetector":
    """Run one racy fixture under a fresh machine + race detector."""
    from repro.analysis.races import RaceDetector

    detector = RaceDetector()
    _run(fx, _injector(fx) + [detector])
    return detector
