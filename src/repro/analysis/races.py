"""Vector-clock happens-before race detection for the MPB flag protocol.

The runtime sanitizer (:mod:`repro.analysis.sanitizer`) judges the *one*
interleaving the latency model happens to produce: it knows what each
byte's protocol state was when an access arrived, but not whether that
state was guaranteed or coincidental.  This module reasons about *all*
legal orderings of a run.  It threads a vector-clock happens-before
relation through the sim's synchronization events —

* **core-local program order**: every timed access on a core is ordered
  after the core's previous timed accesses (all of a core's processes
  serialize through its CPU lock);
* **flag release/acquire**: a timed flag write *releases* — the writer's
  clock joins the flag's clock; a completed flag wait *acquires* — the
  flag's clock joins the waiter's.  Release sequences are cumulative
  (RCCE flags are reused across chunks, calls and barriers, and a waiter
  synchronizes with every release that precedes the one it observes);
* **MPB publish/consume**: payload bytes carry their last writer's clock
  (a FastTrack-style epoch), reads are kept as pruned interval lists.

Two conflicting MPB/flag accesses that happen-before does *not* order are
**candidate races**: the observed execution put them in some order, but
only latency coincidence — not the flag protocol — did.  Candidates are
reported through a sanitizer-style diagnostic catalogue (:data:`RULES`)
carrying virtual time, both endpoints, the round and the actor's span
stack.

Candidates are then handed to the **adversarial interleaving explorer**:
a deterministic scheduler-perturbation loop that re-executes the same
program under bounded timing permutations (the fault injector's mesh
jitter / congestion / flag staleness / core stalls, with every
protocol-altering knob off) and watches each candidate's endpoint order.
A candidate whose endpoints *actually reorder* under some perturbation is
a **confirmed** race — a real alternative execution, not a modeling
artifact; a candidate that keeps its order through the whole budget is
classified **benign** (ordered by construction the analysis cannot see,
or by timing margins wider than the perturbation budget).

Design rules carried over from the sanitizer and the fault injector:

* **Zero overhead off.**  The detector attaches through the existing
  ``machine.san`` hook slot; no new hardware hook sites exist, so an
  uninstrumented run is bit-identical with the subsystem absent.
* **Pure observation on.**  The detector never consumes simulated time;
  instrumented runs keep bit-identical virtual time
  (``tests/analysis/test_races.py`` asserts both directions).
* **Determinism.**  The explorer's perturbation plans are a fixed,
  seeded list; a whole exploration is a pure function of the scenario.

Run ``python -m repro race`` for detection over the collective stacks,
``--fixtures`` for the known-racy catalogue, ``--gate`` for the clean
gate (all kinds x stacks x p in {2, 47, 48} plus the synthesized winners
of ``selection_table.json``).  See docs/static-analysis.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Iterable, NamedTuple,
                    Optional, Sequence)

import numpy as np

from repro.analysis.monitor import Monitor, uniform
from repro.faults import FaultInjector, FaultPlan
from repro.faults.errors import FaultError
from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.flags import Flag
    from repro.hw.machine import Machine
    from repro.hw.mpb import MPB


# ---------------------------------------------------------------------- #
# Vector-clock algebra (pure helpers; property-tested in
# tests/analysis/test_races.py).  A clock is a 1-D int64 array indexed by
# core id; component c counts core c's timed synchronization-relevant
# operations.
# ---------------------------------------------------------------------- #
def vc_zero(num_cores: int) -> np.ndarray:
    """The bottom element: no knowledge of any core."""
    return np.zeros(num_cores, dtype=np.int64)


def vc_join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least upper bound (component-wise max); returns a fresh clock."""
    return np.maximum(a, b)


def vc_leq(a: np.ndarray, b: np.ndarray) -> bool:
    """Partial order: ``a`` happens-before-or-equals ``b``."""
    return bool(np.all(a <= b))


def vc_concurrent(a: np.ndarray, b: np.ndarray) -> bool:
    """Neither clock is ordered before the other."""
    return not vc_leq(a, b) and not vc_leq(b, a)


#: Race-diagnostic rule identifiers (catalogue in docs/static-analysis.md).
RULES = (
    "race-mpb-ww",
    "race-mpb-wr",
    "race-mpb-rw",
    "race-flag-set-set",
    "race-flag-set-clear",
    "race-guarded-payload",
    "race-latency-coincidence",
    "race-alloc-unordered",
)


class Access(NamedTuple):
    """One endpoint of a candidate race."""

    core: int       #: acting core
    clock: int      #: the core's own clock component at the access
    op: str         #: "write" | "read" | "set" | "clear" | "alloc"
    time_ps: int    #: virtual time the access was observed at

    def __str__(self) -> str:
        return f"core{self.core}.{self.op}@{self.time_ps}ps(c{self.clock})"


@dataclass(frozen=True)
class RaceDiagnostic:
    """One candidate race: two conflicting accesses unordered by HB.

    ``first`` is the endpoint that was observed earlier in virtual time,
    ``second`` the later one (the access whose hook detected the race).
    """

    time_ps: int
    rule: str
    owner: int                  #: core owning the MPB / flag
    first: Access
    second: Access
    offset: Optional[int] = None
    nbytes: Optional[int] = None
    flag: Optional[str] = None
    round: Any = None           #: innermost active ``round`` span detail
    spans: tuple = ()           #: detecting actor's span names, outermost first
    message: str = ""

    def key(self) -> tuple:
        """Cross-run identity of the race.

        Order-agnostic and rule-agnostic: when a perturbed execution
        reverses the endpoints, the detecting access (and therefore the
        reported rule) flips too, but the location and the (core, op)
        endpoint set stay fixed.
        """
        where = (("flag", self.owner, self.flag) if self.flag is not None
                 else ("mpb", self.owner, self.offset))
        ends = tuple(sorted(((self.first.core, self.first.op),
                             (self.second.core, self.second.op))))
        return where + ends

    def orientation(self) -> tuple[int, str]:
        """Which endpoint came first in this execution."""
        return (self.first.core, self.first.op)

    def __str__(self) -> str:
        where = (f"flag[{self.owner}].{self.flag}" if self.flag is not None
                 else f"mpb[{self.owner}]"
                 + (f"[{self.offset}:{self.offset + (self.nbytes or 0)}]"
                    if self.offset is not None else ""))
        ctx = ">".join(self.spans) or "-"
        rnd = f" round={self.round}" if self.round is not None else ""
        return (f"[{self.time_ps:>12d}ps] {self.rule}: {self.first} || "
                f"{self.second} @ {where}{rnd} span={ctx}: {self.message}")


class RaceError(AssertionError):
    """Raised by :meth:`RaceDetector.assert_clean` when candidates exist."""

    def __init__(self, diagnostics: list[RaceDiagnostic]):
        self.diagnostics = diagnostics
        shown = "\n".join(str(d) for d in diagnostics[:20])
        more = (f"\n... and {len(diagnostics) - 20} more"
                if len(diagnostics) > 20 else "")
        super().__init__(
            f"race detector found {len(diagnostics)} candidate(s):\n"
            f"{shown}{more}")


@dataclass
class _FlagState:
    """HB state of one synchronization flag."""

    vc: np.ndarray                   #: cumulative release clock
    last: Optional[Access] = None    #: last timed write endpoint


class _MPBState:
    """Per-MPB conflict shadow: last-writer epochs + pending reads."""

    __slots__ = ("write_core", "write_clock", "write_time", "reads")

    def __init__(self, size: int):
        self.write_core = np.full(size, -1, dtype=np.int16)
        self.write_clock = np.zeros(size, dtype=np.int64)
        self.write_time = np.zeros(size, dtype=np.int64)
        #: Unretired read intervals: (start, end, core, clock, time_ps).
        #: A read is retired by the next overlapping write — the write is
        #: either ordered after it (HB transitivity then orders every
        #: later access that is ordered after the write) or reported.
        self.reads: list[tuple[int, int, int, int, int]] = []


class RaceDetector(Monitor):
    """Happens-before tracker attachable to one :class:`Machine`.

    Usage::

        det = RaceDetector().install(machine)
        machine.run_spmd(program)
        det.assert_clean()          # or inspect det.diagnostics

    Implements the same hook interface as the sanitizer and attaches
    through the same ``machine.san`` slot (one monitor at a time), so
    every existing hook site feeds it and no new hardware code exists.
    """

    error = RaceError

    def __init__(self, max_diagnostics: int = 1000):
        super().__init__(max_diagnostics)
        #: One int64 clock per core: the rows of a (cores, cores) matrix,
        #: split once so a hook indexes a list instead of slicing.
        self._rows: list[np.ndarray] = []
        #: ``_rows[c][c]`` mirrored as a Python int (only core c's ticks
        #: move it; a join never does), so ticking and stamping an
        #: access need no numpy scalar arithmetic.
        self._own: list[int] = []
        #: Each core's own clock at its most recent flag release; a write
        #: with a larger clock has never been published.
        self._last_release: list[int] = []
        self._flags: dict[tuple[int, str], _FlagState] = {}
        self._mpbs: dict[int, _MPBState] = {}

    def install(self, machine: "Machine") -> "RaceDetector":
        super().install(machine)
        n = machine.num_cores
        self._rows = list(np.zeros((n, n), dtype=np.int64))
        self._own = [0] * n
        self._last_release = [0] * n
        for mpb in machine.mpbs:
            self._mpbs[mpb.core_id] = _MPBState(mpb.size)
        return self

    def clock_of(self, core: int) -> np.ndarray:
        """A copy of ``core``'s current vector clock (for tests)."""
        return self._rows[core].copy()

    # -- reporting -------------------------------------------------------
    def _report(self, rule: str, owner: int, first: Access, second: Access,
                **where: Any) -> None:
        """Log a candidate; ``where``: offset, nbytes, flag, message."""
        self._record(second.core, RaceDiagnostic, rule=rule, owner=owner,
                     first=first, second=second, **where)

    def candidates(self) -> dict[tuple, RaceDiagnostic]:
        """Stored diagnostics deduplicated by cross-run :meth:`~RaceDiagnostic.key`."""
        out: dict[tuple, RaceDiagnostic] = {}
        for d in self.diagnostics:
            out.setdefault(d.key(), d)
        return out

    # -- clock plumbing --------------------------------------------------
    def _tick(self, core: int) -> int:
        clk = self._own[core] = self._own[core] + 1
        self._rows[core][core] = clk
        return clk

    def _unordered_writes(self, shadow: _MPBState, offset: int, end: int,
                          core: int) -> Optional[np.ndarray]:
        """Which bytes of ``[offset, end)`` were last written by another
        core with no happens-before edge to ``core``'s clock: a boolean
        mask over the interval, or ``None`` when every byte is ordered.

        An interval holding one writer epoch — the usual case, a slot
        written in one burst — is decided on two scalars.
        """
        wc = shadow.write_core[offset:end]
        wk = shadow.write_clock[offset:end]
        row = self._rows[core]
        writer = uniform(wc)
        if writer is not None:
            if writer < 0 or writer == core:
                return None
            clock = uniform(wk)
            if clock is not None and clock <= row.item(writer):
                return None
        mask = (wc >= 0) & (wc != core)
        if not mask.any():
            return None
        racy = np.zeros(mask.shape, dtype=bool)
        racy[mask] = wk[mask] > row[wc[mask]]
        return racy if racy.any() else None

    # -- MPB hooks -------------------------------------------------------
    def on_oob(self, mpb: "MPB", kind: str, offset: int,
               nbytes: int) -> None:
        """Out-of-bounds accesses are the sanitizer's domain; the access
        raises :class:`~repro.hw.mpb.MPBError` and moves no bytes, so it
        cannot participate in a race."""

    def on_write(self, mpb: "MPB", offset: int, nbytes: int,
                 actor: Optional[int]) -> None:
        if nbytes <= 0:
            return
        shadow = self._mpbs[mpb.core_id]
        end = offset + nbytes
        if actor is None:
            # Untimed setup write: it resets the conflict state — setup
            # data is not protocol traffic and must not seed races.
            shadow.write_core[offset:end] = -1
            shadow.reads = _prune_reads(shadow.reads, offset, end)
            return
        clk = self._tick(actor)
        now = self._now()
        # W/W: overlapping bytes last written by another core, unordered.
        racy = self._unordered_writes(shadow, offset, end, actor)
        if racy is not None:
            i = offset + int(np.flatnonzero(racy)[0])
            writer = int(shadow.write_core[i])
            count = int(np.count_nonzero(racy))
            first = Access(writer, int(shadow.write_clock[i]), "write",
                           int(shadow.write_time[i]))
            second = Access(actor, clk, "write", now)
            self._report(
                "race-mpb-ww", mpb.core_id, first, second,
                offset=i, nbytes=count,
                message=f"{count} B written by core {writer} with no "
                        "happens-before edge to this overwrite")
        # R/W: an unretired read by another core, unordered with us.
        row = self._rows[actor]
        for (s, t, rcore, rclk, rtime) in shadow.reads:
            if t <= offset or s >= end or rcore == actor:
                continue
            if rclk > row.item(rcore):
                first = Access(rcore, rclk, "read", rtime)
                second = Access(actor, clk, "write", now)
                self._report(
                    "race-mpb-rw", mpb.core_id, first, second,
                    offset=max(s, offset),
                    nbytes=min(t, end) - max(s, offset),
                    message=f"overwrites bytes core {rcore} read with no "
                            "happens-before edge from the read (missing "
                            "consume acknowledgement?)")
        shadow.write_core[offset:end] = actor
        shadow.write_clock[offset:end] = clk
        shadow.write_time[offset:end] = now
        shadow.reads = _prune_reads(shadow.reads, offset, end)

    def on_read(self, mpb: "MPB", offset: int, nbytes: int,
                actor: Optional[int]) -> None:
        if nbytes <= 0 or actor is None:
            return
        shadow = self._mpbs[mpb.core_id]
        end = offset + nbytes
        clk = self._tick(actor)
        now = self._now()
        racy = self._unordered_writes(shadow, offset, end, actor)
        if racy is not None:
            i = offset + int(np.flatnonzero(racy)[0])
            writer = int(shadow.write_core[i])
            wclk = int(shadow.write_clock[i])
            first = Access(writer, wclk, "write", int(shadow.write_time[i]))
            second = Access(actor, clk, "read", now)
            count = int(np.count_nonzero(racy))
            if self._rows[actor].item(writer) == 0:
                rule = "race-latency-coincidence"
                msg = (f"{count} B from core {writer} with no "
                       "synchronization path at all between reader "
                       "and writer; the observed order is pure "
                       "latency coincidence")
            elif self._last_release[writer] < wclk:
                rule = "race-guarded-payload"
                msg = (f"{count} B written by core {writer} after "
                       "its last flag release — the guard flag was "
                       "raised before the payload it guards")
            else:
                rule = "race-mpb-wr"
                msg = (f"{count} B published by core {writer} "
                       "through a flag edge the reader never "
                       "acquired")
            self._report(rule, mpb.core_id, first, second,
                         offset=i, nbytes=count, message=msg)
        shadow.reads.append((offset, end, actor, clk, now))

    def on_alloc(self, mpb: "MPB", offset: int, nbytes: int) -> None:
        """Slot allocation, attributed to the MPB owner (the stacks only
        ever allocate in their own MPB).  Covering bytes another core
        wrote or read without a happens-before edge to the owner means
        the slot is being recycled under a peer still using it."""
        if not self._rows:
            return
        owner = mpb.core_id
        shadow = self._mpbs[owner]
        end = offset + nbytes
        now = self._now()
        racy = self._unordered_writes(shadow, offset, end, owner)
        if racy is not None:
            i = offset + int(np.flatnonzero(racy)[0])
            writer = int(shadow.write_core[i])
            first = Access(writer, int(shadow.write_clock[i]), "write",
                           int(shadow.write_time[i]))
            second = Access(owner, self._own[owner], "alloc", now)
            self._report(
                "race-alloc-unordered", owner, first, second,
                offset=i, nbytes=int(np.count_nonzero(racy)),
                message=f"allocation covers bytes core {writer} "
                        "wrote with no happens-before edge to the "
                        "owner (slot reuse without a completed "
                        "handshake)")
        row = self._rows[owner]
        for (s, t, rcore, rclk, rtime) in shadow.reads:
            if t <= offset or s >= end or rcore == owner:
                continue
            if rclk > row.item(rcore):
                first = Access(rcore, rclk, "read", rtime)
                second = Access(owner, self._own[owner], "alloc", now)
                self._report(
                    "race-alloc-unordered", owner, first, second,
                    offset=max(s, offset), nbytes=min(t, end) - max(s, offset),
                    message=f"allocation covers bytes core {rcore} read "
                            "with no happens-before edge to the owner")

    def on_reset_alloc(self, mpb: "MPB") -> None:
        """Allocator rewind alone moves no bytes; conflicts surface at
        the next :meth:`on_alloc` over still-live data."""

    def on_clear(self, mpb: "MPB") -> None:
        """``MPB.clear`` is setup: wipe the conflict shadow."""
        shadow = self._mpbs[mpb.core_id]
        shadow.write_core[:] = -1
        shadow.reads.clear()

    def on_corrupt(self, mpb: "MPB", offset: int) -> None:
        """Injected corruption is untimed and unattributed — data
        integrity is the sanitizer's and the checksums' domain."""

    # -- flag hooks ------------------------------------------------------
    def _flag_state(self, flag: "Flag") -> _FlagState:
        key = (flag.owner, flag.name)
        state = self._flags.get(key)
        if state is None:
            state = self._flags[key] = _FlagState(
                vc=vc_zero(self.machine.num_cores))
        return state

    def on_flag_write(self, flag: "Flag", level: bool, actor: int) -> None:
        """A timed flag write: a release, and itself a checked access."""
        state = self._flag_state(flag)
        clk = self._tick(actor)
        now = self._now()
        row = self._rows[actor]
        last = state.last
        if (last is not None and last.core != actor
                and last.clock > row.item(last.core)):
            op = "set" if level else "clear"
            rule = ("race-flag-set-set" if level and last.op == "set"
                    else "race-flag-set-clear")
            self._report(
                rule, flag.owner, last, Access(actor, clk, op, now),
                flag=flag.name,
                message=f"flag {op} with no happens-before edge from "
                        f"core {last.core}'s {last.op} — one of the two "
                        "transitions can be lost")
        state.last = Access(actor, clk, "set" if level else "clear", now)
        np.maximum(state.vc, row, out=state.vc)
        self._last_release[actor] = clk

    def on_flag_observed(self, flag: "Flag", level: bool,
                         actor: int) -> None:
        """A completed wait: the waiter acquires the flag's clock."""
        state = self._flags.get((flag.owner, flag.name))
        if state is not None:
            row = self._rows[actor]
            np.maximum(row, state.vc, out=row)

    def on_flag_force(self, flag: "Flag", level: bool,
                      actor: Optional[int] = None) -> None:
        """Untimed flag write.

        With an ``actor`` it is an attributed bookkeeping release (the
        announcement channel models its flag write as part of an already
        charged access): the actor's clock joins the flag, but no
        endpoint is recorded — announcement forces are modeled as atomic
        and must not race each other.  Without an actor it is setup and
        resets the endpoint tracking.
        """
        state = self._flag_state(flag)
        state.last = None
        if actor is not None:
            clk = self._tick(actor)
            np.maximum(state.vc, self._rows[actor], out=state.vc)
            self._last_release[actor] = clk


def _prune_reads(reads: list[tuple[int, int, int, int, int]],
                 offset: int, end: int) -> list:
    """Retire the [offset, end) portion of every read interval."""
    out = []
    for iv in reads:
        s, t, core, clk, time_ps = iv
        if t <= offset or s >= end:
            out.append(iv)
            continue
        if s < offset:
            out.append((s, offset, core, clk, time_ps))
        if t > end:
            out.append((end, t, core, clk, time_ps))
    return out


# ---------------------------------------------------------------------- #
# Adversarial interleaving explorer
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scenario:
    """A re-executable program: ``run(observers)`` builds a fresh machine,
    installs ``observers`` on it in order and executes the same program
    (determinism makes re-execution a pure function of the scenario plus
    the perturbation plan)."""

    name: str
    run: Callable[[Sequence], Any]


@dataclass(frozen=True)
class RaceVerdict:
    """Explorer classification of one candidate race."""

    key: tuple
    rule: str                       #: rule reported by the baseline run
    baseline: RaceDiagnostic
    confirmed: bool
    witness: Optional[RaceDiagnostic] = None   #: reordered-run diagnostic
    perturbation: Optional[str] = None         #: plan label that confirmed

    def __str__(self) -> str:
        if self.confirmed:
            return (f"CONFIRMED {self.rule} under {self.perturbation}: "
                    f"{self.baseline.first} reordered to run after "
                    f"{self.baseline.second}")
        return f"benign    {self.rule}: order held under every perturbation"


@dataclass
class ExplorationReport:
    """Outcome of exploring one scenario."""

    scenario: str
    verdicts: list[RaceVerdict]
    runs: int                       #: perturbed executions performed
    failures: int = 0               #: perturbed runs that raised (deadlock
    #: or watchdog) — their diagnostics are still harvested

    @property
    def confirmed(self) -> list[RaceVerdict]:
        return [v for v in self.verdicts if v.confirmed]

    @property
    def benign(self) -> list[RaceVerdict]:
        return [v for v in self.verdicts if not v.confirmed]


def perturbation_plans(seeds: Iterable[int] = (1, 2, 3),
                       ) -> list[tuple[str, FaultPlan]]:
    """The bounded, escalating timing-permutation budget.

    Every plan keeps ``checksums=False`` and all protocol-altering
    probabilities (drops, corruption) at zero: the perturbed run executes
    the *same* protocol bodies with the same data — only the interleaving
    moves.  Three escalation levels per seed: local mesh jitter, heavy
    jitter plus port congestion, and the full budget with flag-staleness
    and core stalls (the largest single shifts, ~microseconds).
    """
    levels = (
        ("jitter", dict(mesh_jitter_prob=0.5, mesh_jitter_max_cycles=64)),
        ("jitter+congestion", dict(mesh_jitter_prob=1.0,
                                   mesh_jitter_max_cycles=512,
                                   congestion_prob=0.25)),
        ("jitter+stale+stall", dict(mesh_jitter_prob=1.0,
                                    mesh_jitter_max_cycles=512,
                                    congestion_prob=0.25,
                                    flag_stale_prob=0.5,
                                    core_stall_prob=0.5)),
    )
    plans = []
    for label, kwargs in levels:
        for seed in seeds:
            plans.append((f"{label}#s{seed}",
                          FaultPlan(seed=seed, checksums=False, **kwargs)))
    return plans


def run_detected(scenario: Scenario, plan: Optional[FaultPlan] = None,
                 ) -> tuple[RaceDetector, Optional[str]]:
    """Execute ``scenario`` on a fresh machine under the race detector.

    Returns ``(detector, failure)``; ``failure`` names the exception when
    the (perturbed) run deadlocked, tripped the watchdog or raised a
    fault error — the diagnostics gathered up to that point are still
    valid observations of the partial execution.
    """
    detector = RaceDetector()
    injector = [FaultInjector(plan)] if plan is not None else []
    try:
        scenario.run(injector + [detector])
    except (SimulationError, FaultError) as err:
        return detector, type(err).__name__
    return detector, None


def explore(scenario: Scenario, seeds: Iterable[int] = (1, 2, 3),
            baseline: Optional[RaceDetector] = None) -> ExplorationReport:
    """Classify every candidate race of ``scenario`` as confirmed/benign.

    ``baseline`` reuses an existing unperturbed detection run (the gate
    runs detection first and only explores scenarios with candidates).
    A candidate is *confirmed* the moment any perturbed execution reports
    the same race key with the opposite endpoint orientation — i.e. the
    two accesses actually happened in the other order in a legal
    execution.  Candidates that keep their orientation through the whole
    budget are *benign*.
    """
    if baseline is None:
        baseline, _failure = run_detected(scenario)
    candidates = baseline.candidates()
    if not candidates:
        return ExplorationReport(scenario.name, [], 0)
    confirmed: dict[tuple, tuple[str, RaceDiagnostic]] = {}
    runs = 0
    failures = 0
    for label, plan in perturbation_plans(seeds):
        if len(confirmed) == len(candidates):
            break
        detector, failure = run_detected(scenario, plan)
        runs += 1
        if failure is not None:
            failures += 1
        for diag in detector.diagnostics:
            key = diag.key()
            base = candidates.get(key)
            if (base is not None and key not in confirmed
                    and diag.orientation() != base.orientation()):
                confirmed[key] = (label, diag)
    verdicts = []
    for key, base in candidates.items():
        hit = confirmed.get(key)
        verdicts.append(RaceVerdict(
            key=key, rule=base.rule, baseline=base, confirmed=hit is not None,
            witness=hit[1] if hit else None,
            perturbation=hit[0] if hit else None))
    return ExplorationReport(scenario.name, verdicts, runs, failures)


# ---------------------------------------------------------------------- #
# Clean gate: detection (+ exploration of any candidates) across the
# collective repertoire.
# ---------------------------------------------------------------------- #
@dataclass
class GateEntry:
    """One scenario's outcome in the clean gate."""

    scenario: str
    candidates: int
    report: Optional[ExplorationReport]   #: None when detection was clean

    @property
    def confirmed(self) -> int:
        return len(self.report.confirmed) if self.report else 0


@dataclass
class GateReport:
    """Aggregate clean-gate outcome."""

    entries: list[GateEntry]

    @property
    def scenarios(self) -> int:
        return len(self.entries)

    @property
    def candidates(self) -> int:
        return sum(e.candidates for e in self.entries)

    @property
    def confirmed(self) -> int:
        return sum(e.confirmed for e in self.entries)

    @property
    def clean(self) -> bool:
        return self.confirmed == 0


def collective_scenario(kind: str, stack: str, cores: int, size: int,
                        algo: Optional[str] = None,
                        seed: int = 20120901) -> Scenario:
    """One collective call as an explorer scenario (fresh machine,
    fresh communicator, seeded inputs — bit-reproducible)."""
    from repro.bench.runner import launch_collective

    label = f"{kind}/{stack}" + (f"[{algo}]" if algo else "") \
        + f" p={cores} n={size}"
    return Scenario(label, lambda observers: launch_collective(
        kind, stack, size, cores=cores, algo=algo, seed=seed,
        observers=observers))


def synth_winner_scenarios(stack: str = "lightweight_balanced",
                           limit: Optional[int] = None) -> list[Scenario]:
    """One scenario per unique synthesized winner in the committed
    selection table, run at the largest rank count it won at (and the
    smallest winning size there, to bound the gate's cost)."""
    import json

    from repro.sched.select import default_table_path

    table = json.loads(default_table_path().read_text())
    best: dict[tuple[str, str], tuple[int, int]] = {}
    for kind, rows in table.get("entries", {}).items():
        for p, n, algo in rows:
            if "synth/" not in algo:
                continue
            # One scenario per algorithm, however the table spells it.
            algo = algo.removeprefix("sched:")
            prev = best.get((kind, algo))
            if prev is None or (p, -n) > (prev[0], -prev[1]):
                best[(kind, algo)] = (int(p), int(n))
    scenarios = [collective_scenario(kind, stack, p, n, algo=algo)
                 for (kind, algo), (p, n) in sorted(best.items())]
    return scenarios[:limit] if limit is not None else scenarios


def run_gate(kinds: Iterable[str], stacks: Iterable[str],
             cores: Iterable[int] = (2, 47, 48), size: int = 96,
             seeds: Iterable[int] = (1, 2, 3), include_synth: bool = True,
             synth_limit: Optional[int] = None,
             progress: Optional[Callable[[str], None]] = None) -> GateReport:
    """Detection across kinds x stacks x rank counts (plus the synth
    winners); any scenario with candidates goes through the explorer."""
    scenarios = [collective_scenario(kind, stack, p, size)
                 for kind in kinds for stack in stacks for p in cores]
    if include_synth:
        scenarios.extend(synth_winner_scenarios(limit=synth_limit))
    entries = []
    for scenario in scenarios:
        detector, failure = run_detected(scenario)
        candidates = detector.candidates()
        if failure is not None and progress is not None:
            progress(f"{scenario.name}: baseline raised {failure}")
        if not candidates:
            entries.append(GateEntry(scenario.name, 0, None))
            if progress is not None:
                progress(f"{scenario.name}: clean")
            continue
        report = explore(scenario, seeds=seeds, baseline=detector)
        entries.append(GateEntry(scenario.name, len(candidates), report))
        if progress is not None:
            progress(f"{scenario.name}: {len(candidates)} candidate(s), "
                     f"{len(report.confirmed)} confirmed, "
                     f"{len(report.benign)} benign "
                     f"({report.runs} perturbed runs)")
    return GateReport(entries)
