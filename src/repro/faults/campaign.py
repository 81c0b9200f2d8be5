"""Randomized chaos campaigns: collectives × stacks under injected faults.

A *trial* runs one collective on one stack on a fresh machine with a
seeded :class:`~repro.faults.injector.FaultInjector` installed, then
classifies the outcome:

* ``ok`` — completed and every rank's result is bit-identical to the
  NumPy ground truth,
* ``fault`` / ``watchdog`` / ``deadlock`` — terminated with the typed
  error the hardening layers promise (retry budget exhausted, virtual
  time budget exceeded, heap drained),
* ``wrong`` — completed with corrupted results (a hardening bug: the
  soak test asserts this never happens),
* ``error`` — any other exception (also a bug).

A *campaign* sweeps kinds × stacks × seeds and renders the per-stack
survival/correctness table behind ``python -m repro chaos``.

GCMC trials (``python -m repro chaos --app gcmc``) put the whole
application under the same fault regimes and classify with the
statistical envelope instead of bit-exact comparison: a completed run
whose observables fall outside the stored PCA envelope
(:mod:`repro.ensemble`) is ``statistically-wrong`` — the outcome a
silent payload corruption produces when the hardening that should have
caught it (checksums) is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

import numpy as np

from repro.bench.runner import KINDS, collective_call
from repro.core.ops import SUM, ReduceOp
from repro.core.registry import STACKS, launch
from repro.faults.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw.config import SCCConfig
from repro.sim.clock import ps_to_us, us_to_ps
from repro.sim.errors import DeadlockError, WatchdogTimeout
from repro.sim.trace import Tracer
from repro.util.tables import format_table

#: Collective kinds a campaign can drive (the bench runner's set).
CHAOS_KINDS = KINDS

#: Named fault regimes.  ``light`` is the fast default behind the
#: ``chaos`` pytest marker; ``heavy`` adds congestion, aggressive rates
#: and a mid-run arbiter-erratum toggle.
CHAOS_PROFILES: dict[str, FaultPlan] = {
    "off": FaultPlan(),
    "light": FaultPlan(
        mesh_jitter_prob=0.05, mesh_jitter_max_cycles=32,
        flag_drop_prob=0.01, flag_stale_prob=0.03, flag_stale_cycles=2000,
        payload_corrupt_prob=0.005, core_stall_prob=0.01,
        core_stall_cycles=2000, mpb_fault_epoch_prob=0.3,
        mpb_fallback_threshold=2),
    "default": FaultPlan(
        mesh_jitter_prob=0.15, mesh_jitter_max_cycles=64,
        congestion_prob=0.02, congestion_cycles=512,
        flag_drop_prob=0.03, flag_stale_prob=0.08, flag_stale_cycles=3000,
        payload_corrupt_prob=0.02, core_stall_prob=0.03,
        core_stall_cycles=5000, mpb_fault_epoch_prob=0.5,
        mpb_fallback_threshold=2),
    "heavy": FaultPlan(
        mesh_jitter_prob=0.3, mesh_jitter_max_cycles=128,
        congestion_prob=0.05, congestion_cycles=1024,
        flag_drop_prob=0.08, flag_stale_prob=0.15, flag_stale_cycles=5000,
        payload_corrupt_prob=0.05, core_stall_prob=0.08,
        core_stall_cycles=8000, mpb_fault_epoch_prob=0.7,
        mpb_fallback_threshold=1, erratum_toggle_at_ps=20_000_000),
}

#: Outcomes that mean "the stack survived the faults as promised".
SURVIVAL_OUTCOMES = ("ok", "fault", "watchdog", "deadlock")

#: Outcome of a GCMC trial that completed but whose observables fall
#: outside the ensemble envelope — the failure mode bit-exact checking
#: cannot express for a chaotic application.
STAT_WRONG = "statistically-wrong"

#: Fixed survival-table column order; outcomes outside this list are
#: appended alphabetically (so GCMC's ``statistically-wrong`` shows up
#: without collective-only campaigns paying an empty column).
_TABLE_OUTCOMES = ("ok", "fault", "watchdog", "deadlock", "wrong", "error")


@dataclass
class TrialResult:
    """Outcome of one chaos trial."""

    kind: str
    stack: str
    seed: int
    outcome: str
    detail: str = ""
    elapsed_us: float = 0.0
    fault_counts: dict[str, int] = field(default_factory=dict)
    records: list = field(default_factory=list)

    @property
    def survived(self) -> bool:
        return self.outcome in SURVIVAL_OUTCOMES


def _profile_plan(profile: str) -> FaultPlan:
    try:
        return CHAOS_PROFILES[profile]
    except KeyError:
        raise KeyError(f"unknown chaos profile {profile!r}; known: "
                       f"{sorted(CHAOS_PROFILES)}") from None


def _failure_outcome(exc: Exception) -> tuple[str, str]:
    """(outcome, detail) of a trial that raised: the typed errors the
    hardening layers promise, anything else is an ``error`` (a bug)."""
    if isinstance(exc, FaultError):
        return "fault", str(exc)
    if isinstance(exc, WatchdogTimeout):
        return "watchdog", str(exc)
    if isinstance(exc, DeadlockError):
        return "deadlock", str(exc)
    return "error", repr(exc)


def _check_results(kind: str, values: list, inputs: list[np.ndarray],
                   p: int) -> bool:
    """Bit-exact comparison of every rank's result with NumPy truth."""
    expected = np.sum(inputs, axis=0)
    if kind == "allreduce":
        return all(np.array_equal(v, expected) for v in values)
    if kind == "reduce":
        return (np.array_equal(values[0], expected)
                and all(v is None for v in values[1:]))
    if kind == "reduce_scatter":
        blocks = [v[0] for v in values]
        return np.array_equal(np.concatenate(blocks), expected)
    if kind == "allgather":
        return all(
            all(np.array_equal(v[s], inputs[s]) for s in range(p))
            for v in values)
    if kind == "alltoall":
        return all(
            all(np.array_equal(v[s], inputs[s]) for s in range(p))
            for v in values)
    if kind == "bcast":
        return all(np.array_equal(v, inputs[0]) for v in values)
    if kind == "barrier":
        return all(v is None for v in values)
    raise KeyError(f"unknown collective kind {kind!r}")


def run_trial(kind: str, stack: str, plan: FaultPlan, *,
              size: int = 64, cores: int = 6, iters: int = 1,
              watchdog_us: Optional[float] = 50_000.0,
              op: ReduceOp = SUM,
              config: Optional[SCCConfig] = None,
              trace: bool = False,
              data_seed: int = 20120901) -> TrialResult:
    """One seeded chaos trial on a fresh machine."""
    tracer = Tracer(enabled=trace)
    injector = FaultInjector(plan)
    machine, comm = launch(stack, cores, config=config, tracer=tracer,
                           observers=[injector])
    rng = np.random.default_rng(data_seed)
    # Small integers stored as float64: their sums are exact, so the
    # bit-exact comparison is independent of the reduction order (ring
    # vs recursive halving vs NumPy's pairwise summation).
    inputs = [rng.integers(-999, 1000, size=size).astype(np.float64)
              for _ in range(cores)]

    def program(env):
        # ``iters > 1`` repeats the call (same inputs, last result kept):
        # MPB Allreduce epochs accumulate across repeats, which lets the
        # graceful-degradation fallback trigger inside a single trial.
        result = None
        for _ in range(iters):
            result = yield from collective_call(kind, comm, env, inputs, op)
        return result

    watchdog_ps = us_to_ps(watchdog_us) if watchdog_us is not None else None
    try:
        result = machine.run_spmd(program, ranks=list(range(cores)),
                                  watchdog_ps=watchdog_ps)
    except Exception as exc:  # noqa: BLE001 - classified, not swallowed
        outcome, detail = _failure_outcome(exc)
        elapsed = machine.sim.now
    else:
        elapsed = result.elapsed_ps
        if _check_results(kind, result.values, inputs, cores):
            outcome, detail = "ok", ""
        else:
            outcome, detail = "wrong", "results differ from NumPy truth"
    return TrialResult(
        kind=kind, stack=stack, seed=plan.seed, outcome=outcome,
        detail=detail, elapsed_us=ps_to_us(elapsed),
        fault_counts=injector.summary(),
        records=list(tracer.records) if trace else [])


@dataclass
class CampaignResult:
    """All trials of one chaos campaign."""

    profile: str
    trials: list[TrialResult]

    def outcomes(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self.trials:
            counts[t.outcome] = counts.get(t.outcome, 0) + 1
        return dict(sorted(counts.items()))

    def fault_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for t in self.trials:
            for kind, n in t.fault_counts.items():
                totals[kind] = totals.get(kind, 0) + n
        return dict(sorted(totals.items()))

    def by_stack(self) -> dict[str, list[TrialResult]]:
        groups: dict[str, list[TrialResult]] = {}
        for t in self.trials:
            groups.setdefault(t.stack, []).append(t)
        return groups

    def survival_table(self) -> str:
        """The per-stack survival/correctness table."""
        extra = sorted({t.outcome for t in self.trials}
                       - set(_TABLE_OUTCOMES))
        outcomes = _TABLE_OUTCOMES[:-1] + tuple(extra) + ("error",)
        headers = (["stack", "trials"] + list(outcomes)
                   + ["correct %", "survival %"])
        rows: list[list[Any]] = []
        for stack, trials in sorted(self.by_stack().items()):
            n = len(trials)
            count = (lambda o: sum(1 for t in trials if t.outcome == o))
            ok = count("ok")
            survived = sum(1 for t in trials if t.survived)
            rows.append([stack, n] + [count(o) for o in outcomes]
                        + [100.0 * ok / n, 100.0 * survived / n])
        title = (f"chaos campaign ({self.profile!r} profile, "
                 f"{len(self.trials)} trials)")
        return title + "\n" + format_table(headers, rows)

    def failures(self) -> list[TrialResult]:
        """Trials that violated the hardening contract."""
        return [t for t in self.trials if not t.survived]


def run_campaign(*, profile: str = "light",
                 kinds: Sequence[str] = CHAOS_KINDS,
                 stacks: Sequence[str] = STACKS,
                 seeds: Sequence[int] = (1,),
                 size: int = 64, cores: int = 6, iters: int = 1,
                 watchdog_us: Optional[float] = 50_000.0,
                 config: Optional[SCCConfig] = None) -> CampaignResult:
    """Sweep kinds × stacks × seeds under one fault profile."""
    base = _profile_plan(profile)
    trials = []
    for kind in kinds:
        for stack in stacks:
            for seed in seeds:
                plan = replace(base, seed=seed)
                cfg = (config if config is not None
                       else SCCConfig()).copy()
                trials.append(run_trial(kind, stack, plan, size=size,
                                        cores=cores, iters=iters,
                                        watchdog_us=watchdog_us,
                                        config=cfg))
    return CampaignResult(profile=profile, trials=trials)


# --------------------------------------------------------------------- #
# GCMC application trials (statistical-envelope classification)
# --------------------------------------------------------------------- #

#: Default virtual-time budget for one GCMC chaos trial.  The envelope's
#: committed reference configuration simulates in the low hundreds of
#: milliseconds of virtual time; 2 s leaves room for fault-retry storms
#: while still catching livelock.
GCMC_WATCHDOG_US = 2_000_000.0

#: Default stacks for GCMC campaigns (one per protocol family — a full
#: application run is ~100x the cost of a single-collective trial).
GCMC_CHAOS_STACKS = ("blocking", "lightweight_balanced", "mpb")


def run_gcmc_trial(summary, plan: FaultPlan, *,
                   stack: str = "lightweight_balanced",
                   allreduce_algo: Optional[str] = None,
                   watchdog_us: Optional[float] = GCMC_WATCHDOG_US,
                   threshold: Optional[float] = None,
                   max_pc_fail: Optional[int] = None,
                   config: Optional[SCCConfig] = None) -> TrialResult:
    """One GCMC run under ``plan``, classified against the envelope.

    ``summary`` is an :class:`~repro.ensemble.summary.EnsembleSummary`;
    the trial runs its committed reference configuration (config, cycle
    count, rank count, block size all come from the summary's metadata,
    so the features are commensurable with the envelope).  Outcomes are
    the collective-trial ones plus :data:`STAT_WRONG` for runs that
    completed with observables outside the envelope.
    """
    from repro.apps.gcmc.driver import run_gcmc
    from repro.ensemble.features import extract_features
    from repro.ensemble.summary import (
        DEFAULT_MAX_PC_FAIL,
        DEFAULT_THRESHOLD,
    )

    threshold = DEFAULT_THRESHOLD if threshold is None else threshold
    max_pc_fail = DEFAULT_MAX_PC_FAIL if max_pc_fail is None else max_pc_fail
    cfg = summary.config()
    cycles = int(summary.meta["cycles"])
    cores = int(summary.meta["cores"])
    block = int(summary.meta["block_size"])
    injector = FaultInjector(plan)
    machine, comm = launch(
        stack, cores, config=config.copy() if config is not None else None,
        observers=[injector])
    watchdog_ps = us_to_ps(watchdog_us) if watchdog_us is not None else None
    try:
        result = run_gcmc(machine, comm, cfg, cycles,
                          ranks=list(range(cores)),
                          allreduce_algo=allreduce_algo,
                          watchdog_ps=watchdog_ps)
    except Exception as exc:  # noqa: BLE001 - classified, not swallowed
        outcome, detail = _failure_outcome(exc)
        elapsed = ps_to_us(machine.sim.now)
    else:
        elapsed = result.elapsed_us
        try:
            features = extract_features(result, block)
        except ValueError as exc:
            outcome, detail = STAT_WRONG, f"unusable observables: {exc}"
        else:
            check = summary.check(features, threshold=threshold,
                                  max_pc_fail=max_pc_fail,
                                  label=f"gcmc/{stack} seed={plan.seed}")
            if check.passed:
                outcome, detail = "ok", ""
            else:
                outcome = STAT_WRONG
                detail = (f"{check.n_failed} PC(s) outside "
                          f"|z| <= {threshold:g}: "
                          + "; ".join(
                              f"PC{i} z={check.z_scores[i]:+.1f}"
                              for i in check.failed_pcs[:4])
                          + ("".join(f"; {name} moved"
                                     for name in
                                     check.degenerate_failures[:4])))
    return TrialResult(kind="gcmc", stack=stack, seed=plan.seed,
                       outcome=outcome, detail=detail, elapsed_us=elapsed,
                       fault_counts=injector.summary())


def run_gcmc_campaign(summary, *, profile: str = "light",
                      stacks: Sequence[str] = GCMC_CHAOS_STACKS,
                      seeds: Sequence[int] = (1,),
                      watchdog_us: Optional[float] = GCMC_WATCHDOG_US,
                      threshold: Optional[float] = None,
                      max_pc_fail: Optional[int] = None,
                      config: Optional[SCCConfig] = None) -> CampaignResult:
    """Sweep stacks × seeds of full GCMC runs under one fault profile."""
    base = _profile_plan(profile)
    trials = [
        run_gcmc_trial(summary, replace(base, seed=seed), stack=stack,
                       watchdog_us=watchdog_us, threshold=threshold,
                       max_pc_fail=max_pc_fail, config=config)
        for stack in stacks
        for seed in seeds
    ]
    return CampaignResult(profile=profile, trials=trials)
