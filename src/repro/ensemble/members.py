"""Running ensemble members and candidate runs.

Two execution paths, one physics:

* **Members** (the accepted seed ensemble) run through the *serial*
  GCMC runner — bit-identical physics to the SPMD driver (asserted by
  ``tests/apps/test_serial.py``) at a fraction of the cost, fanned out
  over the bench layer's fork pool (:func:`repro.bench.executor
  .parallel_map`, the ``REPRO_BENCH_JOBS`` knob).
* **Candidates** (the runs under test) run wherever the question lives:
  on the simulated machine with a fault injector installed, under a
  forced collective algorithm, on a different stack — or through the
  serial runner again when only the physics is in question.

Member seeds are ``base_seed + 1 .. base_seed + members``; the base seed
itself is deliberately *excluded* so it is available as a held-out
candidate that must pass the envelope it did not help build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.driver import GCMCResult, run_gcmc
from repro.apps.gcmc.serial import run_gcmc_serial
from repro.bench.executor import parallel_map
from repro.core.registry import launch
from repro.ensemble.features import DEFAULT_BLOCK_SIZE, extract_features
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw.config import SCCConfig
from repro.sim.clock import us_to_ps

#: Stack candidate runs use unless told otherwise (the paper's best
#: general-purpose configuration: non-blocking p2p + balanced partition).
DEFAULT_STACK = "lightweight_balanced"


def member_seeds(base_seed: int, members: int) -> list[int]:
    """The ensemble's seed list: ``base_seed + 1 .. base_seed + members``
    (the base itself is held out as a free validation candidate)."""
    if members < 2:
        raise ValueError(f"an ensemble needs at least 2 members, "
                         f"got {members}")
    return [base_seed + i + 1 for i in range(members)]


def _member_features(task) -> np.ndarray:
    """Fork-pool worker: one serial member run → its feature vector.

    Module-level so it pickles; ``task`` is a plain tuple for the same
    reason.
    """
    cfg, cycles, cores, block_size, seed = task
    result = run_gcmc_serial(cfg.copy(seed=seed), cycles, nranks=cores)
    return extract_features(result, block_size)


def ensemble_features(cfg: GCMCConfig, cycles: int, cores: int,
                      seeds: Sequence[int], *,
                      block_size: int = DEFAULT_BLOCK_SIZE,
                      jobs: Optional[int] = None) -> np.ndarray:
    """Feature matrix ``(len(seeds), n_features)`` of a seed ensemble."""
    tasks = [(cfg, cycles, cores, block_size, int(seed)) for seed in seeds]
    rows = parallel_map(_member_features, tasks, jobs=jobs)
    return np.vstack(rows)


@dataclass(frozen=True)
class CandidateSpec:
    """Everything that distinguishes one candidate run from a member.

    ``seed=None`` means "the summary's held-out base seed".  A ``plan``
    installs a fault injector on the candidate's machine (``engine``
    must then be ``sim`` — faults need simulated hardware to bite).
    """

    label: str = "candidate"
    engine: str = "sim"                  #: "sim" | "serial"
    stack: str = DEFAULT_STACK
    seed: Optional[int] = None
    allreduce_algo: Optional[str] = None
    plan: Optional[FaultPlan] = None
    watchdog_us: Optional[float] = None

    def validate(self) -> None:
        if self.engine not in ("sim", "serial"):
            raise ValueError(f"unknown candidate engine {self.engine!r}; "
                             f"expected 'sim' or 'serial'")
        if self.engine == "serial" and (
                self.plan is not None or self.watchdog_us is not None):
            raise ValueError("fault plans and watchdogs require the 'sim' "
                             "engine — the serial runner has no machine "
                             "to install them on")


def run_candidate(spec: CandidateSpec, cfg: GCMCConfig, cycles: int,
                  cores: int, *,
                  scc_config: Optional[SCCConfig] = None) -> GCMCResult:
    """Execute one candidate run and return its :class:`GCMCResult`.

    Raises whatever the run raises (typed fault errors, watchdog,
    divergence ``RuntimeError``) — classification is the caller's job
    (:func:`repro.faults.campaign.run_gcmc_trial`).
    """
    spec.validate()
    run_cfg = cfg if spec.seed is None else cfg.copy(seed=spec.seed)
    if spec.engine == "serial":
        return run_gcmc_serial(run_cfg, cycles, nranks=cores)
    machine, comm = launch(
        spec.stack, cores,
        config=scc_config.copy() if scc_config is not None else None,
        observers=[FaultInjector(spec.plan)] if spec.plan is not None else ())
    watchdog_ps = (us_to_ps(spec.watchdog_us)
                   if spec.watchdog_us is not None else None)
    return run_gcmc(machine, comm, run_cfg, cycles,
                    ranks=list(range(cores)),
                    allreduce_algo=spec.allreduce_algo,
                    watchdog_ps=watchdog_ps)
