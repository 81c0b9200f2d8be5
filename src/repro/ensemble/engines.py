"""Exact GCMC timing by replay, and the replay-vs-simulator acceptance test.

A GCMC run is a long deterministic sequence of collectives interleaved
with each rank's own compute.  The serial runner runs every rank of the
one GCMC loop, the driver's, in lockstep, so its call log
(:class:`repro.apps.gcmc.serial.GCMCOpLog`) is the sequence the ranks
issue; one :class:`repro.sched.replay.Session` replays it, so the run's
virtual time comes out to the picosecond without the simulator
(:func:`replay_gcmc`).  What replay cannot answer (the ``mpb``
algorithm, MPB contention) is simulated, and the reason returned.

The acceptance test (:func:`compare_engines`) runs the simulator too and
pushes both runs through the statistical envelope: "replay agrees with
the simulator" means *equal picoseconds* and *physics that the envelope
accepts* on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.driver import GCMCResult
from repro.apps.gcmc.serial import GCMCOpLog, run_gcmc_serial
from repro.ensemble.members import DEFAULT_STACK, CandidateSpec, run_candidate
from repro.ensemble.summary import CheckResult, EnsembleSummary
from repro.hw.config import SCCConfig
from repro.sched.replay import Escalation, Session


def replay_gcmc(cfg: GCMCConfig, cycles: int, cores: int, *,
                stack: str = DEFAULT_STACK,
                scc_config: Optional[SCCConfig] = None,
                allreduce_algo: Optional[str] = None
                ) -> tuple[GCMCResult, int, Optional[str]]:
    """``(result, elapsed_ps, escalation)`` of one GCMC run.

    ``result`` is the serial run's :class:`GCMCResult` (its
    ``elapsed_ps`` left at zero) and ``elapsed_ps`` its log replayed in
    one session: the slowest rank's exit, what
    :func:`~repro.apps.gcmc.driver.run_gcmc` reports.  Where replay
    raises :class:`~repro.sched.replay.Escalation`, ``elapsed_ps`` is
    the simulator's and ``escalation`` the reason (None otherwise).
    """
    log = GCMCOpLog()
    result = run_gcmc_serial(cfg, cycles, nranks=cores, log=log)
    calls = log.calls
    if allreduce_algo is not None:
        calls = [call[:2] + (allreduce_algo,) + call[3:]
                 if call[0] == "allreduce" else call for call in calls]
    try:
        exits = Session(stack, cores, config=scc_config).calls(calls)
    except Escalation as exc:
        sim = run_candidate(
            CandidateSpec(label="sim", stack=stack,
                          allreduce_algo=allreduce_algo),
            cfg, cycles, cores, scc_config=scc_config)
        return result, sim.elapsed_ps, str(exc)
    return result, max(marks[-1] for marks in exits), None


@dataclass
class EngineComparison:
    """Replayed vs simulated GCMC, under the statistical envelope."""

    sim_ps: int
    replay_ps: int
    sim_check: CheckResult
    replay_check: CheckResult
    stack: str = DEFAULT_STACK
    escalation: Optional[str] = None  #: why replay simulated, if it did
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """The acceptance contract: both runs' physics inside the
        envelope *and* the replayed time equal to the simulated one."""
        return (self.sim_check.passed and self.replay_check.passed
                and self.replay_ps == self.sim_ps)

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"engine comparison ({self.stack}): {verdict}",
            f"  simulated: {self.sim_ps:16d}ps  envelope "
            f"{'PASS' if self.sim_check.passed else 'FAIL'}",
            f"  replayed:  {self.replay_ps:16d}ps  envelope "
            f"{'PASS' if self.replay_check.passed else 'FAIL'}",
        ]
        if self.escalation is not None:
            lines.append(f"  replay escalated to the simulator: "
                         f"{self.escalation}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def compare_engines(summary: EnsembleSummary, *,
                    stack: str = DEFAULT_STACK,
                    seed: Optional[int] = None,
                    scc_config: Optional[SCCConfig] = None
                    ) -> EngineComparison:
    """The replay-vs-sim GCMC acceptance test.

    Runs the summary's configuration (held-out base seed by default) on
    the simulator and through :func:`replay_gcmc`, scores both runs
    against the envelope, and compares their times to the picosecond.
    """
    cfg = summary.config()
    if seed is not None:
        cfg = cfg.copy(seed=seed)
    cycles, cores = summary.cycles, summary.cores

    sim_result = run_candidate(
        CandidateSpec(label="sim", engine="sim", stack=stack),
        cfg, cycles, cores, scc_config=scc_config)
    sim_check = summary.score(sim_result, label=f"sim/{stack}")

    serial_result, replay_ps, escalation = replay_gcmc(
        cfg, cycles, cores, stack=stack, scc_config=scc_config)
    replay_check = summary.score(serial_result, label=f"replay/{stack}")

    notes = []
    if (sim_result.final_particles != serial_result.final_particles
            or sim_result.final_energy != serial_result.final_energy):
        notes.append("sim and serial trajectories differ bit-wise (the "
                     "stack's reduction order vs the serial ordered sum) "
                     "— each is scored against the envelope on its own")
    return EngineComparison(
        sim_ps=sim_result.elapsed_ps, replay_ps=replay_ps,
        sim_check=sim_check, replay_check=replay_check, stack=stack,
        escalation=escalation, notes=notes)
