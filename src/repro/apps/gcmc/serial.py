"""Serial reference implementation of the GCMC loop.

Runs the identical algorithm and RNG streams as the SPMD driver, but with
plain function calls instead of simulated communication (reductions are
ordered per-rank sums, matching the distributed decomposition).  Used by
the test suite to verify that the distributed run reproduces the same
trajectory and energies, by examples as a quick sanity baseline, and by
the ensemble layer as the fast physics engine for building seed
ensembles.

When a :class:`GCMCOpLog` is passed, the runner additionally records the
exact sequence of collectives the SPMD driver would issue — one
``(kind, element count, max per-rank compute cycles)`` record per
communication step — which is what lets
:mod:`repro.ensemble.engines` price a GCMC run analytically without
touching the discrete-event simulator.  Logging never changes the
physics: the counts it needs (per-rank pair counts, local atom counts)
fall out of the energy evaluation the run does anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.driver import GCMCResult
from repro.apps.gcmc.kvectors import build_kvectors
from repro.apps.gcmc.longrange import local_structure_factor, reciprocal_energy
from repro.apps.gcmc.moves import (
    Action,
    Proposal,
    acceptance_probability,
    choose_action,
    choose_slot,
    propose_insertion,
    propose_translation,
)
from repro.apps.gcmc.observables import Observables
from repro.apps.gcmc.particles import ParticleSystem
from repro.apps.gcmc.shortrange import (
    insertion_energy_local,
    self_energy,
    short_energy_local,
    upper_pair_energies,
)


@dataclass
class OpRecord:
    """One communication step of a (replayed) GCMC run.

    ``compute_cycles`` is the *maximum* per-rank compute charged between
    the previous collective and this one — the quantity that bounds the
    segment's makespan in a round-synchronous SPMD run.
    """

    kind: str            #: "allreduce" | "bcast" | "barrier"
    nelems: int          #: payload length in doubles (0 for barrier)
    compute_cycles: int  #: max per-rank core cycles preceding the op


class GCMCOpLog:
    """Collects the collective-call sequence of one serial GCMC replay."""

    def __init__(self) -> None:
        self.records: list[OpRecord] = []
        self._pending = 0

    def compute(self, cycles: int) -> None:
        """Charge compute cycles to the current segment (max-per-rank
        amounts; equal-on-every-rank costs are just that maximum)."""
        self._pending += int(cycles)

    def collective(self, kind: str, nelems: int) -> None:
        """Close the current segment with one collective call."""
        self.records.append(OpRecord(kind, int(nelems), self._pending))
        self._pending = 0

    def total_compute_cycles(self) -> int:
        return (sum(r.compute_cycles for r in self.records)
                + self._pending)


def _short_en(system: ParticleSystem, nranks: int, slot=None, pos=None,
              charge=None, log=None) -> float:
    total = 0.0
    max_pairs = 0
    for rank in range(nranks):
        if slot is not None:
            e, pairs = short_energy_local(system, slot, rank, nranks)
        else:
            e, pairs = insertion_energy_local(system, pos, charge, rank,
                                              nranks)
        total += e
        max_pairs = max(max_pairs, pairs)
    if log is not None:
        cfg = system.config
        log.compute(cfg.cycles_energy_base
                    + max_pairs * cfg.cycles_per_pair)
        log.collective("allreduce", 1)
    return total


def _long_en(system: ParticleSystem, kvecs, coeff, nranks: int,
             log=None) -> float:
    f_total = np.zeros(len(kvecs), dtype=np.complex128)
    max_local = 0
    for rank in range(nranks):
        f_local, n_local = local_structure_factor(system, kvecs, rank,
                                                  nranks)
        f_total = f_total + f_local
        max_local = max(max_local, n_local)
    if log is not None:
        cfg = system.config
        log.compute(cfg.cycles_energy_base
                    + max_local * len(kvecs) * cfg.cycles_per_kvec_term)
        log.collective("allreduce", 2 * len(kvecs))
        log.compute(len(kvecs) * cfg.cycles_per_kvec_energy)
    return reciprocal_energy(f_total, coeff, system.config.volume)


def full_energy(system: ParticleSystem, kvecs, coeff, nranks: int,
                log=None) -> float:
    """Total energy of a configuration, computed from scratch."""
    idx = system.active_indices()
    e_short = 0.0
    e_self = 0.0
    max_pairs = 0
    for rank in range(nranks):
        local = system.local_indices(rank, nranks)
        energies, rank_pairs = upper_pair_energies(system, local, idx)
        for i, e in zip(local, energies):
            e_short += e
            e_self += self_energy(float(system.charges[i]),
                                  system.config.alpha)
        max_pairs = max(max_pairs, rank_pairs)
    if log is not None:
        cfg = system.config
        log.compute(cfg.cycles_energy_base
                    + max_pairs * cfg.cycles_per_pair)
        log.collective("allreduce", 2)
    return e_short + e_self + _long_en(system, kvecs, coeff, nranks,
                                       log=log)


def run_gcmc_serial(cfg: GCMCConfig, cycles: int, nranks: int = 48,
                    return_system: bool = False, log=None):
    """Run ``cycles`` MC cycles serially, mimicking an ``nranks`` SPMD run.

    Returns a :class:`~repro.apps.gcmc.driver.GCMCResult` (with zero
    simulated time), or ``(result, system)`` when ``return_system=True``.
    ``log`` (a :class:`GCMCOpLog`) records the collective-call sequence
    the SPMD driver would issue, for analytic pricing.
    """
    system = ParticleSystem(cfg)
    kvecs, coeff = build_kvectors(cfg.n_kvectors, cfg.box, cfg.alpha)
    shared_rng = np.random.default_rng(cfg.seed)
    owner_rngs = [
        np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(rank + 1,)))
        for rank in range(nranks)
    ]
    obs = Observables()
    if log is not None:
        log.collective("barrier", 0)
    en_old = full_energy(system, kvecs, coeff, nranks, log=log)

    for _cycle in range(cycles):
        active = system.active_indices()
        action = choose_action(cfg, shared_rng, len(active))
        n_before = len(active)

        # Algorithm 1 line 5: subtract the moving particle's contributions.
        if action == Action.INSERT:
            slot = system.first_free_slot()
            removed_short = 0.0
            removed_self = 0.0
        else:
            slot = choose_slot(shared_rng, active)
            removed_short = _short_en(system, nranks, slot=slot, log=log)
            removed_self = (self_energy(float(system.charges[slot]),
                                        cfg.alpha)
                            if action == Action.DELETE else 0.0)
        removed_long = _long_en(system, kvecs, coeff, nranks, log=log)
        en_new = en_old - removed_short - removed_self - removed_long

        # Lines 6-7: save config, owner proposes, move applied.
        snap = system.snapshot()
        owner = system.owner_of(slot, nranks)
        owner_rng = owner_rngs[owner]
        if action == Action.TRANSLATE:
            proposal = Proposal(action, slot,
                                propose_translation(
                                    cfg, owner_rng, system.positions[slot]),
                                0.0)
        elif action == Action.INSERT:
            pos, charge = propose_insertion(cfg, owner_rng,
                                            system.net_charge())
            proposal = Proposal(action, slot, pos, charge)
        else:
            proposal = Proposal(action, slot, np.zeros(3), 0.0)
        # Round-trip through the wire format, exactly like the SPMD run.
        proposal = Proposal.unpack(proposal.pack())
        if log is not None:
            log.compute(cfg.cycles_move_base)
            log.collective("bcast", 6)  # the proposal wire

        if proposal.action == Action.TRANSLATE:
            system.move_particle(proposal.slot, proposal.position)
        elif proposal.action == Action.INSERT:
            system.insert_particle(proposal.slot, proposal.position,
                                   proposal.charge)
        else:
            system.delete_particle(proposal.slot)

        # Line 8: add the new contributions.
        if proposal.action == Action.DELETE:
            added_short = 0.0
            added_self = 0.0
        else:
            added_short = _short_en(system, nranks, slot=proposal.slot,
                                    log=log)
            added_self = (self_energy(proposal.charge, cfg.alpha)
                          if proposal.action == Action.INSERT else 0.0)
        added_long = _long_en(system, kvecs, coeff, nranks, log=log)
        en_new = en_new + added_short + added_self + added_long

        # Lines 9-12: accept/reject.
        prob = acceptance_probability(cfg, proposal.action, n_before,
                                      en_new - en_old)
        accepted = shared_rng.random() < prob
        if accepted:
            en_old = en_new
        else:
            system.restore(snap)
        if log is not None:
            log.collective("bcast", 2)  # the BroadcastUpdate of line 13
        obs.record(en_old, system.n_active, proposal.action.name, accepted)

    result = GCMCResult(
        observables=obs,
        final_energy=en_old,
        final_particles=system.n_active,
        cycles=cycles,
    )
    if return_system:
        return result, system
    return result
