"""The GCMC main loop on the simulated SCC (Algorithm 1).

Every rank runs :func:`gcmc_program`; communication happens at exactly the
points the paper profiles:

* ``ShortEn(particle)`` — each rank computes its local pair share, a
  *scalar* Allreduce sums it (one value per core, Section V-B);
* ``LongEn()`` — each rank recomputes its local structure factor, an
  Allreduce of ``2 * n_kvectors`` doubles (552 for the paper's 276
  coefficients) sums the Fourier coefficients; called **twice per cycle**
  (Algorithm 1 lines 5 and 8, Algorithm 2 line 14);
* the move proposal broadcast (owner → all) and the ``BroadcastUpdate``
  of line 13.

Simulated compute time is charged from the actual arithmetic workload
(local pair counts, local atoms x k-vectors) via the cost constants in
:class:`~repro.apps.gcmc.config.GCMCConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.kvectors import build_kvectors
from repro.apps.gcmc.longrange import (
    local_structure_factor,
    pack_complex,
    reciprocal_energy,
    unpack_complex,
)
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
    upper_pair_energies,
)
from repro.core.comm import Communicator
from repro.hw.machine import CoreEnv, Machine
from repro.sim.clock import ps_to_us


@dataclass
class GCMCResult:
    """Per-run outcome (identical physics on every rank)."""

    observables: Observables
    final_energy: float
    final_particles: int
    cycles: int
    elapsed_ps: int = 0
    accounts: list = field(default_factory=list)

    @property
    def elapsed_us(self) -> float:
        return ps_to_us(self.elapsed_ps)

    def wait_fraction(self) -> float:
        """Fraction of total core time spent waiting on flags/requests —
        the profile quantity behind 'up to 50% in rcce_wait_until'."""
        total = sum(a.total() for a in self.accounts)
        if total == 0:
            return 0.0
        waits = sum(a.get("wait_flag") + a.get("wait_request")
                    for a in self.accounts)
        return waits / total


# --------------------------------------------------------------------- #
# Energy evaluations (SPMD generators)
# --------------------------------------------------------------------- #

def _short_en(env: CoreEnv, comm: Communicator, cfg: GCMCConfig,
              system: ParticleSystem, slot: Optional[int] = None,
              pos: Optional[np.ndarray] = None,
              charge: Optional[float] = None,
              algo: Optional[str] = None) -> Generator:
    """Distributed ShortEn: of an existing particle (``slot``) or of a
    virtual insertion at ``pos``/``charge``."""
    if slot is not None:
        from repro.apps.gcmc.shortrange import short_energy_local
        e_local, pairs = short_energy_local(system, slot, env.rank, env.size)
    else:
        e_local, pairs = insertion_energy_local(system, pos, charge,
                                                env.rank, env.size)
    yield from env.compute(cfg.cycles_energy_base
                           + pairs * cfg.cycles_per_pair)
    total = yield from comm.allreduce(env, np.array([e_local]), algo=algo)
    return float(total[0])


def _long_en(env: CoreEnv, comm: Communicator, cfg: GCMCConfig,
             system: ParticleSystem, kvecs: np.ndarray,
             coeff: np.ndarray, algo: Optional[str] = None) -> Generator:
    """Distributed LongEn (Algorithm 2): local structure factor, 552-double
    Allreduce, then the |F|^2 energy sum."""
    f_local, n_local = local_structure_factor(system, kvecs, env.rank,
                                              env.size)
    yield from env.compute(
        cfg.cycles_energy_base
        + n_local * len(kvecs) * cfg.cycles_per_kvec_term)
    packed = pack_complex(f_local)
    total = yield from comm.allreduce(env, packed, algo=algo)
    f_total = unpack_complex(total)
    yield from env.compute(len(kvecs) * cfg.cycles_per_kvec_energy)
    return reciprocal_energy(f_total, coeff, cfg.volume)


def _initial_energy(env: CoreEnv, comm: Communicator, cfg: GCMCConfig,
                    system: ParticleSystem, kvecs: np.ndarray,
                    coeff: np.ndarray,
                    algo: Optional[str] = None) -> Generator:
    """Distributed full energy: short pairs + self terms + reciprocal."""
    idx = system.active_indices()
    local = system.local_indices(env.rank, env.size)
    energies, pairs = upper_pair_energies(system, local, idx)
    e_short = 0.0
    for e in energies:
        e_short += e
    e_self = sum(self_energy(float(system.charges[i]), cfg.alpha)
                 for i in local)
    yield from env.compute(cfg.cycles_energy_base
                           + pairs * cfg.cycles_per_pair)
    partial = np.array([e_short, e_self])
    total = yield from comm.allreduce(env, partial, algo=algo)
    e_long = yield from _long_en(env, comm, cfg, system, kvecs, coeff,
                                 algo=algo)
    return float(total[0] + total[1]) + e_long


# --------------------------------------------------------------------- #
# One MC cycle (Algorithm 1 body)
# --------------------------------------------------------------------- #

def _gcmc_cycle(env: CoreEnv, comm: Communicator, cfg: GCMCConfig,
                system: ParticleSystem, kvecs: np.ndarray,
                coeff: np.ndarray, shared_rng: np.random.Generator,
                owner_rng: np.random.Generator, en_old: float,
                obs: Observables,
                algo: Optional[str] = None) -> Generator:
    """Returns the new ``en_old`` after accept/reject."""
    p = env.size
    active = system.active_indices()
    action = choose_action(cfg, shared_rng, len(active))
    n_before = len(active)

    # --- line 5: subtract the old contributions ------------------------
    if action == Action.INSERT:
        slot = system.first_free_slot()
        removed_short = 0.0
        removed_self = 0.0
    else:
        slot = choose_slot(shared_rng, active)
        removed_short = yield from _short_en(env, comm, cfg, system, slot,
                                             algo=algo)
        removed_self = (self_energy(float(system.charges[slot]), cfg.alpha)
                        if action == Action.DELETE else 0.0)
    removed_long = yield from _long_en(env, comm, cfg, system, kvecs, coeff,
                                       algo=algo)
    en_new = en_old - removed_short - removed_self - removed_long

    # --- lines 6-7: save config, do the move (owner proposes) ----------
    snap = system.snapshot()
    owner = system.owner_of(slot, p)
    wire = np.empty(6)
    if env.rank == owner:
        if action == Action.TRANSLATE:
            new_pos = propose_translation(cfg, owner_rng,
                                          system.positions[slot])
            proposal = Proposal(action, slot, new_pos, 0.0)
        elif action == Action.INSERT:
            pos, charge = propose_insertion(cfg, owner_rng,
                                            system.net_charge())
            proposal = Proposal(action, slot, pos, charge)
        else:
            proposal = Proposal(action, slot, np.zeros(3), 0.0)
        wire[:] = proposal.pack()
    yield from env.compute(cfg.cycles_move_base)
    yield from comm.bcast(env, wire, owner)
    proposal = Proposal.unpack(wire)

    if proposal.action == Action.TRANSLATE:
        system.move_particle(proposal.slot, proposal.position)
    elif proposal.action == Action.INSERT:
        system.insert_particle(proposal.slot, proposal.position,
                               proposal.charge)
    else:
        system.delete_particle(proposal.slot)

    # --- line 8: add the new contributions -----------------------------
    if proposal.action == Action.DELETE:
        added_short = 0.0
        added_self = 0.0
    else:
        added_short = yield from _short_en(env, comm, cfg, system,
                                           proposal.slot, algo=algo)
        added_self = (self_energy(proposal.charge, cfg.alpha)
                      if proposal.action == Action.INSERT else 0.0)
    added_long = yield from _long_en(env, comm, cfg, system, kvecs, coeff,
                                     algo=algo)
    en_new = en_new + added_short + added_self + added_long

    # --- lines 9-12: accept or reject (shared stream) ------------------
    delta_e = en_new - en_old
    prob = acceptance_probability(cfg, proposal.action, n_before, delta_e)
    accepted = shared_rng.random() < prob
    if accepted:
        en_result = en_new
    else:
        system.restore(snap)
        en_result = en_old

    # --- line 13: BroadcastUpdate(particle, en_new) ---------------------
    update = np.empty(2)
    if env.rank == owner:
        update[:] = (1.0 if accepted else 0.0, en_result)
    yield from comm.bcast(env, update, owner)
    if bool(update[0]) != accepted or not math.isclose(
            update[1], en_result, rel_tol=1e-9, abs_tol=1e-12):
        raise RuntimeError(
            f"rank {env.rank} diverged from owner {owner}: "
            f"update={update}, local=({accepted}, {en_result})")

    obs.record(en_result, system.n_active, proposal.action.name, accepted)
    return en_result


# --------------------------------------------------------------------- #
# The SPMD program and the launcher
# --------------------------------------------------------------------- #

def gcmc_program(env: CoreEnv, comm: Communicator, cfg: GCMCConfig,
                 cycles: int, algo: Optional[str] = None) -> Generator:
    """Algorithm 1, run by every rank.

    ``algo`` forces one Allreduce algorithm for every energy reduction
    (``rsag``, ``recursive_doubling``, ``synth/rsag+c2``, ...) instead
    of the stack's size-based selection — the hook the ensemble
    verification layer uses to put *non-default* collective algorithms
    under the statistical correctness gate.
    """
    system = ParticleSystem(cfg)
    kvecs, coeff = build_kvectors(cfg.n_kvectors, cfg.box, cfg.alpha)
    shared_rng = np.random.default_rng(cfg.seed)
    owner_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(env.rank + 1,)))
    obs = Observables()
    yield from comm.barrier(env)
    en_old = yield from _initial_energy(env, comm, cfg, system, kvecs,
                                        coeff, algo=algo)
    for _cycle in range(cycles):
        en_old = yield from _gcmc_cycle(env, comm, cfg, system, kvecs,
                                        coeff, shared_rng, owner_rng,
                                        en_old, obs, algo=algo)
    return GCMCResult(
        observables=obs,
        final_energy=en_old,
        final_particles=system.n_active,
        cycles=cycles,
    )


def run_gcmc(machine: Machine, comm: Communicator, cfg: GCMCConfig,
             cycles: int, *, ranks: Optional[list[int]] = None,
             allreduce_algo: Optional[str] = None,
             watchdog_ps: Optional[int] = None) -> GCMCResult:
    """Launch the application on the machine; returns rank 0's result with
    timing attached.  Raises if ranks disagree on the physics.

    ``ranks`` restricts the job to a subset of cores (default: the whole
    chip), ``allreduce_algo`` forces one Allreduce algorithm for every
    energy reduction, and ``watchdog_ps`` bounds the virtual time (see
    :meth:`~repro.hw.machine.Machine.run_spmd`).
    """
    spmd = machine.run_spmd(gcmc_program, comm, cfg, cycles, allreduce_algo,
                            ranks=ranks, watchdog_ps=watchdog_ps)
    results: list[GCMCResult] = spmd.values
    head = results[0]
    for rank, other in enumerate(results[1:], start=1):
        if (other.final_particles != head.final_particles
                or not math.isclose(other.final_energy, head.final_energy,
                                    rel_tol=1e-9, abs_tol=1e-9)):
            raise RuntimeError(
                f"rank {rank} diverged: E={other.final_energy} "
                f"N={other.final_particles} vs rank 0 "
                f"E={head.final_energy} N={head.final_particles}")
    head.elapsed_ps = spmd.elapsed_ps
    head.accounts = spmd.accounts
    return head
