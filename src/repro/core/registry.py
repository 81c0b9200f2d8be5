"""Stack registry: the paper's Fig.-9 graph labels as communicator recipes.

===========================  ================================================
label                        composition
===========================  ================================================
``blocking``                 RCCE blocking p2p + RCCE_comm algorithms
                             (odd-even ring ordering, standard partition)
``ircce``                    iRCCE non-blocking p2p (optimization A),
                             standard partition
``lightweight``              lightweight non-blocking p2p (optimization B),
                             standard partition
``lightweight_balanced``     + balanced partition (optimization C)
``mpb``                      + MPB-direct Allreduce (optimization D)
``rckmpi``                   the RCKMPI comparison stack
``tuned``                    lightweight_balanced + cost-model-selected
                             schedules (:mod:`repro.sched.select`)
===========================  ================================================

The labels are fixed: :data:`STACK_FACTORIES` is the one table of them,
mapping each label to the factory that builds its communicator on a
machine, and :func:`make_communicator` looks labels up in it.
:func:`launch` is the recipe that wires a fresh machine, its observers
and the communicator for a run.  :data:`STACKS` is exactly the Fig.-9
label set (every label but ``tuned``), so figure drivers, the chaos
harness and the sanitizer sweep never pick up the selection stack.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.blocks import balanced_partition, standard_partition
from repro.core.comm import Communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sim.trace import Tracer


def make_communicator(machine: Machine, stack: str) -> "Communicator":
    """Build the communicator for a stack label."""
    try:
        factory = STACK_FACTORIES[stack]
    except KeyError:
        known = ", ".join(sorted(STACK_FACTORIES))
        raise KeyError(
            f"unknown stack {stack!r}; known: {known}") from None
    return factory(machine)


def launch(stack: str, cores: Optional[int] = None, *,
           config: Optional[SCCConfig] = None,
           tracer: Optional[Tracer] = None,
           observers: Sequence = ()) -> tuple[Machine, "Communicator"]:
    """Build everything a run needs: the one recipe every launcher shares.

    Rejects a ``cores`` count (the ranks the run will use; None = the
    whole chip) the chip cannot host before paying for the machine, builds
    the :class:`Machine` (``tracer`` is handed to it), calls
    ``install(machine)`` on each of ``observers`` in order (sanitizer,
    race detector, traffic counters; a fault injector goes first so the
    monitors see the perturbed run) and only then builds the communicator
    for ``stack``, whose set-up traffic is thereby observed.
    """
    config = config if config is not None else SCCConfig()
    if cores is not None:
        config.check_rank_count(cores)
    machine = Machine(config, tracer=tracer)
    for observer in observers:
        observer.install(machine)
    return machine, make_communicator(machine, stack)


def _make_blocking(machine: Machine) -> Communicator:
    from repro.rcce.api import RCCE
    return Communicator(machine, RCCE(machine),
                        partitioner=standard_partition, name="blocking")


def _make_ircce(machine: Machine) -> Communicator:
    from repro.ircce.api import IRCCE
    return Communicator(machine, IRCCE(machine),
                        partitioner=standard_partition, name="ircce")


def _make_lightweight(machine: Machine) -> Communicator:
    from repro.lwnb.api import LWNB
    return Communicator(machine, LWNB(machine),
                        partitioner=standard_partition, name="lightweight")


def _make_lightweight_balanced(machine: Machine) -> Communicator:
    from repro.lwnb.api import LWNB
    return Communicator(machine, LWNB(machine),
                        partitioner=balanced_partition,
                        name="lightweight_balanced")


def _make_mpb(machine: Machine) -> Communicator:
    from repro.lwnb.api import LWNB
    return Communicator(machine, LWNB(machine),
                        partitioner=balanced_partition,
                        use_mpb_allreduce=True, name="mpb")


def _make_rckmpi(machine: Machine) -> Communicator:
    from repro.rckmpi.channel import RCKMPIP2P
    # MPICH spreads the remainder across ranks (balanced).
    return Communicator(machine, RCKMPIP2P(machine),
                        partitioner=balanced_partition, name="rckmpi")


def _make_tuned(machine: Machine) -> Communicator:
    from repro.sched.select import TunedCommunicator
    return TunedCommunicator(machine)


#: Every stack label and its communicator factory: the paper's Fig.-9
#: stacks in figure order, then the cost-model-selected ``tuned``.
STACK_FACTORIES: dict[str, Callable[[Machine], Communicator]] = {
    "rckmpi": _make_rckmpi,
    "blocking": _make_blocking,
    "ircce": _make_ircce,
    "lightweight": _make_lightweight,
    "lightweight_balanced": _make_lightweight_balanced,
    "mpb": _make_mpb,
    "tuned": _make_tuned,
}

#: The order the paper's figures present the stacks in.
STACKS: tuple[str, ...] = tuple(STACK_FACTORIES)[:-1]

#: Stacks Fig. 9 shows for every collective (mpb only exists for Allreduce).
NON_MPB_STACKS: tuple[str, ...] = STACKS[:-1]
