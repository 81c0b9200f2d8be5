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

The registry is table-driven: :func:`register_stack` maps a label to a
factory ``Machine -> Communicator``, and :func:`make_communicator` looks
labels up in the table.  :func:`launch` is the recipe that wires a fresh
machine, its observers and the communicator for a run.  The paper's six
stacks are registered below;
extension stacks (like ``tuned``) are registered the same way without
touching this module's figure-ordering tuples — :data:`STACKS` stays
exactly the Fig.-9 label set, so figure drivers, the chaos harness and
the sanitizer sweep never pick up experimental stacks by accident.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.core.blocks import balanced_partition, standard_partition
from repro.core.comm import Communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sim.trace import Tracer

#: The order the paper's figures present the stacks in.
STACKS: tuple[str, ...] = (
    "rckmpi",
    "blocking",
    "ircce",
    "lightweight",
    "lightweight_balanced",
    "mpb",
)

#: Stacks Fig. 9 shows for every collective (mpb only exists for Allreduce).
NON_MPB_STACKS: tuple[str, ...] = STACKS[:-1]

StackFactory = Callable[[Machine], "Communicator"]

_FACTORIES: Dict[str, StackFactory] = {}


def register_stack(name: str, factory: StackFactory, *,
                   replace: bool = False) -> None:
    """Register a communicator factory under stack label ``name``.

    Re-registering an existing label is an error unless ``replace=True``
    — silent shadowing of a paper stack would corrupt every figure.
    """
    if name in _FACTORIES and not replace:
        raise ValueError(
            f"stack {name!r} is already registered "
            f"(pass replace=True to override)")
    _FACTORIES[name] = factory


def available_stacks() -> tuple[str, ...]:
    """Every registered label: the Fig.-9 stacks in figure order, then
    extension stacks sorted alphabetically."""
    extras = sorted(name for name in _FACTORIES if name not in STACKS)
    return STACKS + tuple(extras)


def make_communicator(machine: Machine, stack: str) -> "Communicator":
    """Build the communicator for a registered stack label.

    For ``rckmpi`` this returns an
    :class:`repro.rckmpi.api.RCKMPICommunicator`, which implements the same
    collective interface over the modeled MPICH-style channel.
    """
    try:
        factory = _FACTORIES[stack]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
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
    from repro.rckmpi.api import RCKMPICommunicator
    return RCKMPICommunicator(machine)


def _make_tuned(machine: Machine) -> Communicator:
    from repro.sched.select import TunedCommunicator
    return TunedCommunicator(machine)


register_stack("blocking", _make_blocking)
register_stack("ircce", _make_ircce)
register_stack("lightweight", _make_lightweight)
register_stack("lightweight_balanced", _make_lightweight_balanced)
register_stack("mpb", _make_mpb)
register_stack("rckmpi", _make_rckmpi)
# Table-driven selection (repro.sched.select); the figure tuples above
# stay untouched.
register_stack("tuned", _make_tuned)
