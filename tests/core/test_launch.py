"""The launch recipe: rank check, Machine, observers in order, communicator."""

import pytest

from repro.analysis import RaceDetector, Sanitizer
from repro.bench.runner import launch_collective
from repro.core import registry
from repro.core.registry import launch
from repro.ensemble.members import CandidateSpec, run_candidate
from repro.faults import FaultInjector, FaultPlan
from repro.faults.campaign import run_trial
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

SMALL = SCCConfig(topology="mesh:2x1")


@pytest.fixture
def built(monkeypatch):
    """Every Machine the recipe builds while the test runs."""
    machines = []

    class Recorded(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    monkeypatch.setattr(registry, "Machine", Recorded)
    return machines


def test_rank_count_is_checked_before_the_machine_is_built(built):
    with pytest.raises(ValueError, match="'mesh:2x1' has only 4"):
        launch("lightweight", 5, config=SMALL)
    assert built == []


def test_observers_install_in_order_before_the_communicator(monkeypatch):
    events = []

    class Probe:
        def __init__(self, name):
            self.name = name

        def install(self, machine):
            events.append(self.name)

    real = registry.make_communicator
    monkeypatch.setattr(
        registry, "make_communicator",
        lambda machine, stack: events.append("comm") or real(machine, stack))
    machine, comm = launch("blocking", 4, config=SMALL,
                           observers=[Probe("injector"), Probe("monitor")])
    assert events == ["injector", "monitor", "comm"]
    assert comm.machine is machine and machine.config is SMALL


def test_injector_and_monitor_ride_together_but_not_two_monitors():
    injector, detector = FaultInjector(FaultPlan(seed=1)), RaceDetector()
    machine, _comm = launch("lightweight", 4, config=SMALL,
                            observers=[injector, detector])
    assert machine.faults is injector and machine.san is detector
    with pytest.raises(RuntimeError, match="already has a monitor"):
        launch("lightweight", 4, config=SMALL,
               observers=[Sanitizer(), RaceDetector()])


def test_every_launcher_builds_the_same_machine(built):
    from repro.ensemble.summary import reference_config

    launch_collective("allreduce", "lightweight", 8, cores=4, config=SMALL)
    run_trial("allreduce", "lightweight", FaultPlan(seed=1), size=8,
              cores=4, config=SMALL)
    run_candidate(CandidateSpec(stack="lightweight"),
                  reference_config().copy(initial_particles=8, capacity=24),
                  1, 4, scc_config=SMALL)
    assert len(built) == 3
    assert {m.num_cores for m in built} == {4}
    assert {m.config.topology for m in built} == {"mesh:2x1"}
    assert all(m.topology is built[0].topology for m in built)
