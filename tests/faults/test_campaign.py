"""Chaos campaigns: pinned outcomes and the shared classification helpers."""

import pytest

from repro.bench.runner import KINDS
from repro.faults.campaign import (
    CHAOS_KINDS,
    run_campaign,
    run_gcmc_campaign,
    run_trial,
)
from repro.faults.plan import FaultPlan

#: `python -m repro chaos --profile default --seeds 1:4` as recorded on
#: the commit before the launch recipe and the single call ladder landed:
#: per stack (trials, ok, fault), everything else zero.
DEFAULT_SURVIVAL = {
    "blocking": (21, 21, 0),
    "ircce": (21, 21, 0),
    "lightweight": (21, 21, 0),
    "lightweight_balanced": (21, 21, 0),
    "mpb": (21, 18, 3),
    "rckmpi": (21, 21, 0),
}
DEFAULT_FAULT_TOTALS = {
    "chunk_reject": 64, "core_stall": 1062, "flag_drop": 386,
    "flag_stale": 525, "mesh_congestion": 399, "mesh_jitter": 3092,
    "mpb_giveup": 3, "mpb_repair": 103, "payload_corrupt": 173,
    "retransmit": 64,
}


@pytest.mark.chaos
def test_default_profile_outcomes_and_fault_draws_are_pinned():
    camp = run_campaign(profile="default", seeds=(1, 2, 3))
    table = {
        stack: (len(trials),
                sum(t.outcome == "ok" for t in trials),
                sum(t.outcome == "fault" for t in trials))
        for stack, trials in camp.by_stack().items()}
    assert table == DEFAULT_SURVIVAL
    assert camp.outcomes() == {"fault": 3, "ok": 123}
    assert camp.fault_totals() == DEFAULT_FAULT_TOTALS


def test_chaos_kinds_are_the_runner_kinds():
    assert CHAOS_KINDS is KINDS


@pytest.mark.parametrize("run", [
    lambda: run_campaign(profile="apocalypse"),
    lambda: run_gcmc_campaign(None, profile="apocalypse"),
])
def test_unknown_profile_names_the_known_ones(run):
    with pytest.raises(KeyError, match="unknown chaos profile 'apocalypse'; "
                                       "known: .*'heavy'"):
        run()


def test_unexpected_exception_is_an_error_outcome():
    trial = run_trial("gossip", "lightweight", FaultPlan(seed=1), cores=4)
    assert trial.outcome == "error" and not trial.survived
    assert "unknown collective kind 'gossip'" in trial.detail
