"""GCMC chaos trials: statistical-envelope classification + exit codes."""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults.campaign import (
    CHAOS_PROFILES,
    GCMC_WATCHDOG_US,
    STAT_WRONG,
    CampaignResult,
    TrialResult,
    run_gcmc_campaign,
    run_gcmc_trial,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

SCC = SCCConfig(topology="mesh:4x1")

#: Same deterministic corruption seed as tests/ensemble/test_gates.py.
CORRUPTION_SEED = 6


@pytest.fixture(scope="module")
def summary():
    from repro.ensemble.summary import EnsembleSummary

    return EnsembleSummary.load()


def test_clean_trial_is_ok(summary):
    trial = run_gcmc_trial(summary, FaultPlan(), config=SCC)
    assert trial.kind == "gcmc"
    assert trial.outcome == "ok"
    assert trial.survived


def test_silent_corruption_classified_statistically_wrong(summary):
    plan = replace(CHAOS_PROFILES["default"], seed=CORRUPTION_SEED,
                   payload_corrupt_prob=1.0, payload_corrupt_max=1,
                   checksums=False)
    trial = run_gcmc_trial(summary, plan, config=SCC)
    assert trial.outcome == STAT_WRONG
    assert not trial.survived
    assert "PC" in trial.detail
    assert trial.fault_counts.get("payload_corrupt") == 1


def test_gcmc_campaign_table_and_failures(summary):
    plan_wrong = replace(CHAOS_PROFILES["default"], seed=CORRUPTION_SEED,
                         payload_corrupt_prob=1.0, payload_corrupt_max=1,
                         checksums=False)
    trials = [
        run_gcmc_trial(summary, FaultPlan(), config=SCC),
        run_gcmc_trial(summary, plan_wrong, config=SCC),
    ]
    camp = CampaignResult(profile="default", trials=trials)
    table = camp.survival_table()
    assert STAT_WRONG in table
    assert [t.outcome for t in camp.failures()] == [STAT_WRONG]
    assert camp.outcomes() == {"ok": 1, STAT_WRONG: 1}


def test_raising_trial_reads_clock_and_counts_from_injector(summary):
    """A trial whose run raises still reports the machine's clock and
    the injected counts (values pinned on the default chip)."""
    trial = run_gcmc_trial(summary, CHAOS_PROFILES["light"].with_seed(1),
                           stack="mpb")
    assert trial.outcome == "fault"
    assert trial.elapsed_us == 9029.791668
    assert trial.fault_counts["mpb_giveup"] == 1
    assert "MPB half stayed corrupt" in trial.detail


def test_watchdog_trial_stops_at_the_budget(summary):
    trial = run_gcmc_trial(summary, CHAOS_PROFILES["light"].with_seed(1),
                           stack="blocking", watchdog_us=200)
    assert trial.outcome == "watchdog"
    assert trial.elapsed_us == 113.331278
    assert trial.survived


def _table_cell(out, stack, column):
    lines = out.splitlines()
    header = next(line for line in lines if line.split()[:1] == ["stack"])
    row = next(line for line in lines if line.split()[:1] == [stack])
    return row.split()[header.split().index(column)]


def test_chaos_cli_gcmc_honours_watchdog_us(capsys):
    """``--watchdog-us`` reaches GCMC trials: a 100 us budget stops a
    blocking run that needs far more virtual time."""
    from repro.cli import main

    rc = main(["chaos", "--app", "gcmc", "--stacks", "blocking",
               "--seeds", "1", "--watchdog-us", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert _table_cell(out, "blocking", "watchdog") == "1"
    assert _table_cell(out, "blocking", "ok") == "0"


@pytest.mark.parametrize("app,fake,default", [
    ("gcmc", "run_gcmc_trial", GCMC_WATCHDOG_US),
    ("collectives", "run_trial", 50_000.0),
])
def test_chaos_cli_watchdog_defaults_per_app(monkeypatch, capsys, app,
                                             fake, default):
    """Without ``--watchdog-us`` each app keeps its own budget."""
    import repro.faults.campaign as campaign_mod
    from repro.cli import main

    budgets = []

    def record(*args, watchdog_us, **kwargs):
        budgets.append(watchdog_us)
        return TrialResult(kind="k", stack="blocking", seed=1,
                           outcome="ok")

    monkeypatch.setattr(campaign_mod, fake, record)
    argv = ["chaos", "--app", app, "--stacks", "blocking", "--seeds", "1",
            "--kinds", "barrier"]
    assert main(argv) == 0
    assert main(argv + ["--watchdog-us", "123"]) == 0
    capsys.readouterr()
    assert budgets == [default, 123.0]


def test_collective_campaign_table_has_no_gcmc_column():
    trial = TrialResult(kind="allreduce", stack="blocking", seed=1,
                        outcome="ok")
    table = CampaignResult(profile="off", trials=[trial]).survival_table()
    assert STAT_WRONG not in table


def test_run_gcmc_campaign_sweeps_stacks(summary):
    camp = run_gcmc_campaign(summary, profile="off",
                             stacks=("lightweight_balanced",),
                             seeds=(1,), config=SCC)
    assert len(camp.trials) == 1
    assert camp.trials[0].outcome == "ok"
    assert not camp.failures()


def test_chaos_cli_exits_nonzero_on_statistical_wrongness(monkeypatch,
                                                          capsys):
    """``python -m repro chaos --app gcmc`` must fail CI when any trial
    is (statistically) wrong — the contract the workflow relies on."""
    import repro.faults.campaign as campaign_mod
    from repro.cli import main

    wrong = TrialResult(kind="gcmc", stack="lightweight_balanced", seed=3,
                        outcome=STAT_WRONG, detail="2 PC(s) outside")

    def fake_campaign(summary, **kwargs):
        return CampaignResult(profile=kwargs.get("profile", "light"),
                              trials=[wrong])

    monkeypatch.setattr(campaign_mod, "run_gcmc_campaign", fake_campaign)
    rc = main(["chaos", "--app", "gcmc", "--seeds", "3"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "CONTRACT VIOLATION" in out
    assert STAT_WRONG in out


def test_payload_corruption_budget_caps_at_max():
    machine = Machine(SCCConfig())
    inj = FaultInjector(FaultPlan(payload_corrupt_prob=1.0,
                                  payload_corrupt_max=1)).install(machine)
    region = machine.mpbs[0].alloc(64)
    region.write(np.zeros(64, dtype=np.uint8))
    assert inj.maybe_corrupt(region, 64, actor="test")
    # Budget exhausted: further opportunities are refused, however high
    # the probability.
    assert not inj.maybe_corrupt(region, 64, actor="test")
    assert not inj.maybe_corrupt(region, 64, actor="test", boost=True)
    assert inj.counts["payload_corrupt"] == 1


def test_unlimited_budget_keeps_corrupting():
    machine = Machine(SCCConfig())
    inj = FaultInjector(FaultPlan(payload_corrupt_prob=1.0)).install(machine)
    region = machine.mpbs[0].alloc(64)
    region.write(np.zeros(64, dtype=np.uint8))
    assert inj.maybe_corrupt(region, 64, actor="test")
    assert inj.maybe_corrupt(region, 64, actor="test")
    assert inj.counts["payload_corrupt"] == 2


def test_budget_plan_validation():
    with pytest.raises(ValueError, match="payload_corrupt_max"):
        FaultPlan(payload_corrupt_max=-1)
