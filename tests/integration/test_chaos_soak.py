"""Seeded chaos soak: every collective x stack survives injected faults.

The hardening contract, asserted over the full kinds x stacks matrix:
under a seeded fault campaign every run either completes *bit-correct*
or terminates with a *typed* error (FaultError subtype, WatchdogTimeout,
DeadlockError) carrying per-process diagnostics — never a silent hang,
never silently corrupted results.

Runs under the ``chaos`` pytest marker with the fast ``light`` profile
by default; scale up via ``REPRO_CHAOS_PROFILE=heavy`` and
``REPRO_CHAOS_SEEDS=1:11``.
"""

import os
import subprocess
import sys

import pytest

from repro.faults.campaign import (
    CHAOS_KINDS,
    CHAOS_PROFILES,
    run_campaign,
    run_trial,
)
from repro.obs.export import chrome_trace_events
from repro.obs.spans import extract_spans

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def _seeds():
    spec = os.environ.get("REPRO_CHAOS_SEEDS", "1:3")
    if ":" in spec:
        start, stop = (int(x) for x in spec.split(":"))
        return tuple(range(start, stop))
    return tuple(int(x) for x in spec.split(","))


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(
        profile=os.environ.get("REPRO_CHAOS_PROFILE", "light"),
        seeds=_seeds(), size=32, cores=4)


@pytest.mark.chaos
class TestSoak:
    def test_every_trial_survives(self, campaign):
        bad = campaign.failures()
        assert not bad, "\n".join(
            f"{t.kind}/{t.stack} seed={t.seed}: {t.outcome} {t.detail}"
            for t in bad)

    def test_no_silent_corruption(self, campaign):
        assert not [t for t in campaign.trials if t.outcome == "wrong"]

    def test_full_matrix_covered(self, campaign):
        pairs = {(t.kind, t.stack) for t in campaign.trials}
        from repro.core.registry import STACKS
        assert len(pairs) == len(CHAOS_KINDS) * len(STACKS)

    def test_faults_were_actually_injected(self, campaign):
        # A soak that injects nothing proves nothing.
        totals = campaign.fault_totals()
        assert sum(totals.values()) > 0
        assert any(k in totals for k in
                   ("flag_drop", "flag_stale", "mesh_jitter"))

    def test_typed_errors_carry_diagnostics(self, campaign):
        for t in campaign.trials:
            if t.outcome in ("fault", "watchdog", "deadlock"):
                assert t.detail  # message, not a bare exception class

    def test_survival_table_renders(self, campaign):
        table = campaign.survival_table()
        assert "survival %" in table
        for stack in campaign.by_stack():
            assert stack in table


@pytest.mark.chaos
class TestObservability:
    """Faults, retries and fallbacks must be visible in exported traces."""

    def test_fault_instants_reach_chrome_trace(self):
        plan = CHAOS_PROFILES["heavy"].with_seed(2)
        t = run_trial("allreduce", "lightweight", plan, size=64, cores=4,
                      trace=True)
        assert t.survived
        fault_tags = {r.tag for r in t.records
                      if r.tag.startswith("fault.")}
        assert fault_tags, "no fault.* records in a heavy-profile trial"
        events = chrome_trace_events(t.records)
        instant_names = {e["name"] for e in events if e.get("ph") == "i"}
        assert fault_tags <= instant_names

    def test_retry_spans_emitted_on_retransmit(self):
        from repro.faults.plan import FaultPlan
        plan = FaultPlan(payload_corrupt_prob=0.4, seed=3)
        t = run_trial("allreduce", "lightweight", plan, size=64, cores=4,
                      trace=True)
        assert t.outcome == "ok", t.detail
        assert t.fault_counts.get("retransmit", 0) > 0
        spans = extract_spans(t.records)
        assert any(sp.name == "retry" for sp in spans)

    def test_fallback_spans_emitted_on_degradation(self):
        from repro.faults.plan import FaultPlan
        plan = FaultPlan(mpb_fault_epoch_prob=1.0, mpb_fallback_threshold=1,
                         max_retries=64, seed=7)
        t = run_trial("allreduce", "mpb", plan, size=96, cores=6, iters=3,
                      trace=True)
        assert t.outcome == "ok", t.detail
        assert t.fault_counts.get("mpb_fallback", 0) > 0
        spans = extract_spans(t.records)
        assert any(sp.name == "fallback" for sp in spans)

    def test_metrics_report_fault_section(self):
        from repro.faults import FaultInjector, FaultPlan
        from repro.hw.config import SCCConfig
        from repro.hw.machine import Machine
        from repro.obs.export import run_metrics

        machine = Machine(SCCConfig())
        FaultInjector(FaultPlan(core_stall_prob=1.0,
                                seed=1)).install(machine)

        def program(env):
            yield from env.core.consume(10_000, "compute")

        result = machine.run_spmd(program, ranks=[0, 1])
        metrics = run_metrics(machine, result)
        assert metrics["faults"]["seed"] == 1
        assert metrics["faults"]["counts"].get("core_stall", 0) > 0


@pytest.mark.chaos
def test_run_chaos_tool_smoke():
    """`python -m repro chaos` must run a tiny campaign and exit 0."""
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "chaos",
         "--profile", "light", "--seeds", "1", "--cores", "4",
         "--size", "16", "--kinds", "barrier", "bcast"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "survival %" in proc.stdout
