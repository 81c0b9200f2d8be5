"""Exporters: Chrome trace_event schema validity and flat metrics."""

import csv
import io
import json

import numpy as np
import pytest

from repro.bench.stats import comm_stats
from repro.core import make_communicator
from repro.hw import Machine, SCCConfig
from repro.obs.export import (
    WAIT_STATES,
    _actor_tid,
    account_metrics,
    chrome_trace_events,
    link_traffic,
    mpb_counters,
    run_metrics,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)
from repro.sim.trace import TraceRecord, Tracer


@pytest.fixture(scope="module")
def traced_run():
    """One traced 8-core Allreduce with traffic counters enabled."""
    tracer = Tracer(enabled=True)
    machine = Machine(SCCConfig(), tracer=tracer)
    comm_stats(machine)
    # lightweight routes through the p2p layer, so the traffic counters
    # see every message (mpb-direct bypasses p2p for the Allreduce body).
    comm = make_communicator(machine, "lightweight")
    rng = np.random.default_rng(2)
    inputs = [rng.normal(size=64) for _ in range(8)]

    def program(env):
        yield from comm.allreduce(env, inputs[env.rank])

    result = machine.run_spmd(program, ranks=list(range(8)))
    return machine, result, tracer.records


class TestChromeTrace:
    def test_events_are_json_serializable(self, traced_run):
        _, _, records = traced_run
        events = chrome_trace_events(records)
        json.dumps(events)  # must not raise

    def test_event_schema(self, traced_run):
        _, _, records = traced_run
        for ev in chrome_trace_events(records):
            assert ev["ph"] in ("X", "M", "i")
            assert isinstance(ev["name"], str)
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] == "X":
                assert isinstance(ev["ts"], (int, float))
                assert isinstance(ev["dur"], (int, float))
                assert ev["dur"] >= 0
            if ev["ph"] == "i":
                assert ev["s"] == "t"

    def test_thread_names_cover_all_cores(self, traced_run):
        _, _, records = traced_run
        events = chrome_trace_events(records)
        names = {ev["args"]["name"] for ev in events if ev["ph"] == "M"}
        assert names == {f"core{i}" for i in range(8)}

    def test_span_records_become_duration_events(self, traced_run):
        _, _, records = traced_run
        events = chrome_trace_events(records)
        assert not any(ev["name"].endswith(".begin")
                       or ev["name"].endswith(".end") for ev in events)
        begins = sum(1 for r in records if r.tag.endswith(".begin"))
        ends = sum(1 for r in records if r.tag.endswith(".end"))
        xs = sum(1 for ev in events if ev["ph"] == "X")
        assert xs == min(begins, ends)

    def test_thread_ids_do_not_depend_on_the_hash_seed(self):
        """A digit-less actor (the fault injector's) gets a CRC of its
        name, not the per-process salted ``hash()``."""
        assert _actor_tid("core17") == 17
        assert _actor_tid("faults") == 8759
        (ev,) = [e for e in chrome_trace_events(
            [TraceRecord(5, "faults", "erratum_toggle", True)])
            if e["ph"] == "i"]
        assert ev["tid"] == 8759

    def test_write_round_trips(self, tmp_path, traced_run):
        _, _, records = traced_run
        path = tmp_path / "run.trace.json"
        write_chrome_trace(str(path), records)
        loaded = json.loads(path.read_text())
        assert isinstance(loaded, list) and loaded
        assert {"name", "ph", "pid", "tid"} <= set(loaded[0])


class TestAccountMetrics:
    def test_busy_plus_wait_is_total(self, traced_run):
        _, result, _ = traced_run
        for row in account_metrics(result.accounts):
            assert row["busy_ps"] + row["wait_ps"] == row["total_ps"]
            assert row["busy_pct"] + row["wait_pct"] == pytest.approx(100.0)

    def test_agrees_with_time_accounts(self, traced_run):
        _, result, _ = traced_run
        rows = account_metrics(result.accounts)
        for row, acct in zip(rows, result.accounts):
            assert row["total_ps"] == acct.total()
            assert row["wait_ps"] == sum(acct.get(s) for s in WAIT_STATES)
            assert row["states"] == acct.states

    def test_empty_account_is_all_zero(self):
        from repro.sim.trace import TimeAccount
        (row,) = account_metrics([TimeAccount()])
        assert row["total_ps"] == 0
        assert row["busy_pct"] == 0.0 and row["wait_pct"] == 0.0


class TestTrafficAndMPB:
    def test_link_traffic_attributes_to_mesh_links(self, traced_run):
        machine, _, _ = traced_run
        links = link_traffic(machine)
        assert links, "comm_stats was enabled; links must be attributed"
        for link in links:
            assert len(link["from"]) == 2 and len(link["to"]) == 2
            # XY neighbours only: one hop per link.
            dx = abs(link["from"][0] - link["to"][0])
            dy = abs(link["from"][1] - link["to"][1])
            assert dx + dy == 1
            assert link["messages"] > 0 and link["bytes"] >= 0

    def test_link_traffic_empty_without_counters(self):
        machine = Machine(SCCConfig())
        assert link_traffic(machine) == []

    def test_mpb_counters_count_real_io(self, traced_run):
        machine, _, _ = traced_run
        rows = mpb_counters(machine)
        assert len(rows) == machine.num_cores
        used = [r for r in rows if r["writes"] or r["reads"]]
        assert len(used) >= 8  # the 8 participating cores moved bytes
        for row in used:
            assert row["write_bytes"] >= row["writes"]  # >= 1 B per write


class TestRunMetrics:
    def test_structure_and_consistency(self, traced_run):
        machine, result, _ = traced_run
        metrics = run_metrics(machine, result, meta={"kind": "allreduce"})
        assert metrics["meta"] == {"kind": "allreduce", "trace_dropped": 0}
        assert metrics["elapsed_us"] == result.elapsed_us
        assert 0.0 <= metrics["wait_fraction"] <= 1.0
        total = sum(r["total_ps"] for r in metrics["cores"])
        wait = sum(r["wait_ps"] for r in metrics["cores"])
        assert metrics["wait_fraction"] == pytest.approx(
            wait / total if total else 0.0)

    def test_json_and_csv_writers(self, tmp_path, traced_run):
        machine, result, _ = traced_run
        metrics = run_metrics(machine, result)
        jpath = tmp_path / "m.json"
        write_metrics_json(str(jpath), metrics)
        assert json.loads(jpath.read_text())["cores"]

        buf = io.StringIO()
        write_metrics_csv(buf, metrics)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == len(result.accounts)
        for row in rows:
            assert int(row["busy_ps"]) + int(row["wait_ps"]) \
                == int(row["total_ps"])
