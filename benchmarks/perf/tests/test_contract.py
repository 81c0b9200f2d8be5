"""BENCHMARK.json and what ``run.py`` prints against it.

The ``quick`` fixture runs every workload twice, untraced and traced
(first 3 ops, one pass each): about four minutes on the build host.
"""

import json
import re
import subprocess
import sys

import pytest

import metrics
from conftest import PERF_DIR

RUN = [sys.executable, str(PERF_DIR / "run.py")]
CONTRACT = json.loads(metrics.BENCHMARK_JSON.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_file_is_generated_from_the_table():
    assert CONTRACT == metrics.benchmark_json()


def test_contract_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    rows = (CONTRACT["workloads"] + CONTRACT["end_to_end"]
            + CONTRACT["per_layer"])
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(row["unit"])
        assert row["better"] in ("lower", "higher")
    for row in CONTRACT["end_to_end"]:
        assert 0 < row["bound"] <= 0.25
    for row in CONTRACT["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    setup = [r for r in CONTRACT["end_to_end"] if r["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(r["bound"]
                                   for r in CONTRACT["end_to_end"])}]
    assert 1 <= CONTRACT["run_seconds"] <= 60


def quick_run(workload, trace, out, *extra):
    done = subprocess.run(
        RUN + ["--workload", workload, "--quick", "--trace", str(trace),
               "--out", str(out), *extra],
        capture_output=True, text=True, timeout=180)
    return done, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """{(workload, trace, repeat): (last line, record entry)}."""
    tmp = tmp_path_factory.mktemp("quick")
    runs = {}
    for workload in metrics.WORKLOADS:
        for trace in (0, 1):
            for repeat in (0, 1):
                out = tmp / f"{workload}-{trace}-{repeat}.json"
                done, last = quick_run(workload, trace, out)
                assert done.returncode == 0, done.stdout + done.stderr
                record = json.loads(out.read_text())
                assert record["quick"] is True
                runs[workload, trace, repeat] = (
                    last, record["workloads"][workload])
    return runs


def test_quick_run_emits_exactly_the_contract_metrics(quick):
    wanted = {0: CONTRACT["end_to_end"], 1: CONTRACT["per_layer"]}
    for (workload, trace, _repeat), (last, _entry) in quick.items():
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert isinstance(last["attempted"], int) and last["attempted"] >= 1
        assert {name: m["unit"] for name, m in last["metrics"].items()} == {
            row["name"]: row["unit"] for row in wanted[trace]}, workload
        if trace == 0:
            assert all(m["value"] > 0 for m in last["metrics"].values())


def test_quick_runs_repeat_exactly(quick):
    exact = metrics.EXACT
    for workload in metrics.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            first = quick[workload, trace, 0][1]
            second = quick[workload, trace, 1][1]
            assert first["sim_digest"] == second["sim_digest"]
            for name in exact & set(first[section]):
                assert (first[section][name]["value"]
                        == second[section][name]["value"]), (workload, name)


def test_injected_wrong_payload_raises_failed_ops_share(tmp_path):
    out = tmp_path / "bad.json"
    done, last = quick_run("fig9_sim", 0, out, "--corrupt-op", "0")
    assert done.returncode != 0
    assert last["correct"] is False and last["failed"] >= 1
    entry = json.loads(out.read_text())["workloads"]["fig9_sim"]
    assert entry["end_to_end"]["failed_ops_share"]["value"] > 0


def test_record_refuses_quick_runs():
    done = subprocess.run(RUN + ["--quick", "--record"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "--record" in done.stderr
