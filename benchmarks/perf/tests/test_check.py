"""check.py verdicts and the append-only history."""

import argparse
import copy
import io
import json

import check
import run


def record(**metrics):
    entry = {"sim_digest": "abc", "end_to_end": {
        "ops_per_s": {"value": 10.0, "unit": "1/s", "spread": 0.02},
        "sim_us_total": {"value": 1234.5, "unit": "sim_us"},
        "failed_ops_share": {"value": 0.0, "unit": "share"}}}
    entry["end_to_end"].update(metrics)
    return {"schema": 1, "seed": 1, "seconds": 10, "quick": False,
            "host": {"python": "3.11", "numpy": "2", "platform": "x",
                     "nproc": 2},
            "workloads": {"fig9_sim": entry}}


def verdicts(a, b):
    out = io.StringIO()
    code = check.compare(a, b, out)
    return code, out.getvalue()


def test_same_record_agrees():
    code, text = verdicts(record(), record())
    assert code == 0 and "REGRESSED" not in text and "CHANGED" not in text


def test_exact_metric_must_not_move():
    b = record(sim_us_total={"value": 1234.6, "unit": "sim_us"})
    code, text = verdicts(record(), b)
    assert code == 1 and "CHANGED" in text and "sim_us_total" in text


def test_digest_must_not_move():
    b = record()
    b["workloads"]["fig9_sim"]["sim_digest"] = "abd"
    assert verdicts(record(), b)[0] == 1


def test_host_time_beyond_its_bound_regresses():
    bound = check.bounds()["ops_per_s"]
    worse = record(ops_per_s={"value": 10.0 * (1 - bound) - 0.1,
                              "unit": "1/s", "spread": 0.02})
    within = record(ops_per_s={"value": 10.0 * (1 - bound) + 0.1,
                               "unit": "1/s", "spread": 0.02})
    assert verdicts(record(), worse)[0] == 1
    assert verdicts(record(), within)[0] == 0
    faster = record(ops_per_s={"value": 20.0, "unit": "1/s",
                               "spread": 0.02})
    assert verdicts(record(), faster)[0] == 0


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = record(ops_per_s={"value": 5.0, "unit": "1/s", "spread": 0.5})
    code, text = verdicts(record(), noisy)
    assert code == 0 and "unresolved" in text and "REGRESSED" not in text


def test_records_that_are_not_comparable_are_refused(tmp_path):
    for key, value in (("seed", 2), ("quick", True),
                       ("host", {"python": "3.12"})):
        other = record()
        other[key] = value
        assert check.comparable(record(), other)
        paths = []
        for i, rec in enumerate((record(), other)):
            paths.append(tmp_path / f"{key}-{i}.json")
            paths[-1].write_text(json.dumps(rec))
        assert check.main([str(p) for p in paths]) == 2
    quick = record()
    quick["quick"] = True
    assert check.comparable(quick, copy.deepcopy(quick))


def test_repeats_merge_to_medians_with_their_spread():
    def entry(rate, digest="abc"):
        return {"sim_digest": digest, "attempted": 3, "failed": 0,
                "failures": [], "end_to_end": {
                    "ops_per_s": {"value": rate, "unit": "1/s",
                                  "spread": 0.01}}}

    merged = run.merge_repeats([entry(1.0), entry(0.6), entry(1.1)])
    rate = merged["end_to_end"]["ops_per_s"]
    assert rate["value"] == 1.0 and abs(rate["spread"] - 0.5) < 1e-9
    assert merged["attempted"] == 9 and not merged["failures"]
    assert run.merge_repeats([entry(1.0), entry(1.0, "abd")])["failures"]


def test_history_only_grows(tmp_path, monkeypatch):
    history = tmp_path / "history.jsonl"
    monkeypatch.setattr(run, "HISTORY", history)
    args = argparse.Namespace(seed=7)
    merged = {"fig9_sim": {"sim_digest": "abc", "end_to_end": {
        "ops_per_s": {"value": 3.0, "unit": "1/s"}}}}
    run.append_history(args, 10, merged)
    first = history.read_text()
    run.append_history(args, 10, merged)
    lines = history.read_text().splitlines()
    assert history.read_text().startswith(first) and len(lines) == 2
    assert json.loads(lines[1])["workloads"]["fig9_sim"] == {
        "end_to_end": {"ops_per_s": 3.0}, "sim_digest": "abc"}
