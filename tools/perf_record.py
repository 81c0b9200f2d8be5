#!/usr/bin/env python
"""Append benchmark measurements to the committed performance trajectory.

``benchmarks/perf/`` (and its ``history.jsonl``) is frozen, so the
trajectory of record lives beside the other results:
``benchmarks/results/perf_trajectory.jsonl``, one JSON line per
(checkout, workload, seed) measurement::

    {"sha": ..., "dirty": ..., "label": ..., "host": {...}, "seed": ...,
     "seconds": ..., "workload": ..., "metrics": {...}, "sim_digest": ...}

For every named workload and seed this runs ``benchmarks/perf/run.py
--workload W --seed S --seconds 12 --trace 0 --out FILE`` in the checkout
``--repo`` (default: this one) and appends that run's end-to-end
metrics.  The run length is fixed, so every line of the trajectory is
comparable.  ``sha`` is the checkout's ``HEAD``; ``dirty`` says whether
its tracked files (the trajectory aside) differed from it: a measurement
of uncommitted work on top of ``sha``.  Measure a parent and its change
alternately — parent, change, parent, change — and label the lines, so
that every pair shares the host's load:

    python tools/perf_record.py --repo ../parent --label parent \\
        --workloads fig9_sim --seeds 1
    python tools/perf_record.py --label change --workloads fig9_sim --seeds 1

Earlier lines are never rewritten.  Exit status: non-zero when a run
fails or reports failed ops (nothing is appended for it).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(REPO_ROOT, "benchmarks", "results",
                          "perf_trajectory.jsonl")
SECONDS = 12


def git(repo: str, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=repo, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def measure(repo: str, workload: str, seed: int) -> dict:
    """One ``run.py`` measurement in ``repo``: its ``--out`` record."""
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "record.json")
        subprocess.run(
            [sys.executable, os.path.join("benchmarks", "perf", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", "0", "--out", out],
            cwd=repo, check=True, stdout=subprocess.DEVNULL)
        with open(out) as fh:
            return json.load(fh)


def trajectory_line(repo: str, label: str, record: dict,
                    workload: str) -> dict:
    entry = record["workloads"][workload]
    if entry["failed"]:
        raise RuntimeError(f"{workload} seed {record['seed']}: "
                           f"{entry['failed']} failed ops: "
                           f"{entry['failures']}")
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sha": git(repo, "rev-parse", "HEAD"),
        # The trajectory file itself does not make a checkout dirty.
        "dirty": bool(git(repo, "status", "--porcelain",
                          "--untracked-files=no", "--", ".",
                          ":!benchmarks/results/perf_trajectory.jsonl")),
        "label": label,
        "host": record["host"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        "workload": workload,
        "metrics": {name: metric["value"]
                    for name, metric in entry["end_to_end"].items()},
        "sim_digest": entry["sim_digest"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--repo", default=REPO_ROOT,
                    help="checkout to measure (default: this one)")
    ap.add_argument("--label", default="",
                    help="free text stored with every line (parent, ...)")
    args = ap.parse_args(argv)
    repo = os.path.abspath(args.repo)
    worst = 0
    for workload in args.workloads:
        for seed in args.seeds:
            try:
                line = trajectory_line(
                    repo, args.label,
                    measure(repo, workload, seed), workload)
            except (subprocess.CalledProcessError, RuntimeError) as exc:
                print(f"perf_record: {workload} seed {seed}: {exc}",
                      file=sys.stderr)
                worst = 1
                continue
            with open(TRAJECTORY, "a") as fh:   # append-only
                fh.write(json.dumps(line, sort_keys=True) + "\n")
            print(f"{args.label or repo} {workload} seed={seed} "
                  + " ".join(f"{k}={v:.6g}"
                             for k, v in sorted(line["metrics"].items())))
    return worst


if __name__ == "__main__":
    sys.exit(main())
