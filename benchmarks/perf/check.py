#!/usr/bin/env python3
"""Compare two records written by ``run.py --out``.

    python benchmarks/perf/check.py A.json B.json     # A = baseline

Each metric is judged by its own bound (BENCHMARK.json for the metrics it
lists, ``metrics.py`` for the rest):

* exact metrics (simulated time, counts, digests: ``metrics.EXACT``)
  must be identical — anything else is ``CHANGED``;
* host-time metrics may get worse by at most their bound — beyond it they
  are ``REGRESSED``;
* a host-time metric whose own run-to-run spread (recorded with it) is
  wider than its bound is ``unresolved``, not unchanged: the two records
  cannot tell a regression from noise, so measure again (more pairs).

Records from different hosts, seeds or ``--quick`` runs are refused.
Exit status: 0 agree (unresolved metrics are listed), 1 disagree,
2 not comparable.
"""

from __future__ import annotations

import json
import pathlib
import sys

from metrics import BENCHMARK_JSON, BY_NAME, EXACT


def bounds() -> dict:
    table = {name: meta.bound for name, meta in BY_NAME.items()}
    contract = json.loads(BENCHMARK_JSON.read_text())
    table.update({m["name"]: m["bound"] for m in contract["end_to_end"]})
    return table


def comparable(a: dict, b: dict) -> list[str]:
    problems = []
    for key in ("host", "seed", "quick", "seconds"):
        if a.get(key) != b.get(key):
            problems.append(f"{key}: {a.get(key)!r} != {b.get(key)!r}")
    if a.get("quick") or b.get("quick"):
        problems.append("--quick records are for self-tests only")
    return problems


def judge(name: str, a: dict, b: dict, bound) -> tuple[str, str]:
    """(verdict, detail) for one metric present in both records."""
    va, vb = a["value"], b["value"]
    if name in EXACT:
        return ("ok" if va == vb else "CHANGED"), f"{va!r} -> {vb!r}"
    change = (vb - va) / va if va else 0.0
    worse = change if BY_NAME[name].better == "lower" else -change
    detail = f"{va:.6g} -> {vb:.6g} ({change:+.1%})"
    if bound is None:
        return "info", detail
    spread = max(a.get("spread", 0.0), b.get("spread", 0.0))
    if spread > bound:
        return "unresolved", f"{detail}, spread {spread:.1%} > {bound:.0%}"
    return ("REGRESSED" if worse > bound else "ok"), detail


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    table = bounds()
    counts: dict[str, int] = {}

    def report(workload, name, verdict, detail) -> None:
        counts[verdict] = counts.get(verdict, 0) + 1
        if verdict != "info":
            print(f"{verdict:<11}{workload:<16}{name:<36}{detail}",
                  file=out)

    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        ea = a["workloads"].get(workload)
        eb = b["workloads"].get(workload)
        if ea is None or eb is None:
            report(workload, "-", "CHANGED", "workload missing on one side")
            continue
        same = ea.get("sim_digest") == eb.get("sim_digest")
        report(workload, "sim_digest", "ok" if same else "CHANGED",
               f"{ea.get('sim_digest', '')[:12]} -> "
               f"{eb.get('sim_digest', '')[:12]}")
        for section in ("end_to_end", "per_layer"):
            ma, mb = ea.get(section, {}), eb.get(section, {})
            for name in sorted(set(ma) | set(mb)):
                if name not in ma or name not in mb:
                    report(workload, name, "CHANGED",
                           "metric missing on one side")
                    continue
                report(workload, name,
                       *judge(name, ma[name], mb[name], table[name]))
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())),
          file=out)
    return 1 if counts.get("CHANGED") or counts.get("REGRESSED") else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    problems = comparable(a, b)
    if problems:
        print("check.py: records are not comparable:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 2
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
