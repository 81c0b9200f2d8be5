#!/usr/bin/env python
"""One-shot static-analysis gate: ruff + mypy + the repo's own AST lint
and schedule verifier.

The external tools are optional (install via ``pip install -e
'.[lint]'``; versions are pinned in ``pyproject.toml``): when a tool is
missing, its check is reported as SKIPPED and does not fail the gate —
containers that only carry the runtime toolchain still get the full
in-repo lint.  ``python -m repro lint`` always runs and always gates.

Exit status: 0 when every executed check passes, 1 otherwise.

Run:  python tools/run_static_checks.py [--verbose]
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)


def _have(module: str) -> bool:
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):
        return False


def _run_external(name: str, argv: list[str], verbose: bool) -> str:
    """Run one optional external tool; returns PASS/FAIL/SKIP."""
    if not _have(name):
        print(f"SKIP {name}: not installed "
              f"(pip install -e '.[lint]' to enable)")
        return "SKIP"
    proc = subprocess.run(argv, cwd=REPO_ROOT, capture_output=True,
                          text=True)
    status = "PASS" if proc.returncode == 0 else "FAIL"
    print(f"{status} {name}")
    if verbose or status == "FAIL":
        out = (proc.stdout + proc.stderr).strip()
        if out:
            print(out)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true",
                        help="show tool output even on success")
    args = parser.parse_args(argv)

    statuses = [
        _run_external("ruff", [sys.executable, "-m", "ruff", "check",
                               "src/repro"], args.verbose),
        _run_external("mypy", [sys.executable, "-m", "mypy"], args.verbose),
    ]

    from repro.analysis.lint import default_root, lint_paths

    findings = lint_paths([default_root()])
    for finding in findings:
        print(finding)
    status = "PASS" if not findings else "FAIL"
    print(f"{status} repro-lint ({len(findings)} finding(s))")
    statuses.append(status)

    statuses.append(_run_sched_verify())
    statuses.append(_run_race_gate())

    return 1 if "FAIL" in statuses else 0


def _run_sched_verify() -> str:
    """Verify the shipped schedule repertoire and the broken fixtures."""
    from repro.analysis.sched_fixtures import broken_schedules
    from repro.analysis.schedverify import (ScheduleVerifyError,
                                            verify_hier_repertoire,
                                            verify_repertoire,
                                            verify_schedule,
                                            verify_synth_repertoire)
    from repro.sched.builders import FIXED_KINDS

    try:
        checked = verify_repertoire()
        # scatter(v)/gather(v)/exscan: one builder each, no algo= choice.
        checked += verify_repertoire(ps=(*range(2, 10), 47, 48),
                                     kinds=FIXED_KINDS)
    except ScheduleVerifyError as err:
        print(f"FAIL sched-verify (shipped repertoire)\n{err}")
        return "FAIL"
    try:
        checked += verify_synth_repertoire()
    except ScheduleVerifyError as err:
        print(f"FAIL sched-verify (synthesized repertoire)\n{err}")
        return "FAIL"
    try:
        checked += verify_hier_repertoire()
    except ScheduleVerifyError as err:
        print(f"FAIL sched-verify (hierarchical repertoire)\n{err}")
        return "FAIL"
    missed = []
    for name, (sched, rule) in broken_schedules().items():
        rules = {d.rule for d in verify_schedule(sched)}
        if rule not in rules:
            missed.append(f"{name}: expected {rule}, got {sorted(rules)}")
    if missed:
        print("FAIL sched-verify (fixtures not flagged)")
        for line in missed:
            print(f"  {line}")
        return "FAIL"
    print(f"PASS sched-verify ({checked} schedules verified, "
          f"{len(broken_schedules())} fixtures flagged)")
    return "PASS"


def _run_race_gate() -> str:
    """Bounded race-detection smoke: every known-racy fixture must be
    flagged with its documented rule, and a small clean subset of the
    collective repertoire must produce zero candidates.  The full clean
    gate (all kinds x stacks x cores + synthesized winners, with the
    interleaving explorer) runs as ``python -m repro race --gate``."""
    from repro.analysis.fixtures import RACE_FIXTURES, run_race_fixture
    from repro.analysis.races import collective_scenario, run_detected

    missed = []
    for fixture in RACE_FIXTURES:
        rules = {d.rule for d in run_race_fixture(fixture).diagnostics}
        if not set(fixture.rules) <= rules:
            missed.append(f"{fixture.name}: expected {fixture.rules}, "
                          f"got {sorted(rules)}")
    if missed:
        print("FAIL race-gate (fixtures not flagged)")
        for line in missed:
            print(f"  {line}")
        return "FAIL"
    dirty = []
    for stack in ("blocking", "lightweight_balanced"):
        scenario = collective_scenario("allreduce", stack, 4, 96)
        detector, failure = run_detected(scenario)
        if failure is not None or detector.total_findings:
            dirty.append(f"{scenario.name}: failure={failure}, "
                         f"{detector.total_findings} candidate(s)")
    if dirty:
        print("FAIL race-gate (clean subset has candidates)")
        for line in dirty:
            print(f"  {line}")
        return "FAIL"
    print(f"PASS race-gate ({len(RACE_FIXTURES)} fixtures flagged, "
          "clean smoke subset)")
    return "PASS"


if __name__ == "__main__":
    sys.exit(main())
