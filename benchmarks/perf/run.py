#!/usr/bin/env python3
"""The repo's benchmark of record.

    python benchmarks/perf/run.py                      # all six workloads
    python benchmarks/perf/run.py --trace              # ... plus traced runs
    python benchmarks/perf/run.py --workload W --seed S --seconds N --trace 0|1

With ``--workload`` the process measures that one workload itself and
prints, as its last line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
Without ``--workload`` each workload runs in a fresh child process of
that same form, one at a time.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from metrics import (BY_NAME, END_TO_END, OUT_DIR, PER_LAYER, PERF_DIR,
                     REPO_ROOT, RUN_SECONDS, SPAN_LAYERS, WORKLOADS)
from trace import Recorder

HISTORY = PERF_DIR / "history.jsonl"
DEFAULT_SEED = 20120901
SETUP_SAMPLES = 3
PROFILED_WORKLOADS = ("fig9_sim", "sched_topo_sim", "gcmc_app")
PROFILED_LAYERS = ("sim", "hw", "rcce", "ircce", "lwnb", "rckmpi", "core",
                   "sched", "bench", "obs", "analysis")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload in-process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="traced run: per-layer metrics")
    ap.add_argument("--out", help="write the JSON record here")
    ap.add_argument("--repeat", type=int, default=1,
                    help="all-workloads mode: untraced runs per workload; "
                         "the record holds their medians and their spread")
    ap.add_argument("--quick", action="store_true",
                    help="first 3 ops per workload, one pass (self-tests)")
    ap.add_argument("--profile", action="store_true",
                    help="one pass under cProfile: <layer>.profiled_share")
    ap.add_argument("--record", action="store_true",
                    help="append the end-to-end numbers to history.jsonl")
    ap.add_argument("--corrupt-op", type=int, default=None,
                    help="self-test: damage this op's output before checks")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def host_fingerprint() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": os.cpu_count()}


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def child_command(args, workload: str, *extra: str) -> list[str]:
    cmd = [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
           "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    return cmd + list(extra)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def prepare(args, rec):
    """Everything before the first timed op (this is what ``setup_s``
    times, from process start): imports, code fingerprint, selection
    table, input generation, warm-up ops."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure under {REPO_ROOT / 'src'}")
    sys.path.insert(0, str(REPO_ROOT / "src"))
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]  # user knobs must not reshape the workloads
    import workloads
    from repro.bench.executor import code_fingerprint
    from repro.sched.select import SelectionTable

    if args.workload not in workloads.BUILDERS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; known: "
                 f"{', '.join(workloads.BUILDERS)}")
    code_fingerprint()
    SelectionTable.load()
    workload = workloads.BUILDERS[args.workload](args.seed, rec,
                                                 args.corrupt_op)
    if args.quick:
        workload.ops = workload.ops[:3]
    workload.warmup()
    return workload


def measure_setup(args) -> list[float]:
    """Wall time of fresh children that only set up, one after another."""
    samples = []
    for _ in range(1 if args.quick else SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(child_command(args, args.workload, "--setup-only"),
                       check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def run_workload(args) -> int:
    traced = bool(args.trace)
    rec = Recorder(traced)
    workload = prepare(args, rec)
    if args.setup_only:
        return 0
    import harness  # needs repro on sys.path: after prepare()

    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    try:
        if args.profile:
            return profile_workload(args, workload)
        m = harness.measure(workload, seconds, rec, single_pass=args.quick)
        # Layer self times of the timed loop only: they add up to its
        # wall time.  Probe spans made after this still reach the file.
        loop_self = rec.self_by_layer(SPAN_LAYERS)
        extra, checked, problems = workload.finish(m)
        layer_values = workload.layers(m, rec) if traced else {}
    finally:
        workload.cleanup()
    attempted = m.attempted + checked
    failures = m.failures + problems
    failed = min(attempted, m.failed_units + len(problems))
    rate, rate_spread = harness.ops_per_s(m)
    sim_us, digest = harness.sim_totals(m)
    values = {"failed_ops_share": failed / attempted,
              "sim_events_per_s": harness.sim_events_per_s(m), **extra}
    spreads = {}
    if traced:
        values["traced_ops_per_s"] = rate
        values.update(layer_values)
        for layer, self_s in loop_self.items():
            values[f"{layer}.span_self_s"] = self_s
        unknown = sorted(set(values) - {x.name for x in PER_LAYER})
        if unknown:
            sys.exit(f"run.py: metrics missing from metrics.py: {unknown}")
        reported = {x.name: values.get(x.name, 0) for x in PER_LAYER}
    else:
        setups = measure_setup(args)
        values.update(
            setup_s=statistics.median(setups), ops_per_s=rate,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            sim_us_total=sim_us)
        spreads = {"setup_s": (max(setups) - min(setups))
                   / values["setup_s"],
                   "ops_per_s": rate_spread,
                   "sim_events_per_s": rate_spread}
        reported = {x.name: values[x.name] for x in END_TO_END}

    correct = not failures
    shown = {name: value for name, value in values.items()
             if workload.name in BY_NAME[name].workloads}
    print(f"== {workload.name}  seed={args.seed}  "
          f"{'traced' if traced else 'untraced'}  passes={m.passes}  "
          f"timed={m.wall_s:.2f}s  ops={len(m.ops)}"
          f"{'  QUICK' if args.quick else ''}")
    for name, value in shown.items():
        meta = BY_NAME[name]
        bound = ("exact" if meta.bound == 0 else
                 "no bound" if meta.bound is None else
                 f"bound {meta.bound:.0%}")
        print(f"  {name:<40} {value:>16.6g} {meta.unit:<9}"
              f"({meta.better} is better; {bound}) "
              f"[{meta.layer}] -> {meta.moves}")
    print(f"  sim_digest {digest}")
    for text in failures:
        print(f"  FAILED {text}")

    section = "per_layer" if traced else "end_to_end"
    entry = {section: {name: {"value": value, "unit": BY_NAME[name].unit,
                              **({"spread": spreads[name]}
                                 if name in spreads else {})}
                       for name, value in shown.items()},
             "sim_digest": digest, "attempted": attempted,
             "failed": failed, "failures": failures, "passes": m.passes,
             "ops": [{"name": op.name, "units": op.units,
                      "host_ms": [1e3 * s.host_s for s in samples]}
                     for op, samples in zip(m.ops, m.samples)]}
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        rec.dump(OUT_DIR / f"trace-{workload.name}.json")
    if args.out:
        write_record(args.out, args, seconds, {workload.name: entry})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": BY_NAME[name].unit}
                    for name, value in reported.items()}}))
    return 0 if correct else 1


def profile_workload(args, workload) -> int:
    """One pass under cProfile, tottime rolled up by ``repro.<package>``.
    Profiled shares are inflated by per-call overhead; never compare them
    with untraced seconds."""
    import cProfile
    import pstats

    import harness

    profiler = cProfile.Profile()
    profiler.enable()
    harness.measure(workload, 0.0, Recorder(False), single_pass=True)
    profiler.disable()
    by_layer = dict.fromkeys(PROFILED_LAYERS + ("other",), 0.0)
    marker = os.sep + os.path.join("src", "repro") + os.sep
    for (filename, _line, _fn), row in pstats.Stats(profiler).stats.items():
        layer = "other"
        if marker in filename:
            package = filename.split(marker, 1)[1].split(os.sep)[0]
            if package in PROFILED_LAYERS:
                layer = package
        by_layer[layer] += row[2]
    total = sum(by_layer.values())
    shares = {f"{layer}.profiled_share": t / total
              for layer, t in by_layer.items()}
    print(f"== {workload.name}  profiled (cProfile tottime, one pass, "
          f"{total:.2f}s profiled)")
    for name, share in shares.items():
        print(f"  {name:<40} {share:>16.4f} share")
    if args.out:
        write_record(args.out, args, 0.0,
                     {workload.name: {"profiled": shares}})
    return 0


# ----------------------------------------------------------------------
# All workloads, each in a fresh child process
# ----------------------------------------------------------------------
def write_record(path, args, seconds, workloads: dict) -> None:
    record = {"schema": 1, "seed": args.seed, "seconds": seconds,
              "quick": args.quick, "host": host_fingerprint(),
              "workloads": workloads}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_child(args, workload: str, *extra: str) -> tuple[int, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"record-{workload}-{os.getpid()}.json"
    code = subprocess.run(child_command(args, workload, "--out", str(out),
                                        *extra)).returncode
    entry = {}
    if out.is_file():
        entry = json.loads(out.read_text())["workloads"][workload]
        out.unlink()
    return code, entry


def run_all(args) -> int:
    if args.record and (args.quick or args.profile):
        sys.exit("run.py: --record takes a full run, not --quick/--profile")
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    timing = ["--seconds", str(seconds)]
    merged: dict = {}
    worst = 0
    names = PROFILED_WORKLOADS if args.profile else tuple(WORKLOADS)
    for name in names:
        if args.profile:
            code, entry = run_child(args, name, "--profile")
            worst = max(worst, code)
            merged[name] = entry
            continue
        runs = [run_child(args, name, *timing, "--trace", "0")
                for _ in range(args.repeat)]
        worst = max(worst, *(code for code, _ in runs))
        entry = merge_repeats([entry for _, entry in runs])
        worst = max(worst, int(bool(entry.get("failures"))))
        if args.trace:
            code, traced = run_child(args, name, *timing, "--trace", "1")
            worst = max(worst, code)
            entry["per_layer"] = traced.get("per_layer", {})
            entry["traced_failures"] = traced.get("failures", [])
            plain = entry.get("end_to_end", {}).get("ops_per_s")
            slow = entry["per_layer"].get("traced_ops_per_s")
            if plain and slow and slow["value"]:
                entry["trace_overhead_pct"] = 100.0 * (
                    plain["value"] / slow["value"] - 1.0)
                print(f"  trace_overhead_pct "
                      f"{entry['trace_overhead_pct']:.2f} %  ({name})")
        merged[name] = entry
    if args.out:
        write_record(args.out, args, seconds, merged)
    if args.record:
        if worst:
            sys.exit("run.py: --record refused: a workload failed")
        append_history(args, seconds, merged)
    return worst


def merge_repeats(entries: list[dict]) -> dict:
    """One entry from several untraced runs of a workload: the median of
    every metric, and (max - min) / median as its spread."""
    first = entries[0]
    if len(entries) == 1 or any("end_to_end" not in e for e in entries):
        return first
    merged = dict(first, attempted=sum(e["attempted"] for e in entries),
                  failed=sum(e["failed"] for e in entries),
                  failures=[f for e in entries for f in e["failures"]])
    if any(e["sim_digest"] != first["sim_digest"] for e in entries):
        merged["failures"].append("sim_digest differs between repeats")
    merged["end_to_end"] = {}
    for name, meta in first["end_to_end"].items():
        values = [e["end_to_end"][name]["value"] for e in entries]
        middle = statistics.median(values)
        merged["end_to_end"][name] = {
            "value": middle, "unit": meta["unit"], "runs": values,
            "spread": (max(values) - min(values)) / middle if middle
            else 0.0}
    return merged


def append_history(args, seconds, merged: dict) -> None:
    line = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(), "host": host_fingerprint(),
        "seed": args.seed, "seconds": seconds,
        "workloads": {
            name: {"end_to_end": {k: v["value"] for k, v in
                                  entry["end_to_end"].items()},
                   "sim_digest": entry["sim_digest"]}
            for name, entry in merged.items()}}
    with open(HISTORY, "a") as fh:  # append-only: earlier lines stay
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
