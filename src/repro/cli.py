"""Command-line interface: regenerate the paper's results from the shell.

Examples::

    python -m repro info
    python -m repro fig6
    python -m repro fig9 9f --sizes 548:581:1
    python -m repro fig10 --cycles 4
    python -m repro stepwise
    python -m repro sweep allreduce --stacks blocking mpb --sizes 552:577:4
    python -m repro sweep allreduce --stacks tuned --sizes 552:577:4 \\
        --algorithm recursive_halving
    python -m repro sweep --topology cluster:2x24 --kinds allreduce
    python -m repro info --topology torus:6x4
    python -m repro tune --topology cluster:2x24
    python -m repro sweep allreduce --stacks blocking mpb --jobs 4
    python -m repro tune --cores 8 48 --sizes 16,64,256,600
    python -m repro tune --kinds scan bcast --cores 8
    python -m repro synth --smoke
    python -m repro synth --kinds scan --cores 48 --sizes 1024 --frontier
    python -m repro gcmc --stack mpb --cycles 5
    python -m repro profile allreduce --stack mpb --sizes 1024
    python -m repro chaos --profile heavy --seeds 1:6 --trace-out chaos
    python -m repro lint
    python -m repro sanitize allreduce --stacks mpb --cores 2 47 48
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.driver import run_gcmc
from repro.bench.executor import ResultCache, run_sweep
from repro.bench.figures import (
    FIG9_PANELS,
    FIG10_STACKS,
    fig6,
    fig9,
    fig10,
)
from repro.bench.report import Series, format_series_table
from repro.bench.runner import (
    KINDS,
    latencies_by_stack,
    launch_collective,
    measure_collective,
    parse_sizes_spec,
    sweep_points,
)
from repro.core.registry import STACKS, available_stacks, launch
from repro.hw.config import CLOCK_PRESETS, SCCConfig
from repro.hw.machine import Machine
from repro.obs.profile import profile_collective
from repro.sched.builders import SCHEDULED_KINDS


def _parse_sizes(spec: str) -> list[int]:
    """A ``--sizes`` value: ``start:stop:step`` or a comma list."""
    if ":" in spec:
        return parse_sizes_spec(spec, source="--sizes")
    try:
        return [int(x) for x in spec.split(",")]
    except ValueError:
        raise ValueError(
            f"malformed --sizes spec {spec!r}: expected 'start:stop:step' "
            f"or a comma list of integers, e.g. '552,576'") from None


def _config(args: argparse.Namespace) -> SCCConfig:
    """The chip ``--topology`` names (the default chip when absent)."""
    return (SCCConfig() if args.topology is None
            else SCCConfig(topology=args.topology))


def _cmd_info(args: argparse.Namespace) -> int:
    cfg = _config(args)
    machine = Machine(cfg)
    topo = machine.topology
    print(f"Simulated Intel SCC (standard preset, "
          f"topology {cfg.topology!r})")
    chips = f" x {topo.chips} chips" if topo.chips > 1 else ""
    print(f"  cores            : {cfg.num_cores} "
          f"({topo.cols}x{topo.rows} tiles x "
          f"{topo.cores_per_tile} cores{chips})")
    print(f"  clocks           : core {cfg.core_freq_hz / 1e6:.0f} MHz, "
          f"mesh {cfg.mesh_freq_hz / 1e6:.0f} MHz, "
          f"DRAM {cfg.dram_freq_hz / 1e6:.0f} MHz")
    print(f"  MPB              : {cfg.mpb_bytes_per_core} B/core "
          f"({cfg.mpb_flag_bytes} B flags)")
    print(f"  L1 line          : {cfg.l1_line_bytes} B "
          f"({cfg.doubles_per_line} doubles)")
    print(f"  mesh diameter    : {topo.max_hops()} hops "
          f"(mean {topo.average_hops():.2f})")
    print(f"  arbiter erratum  : "
          f"{'modeled (workaround active)' if cfg.erratum_enabled else 'fixed'}")
    print(f"  stacks           : {', '.join(STACKS)}")
    print(f"  clock presets    : {', '.join(sorted(CLOCK_PRESETS))}")
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    print(fig6(p=args.cores))
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes) if args.sizes else None
    result = fig9(args.panel, sizes=sizes, cores=args.cores)
    print(result.render())
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    stacks = tuple(args.stacks) if args.stacks else FIG10_STACKS
    result = fig10(cycles=args.cycles, stacks=stacks)
    print(result.render())
    return 0


def _cmd_stepwise(args: argparse.Namespace) -> int:
    n = args.size
    print(f"Section IV step-wise Allreduce speedups (n = {n}):")
    lat = {}
    for stack in ("blocking", "ircce", "lightweight",
                  "lightweight_balanced", "mpb"):
        lat[stack] = measure_collective("allreduce", stack, n,
                                        cores=args.cores)
    chain = list(lat)
    for before, after in zip(chain, chain[1:]):
        print(f"  {before:>22} -> {after:<22} "
              f"{lat[before] / lat[after]:5.2f}x")
    print(f"  {'blocking':>22} -> {'mpb':<22} "
          f"{lat['blocking'] / lat['mpb']:5.2f}x (combined)")
    return 0


#: Compact default sizes for `sweep` when --sizes is omitted: one short
#: vector plus the paper's 552-double application case.
SWEEP_DEFAULT_SIZES = (64, 552)


def _cmd_sweep(args: argparse.Namespace) -> int:
    kinds = list(args.kinds) if args.kinds else (
        [args.kind] if args.kind else [])
    if not kinds:
        print("sweep: name a collective (positional kind or --kinds)",
              file=sys.stderr)
        return 2
    sizes = (_parse_sizes(args.sizes) if args.sizes
             else list(SWEEP_DEFAULT_SIZES))
    cache = (False if args.no_cache
             else ResultCache(args.cache_dir) if args.cache_dir else None)
    for kind in kinds:
        points = sweep_points(kind, args.stacks, sizes, args.cores,
                              algo=args.algorithm, topology=args.topology)
        outcome = run_sweep(points, jobs=args.jobs, cache=cache,
                            engine=args.engine)
        data = latencies_by_stack(outcome.latencies, args.stacks, sizes)
        if len(kinds) > 1:
            print(f"== {kind} ==")
        series = [Series.from_lists(stack, sizes, data[stack])
                  for stack in args.stacks]
        print(format_series_table(series))
        accounting = (f"{outcome.points} points in {outcome.wall_s:.2f}s "
                      f"(jobs={outcome.jobs}, cache hits {outcome.hits}, "
                      f"simulated {outcome.misses}")
        if outcome.analytic:
            accounting += f", analytic {outcome.analytic}"
        if outcome.validated:
            accounting += (f", validated {outcome.validated} "
                           f"[max drift {outcome.max_drift:+.1%}]")
        print(accounting + ")")
    return 0


def _cmd_gcmc(args: argparse.Namespace) -> int:
    cfg = GCMCConfig(initial_particles=args.particles,
                     capacity=max(2 * args.particles, args.particles + 16))
    machine, comm = launch(args.stack)
    result = run_gcmc(machine, comm, cfg, args.cycles)
    obs = result.observables
    print(f"GCMC on {machine.config.num_cores} simulated cores, "
          f"stack {args.stack!r}:")
    print(f"  cycles            : {result.cycles}")
    print(f"  final energy      : {result.final_energy:.4f}")
    print(f"  final particles   : {result.final_particles}")
    print(f"  mean energy       : {obs.mean_energy:.4f}")
    print(f"  acceptance ratio  : {obs.acceptance_ratio:.2f}")
    print(f"  simulated runtime : {result.elapsed_us / 1000:.1f} ms")
    print(f"  wait fraction     : {result.wait_fraction():.2f}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    for size in _parse_sizes(args.sizes):
        prof = profile_collective(args.kind, args.stack, size,
                                  cores=args.cores, trace=not args.no_trace)
        print(prof.wait_profile_table())
        print()
        if not args.no_trace:
            print(prof.phase_table())
            print()
        paths = prof.write(args.out)
        for path in paths.values():
            print(f"wrote {path}")
        dropped = prof.machine.sim.tracer.dropped
        if dropped:
            print(f"warning: the tracer reached its capacity and dropped "
                  f"{dropped} record(s); the trace and the phase table "
                  f"are cut short", file=sys.stderr)
        print()
    return 0


def _parse_seeds(spec: str) -> list[int]:
    """A ``--seeds`` value: ``start:stop`` or a comma list."""
    try:
        if ":" in spec:
            start, stop = (int(x) for x in spec.split(":"))
            return list(range(start, stop))
        return [int(x) for x in spec.split(",")]
    except ValueError:
        raise ValueError(
            f"malformed --seeds spec {spec!r}: expected 'start:stop' or a "
            f"comma list of integers, e.g. '1:4' or '1,2,3'") from None


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.campaign import (
        CHAOS_KINDS,
        CHAOS_PROFILES,
        GCMC_CHAOS_STACKS,
        run_campaign,
        run_gcmc_campaign,
        run_trial,
    )

    kinds = tuple(args.kinds) if args.kinds else CHAOS_KINDS
    seeds = _parse_seeds(args.seeds)
    if args.app == "gcmc":
        import pathlib

        from repro.ensemble.summary import EnsembleSummary

        stacks = (tuple(args.stacks) if args.stacks
                  else GCMC_CHAOS_STACKS)
        summary = EnsembleSummary.load(
            pathlib.Path(args.summary) if args.summary else None)
        camp = run_gcmc_campaign(summary, profile=args.profile,
                                 stacks=stacks, seeds=seeds)
    else:
        stacks = tuple(args.stacks) if args.stacks else tuple(STACKS)
        camp = run_campaign(profile=args.profile, kinds=kinds,
                            stacks=stacks, seeds=seeds, size=args.size,
                            cores=args.cores, iters=args.iters,
                            watchdog_us=args.watchdog_us)
    print(camp.survival_table())
    print()
    print("injected faults:",
          ", ".join(f"{k}={n}" for k, n in camp.fault_totals().items())
          or "(none)")
    for t in camp.failures():
        print(f"CONTRACT VIOLATION: {t.kind}/{t.stack} seed={t.seed} "
              f"-> {t.outcome}: {t.detail}")
    if args.trace_out and args.app == "collectives":
        import os

        from repro.faults.plan import FaultPlan
        from repro.obs.export import write_chrome_trace
        from repro.obs.spans import extract_spans

        plan = CHAOS_PROFILES[args.profile]
        traced = run_trial(kinds[0], stacks[0],
                           plan.with_seed(seeds[0]), size=args.size,
                           cores=args.cores, iters=args.iters,
                           watchdog_us=args.watchdog_us, trace=True)
        os.makedirs(args.trace_out, exist_ok=True)
        path = os.path.join(
            args.trace_out,
            f"chaos_{kinds[0]}_{stacks[0]}_{args.profile}.trace.json")
        write_chrome_trace(path, traced.records,
                           extract_spans(traced.records))
        print(f"wrote {path}")
    return 1 if camp.failures() else 0


def _cmd_tune(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.sched.select import (
        DEFAULT_PS,
        DEFAULT_SIZES,
        SelectionTable,
        build_selection_table,
    )

    kinds = tuple(args.kinds) if args.kinds else None
    ps = tuple(args.cores) if args.cores else DEFAULT_PS
    sizes = (tuple(_parse_sizes(args.sizes)) if args.sizes
             else DEFAULT_SIZES)
    table = build_selection_table(kinds, ps, sizes, _config(args),
                                  synth=not args.no_synth)
    tuned = sum(len(v) for v in table.entries.values())
    # A --topology run tunes one shape's slot; treat it as partial so it
    # merges into the committed table instead of replacing it.
    partial = bool(args.kinds or args.cores or args.sizes
                   or args.topology)
    out = pathlib.Path(args.out) if args.out else None
    if partial and not args.fresh:
        # A filtered run only re-tunes the requested slice; overlay it on
        # the existing table so the other points survive.
        try:
            existing = SelectionTable.load(out)
        except (OSError, ValueError, json.JSONDecodeError):
            existing = None
        if existing is not None:
            existing.merge(table)
            table = existing
            print(f"merged {tuned} re-tuned entries into the existing "
                  f"table (use --fresh to start over)")
    for kind in table.kinds():
        counts: dict[str, int] = {}
        for algo in table.entries[kind].values():
            counts[algo] = counts.get(algo, 0) + 1
        summary = ", ".join(f"{a} x{c}" for a, c in sorted(counts.items()))
        print(f"  {kind:<15} {summary}")
    path = table.save(out)
    entries = sum(len(v) for v in table.entries.values())
    line = f"wrote {path} ({entries} entries"
    if table.topologies:
        extra = sum(len(v) for sub in table.topologies.values()
                    for v in sub.entries.values())
        line += (f" + {extra} across {len(table.topologies)} extra "
                 f"topology slot(s)")
    print(line + ")")
    return 0


#: The `synth --smoke` grid: every pipelinable kind plus one partitioned
#: kind, small rank counts (odd + power of two), two sizes — enough to
#: exercise every candidate family through the verifier in seconds.
SYNTH_SMOKE_KINDS = ("bcast", "reduce", "scan", "allreduce")
SYNTH_SMOKE_PS = (2, 5, 8)
SYNTH_SMOKE_SIZES = (8, 64)


def _cmd_synth(args: argparse.Namespace) -> int:
    import time

    from repro.sched.synth import default_model, synthesize

    if args.smoke:
        kinds = SYNTH_SMOKE_KINDS
        ps, sizes, verify = SYNTH_SMOKE_PS, SYNTH_SMOKE_SIZES, True
    else:
        kinds = tuple(args.kinds) if args.kinds else SCHEDULED_KINDS
        ps = tuple(args.cores) if args.cores else (2, 8, 48)
        sizes = (tuple(_parse_sizes(args.sizes)) if args.sizes
                 else (8, 64, 1024))
        verify = args.verify
    model = default_model()
    points = priced = wins = 0
    started = time.perf_counter()
    for kind in kinds:
        for p in ps:
            if p > model.config.num_cores:
                print(f"  (skipping p={p}: chip has "
                      f"{model.config.num_cores} cores)")
                continue
            for n in sizes:
                res = synthesize(kind, p, n, model,
                                 blocking=args.blocking, verify=verify)
                points += 1
                priced += len(res.candidates)
                best, hand = res.best, res.best_hand
                line = (f"{kind:<14} p={p:<3} n={n:<5} "
                        f"best {best.name} ({best.cost / 1e6:.1f}us est)")
                if best.synthesized:
                    wins += 1
                    line += (f"  beats {hand.name} "
                             f"({hand.cost / 1e6:.1f}us, "
                             f"{hand.cost / best.cost:.2f}x)")
                print(line)
                if args.frontier:
                    for c in res.frontier:
                        print(f"    frontier {c.name:<30} "
                              f"lat {c.latency_cost / 1e6:8.2f}us  "
                              f"bw {c.cost / 1e6:8.2f}us  "
                              f"rounds {c.rounds}")
    wall = time.perf_counter() - started
    print(f"priced {priced} candidates over {points} points in "
          f"{wall:.2f}s ({priced / wall:.0f} candidates/s"
          + ("; synthesized candidates verified" if verify else "")
          + ")")
    print(f"synthesized winner at {wins}/{points} points")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import main as lint_main

    return lint_main(args.paths)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.analysis.sanitizer import Sanitizer

    kinds = tuple(args.kinds) if args.kinds else KINDS
    stacks = tuple(args.stacks) if args.stacks else tuple(STACKS)
    total = 0
    for kind in kinds:
        for stack in stacks:
            for cores in args.cores:
                san = Sanitizer()
                launch_collective(kind, stack, args.size, cores=cores,
                                  observers=[san])
                label = f"{kind}/{stack} p={cores} n={args.size}"
                if san.total_findings:
                    total += san.total_findings
                    print(f"{label}: {san.total_findings} finding(s) "
                          f"{san.counts()}")
                    for diag in san.diagnostics[:args.show]:
                        print(f"  {diag}")
                else:
                    print(f"{label}: clean")
    if total:
        print(f"sanitize: {total} finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_race(args: argparse.Namespace) -> int:
    from repro.analysis.races import (collective_scenario, explore,
                                      run_detected, run_gate)

    kinds = tuple(args.kinds) if args.kinds else KINDS
    unknown = [k for k in kinds if k not in KINDS]
    if unknown:
        print(f"race: unknown kind(s) {unknown}; choose from "
              f"{', '.join(KINDS)}", file=sys.stderr)
        return 2
    stacks = tuple(args.stacks) if args.stacks else tuple(STACKS)
    seeds = tuple(range(1, args.seeds + 1))

    if args.fixtures:
        from repro.analysis.fixtures import (RACE_FIXTURES,
                                             race_fixture_scenario,
                                             run_race_fixture)

        missed = 0
        for fx in RACE_FIXTURES:
            detector = run_race_fixture(fx)
            rules = {d.rule for d in detector.diagnostics}
            if not set(fx.rules) <= rules:
                missed += 1
                print(f"{fx.name}: MISSED expected {fx.rules}, "
                      f"got {sorted(rules)}")
                continue
            line = f"{fx.name}: detected {sorted(rules)}"
            if not args.no_explore:
                report = explore(race_fixture_scenario(fx), seeds=seeds)
                verdict = ("confirmed" if report.confirmed else "benign")
                line += (f"; {verdict} after {report.runs} perturbed "
                         "run(s)")
                if report.confirmed:
                    line += f" [{report.confirmed[0].perturbation}]"
            print(line)
        if missed:
            print(f"race: {missed} fixture(s) undetected", file=sys.stderr)
            return 1
        return 0

    if args.gate:
        report = run_gate(kinds, stacks, cores=args.cores, size=args.size,
                          seeds=seeds, synth_limit=args.synth_limit,
                          progress=print)
        print(f"race gate: {report.scenarios} scenario(s), "
              f"{report.candidates} candidate(s), "
              f"{report.confirmed} confirmed")
        return 0 if report.clean else 1

    total_confirmed = 0
    total_candidates = 0
    for kind in kinds:
        for stack in stacks:
            for cores in args.cores:
                scenario = collective_scenario(kind, stack, cores,
                                               args.size)
                detector, failure = run_detected(scenario)
                if failure is not None:
                    print(f"{scenario.name}: baseline raised {failure}")
                candidates = detector.candidates()
                if not candidates:
                    print(f"{scenario.name}: clean")
                    continue
                total_candidates += len(candidates)
                print(f"{scenario.name}: {len(candidates)} candidate(s) "
                      f"{detector.counts()}")
                for diag in detector.diagnostics[:args.show]:
                    print(f"  {diag}")
                if args.no_explore:
                    continue
                report = explore(scenario, seeds=seeds, baseline=detector)
                total_confirmed += len(report.confirmed)
                for verdict in report.verdicts:
                    print(f"  {verdict}")
    if total_confirmed or (args.no_explore and total_candidates):
        print(f"race: {total_candidates} candidate(s), "
              f"{total_confirmed} confirmed", file=sys.stderr)
        return 1
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    """One-shot reproduction digest: Fig. 6, the Section-IV chain, and a
    compact Fig. 10 (full Fig. 9 panels via `fig9`, they take minutes)."""
    print(fig6())
    print()
    _cmd_stepwise(argparse.Namespace(size=552, cores=48))
    print()
    result = fig10(cycles=args.cycles)
    print(result.render())
    return 0


def _cmd_ensemble_summarize(args: argparse.Namespace) -> int:
    import pathlib

    from repro.ensemble.summary import (
        REFERENCE_CORES,
        REFERENCE_CYCLES,
        REFERENCE_MEMBERS,
        build_summary,
        reference_config,
    )

    cfg = reference_config().copy(seed=args.base_seed)
    if args.particles is not None:
        cfg = cfg.copy(initial_particles=args.particles,
                       capacity=max(2 * args.particles,
                                    args.particles + 16))
    if args.box is not None:
        cfg = cfg.copy(box=args.box)
    cycles = REFERENCE_CYCLES if args.cycles is None else args.cycles
    cores = REFERENCE_CORES if args.cores is None else args.cores
    members = REFERENCE_MEMBERS if args.members is None else args.members
    if cycles < args.block_size:
        print(f"error: --cycles {cycles} is shorter than one "
              f"--block-size {args.block_size} block; raise --cycles or "
              f"lower --block-size", file=sys.stderr)
        return 2
    summary = build_summary(cfg, cycles, cores, members=members,
                            block_size=args.block_size, jobs=args.jobs)
    path = summary.save(pathlib.Path(args.out) if args.out else None)
    print(summary.describe())
    print(f"wrote {path}")
    return 0


def _cmd_ensemble_check(args: argparse.Namespace) -> int:
    import pathlib
    from dataclasses import replace as _replace

    from repro.ensemble.features import extract_features
    from repro.ensemble.members import CandidateSpec, run_candidate
    from repro.ensemble.summary import (
        DEFAULT_MAX_PC_FAIL,
        DEFAULT_THRESHOLD,
        EnsembleSummary,
    )
    from repro.faults.campaign import CHAOS_PROFILES

    summary = EnsembleSummary.load(
        pathlib.Path(args.summary) if args.summary else None)
    plan = None
    if args.profile != "off" or args.force_corruption:
        plan = CHAOS_PROFILES[args.profile].with_seed(args.fault_seed)
        if args.force_corruption:
            plan = _replace(plan, payload_corrupt_prob=1.0,
                            payload_corrupt_max=1, checksums=False)
    label_bits = [args.engine, args.stack]
    if args.algorithm:
        label_bits.append(f"algo={args.algorithm}")
    if plan is not None:
        label_bits.append(f"faults={args.profile}"
                          + ("+corrupt" if args.force_corruption else "")
                          + f" seed={args.fault_seed}")
    if args.engine == "serial" and plan is not None:
        print("fault profiles need the simulated machine; "
              "use --engine sim", file=sys.stderr)
        return 2
    spec = CandidateSpec(label=" ".join(label_bits), engine=args.engine,
                         stack=args.stack, seed=args.seed,
                         allreduce_algo=args.algorithm, plan=plan,
                         watchdog_us=(args.watchdog_us
                                      if args.engine == "sim" else None))
    cfg = summary.config()
    result = run_candidate(spec, cfg, int(summary.meta["cycles"]),
                           int(summary.meta["cores"]))
    check = summary.check(
        extract_features(result, int(summary.meta["block_size"])),
        threshold=(DEFAULT_THRESHOLD if args.threshold is None
                   else args.threshold),
        max_pc_fail=(DEFAULT_MAX_PC_FAIL if args.max_pc_fail is None
                     else args.max_pc_fail),
        label=spec.label)
    print(check.table())
    return 0 if check.passed else 1


def _cmd_ensemble_compare(args: argparse.Namespace) -> int:
    import pathlib

    from repro.ensemble.engines import GCMC_DRIFT_TOL, compare_engines
    from repro.ensemble.summary import EnsembleSummary

    summary = EnsembleSummary.load(
        pathlib.Path(args.summary) if args.summary else None)
    cmp = compare_engines(summary, stack=args.stack, seed=args.seed,
                          drift_tol=(GCMC_DRIFT_TOL if args.drift_tol
                                     is None else args.drift_tol))
    print(cmp.describe())
    return 0 if cmp.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Low-Latency Collectives for the "
                    "Intel SCC' (CLUSTER 2012)")
    sub = parser.add_subparsers(dest="command", required=True)

    pinfo = sub.add_parser("info", help="describe the simulated chip")
    pinfo.add_argument("--topology", default=None,
                       help="describe a topology registry spec instead "
                            "of the default chip (e.g. 'torus:6x4', "
                            "'cluster:2x24')")
    pinfo.set_defaults(func=_cmd_info)

    p6 = sub.add_parser("fig6", help="block-size table (Fig. 6)")
    p6.add_argument("--cores", type=int, default=48)
    p6.set_defaults(func=_cmd_fig6)

    p9 = sub.add_parser("fig9", help="latency panel (Fig. 9a-f)")
    p9.add_argument("panel", choices=sorted(FIG9_PANELS))
    p9.add_argument("--sizes", help="start:stop:step or comma list")
    p9.add_argument("--cores", type=int, default=None)
    p9.set_defaults(func=_cmd_fig9)

    p10 = sub.add_parser("fig10", help="application comparison (Fig. 10)")
    p10.add_argument("--cycles", type=int, default=None)
    p10.add_argument("--stacks", nargs="+", choices=list(STACKS))
    p10.set_defaults(func=_cmd_fig10)

    pstep = sub.add_parser("stepwise",
                           help="Section IV step-wise speedups")
    pstep.add_argument("--size", type=int, default=552)
    pstep.add_argument("--cores", type=int, default=48)
    pstep.set_defaults(func=_cmd_stepwise)

    psweep = sub.add_parser(
        "sweep", help="custom latency sweep (parallel, cached)")
    psweep.add_argument("kind", nargs="?", choices=list(KINDS),
                        default=None)
    psweep.add_argument("--kinds", nargs="+", choices=list(KINDS),
                        help="sweep several collectives in one run "
                             "(alternative to the positional kind)")
    psweep.add_argument("--stacks", nargs="+",
                        choices=list(available_stacks()),
                        default=["blocking", "lightweight_balanced"])
    psweep.add_argument("--sizes", default=None,
                        help="start:stop:step or comma list "
                             "(default: 64,552)")
    psweep.add_argument("--cores", type=int, default=None)
    psweep.add_argument("--topology", default=None,
                        help="topology registry spec to build every "
                             "machine on (e.g. 'mesh:4x4', "
                             "'cluster:2x24'); --cores defaults to the "
                             "shape's full core count — see "
                             "docs/topologies.md")
    psweep.add_argument("--algorithm", default=None,
                        help="override the per-size algorithm selection "
                             "with an algorithm name like 'rsag' "
                             "('sched:' prefix optional)")
    psweep.add_argument("--engine", choices=("sim", "analytic", "auto"),
                        default="sim",
                        help="pricing backend: simulate every point "
                             "(sim, default), closed-form BSP estimate "
                             "(analytic), or analytic with sampled sim "
                             "cross-validation (auto); see "
                             "docs/engines.md")
    psweep.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default REPRO_BENCH_JOBS "
                             "or 1; 0 = all CPUs)")
    psweep.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    psweep.add_argument("--cache-dir", default=None,
                        help="cache directory (default "
                             "benchmarks/results/.cache or "
                             "REPRO_BENCH_CACHE_DIR)")
    psweep.set_defaults(func=_cmd_sweep)

    pprof = sub.add_parser(
        "profile",
        help="per-phase wait profile + trace/metrics export")
    pprof.add_argument("kind", choices=list(KINDS))
    pprof.add_argument("--stack", default="mpb",
                       choices=list(available_stacks()))
    pprof.add_argument("--sizes", required=True,
                       help="start:stop:step or comma list")
    pprof.add_argument("--cores", type=int, default=None)
    pprof.add_argument("--out", default="profiles",
                       help="output directory for trace + metrics files")
    pprof.add_argument("--no-trace", action="store_true",
                       help="skip span tracing (accounts-only profile)")
    pprof.set_defaults(func=_cmd_profile)

    pchaos = sub.add_parser(
        "chaos",
        help="randomized fault campaign over collectives x stacks")
    pchaos.add_argument("--profile", default="default",
                        choices=["off", "light", "default", "heavy"])
    pchaos.add_argument("--kinds", nargs="+", choices=list(KINDS))
    pchaos.add_argument("--stacks", nargs="+", choices=list(STACKS))
    pchaos.add_argument("--seeds", default="1:4",
                        help="start:stop range or comma list")
    pchaos.add_argument("--size", type=int, default=64,
                        help="vector length per rank (doubles)")
    pchaos.add_argument("--cores", type=int, default=6)
    pchaos.add_argument("--iters", type=int, default=1,
                        help="repeat each collective (exercises the MPB "
                             "degradation fallback)")
    pchaos.add_argument("--watchdog-us", type=float, default=50_000.0,
                        help="virtual-time watchdog budget per trial")
    pchaos.add_argument("--trace-out", default=None,
                        help="directory for a Chrome trace of one "
                             "traced trial")
    pchaos.add_argument("--app", choices=("collectives", "gcmc"),
                        default="collectives",
                        help="what to put under chaos: single "
                             "collectives checked bit-exactly (default) "
                             "or full GCMC runs checked against the "
                             "statistical ensemble envelope")
    pchaos.add_argument("--summary", default=None,
                        help="ensemble summary JSON for --app gcmc "
                             "(default: the committed "
                             "benchmarks/results/ensemble_summary.json)")
    pchaos.set_defaults(func=_cmd_chaos)

    ptune = sub.add_parser(
        "tune",
        help="build the cost-model selection table for the tuned stack")
    ptune.add_argument("--kinds", nargs="+",
                       choices=list(SCHEDULED_KINDS),
                       help="collective kinds (default: every scheduled "
                            "kind)")
    ptune.add_argument("--cores", nargs="+", type=int,
                       help="rank counts to tune (default: the built-in "
                            "grid)")
    ptune.add_argument("--sizes", default=None,
                       help="start:stop:step or comma list (default: the "
                            "built-in grid)")
    ptune.add_argument("--topology", default=None,
                       help="tune for a topology registry spec (e.g. "
                            "'cluster:2x24'); the result merges into the "
                            "table's per-topology slot")
    ptune.add_argument("--out", default=None,
                       help="output path (default: "
                            "benchmarks/results/selection_table.json)")
    ptune.add_argument("--fresh", action="store_true",
                       help="with --kinds/--cores/--sizes: write only the "
                            "re-tuned slice instead of merging it into "
                            "the existing table")
    ptune.add_argument("--no-synth", action="store_true",
                       help="hand builders only (reproduce the pre-"
                            "synthesis tables)")
    ptune.set_defaults(func=_cmd_tune)

    psynth = sub.add_parser(
        "synth",
        help="search the synthesized schedule space (chunked transforms "
             "+ pipelined chains)")
    psynth.add_argument("--kinds", nargs="+",
                        choices=list(SCHEDULED_KINDS),
                        help="collective kinds (default: every scheduled "
                             "kind)")
    psynth.add_argument("--cores", nargs="+", type=int,
                        help="rank counts to search (default: 2 8 48)")
    psynth.add_argument("--sizes", default=None,
                        help="start:stop:step or comma list "
                             "(default: 8,64,1024)")
    psynth.add_argument("--verify", action="store_true",
                        help="push every synthesized candidate through "
                             "the static verifier and the numpy "
                             "interpreter before ranking it")
    psynth.add_argument("--blocking", action="store_true",
                        help="price for the blocking (RCCE rendezvous) "
                             "stack instead of the non-blocking ones")
    psynth.add_argument("--frontier", action="store_true",
                        help="print the latency/bandwidth Pareto "
                             "frontier at every point")
    psynth.add_argument("--smoke", action="store_true",
                        help="small fixed grid with verification on "
                             "(the CI gate)")
    psynth.set_defaults(func=_cmd_synth)

    plint = sub.add_parser(
        "lint",
        help="static determinism/protocol lint over src/repro")
    plint.add_argument("paths", nargs="*",
                       help="files or directories (default: the installed "
                            "repro package tree)")
    plint.set_defaults(func=_cmd_lint)

    psan = sub.add_parser(
        "sanitize",
        help="run collectives under the MPB/flag sanitizer")
    psan.add_argument("kinds", nargs="*", choices=list(KINDS),
                      help="collectives to check (default: all)")
    psan.add_argument("--stacks", nargs="+", choices=list(STACKS))
    psan.add_argument("--cores", nargs="+", type=int, default=[2, 47, 48])
    psan.add_argument("--size", type=int, default=96,
                      help="vector length per rank (doubles)")
    psan.add_argument("--show", type=int, default=5,
                      help="diagnostics to print per failing point")
    psan.set_defaults(func=_cmd_sanitize)

    prace = sub.add_parser(
        "race",
        help="happens-before race detection + adversarial interleaving "
             "explorer over the MPB flag protocol")
    # No choices= here: argparse (< 3.12.1) rejects an empty nargs="*"
    # list against choices, which would break bare `repro race --gate`;
    # _cmd_race validates the names itself.
    prace.add_argument("kinds", nargs="*", metavar="KIND",
                       help=f"collectives to check: {', '.join(KINDS)} "
                            "(default: all)")
    prace.add_argument("--stacks", nargs="+", choices=list(STACKS))
    prace.add_argument("--cores", nargs="+", type=int, default=[2, 47, 48])
    prace.add_argument("--size", type=int, default=96,
                       help="vector length per rank (doubles)")
    prace.add_argument("--show", type=int, default=5,
                       help="diagnostics to print per failing point")
    prace.add_argument("--seeds", type=int, default=3,
                       help="perturbation seeds per escalation level")
    prace.add_argument("--no-explore", action="store_true",
                       help="report candidates without re-executing them "
                            "under timing perturbations")
    prace.add_argument("--fixtures", action="store_true",
                       help="run the known-racy fixture catalogue instead "
                            "of the collective stacks")
    prace.add_argument("--gate", action="store_true",
                       help="clean-gate mode: kinds x stacks x cores plus "
                            "the synthesized winners of the committed "
                            "selection table; exit 1 on any confirmed race")
    prace.add_argument("--synth-limit", type=int, default=None,
                       help="cap the synthesized-winner scenarios in "
                            "--gate (default: all of them)")
    prace.set_defaults(func=_cmd_race)

    pp = sub.add_parser("paper",
                        help="one-shot digest: Fig. 6 + Section IV + Fig. 10")
    pp.add_argument("--cycles", type=int, default=4)
    pp.set_defaults(func=_cmd_paper)

    pens = sub.add_parser(
        "ensemble",
        help="statistical ensemble verification of GCMC (PCA envelope)")
    esub = pens.add_subparsers(dest="ensemble_command", required=True)

    psum = esub.add_parser(
        "summarize",
        help="run the seed ensemble and write the PCA envelope summary")
    psum.add_argument("--members", type=int, default=None,
                      help="ensemble size (default: the committed "
                           "reference, 32)")
    psum.add_argument("--cycles", type=int, default=None)
    psum.add_argument("--cores", type=int, default=None,
                      help="SPMD rank count the physics is decomposed "
                           "over")
    psum.add_argument("--base-seed", type=int, default=20120901,
                      help="members run base+1..base+members; the base "
                           "itself is held out for validation")
    psum.add_argument("--particles", type=int, default=None,
                      help="override the reference particle count")
    psum.add_argument("--box", type=float, default=None,
                      help="override the reference box edge")
    psum.add_argument("--block-size", type=int, default=8,
                      help="block size of the block-averaged energy "
                           "features")
    psum.add_argument("--jobs", type=int, default=None,
                      help="fork-pool workers (default REPRO_BENCH_JOBS "
                           "or 1; 0 = all CPUs)")
    psum.add_argument("--out", default=None,
                      help="output path (default: "
                           "benchmarks/results/ensemble_summary.json)")
    psum.set_defaults(func=_cmd_ensemble_summarize)

    pcheck = esub.add_parser(
        "check",
        help="score one candidate GCMC run against the stored envelope")
    pcheck.add_argument("--summary", default=None,
                        help="summary JSON (default: the committed one)")
    pcheck.add_argument("--engine", choices=("sim", "serial"),
                        default="sim",
                        help="run the candidate on the simulated machine "
                             "(default) or through the serial physics "
                             "runner")
    pcheck.add_argument("--stack", default="lightweight_balanced",
                        choices=list(available_stacks()))
    pcheck.add_argument("--seed", type=int, default=None,
                        help="GCMC seed (default: the summary's held-out "
                             "base seed)")
    pcheck.add_argument("--algorithm", default=None,
                        help="force one Allreduce algorithm for every "
                             "energy reduction (algorithm name, "
                             "'sched:' prefix optional)")
    pcheck.add_argument("--profile", default="off",
                        choices=["off", "light", "default", "heavy"],
                        help="chaos profile to run the candidate under")
    pcheck.add_argument("--fault-seed", type=int, default=1,
                        help="fault-injector seed for --profile/"
                             "--force-corruption")
    pcheck.add_argument("--force-corruption", action="store_true",
                        help="disable checksums and corrupt exactly one "
                             "MPB payload byte (the silent-corruption "
                             "scenario the gate exists for)")
    pcheck.add_argument("--threshold", type=float, default=None,
                        help="per-PC z-score bound (default 3.0)")
    pcheck.add_argument("--max-pc-fail", type=int, default=None,
                        help="PCs allowed outside the bound (default 1)")
    pcheck.add_argument("--watchdog-us", type=float, default=2_000_000.0,
                        help="virtual-time budget for the candidate run")
    pcheck.set_defaults(func=_cmd_ensemble_check)

    pcmp = esub.add_parser(
        "compare-engines",
        help="sim-vs-analytic GCMC acceptance test under the envelope")
    pcmp.add_argument("--summary", default=None,
                      help="summary JSON (default: the committed one)")
    pcmp.add_argument("--stack", default="lightweight_balanced",
                      choices=list(available_stacks()))
    pcmp.add_argument("--seed", type=int, default=None,
                      help="GCMC seed (default: the held-out base seed)")
    pcmp.add_argument("--drift-tol", type=float, default=None,
                      help="relative latency drift tolerance "
                           "(default 0.45)")
    pcmp.set_defaults(func=_cmd_ensemble_compare)

    pg = sub.add_parser("gcmc", help="run the GCMC application")
    pg.add_argument("--stack", default="mpb",
                    choices=list(available_stacks()))
    pg.add_argument("--cycles", type=int, default=4)
    pg.add_argument("--particles", type=int, default=240)
    pg.set_defaults(func=_cmd_gcmc)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
