"""The metric vocabulary: every name the benchmark prints, in one table.

``BENCHMARK.json`` at the repo root is generated from this table
(``python benchmarks/perf/metrics.py --write``) and a self-test keeps the
two equal.  Later issues quote these names.

Each row: name, unit, better, bound, layer, moves, workloads.

* ``bound`` — share of the baseline median by which the metric may get
  worse.  ``0.0`` marks an *exact* metric (a deterministic count or a
  simulated time): ``check.py`` requires it to be identical between two
  records of the same seed.  ``None`` = informational timing, no verdict.
* ``moves`` — the end-to-end metric (and workload) this layer metric
  should move when its layer gets faster; written down before measuring.
* ``workloads`` — where the metric is measured.  Everywhere else it reads
  0, meaning "this workload does not exercise / measure it".
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import NamedTuple, Optional

PERF_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
#: What a run leaves behind: trace files, temporary caches, child records.
OUT_DIR = PERF_DIR / "out"

RUN_SECONDS = 12

WORKLOADS: dict[str, str] = {
    "fig9_sim": "paper Fig. 9 points at p=48 on the simulator: sim, "
                "hw.timing, the four p2p stacks and core do the work; "
                "sched, bench and observers do none",
    "sched_topo_sim": "the same layers through the schedule executor, the "
                      "tuned stack and non-default topologies: only sched "
                      "execution or the inter-chip tier moves it alone",
    "price_search": "no-simulation pricing (analytic sweep, synthesize, "
                    "select_algo): sched builders/cost/synth and "
                    "bench.analytic work, the kernel idles",
    "gcmc_app": "paper Fig. 10: three long single-machine GCMC runs, "
                "steady-state kernel dispatch plus numpy physics with "
                "set-up amortised; held-out accuracy check",
    "observed_sim": "the same points bare and under tracer, sanitizer, "
                    "race detector and fault jitter: hook sites and "
                    "observers do most of the work",
    "sweep_harness": "hundreds of cheap points through run_sweep cold, "
                     "pooled, cache-populating and warm: fingerprinting, "
                     "cache I/O, fork and per-point fixed cost dominate",
}

ALL = tuple(WORKLOADS)
SIM = ("fig9_sim", "sched_topo_sim", "gcmc_app", "observed_sim")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float]
    layer: str
    moves: str
    workloads: tuple[str, ...]


def _m(name, unit, better, bound, layer, moves, workloads) -> Metric:
    if isinstance(workloads, str):
        workloads = (workloads,)
    return Metric(name, unit, better, bound, layer, moves, tuple(workloads))


#: What a user of the system sees.  The first four are defined and
#: non-zero on every workload, so they are the ``end_to_end`` list of
#: BENCHMARK.json; the other four exist on some workloads only (or are 0
#: on a healthy run) and ride in its ``per_layer`` list instead.
END_TO_END: tuple[Metric, ...] = (
    _m("setup_s", "s", "lower", 0.25, "e2e",
       "child start to first timed op", ALL),
    _m("ops_per_s", "1/s", "higher", 0.25, "e2e",
       "ops per host second, tracing off", ALL),
    _m("peak_rss_mb", "MB", "lower", 0.15, "e2e",
       "ru_maxrss of the measuring process", ALL),
    _m("sim_us_total", "sim_us", "lower", 0.03, "e2e",
       "simulated (price_search: estimated) us summed over one pass", ALL),
)

E2E_PARTIAL: tuple[Metric, ...] = (
    _m("sim_events_per_s", "events/s", "higher", 0.25, "e2e",
       "kernel events per host second inside run_spmd", SIM),
    _m("failed_ops_share", "share", "lower", 0.0, "e2e",
       "failed / attempted ops", ALL),
    _m("paper_err_pct", "%", "lower", 0.0, "e2e",
       "mean |measured / paper - 1| x 100", ("fig9_sim", "gcmc_app")),
    _m("est_drift_pct_max", "%", "lower", 0.0, "e2e",
       "max |estimate - sim| / sim x 100 over the fixed sample",
       "price_search"),
    _m("traced_ops_per_s", "1/s", "higher", None, "e2e",
       "ops_per_s of the traced run; trace_overhead_pct comes from it",
       ALL),
)

_F9 = "fig9_sim"
_ST = "sched_topo_sim"
_PS = "price_search"
_GC = "gcmc_app"
_OB = "observed_sim"
_SW = "sweep_harness"
_KINDS = ("allgather", "alltoall", "reduce_scatter", "bcast", "reduce",
          "allreduce")
_P2P = ("rcce", "ircce", "lwnb", "rckmpi")
#: Layers the benchmark's own spans call into (``perf`` is the benchmark
#: itself: input generation, payload checks, probe scaffolding).
_SPAN_LAYERS = ("sim", "hw", *_P2P, "core", "sched", "bench", "obs",
                "analysis", "faults", "apps.gcmc", "cli", "perf")

LAYER: tuple[Metric, ...] = (
    # -- sim ---------------------------------------------------------------
    _m("sim.events", "count", "lower", 0.0, "sim",
       "sim_events_per_s, ops_per_s on fig9_sim, gcmc_app", SIM),
    _m("sim.host_us_per_event", "us", "lower", None, "sim",
       "sim_events_per_s, ops_per_s on fig9_sim, gcmc_app", SIM),
    _m("sim.run_spmd_s", "s", "lower", None, "sim",
       "ops_per_s on fig9_sim, gcmc_app", SIM),
    _m("sim.dispatch_ns_per_event", "ns", "lower", None, "sim",
       "sim_events_per_s on fig9_sim, gcmc_app; none on price_search, "
       "sweep_harness", (_F9, _GC)),
    # -- hw ----------------------------------------------------------------
    _m("hw.timing_lookup_ns_warm", "ns", "lower", None, "hw",
       "sim_events_per_s on fig9_sim", _F9),
    _m("hw.timing_lookup_ns_cold", "ns", "lower", None, "hw",
       "ops_per_s on price_search", _F9),
    *(_m(f"hw.machine_build_ms.{spec}", "ms", "lower", None, "hw",
         "ops_per_s on sweep_harness; setup_s", _ST)
      for spec in ("mesh-6x4", "torus-6x4", "cluster-2x24")),
    _m("hw.topo_build_ms_cold", "ms", "lower", None, "hw",
       "setup_s; ops_per_s on sweep_harness", _ST),
    _m("hw.mpb_bytes", "count", "lower", 0.0, "hw",
       "sim_us_total on fig9_sim, sched_topo_sim", (_F9, _ST)),
    _m("hw.mpb_accesses", "count", "lower", 0.0, "hw",
       "sim_us_total on fig9_sim, sched_topo_sim", (_F9, _ST)),
    _m("hw.flag_ops", "count", "lower", 0.0, "hw",
       "sim_us_total on fig9_sim, sched_topo_sim", (_F9, _ST)),
    _m("hw.link_line_hops", "count", "lower", 0.0, "hw",
       "sim_us_total on fig9_sim, sched_topo_sim", (_F9, _ST)),
    # -- p2p stacks --------------------------------------------------------
    *(m for s in _P2P for m in (
        _m(f"{s}.pingpong_sim_us", "sim_us", "lower", 0.0, s,
           "sim_us_total on fig9_sim", _F9),
        _m(f"{s}.pingpong_events", "count", "lower", 0.0, s,
           "ops_per_s on fig9_sim", _F9),
        _m(f"{s}.pingpong_host_us", "us", "lower", None, s,
           "ops_per_s on fig9_sim", _F9))),
    # -- core --------------------------------------------------------------
    *(_m(f"core.native_host_ms.{k}", "ms", "lower", None, "core",
         "ops_per_s on fig9_sim", _F9) for k in _KINDS),
    *(_m(f"core.events_per_op.{k}", "count", "lower", 0.0, "core",
         "ops_per_s on fig9_sim", _F9) for k in _KINDS),
    _m("core.op_ms_p50", "ms", "lower", None, "core",
       "ops_per_s on fig9_sim", _F9),
    _m("core.op_ms_p80", "ms", "lower", None, "core",
       "ops_per_s on fig9_sim", _F9),
    _m("core.op_samples", "count", "higher", None, "core",
       "sample count behind core.op_ms_p50/p80", _F9),
    # -- sched -------------------------------------------------------------
    _m("sched.build_ms_cold", "ms", "lower", None, "sched",
       "ops_per_s on price_search", _PS),
    _m("sched.build_us_warm", "us", "lower", None, "sched",
       "ops_per_s on price_search", _PS),
    _m("sched.cost_ms_cold", "ms", "lower", None, "sched",
       "ops_per_s on price_search", _PS),
    _m("sched.cost_us_warm", "us", "lower", None, "sched",
       "ops_per_s on price_search", _PS),
    _m("sched.synth_candidates_per_s_p8", "1/s", "higher", None, "sched",
       "ops_per_s on price_search", _PS),
    _m("sched.synth_candidates_per_s_p48", "1/s", "higher", None, "sched",
       "ops_per_s on price_search", _PS),
    _m("sched.synth_candidates", "count", "higher", 0.0, "sched",
       "ops_per_s on price_search", _PS),
    _m("sched.synth_wins", "count", "higher", 0.0, "sched",
       "sim_us_total on price_search", _PS),
    _m("sched.select_ms_cluster", "ms", "lower", None, "sched",
       "ops_per_s on price_search", _PS),
    _m("sched.table_load_ms", "ms", "lower", None, "sched",
       "setup_s; ops_per_s on price_search", _PS),
    _m("sched.pick_us_hit", "us", "lower", None, "sched",
       "ops_per_s on sched_topo_sim (tuned stack)", _PS),
    _m("sched.pick_us_miss", "us", "lower", None, "sched",
       "ops_per_s on sched_topo_sim (tuned stack)", _PS),
    _m("sched.table_hit_ratio", "share", "higher", 0.0, "sched",
       "ops_per_s on price_search", _PS),
    _m("sched.exec_vs_native_x", "x", "lower", None, "sched",
       "ops_per_s on sched_topo_sim; ROADMAP item 1 drives it to 1.0",
       _ST),
    # -- bench -------------------------------------------------------------
    _m("bench.analytic_ms_per_point_cold", "ms", "lower", None, "bench",
       "ops_per_s on price_search", _PS),
    _m("bench.analytic_ms_per_point_warm", "ms", "lower", None, "bench",
       "ops_per_s on price_search", _PS),
    _m("bench.analytic_fallback_share", "share", "lower", 0.0, "bench",
       "ops_per_s on price_search", _PS),
    _m("bench.drift_pct_median", "%", "lower", 0.0, "bench",
       "est_drift_pct_max on price_search", _PS),
    _m("bench.fingerprint_us", "us", "lower", None, "bench",
       "ops_per_s on sweep_harness", _SW),
    _m("bench.code_fingerprint_ms", "ms", "lower", None, "bench",
       "setup_s; ops_per_s on sweep_harness", _SW),
    _m("bench.cache_get_us", "us", "lower", None, "bench",
       "ops_per_s on sweep_harness", _SW),
    _m("bench.cache_put_us", "us", "lower", None, "bench",
       "ops_per_s on sweep_harness", _SW),
    _m("bench.cache_hit_ratio", "share", "higher", 0.0, "bench",
       "ops_per_s on sweep_harness", _SW),
    _m("bench.cold_seq_s", "s", "lower", None, "bench",
       "ops_per_s on sweep_harness", _SW),
    _m("bench.cold_pool_s", "s", "lower", None, "bench",
       "ops_per_s on sweep_harness", _SW),
    _m("bench.pool_speedup_x", "x", "higher", None, "bench",
       "ops_per_s on sweep_harness (ROADMAP item 3d crossover)", _SW),
    _m("bench.pool_spawn_ms", "ms", "lower", None, "bench",
       "ops_per_s on sweep_harness", _SW),
    _m("bench.populate_s", "s", "lower", None, "bench",
       "ops_per_s on sweep_harness", _SW),
    _m("bench.warm_pass_ms", "ms", "lower", None, "bench",
       "ops_per_s on sweep_harness", _SW),
    _m("bench.harness_overhead_share", "share", "lower", None, "bench",
       "ops_per_s on sweep_harness", _SW),
    # -- obs / analysis / faults -------------------------------------------
    _m("obs.trace_overhead_x", "x", "lower", None, "obs",
       "ops_per_s, sim_events_per_s on observed_sim; none on fig9_sim",
       _OB),
    _m("obs.trace_records", "count", "lower", 0.0, "obs",
       "ops_per_s on observed_sim", _OB),
    _m("obs.export_ms", "ms", "lower", None, "obs",
       "ops_per_s on observed_sim", _OB),
    _m("analysis.sanitizer_overhead_x", "x", "lower", None, "analysis",
       "ops_per_s, sim_events_per_s on observed_sim", _OB),
    _m("analysis.sanitizer_diagnostics", "count", "lower", 0.0,
       "analysis", "failed_ops_share on observed_sim (must stay 0)", _OB),
    _m("analysis.race_overhead_x", "x", "lower", None, "analysis",
       "ops_per_s, sim_events_per_s on observed_sim", _OB),
    _m("analysis.race_diagnostics", "count", "lower", 0.0, "analysis",
       "failed_ops_share on observed_sim (must stay 0)", _OB),
    _m("faults.injector_overhead_x", "x", "lower", None, "faults",
       "ops_per_s, sim_events_per_s on observed_sim", _OB),
    _m("faults.injected_events", "count", "lower", 0.0, "faults",
       "sim_us_total on observed_sim", _OB),
    _m("analysis.schedverify_ms_per_schedule", "ms", "lower", None,
       "analysis", "ops_per_s on price_search with synth verify", _OB),
    # -- apps.gcmc ---------------------------------------------------------
    _m("apps.gcmc.host_s_per_cycle", "s", "lower", None, "apps.gcmc",
       "ops_per_s on gcmc_app", _GC),
    _m("apps.gcmc.events_per_cycle", "count", "lower", 0.0, "apps.gcmc",
       "ops_per_s, sim_us_total on gcmc_app", _GC),
    *(_m(f"apps.gcmc.wait_fraction.{s}", "share", "lower", 0.0,
         "apps.gcmc", "sim_us_total, paper_err_pct on gcmc_app", _GC)
      for s in ("blocking", "lightweight_balanced", "mpb")),
    _m("apps.gcmc.serial_ref_ms", "ms", "lower", None, "apps.gcmc",
       "setup_s on gcmc_app", _GC),
    # -- cli ---------------------------------------------------------------
    _m("cli.startup_ms", "ms", "lower", None, "cli",
       "setup_s on every workload", _SW),
    _m("cli.import_ms", "ms", "lower", None, "cli",
       "setup_s on every workload", _SW),
    # -- the benchmark's own spans: self time per layer called -------------
    *(_m(f"{layer}.span_self_s", "s", "lower", None, layer,
         "ops_per_s on the workload traced", ALL)
      for layer in _SPAN_LAYERS),
)

PER_LAYER: tuple[Metric, ...] = E2E_PARTIAL + LAYER
BY_NAME: dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
#: Deterministic for a seed: ``check.py`` wants these identical between
#: two records.  ``sim_us_total`` carries a bound in BENCHMARK.json only
#: because the driver compares runs of *different* seeds.
EXACT = frozenset({"sim_us_total"}
                  | {m.name for m in BY_NAME.values() if m.bound == 0})
SPAN_LAYERS = _SPAN_LAYERS
KINDS = _KINDS
P2P_STACKS = dict(zip(_P2P, ("blocking", "ircce", "lightweight", "rckmpi")))


def benchmark_json() -> dict:
    """The contract file, derived from the table above."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def main(argv: list[str]) -> int:
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if argv == ["--write"]:
        BENCHMARK_JSON.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
