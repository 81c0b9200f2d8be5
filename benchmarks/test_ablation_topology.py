"""Ablation: topology-aware rank placement.

RCCE_comm's ring follows the natural core numbering 0..47, whose ring
neighbours are usually on the same or adjacent tiles but wrap across the
mesh between rows.  A snake (boustrophedon) placement keeps every ring
neighbour within one mesh hop.  On the SCC the effect is small — per-hop
mesh latency is only 4 mesh cycles against ~hundreds of core cycles of
software per message — which is exactly why the paper's optimizations
target software overhead rather than topology mapping.
"""

from repro.bench.runner import measure_collective
from repro.hw.config import SCCConfig

from conftest import write_report


def test_ablation_topology_mapping(benchmark, results_dir):
    topo = SCCConfig().resolved_topology()
    natural = measure_collective("allreduce", "lightweight_balanced", 552)
    snake = measure_collective("allreduce", "lightweight_balanced", 552,
                               rank_order=topo.snake_ring_order())

    gain = natural / snake
    report = "\n".join([
        "=== Topology ablation: ring rank placement, Allreduce n = 552 ===",
        f"natural order (RCCE) : {natural:9.1f}us",
        f"snake order          : {snake:9.1f}us",
        f"gain                 : {gain:9.2f}x",
        "",
        "Expected to be small: per-hop mesh latency is tiny next to the",
        "per-message software costs the paper's optimizations target.",
    ])
    write_report(results_dir, "ablation_topology", report)

    # Snake placement can only shorten ring hops.
    assert snake <= natural * 1.02
    # But the gain is marginal on this machine.
    assert gain < 1.25

    benchmark.pedantic(
        measure_collective, args=("allreduce", "lightweight_balanced", 552),
        kwargs={"rank_order": topo.snake_ring_order()},
        rounds=1, iterations=1)
