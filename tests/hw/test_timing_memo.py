"""Memoized prices vs the recompute-every-call reference.

The fast tests here are tier-1: they pin the memoization's correctness —
every :func:`~repro.hw.timing.memoized` price of the latency model and of
the schedule cost model, and whole-schedule estimates in both pricing
regimes, on four topologies at both erratum levels — including across
the fault injector's mid-run ``erratum_enabled`` toggle.
The ``wallclock``-marked micro-benchmark sweeps a much larger argument
grid and times the cached path; it is excluded from the default pytest
run (see ``pyproject.toml``) and runs via
``pytest -m wallclock tests/hw/test_timing_memo.py``.
"""

import time

import pytest

from repro.core.blocks import balanced_partition
from repro.hw.config import SCCConfig
from repro.hw.timing import LatencyModel, shared_tables
from repro.hw.topo import Topology
from repro.sched import cost
from repro.sched.builders import build_schedule


def models(**config_overrides):
    """(memoized, reference) pair over the standard 48-core geometry."""
    topo = Topology()
    return (LatencyModel(SCCConfig(**config_overrides), topo, cache=True),
            LatencyModel(SCCConfig(**config_overrides), topo, cache=False))


#: A small but representative argument grid: local access, same-tile
#: remote, cross-chip corners, plus aligned/padded byte counts.
CORE_PAIRS = [(0, 0), (0, 1), (1, 0), (0, 47), (47, 0), (13, 13), (5, 29)]
NBYTES = [1, 31, 32, 33, 64, 4416, 4417]


class TestMemoizedEqualsReference:
    @pytest.mark.parametrize("erratum", [True, False])
    def test_all_methods_match(self, erratum):
        memo, ref = models(erratum_enabled=erratum)
        for a, o in CORE_PAIRS:
            assert memo.mpb_access(a, o) == ref.mpb_access(a, o)
            assert memo.flag_write(a, o) == ref.flag_write(a, o)
            assert memo.flag_notify(a, o) == ref.flag_notify(a, o)
            assert memo.dram_access(a) == ref.dram_access(a)
            for nbytes in NBYTES:
                assert (memo.mpb_write_bytes(a, o, nbytes)
                        == ref.mpb_write_bytes(a, o, nbytes))
                assert (memo.mpb_read_bytes(a, o, nbytes)
                        == ref.mpb_read_bytes(a, o, nbytes))
                assert (memo.mpb_stream_read(a, o, nbytes)
                        == ref.mpb_stream_read(a, o, nbytes))
                assert (memo.mpb_stream_write(a, o, nbytes)
                        == ref.mpb_stream_write(a, o, nbytes))
        for nbytes in NBYTES:
            assert (memo.private_copy_bytes(nbytes)
                    == ref.private_copy_bytes(nbytes))
        for n in (0, 1, 552):
            assert memo.reduce_doubles(n) == ref.reduce_doubles(n)

    def test_repeated_lookups_stable(self):
        memo, ref = models()
        first = memo.mpb_write_bytes(0, 1, 552 * 8)
        for _ in range(3):
            assert memo.mpb_write_bytes(0, 1, 552 * 8) == first
        assert first == ref.mpb_write_bytes(0, 1, 552 * 8)

    def test_erratum_toggle_switches_tables(self):
        """The fault injector flips ``erratum_enabled`` on a *live* config;
        the memo must serve the other level's values, not stale ones."""
        memo, _ = models(erratum_enabled=True)
        ref_fixed = LatencyModel(SCCConfig(erratum_enabled=False),
                                 Topology(), cache=False)
        buggy_local = memo.mpb_access(3, 3)       # populate erratum table
        memo.config.erratum_enabled = False       # what the injector does
        assert memo.mpb_access(3, 3) == ref_fixed.mpb_access(3, 3)
        assert memo.mpb_access(3, 3) != buggy_local
        memo.config.erratum_enabled = True        # toggle back
        assert memo.mpb_access(3, 3) == buggy_local
        assert (memo.mpb_write_bytes(3, 3, 64)
                == LatencyModel(SCCConfig(erratum_enabled=True), Topology(),
                                cache=False).mpb_write_bytes(3, 3, 64))

    def test_invalidate_resnapshots_mutated_fields(self):
        memo, _ = models()
        before = memo.flag_write(0, 1)
        memo.config.flag_write_extra_cycles += 100
        memo.invalidate()
        after = memo.flag_write(0, 1)
        expected = LatencyModel(memo.config, memo.topology,
                                cache=False).flag_write(0, 1)
        assert after == expected
        assert after > before


#: The shapes the CLI accepts, one of each family.
TOPOLOGIES = ("mesh:6x4", "torus:6x4", "cluster:2x24",
              "mesh:6x4+w=0.0-1.0:5;2.1-3.1:3")

#: Every memoized price by its memo tag, called with arguments drawn from
#: the grid: ``(model, a, o, nbytes) -> ps``.
PRICES = {
    "acc": lambda m, a, o, nb: m.mpb_access(a, o),
    "dram": lambda m, a, o, nb: m.dram_access(a),
    "fw": lambda m, a, o, nb: m.flag_write(a, o),
    "fn": lambda m, a, o, nb: m.flag_notify(a, o),
    "wb": lambda m, a, o, nb: m.mpb_write_bytes(a, o, nb),
    "rb": lambda m, a, o, nb: m.mpb_read_bytes(a, o, nb),
    "sr": lambda m, a, o, nb: m.mpb_stream_read(a, o, nb),
    "sw": lambda m, a, o, nb: m.mpb_stream_write(a, o, nb),
    "pc": lambda m, a, o, nb: m.private_copy_bytes(nb),
    "rd": lambda m, a, o, nb: m.reduce_doubles(nb),
    "msgcost": lambda m, a, o, nb: cost.message_cost(m, a, o, nb),
    "hscost": lambda m, a, o, nb: cost.handshake_cost(m, a, o),
    "cpcost": lambda m, a, o, nb: cost._copy_pair_cost(m, a, o, nb),
}

#: (kind, algorithm, p, n) of the whole-schedule estimates.
SCHEDULES = (("allreduce", "rsag", 48, 70), ("alltoall", "pairwise", 8, 8),
             ("allgather", "bruck", 48, 20), ("reduce", "binomial", 5, 20))

#: Both pricing regimes: the selector's and the analytic engine's.
REGIMES = ({"blocking": False, "overhead": None},
           {"blocking": True,
            "overhead": cost.SoftwareOverhead(1000, 2000, 3000)},
           {"blocking": False,
            "overhead": cost.SoftwareOverhead(700, 900, 1100)})


def test_every_memoized_price_is_covered():
    """A new memoized price must join ``PRICES`` (its wrapper carries the
    body as ``__wrapped__``)."""
    methods = {name for name, value in vars(LatencyModel).items()
               if hasattr(value, "__wrapped__")}
    functions = {name for name, value in vars(cost).items()
                 if hasattr(value, "__wrapped__")
                 and value.__module__ == cost.__name__}
    assert len(methods) + len(functions) == len(PRICES)
    assert functions == {"message_cost", "handshake_cost", "_copy_pair_cost"}


class TestEveryPriceEveryTopology:
    @pytest.mark.parametrize("erratum", [True, False])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_cached_equals_reference(self, topology, erratum):
        config = SCCConfig(topology=topology, erratum_enabled=erratum)
        topo = config.resolved_topology()
        memo = LatencyModel(config, topo)
        ref = LatencyModel(SCCConfig(topology=topology,
                                     erratum_enabled=erratum), topo,
                           cache=False)
        for tag, price in PRICES.items():
            for a, o in CORE_PAIRS:
                for nbytes in NBYTES + [0]:
                    want = price(ref, a, o, nbytes)
                    assert price(memo, a, o, nbytes) == want, (tag, a, o)
                    assert price(memo, a, o, nbytes) == want, (tag, a, o)
        for kind, algo, p, n in SCHEDULES:
            sched = build_schedule(kind, algo, p, n,
                                   part=balanced_partition(n, p))
            for regime in REGIMES:
                want = cost.estimate_schedule_cost(sched, ref, **regime)
                for _ in range(2):
                    assert cost.estimate_schedule_cost(
                        sched, memo, **regime) == want, (algo, regime)

    def test_reference_keeps_nothing(self):
        ref = LatencyModel(SCCConfig(), Topology(), cache=False)
        assert ref.shared is None and ref.prices() is None

    def test_one_entry_per_tag(self):
        """Pricing one price once on a cold table leaves exactly one entry
        under its tag, and no two prices share a tag — so no two prices
        can share a key."""
        for tag, price in PRICES.items():
            shared_tables.cache_clear()
            model = LatencyModel(SCCConfig(), Topology())
            value = price(model, 3, 29, 64)
            entries = [(key, ps) for key, ps in model.prices().items()
                       if key[0] == tag]
            assert len(entries) == 1, (tag, entries)
            assert entries[0][1] == value
        shared_tables.cache_clear()
        model = LatencyModel(SCCConfig(), Topology())
        sched = build_schedule("allreduce", "rsag", 8, 64,
                               part=balanced_partition(64, 8))
        for regime in REGIMES:
            cost.estimate_schedule_cost(sched, model, **regime)
        assert [key[0] for key in model.prices()].count("schedcost") == \
            len(REGIMES)


@pytest.mark.wallclock
class TestMicroBenchmark:
    """Large-grid identity sweep + cached-path timing (not tier-1)."""

    def test_full_grid_identity_and_speed(self):
        memo, ref = models()
        pairs = [(a, o) for a in range(0, 48, 5) for o in range(0, 48, 7)]
        sizes = list(range(0, 4500, 93)) + [1, 31, 33]
        for a, o in pairs:
            for nbytes in sizes:
                assert (memo.mpb_write_bytes(a, o, nbytes)
                        == ref.mpb_write_bytes(a, o, nbytes))
                assert (memo.mpb_read_bytes(a, o, nbytes)
                        == ref.mpb_read_bytes(a, o, nbytes))
        # Warm-table lookups should beat recomputation comfortably; use a
        # generous 1.2x bound so the assertion never flakes on CI noise
        # while still catching a memoization that silently stopped caching.
        args = [(a, o, n) for a, o in pairs for n in sizes[:20]]
        t0 = time.perf_counter()
        for a, o, n in args * 5:
            memo.mpb_write_bytes(a, o, n)
        cached_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for a, o, n in args * 5:
            ref.mpb_write_bytes(a, o, n)
        reference_s = time.perf_counter() - t0
        assert cached_s * 1.2 < reference_s, (
            f"memoized path ({cached_s:.4f}s) is not faster than the "
            f"reference ({reference_s:.4f}s)")
