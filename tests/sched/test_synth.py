"""The schedule synthesizer: names, search, cost memoization, integration."""

import numpy as np
import pytest

from repro.core.blocks import balanced_partition
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sched.builders import build_schedule, builder_names
from repro.sched.cost import (
    estimate_schedule_cost,
    invalidate_schedule_costs,
    schedule_cost_key,
)
from repro.sched.synth import (
    CHUNK_GRID_PIPELINE,
    CHUNK_GRID_TRANSFORM,
    base_builder,
    build_synth_schedule,
    candidate_names,
    default_model,
    parse_synth_name,
    synth_repertoire,
    synthesize,
)


class TestNameGrammar:
    def test_pipeline_name(self):
        assert parse_synth_name("scan", "synth/pipeline_c8") == (None, 8)

    def test_transform_name(self):
        assert parse_synth_name("allreduce", "synth/rsag+c4") == \
            ("rsag", 4)
        assert base_builder("allreduce", "synth/rsag+c4") == "rsag"

    def test_base_with_underscores(self):
        assert parse_synth_name(
            "allreduce", "synth/recursive_doubling+c2") == \
            ("recursive_doubling", 2)

    @pytest.mark.parametrize("bad", [
        "rsag",                      # missing prefix
        "synth/rsag",                # no chunk suffix
        "synth/rsag+c0",             # chunk count < 1
        "synth/rsag+cx",             # non-numeric
        "synth/mpich+c2",            # unknown base
        "synth/pipeline_c",          # empty count
    ])
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(KeyError, match="synth"):
            parse_synth_name("allreduce", bad)

    def test_pipeline_needs_chain_kind(self):
        with pytest.raises(KeyError, match="pipeline"):
            parse_synth_name("allgather", "synth/pipeline_c4")


class TestRegistryIntegration:
    def test_build_schedule_routes_synth_names(self):
        part = balanced_partition(16, 4)
        sched = build_schedule("allreduce", "synth/rsag+c2", 4, 16,
                               part=part)
        assert sched.name == "synth/rsag+c2"
        assert sched.meta["chunks"] == 2

    def test_pipeline_resolves(self):
        sched = build_schedule("scan", "synth/pipeline_c4", 4, 16)
        assert sched.name == "synth/pipeline_c4"
        assert sched.kind == "scan"

    def test_unknown_name_still_helpful(self):
        with pytest.raises(KeyError, match="synth"):
            build_schedule("allreduce", "synth/nope+c2", 4, 16)

    def test_cached_instances_reused(self):
        a = build_synth_schedule("scan", "synth/pipeline_c4", 4, 16)
        b = build_synth_schedule("scan", "synth/pipeline_c4", 4, 16)
        assert a is b


class TestCandidateSpace:
    def test_gated_small_points(self):
        assert candidate_names("allreduce", 1, 64) == ()
        assert candidate_names("allreduce", 8, 1) == ()

    def test_chunks_capped_by_payload(self):
        names = candidate_names("scan", 8, 3)
        assert "synth/pipeline_c2" in names
        assert "synth/pipeline_c4" not in names

    def test_transforms_cover_every_builder(self):
        names = candidate_names("allgather", 8, 64)
        for base in builder_names("allgather"):
            for c in CHUNK_GRID_TRANSFORM:
                assert f"synth/{base}+c{c}" in names
        # allgather has no chain pipeline
        assert not any("pipeline" in n for n in names)

    def test_pipelines_only_for_chain_kinds(self):
        names = candidate_names("scan", 8, 1024)
        for c in CHUNK_GRID_PIPELINE:
            assert f"synth/pipeline_c{c}" in names


class TestSynthesize:
    @pytest.fixture(scope="class")
    def model(self):
        return default_model()

    def test_candidates_sorted_and_complete(self, model):
        res = synthesize("allreduce", 8, 64, model)
        costs = [c.cost for c in res.candidates]
        assert costs == sorted(costs)
        names = {c.name for c in res.candidates}
        assert set(builder_names("allreduce")) <= names
        assert res.best is res.candidates[0]
        assert not res.best_hand.synthesized

    def test_frontier_is_pareto(self, model):
        res = synthesize("scan", 8, 1024, model)
        for a in res.frontier:
            assert not any(b.dominates(a) for b in res.candidates)
        # the overall winner always survives
        assert res.best.name in {c.name for c in res.frontier}

    def test_pipeline_wins_long_scan(self, model):
        """The acceptance point: a synthesized schedule out-prices every
        hand algorithm for the long-vector scan region."""
        res = synthesize("scan", 8, 1024, model)
        assert res.best.synthesized
        assert res.best.name.startswith("synth/pipeline_c")
        assert res.best.cost < res.best_hand.cost

    def test_verify_mode(self, model):
        res = synthesize("bcast", 5, 16, model, verify=True)
        assert res.candidates

    def test_rounds_reported(self, model):
        res = synthesize("bcast", 4, 64, model)
        by_name = {c.name: c for c in res.candidates}
        assert by_name["synth/pipeline_c4"].rounds > \
            by_name["synth/pipeline_c2"].rounds

    def test_repertoire_sweep_small(self):
        scheds = list(synth_repertoire(ps=(2, 3), sizes=(1, 8)))
        assert scheds
        assert all(s.name.startswith("synth/") for s in scheds)


class TestCostMemo:
    def make_model(self):
        return default_model()

    def test_key_distinguishes_chunk_layout(self):
        part = balanced_partition(64, 8)
        base = build_schedule("allreduce", "rsag", 8, 64, part=part)
        chunked = build_schedule("allreduce", "synth/rsag+c2", 8, 64,
                                 part=part)
        ka = schedule_cost_key(base, blocking=False, overhead=None)
        kb = schedule_cost_key(chunked, blocking=False, overhead=None)
        assert ka != kb

    def test_key_distinguishes_structure_same_name(self):
        """Two schedules sharing (kind, name, p, n) but with different
        step lists (the verifier's broken fixtures do this) must not
        share a cost entry."""
        part = balanced_partition(64, 8)
        base = build_schedule("allgather", "ring", 8, 64, part=part)
        rows = base.table.rows.copy()
        rows[:, 0] = (rows[:, 0] + 1) % 8     # every plan moves up a rank
        mutated = base.with_rows(rows)
        assert schedule_cost_key(base, blocking=False, overhead=None) != \
            schedule_cost_key(mutated, blocking=False, overhead=None)

    def test_whole_schedule_cost_memoized(self):
        model = self.make_model()
        part = balanced_partition(64, 8)
        sched = build_schedule("allreduce", "rsag", 8, 64, part=part)
        first = estimate_schedule_cost(sched, model)
        memo = model._memo[model.config.erratum_enabled]
        key = schedule_cost_key(sched, blocking=False, overhead=None)
        assert memo[key] == first
        assert estimate_schedule_cost(sched, model) == first

    def test_invalidate_mirrors_latency_model(self):
        model = self.make_model()
        part = balanced_partition(64, 8)
        for name in ("rsag", "recursive_doubling"):
            sched = build_schedule("allreduce", name, 8, 64, part=part)
            estimate_schedule_cost(sched, model)
            estimate_schedule_cost(sched, model, blocking=True)
        dropped = invalidate_schedule_costs(model)
        assert dropped == 4
        memo = model._memo[model.config.erratum_enabled]
        assert not any(isinstance(k, tuple) and k and k[0] == "schedcost"
                       for k in memo)
        # primitive-level entries survive the schedule-cost flush
        assert memo

    def test_invalidate_empty_model(self):
        assert invalidate_schedule_costs(self.make_model()) == 0


class TestEngineRoundTrip:
    def run_collective(self, kind, algo, p, n):
        machine = Machine(SCCConfig())
        comm = make_communicator(machine, "lightweight_balanced")
        rng = np.random.default_rng(20120901)
        inputs = [np.round(rng.normal(size=n) * 8) for _ in range(p)]

        def program(env):
            if kind == "allreduce":
                return (yield from comm.allreduce(env, inputs[env.rank],
                                                  algo=algo))
            if kind == "scan":
                return (yield from comm.scan(env, inputs[env.rank],
                                             algo=algo))
            raise AssertionError(kind)

        run = machine.run_spmd(program, ranks=list(range(p)))
        return inputs, run.values

    def test_chunked_transform_bit_exact(self):
        inputs, values = self.run_collective(
            "allreduce", "sched:synth/rsag+c2", 5, 70)
        expected = np.sum(inputs, axis=0)
        for got in values:
            assert np.array_equal(got, expected)

    def test_pipeline_bit_exact(self):
        inputs, values = self.run_collective(
            "scan", "sched:synth/pipeline_c4", 5, 70)
        for rank, got in enumerate(values):
            assert np.array_equal(got, np.sum(inputs[:rank + 1], axis=0))
