"""Chunked transforms and pipelined chain builders (repro.sched.chunking)."""

import pytest

from repro.analysis.schedverify import assert_valid_schedule
from repro.core.blocks import balanced_partition
from repro.sched.builders import build_schedule, builder_names
from repro.sched.chunking import (
    PIPELINE_BUILDERS,
    build_pipeline_bcast,
    chunk_bounds,
    chunk_schedule,
)
from repro.sched.interp import check_schedule_numeric
from repro.sched.ir import OP_COPY, OP_EXCHANGE, OP_RECV, OP_SEND


class TestChunkBounds:
    def test_even_split(self):
        assert chunk_bounds(0, 8, 2) == [(0, 4), (4, 8)]

    def test_remainder_goes_to_leading_chunks(self):
        assert chunk_bounds(0, 7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_offset_preserved(self):
        assert chunk_bounds(10, 14, 2) == [(10, 12), (12, 14)]

    def test_clamps_to_element_count(self):
        assert chunk_bounds(0, 2, 8) == [(0, 1), (1, 2)]

    def test_single_chunk(self):
        assert chunk_bounds(3, 9, 1) == [(3, 9)]


class TestChunkTransform:
    def base(self, kind="allgather", name="ring", p=4, n=8):
        part = balanced_partition(n, p)
        return build_schedule(kind, name, p, n, part=part)

    def test_identity_below_two_chunks(self):
        sched = self.base()
        assert chunk_schedule(sched, 1) is sched
        assert chunk_schedule(sched, 0) is sched

    def test_naming_and_meta(self):
        chunked = chunk_schedule(self.base(), 2)
        assert chunked.name == "ring+c2"
        assert chunked.meta["chunks"] == 2
        assert chunked.meta["base"] == "ring"

    def test_transfers_split_rounds_preserved(self):
        sched = self.base()
        chunked = chunk_schedule(sched, 2)
        for plan, cplan in zip(sched.plans, chunked.plans):
            base_x = [s for s in plan if s.op == OP_EXCHANGE]
            chunk_x = [s for s in cplan if s.op == OP_EXCHANGE]
            assert len(chunk_x) == 2 * len(base_x)
            assert ([s.round for s in base_x for _ in range(2)]
                    == [s.round for s in chunk_x])
            # both sides of every sub-exchange carry matching lengths
            for s in chunk_x:
                assert (s.shi - s.slo) == (s.rhi - s.rlo)

    def test_local_steps_kept_whole(self):
        sched = self.base("allgather", "bruck")
        chunked = chunk_schedule(sched, 4)
        for plan, cplan in zip(sched.plans, chunked.plans):
            local = [s for s in plan if s.op >= OP_COPY]
            clocal = [s for s in cplan if s.op >= OP_COPY]
            assert local == clocal and len(local) == 2  # copy + rotation

    @pytest.mark.parametrize("kind", sorted(
        {"allreduce", "reduce", "bcast", "allgather", "reduce_scatter",
         "alltoall", "scan"}))
    def test_every_builder_chunks_clean(self, kind):
        p, n = 5, 70
        part = balanced_partition(n, p)
        for name in builder_names(kind):
            sched = build_schedule(kind, name, p, n, part=part)
            for c in (2, 4):
                chunked = chunk_schedule(sched, c)
                assert_valid_schedule(chunked)


class TestPipelineBuilders:
    def test_registry_covers_chain_kinds(self):
        assert set(PIPELINE_BUILDERS) == {"bcast", "reduce", "scan",
                                          "allreduce"}

    def test_interior_rank_shape(self):
        part = balanced_partition(8, 4)
        sched = build_pipeline_bcast(4, 8, part, 0, 2)
        plan = sched.plans[1]  # interior rank: prime, steady-state, drain
        assert plan[0].op == OP_RECV
        assert plan[-1].op == OP_SEND
        assert any(s.op == OP_EXCHANGE for s in plan)

    def test_root_only_sends(self):
        part = balanced_partition(8, 4)
        sched = build_pipeline_bcast(4, 8, part, 0, 2)
        # beyond the uncharged in->work staging copy, the root only sends
        assert all(s.op in (OP_SEND, OP_COPY) for s in sched.plans[0])
        assert sum(s.op == OP_SEND for s in sched.plans[0]) == 2

    @pytest.mark.parametrize("kind", sorted(PIPELINE_BUILDERS))
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_verified_and_numerically_exact(self, kind, c):
        p, n = 5, 16
        part = balanced_partition(n, p)
        sched = PIPELINE_BUILDERS[kind](p, n, part, 0, c)
        assert sched.name == f"pipeline_c{c}"
        assert_valid_schedule(sched)
        check_schedule_numeric(sched)

    def test_nontrivial_root(self):
        part = balanced_partition(12, 4)
        for kind in ("bcast", "reduce"):
            sched = PIPELINE_BUILDERS[kind](4, 12, part, 2, 3)
            assert sched.meta["root"] == 2
            assert_valid_schedule(sched)
            check_schedule_numeric(sched)

    def test_chunk_count_clamps_to_payload(self):
        part = balanced_partition(2, 4)
        sched = PIPELINE_BUILDERS["bcast"](4, 2, part, 0, 8)
        assert_valid_schedule(sched)
        check_schedule_numeric(sched)


class TestRoundStructure:
    def test_pipeline_rounds_grow_with_chunks(self):
        """More chunks -> more (cheaper) rounds: the k in k-synchronous."""
        part = balanced_partition(32, 4)

        def rounds(c):
            sched = PIPELINE_BUILDERS["bcast"](4, 32, part, 0, c)
            return len({s.round for plan in sched.plans for s in plan
                        if s.round is not None})

        assert rounds(1) < rounds(2) < rounds(4)

    def test_transform_keeps_round_count(self):
        part = balanced_partition(8, 4)
        sched = build_schedule("allgather", "ring", 4, 8, part=part)
        chunked = chunk_schedule(sched, 4)

        def rounds(s):
            return {x.round for plan in s.plans for x in plan
                    if x.round is not None}

        assert rounds(chunked) == rounds(sched)
