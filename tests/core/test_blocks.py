"""Unit tests for block partitioning (paper Fig. 6 / optimization C)."""

import math

import pytest

from repro.core.blocks import (
    Partition,
    balanced_partition,
    fig6_table,
    partitioner_by_name,
    standard_partition,
)


class TestStandardPartition:
    def test_divisible_is_even(self):
        part = standard_partition(528, 48)
        assert part.sizes == (11,) * 48
        assert part.imbalance_ratio() == 1.0

    def test_paper_552_case(self):
        """Fig. 6a middle: first block 35, general 11, ratio ~3.2:1."""
        part = standard_partition(552, 48)
        assert part.size(0) == 35
        assert part.size(1) == 11
        assert part.imbalance_ratio() == pytest.approx(35 / 11)
        assert 3.1 < part.imbalance_ratio() < 3.3

    def test_paper_575_worst_case(self):
        """Fig. 6a bottom: first block 58, ratio ~5.3:1."""
        part = standard_partition(575, 48)
        assert part.size(0) == 58
        assert part.size(47) == 11
        assert 5.2 < part.imbalance_ratio() < 5.4

    def test_zero_general_blocks(self):
        part = standard_partition(5, 8)
        assert part.size(0) == 5
        assert part.imbalance_ratio() == math.inf


class TestBalancedPartition:
    def test_divisible_is_even(self):
        part = balanced_partition(528, 48)
        assert part.sizes == (11,) * 48

    def test_paper_552_case(self):
        """Fig. 6b middle: 24 blocks of 12, 24 of 11, ratio ~1.1:1."""
        part = balanced_partition(552, 48)
        assert part.sizes[:24] == (12,) * 24
        assert part.sizes[24:] == (11,) * 24
        assert part.imbalance_ratio() == pytest.approx(12 / 11)

    def test_paper_575_case(self):
        """Fig. 6b bottom: ratio stays ~1.1:1 at the standard worst case."""
        part = balanced_partition(575, 48)
        assert part.max_size() == 12
        assert part.min_size() == 11
        assert part.imbalance_ratio() < 1.1

    def test_max_minus_min_at_most_one(self):
        for n in range(0, 200):
            part = balanced_partition(n, 7)
            assert part.max_size() - part.min_size() <= 1


class TestPartitionObject:
    def test_offsets_and_slices(self):
        part = standard_partition(552, 48)
        assert part.offset(0) == 0
        assert part.offset(1) == 35
        assert part.offset(2) == 46
        s = part.slice_of(1)
        assert (s.start, s.stop) == (35, 46)

    def test_slices_tile_the_vector(self):
        for maker in (standard_partition, balanced_partition):
            part = maker(575, 48)
            covered = []
            for b in range(part.p):
                s = part.slice_of(b)
                covered.extend(range(s.start, s.stop))
            assert covered == list(range(575))

    def test_offsets_are_the_prefix_sums(self):
        part = standard_partition(575, 48)
        assert part.offsets == tuple(sum(part.sizes[:b])
                                     for b in range(part.p + 1))
        assert [part.offset(b) for b in range(49)] == list(part.offsets)
        # derived state stays out of equality and hashing
        assert part == Partition(575, part.sizes)
        assert hash(part) == hash(Partition(575, part.sizes))

    def test_block_intervals_are_interned_per_partition(self):
        # Blocks [lo..hi] of a partition are the element range
        # offsets[lo]:offsets[hi + 1] in the tree rows, and equal
        # partitions share one cached schedule.
        from repro.sched.builders import build_schedule
        from repro.sched.ir import OP_SEND

        part = balanced_partition(70, 5)
        sched = build_schedule("scatter", "binomial", 5, 70, part=part)
        sends = [(row.speer, row.slo, row.shi) for row in sched.plans[0]
                 if row.op == OP_SEND]
        assert sends == [(4, part.offset(4), part.offset(5)),
                         (2, part.offset(2), part.offset(4)),
                         (1, part.offset(1), part.offset(2))]
        assert build_schedule("scatter", "binomial", 5, 70,
                              part=balanced_partition(70, 5)) is sched

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValueError):
            Partition(10, (3, 3))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            standard_partition(-1, 4)
        with pytest.raises(ValueError):
            balanced_partition(10, 0)

    def test_n_zero(self):
        part = balanced_partition(0, 4)
        assert part.sizes == (0, 0, 0, 0)
        assert part.imbalance_ratio() == 1.0


class TestRegistry:
    def test_lookup(self):
        assert partitioner_by_name("standard") is standard_partition
        assert partitioner_by_name("balanced") is balanced_partition

    def test_unknown(self):
        with pytest.raises(KeyError):
            partitioner_by_name("magic")


class TestFig6Table:
    def test_matches_paper_annotations(self):
        rows = {r["n"]: r for r in fig6_table()}
        assert rows[528]["standard_ratio"] == 1.0
        assert rows[528]["balanced_ratio"] == 1.0
        assert rows[552]["standard_first"] == 35
        assert 3.1 < rows[552]["standard_ratio"] < 3.3
        assert rows[552]["balanced_ratio"] < 1.1
        assert rows[575]["standard_first"] == 58
        assert 5.2 < rows[575]["standard_ratio"] < 5.4
        assert rows[575]["balanced_ratio"] < 1.1
