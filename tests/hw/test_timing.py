"""Unit tests for the hardware latency model."""

import pytest

from repro.hw.config import SCCConfig
from repro.hw.timing import LatencyModel
from repro.hw.topo import Topology


@pytest.fixture
def model():
    return LatencyModel(SCCConfig(), Topology())


@pytest.fixture
def fixed_model():
    """Model with the erratum fixed."""
    return LatencyModel(SCCConfig(erratum_enabled=False), Topology())


class TestLineArithmetic:
    def test_lines_exact(self, model):
        assert model.lines(32) == 1
        assert model.lines(64) == 2

    def test_lines_round_up(self, model):
        assert model.lines(1) == 1
        assert model.lines(33) == 2

    def test_lines_zero(self, model):
        assert model.lines(0) == 0

    def test_lines_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.lines(-1)

    def test_padded_tail_detection(self, model):
        # 4 doubles = 32 B = exactly one line: no padding
        assert not model.has_padded_tail(4 * 8)
        # 5 doubles = 40 B: padded tail
        assert model.has_padded_tail(5 * 8)
        # 600 doubles (a Fig. 9 "lower spike end"): no padding
        assert not model.has_padded_tail(600 * 8)
        assert model.has_padded_tail(601 * 8)


class TestMPBAccess:
    def test_local_access_with_erratum(self, model):
        """Paper IV-D: 45 core cycles + 8 mesh cycles with the workaround."""
        expected = 45 * 1876 + 8 * 1250
        assert model.mpb_access(0, 0) == expected

    def test_local_access_without_erratum(self, fixed_model):
        """Paper IV-D: 15 core cycles on a fixed chip."""
        assert fixed_model.mpb_access(0, 0) == 15 * 1876

    def test_erratum_slows_local_access_3x(self, model, fixed_model):
        ratio = model.mpb_access(0, 0) / fixed_model.mpb_access(0, 0)
        assert ratio > 3.0

    def test_remote_access_grows_with_hops(self, model):
        near = model.mpb_access(0, 2)    # 1 hop
        far = model.mpb_access(0, 47)    # 8 hops
        assert far > near

    def test_same_tile_remote_access_nonzero_mesh(self, model):
        # Cores 0 and 1 share a tile: 0 hops but still a mesh interface.
        same_tile = model.mpb_access(0, 1)
        assert same_tile > model.core_cycles(45)

    def test_local_with_erratum_close_to_offchip(self, model):
        """Paper IV-D: the workaround makes local MPB accesses 'come close
        to the transmission latency required for off-chip memory'."""
        local = model.mpb_access(0, 0)
        dram = model.dram_access(0)
        assert local > dram * 0.5


class TestDram:
    def test_dram_formula(self, model):
        """40 core cycles + 8*d mesh cycles."""
        # Core 0 sits on tile (0,0), which hosts its MC router: d = 0.
        assert model.dram_access(0) == 40 * 1876
        # Core 16 -> tile 8 at (2,1); MC at (0,0): d = 3.
        assert model.dram_access(16) == 40 * 1876 + 8 * 3 * 1250


class TestBulkCopies:
    def test_zero_bytes_free(self, model):
        assert model.mpb_write_bytes(0, 5, 0) == 0
        assert model.mpb_read_bytes(0, 5, 0) == 0
        assert model.mpb_stream_read(0, 5, 0) == 0
        assert model.mpb_stream_write(0, 0, 0) == 0
        assert model.private_copy_bytes(0) == 0

    def test_write_scales_with_lines(self, model):
        one = model.mpb_write_bytes(0, 4, 32)
        two = model.mpb_write_bytes(0, 4, 64)
        per_line = two - one
        assert per_line > 0
        # affine: 10 lines cost startup + 10 * per_line
        ten = model.mpb_write_bytes(0, 4, 320)
        assert ten == one + 9 * per_line

    def test_partial_line_costs_full_line(self, model):
        assert model.mpb_write_bytes(0, 4, 33) == model.mpb_write_bytes(0, 4, 64)

    def test_read_more_expensive_than_write(self, model):
        """MPB reads are round trips; writes are posted through the WCB."""
        assert (model.mpb_read_bytes(0, 4, 3200)
                > model.mpb_write_bytes(0, 4, 3200))

    def test_stream_write_local_erratum_penalty(self, model, fixed_model):
        """The MPB-direct Allreduce writes results into the *local* MPB;
        with the erratum each line pays the packet-to-self mesh cost on
        top of the per-line pipeline cost."""
        buggy = model.mpb_stream_write(3, 3, 3200)
        fixed = fixed_model.mpb_stream_write(3, 3, 3200)
        assert buggy > fixed
        per_line_extra = (buggy - fixed - (model.mpb_access(3, 3)
                                           - fixed_model.mpb_access(3, 3)))
        lines = model.lines(3200)
        assert per_line_extra == lines * model.mesh_cycles(
            model.config.mpb_local_bug_mesh_cycles)

    def test_private_first_touch_vs_cached(self, model):
        first = model.private_first_touch(16, 3200)
        cached = model.private_copy_bytes(3200)
        assert first > 3 * cached


class TestReduction:
    def test_reduce_cost_linear(self, model):
        assert model.reduce_doubles(100) == 10 * model.reduce_doubles(10)

    def test_reduce_zero(self, model):
        assert model.reduce_doubles(0) == 0

    def test_reduce_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.reduce_doubles(-4)
