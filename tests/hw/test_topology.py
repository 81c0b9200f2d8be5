"""Unit tests for the SCC mesh topology."""

import pytest

from repro.hw.config import SCCConfig
from repro.hw.topo import Topology


@pytest.fixture
def topo():
    return Topology()


class TestGeometry:
    def test_standard_counts(self, topo):
        assert topo.num_tiles == 24
        assert topo.num_cores == 48

    def test_tile_of_core(self, topo):
        assert topo.tile_of(0) == 0
        assert topo.tile_of(1) == 0
        assert topo.tile_of(2) == 1
        assert topo.tile_of(47) == 23

    def test_tile_coords_row_major(self, topo):
        assert topo.tile_coords(0) == (0, 0)
        assert topo.tile_coords(5) == (5, 0)
        assert topo.tile_coords(6) == (0, 1)
        assert topo.tile_coords(23) == (5, 3)

    def test_cores_of_tile(self, topo):
        assert topo.cores_of_tile(0) == (0, 1)
        assert topo.cores_of_tile(23) == (46, 47)

    def test_out_of_range_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.tile_of(48)
        with pytest.raises(ValueError):
            topo.tile_of(-1)
        with pytest.raises(ValueError):
            topo.tile_coords(24)
        with pytest.raises(ValueError):
            topo.cores_of_tile(-1)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Topology(cols=0)


class TestRouting:
    def test_same_tile_zero_hops(self, topo):
        assert topo.hops(0, 1) == 0

    def test_adjacent_tiles_one_hop(self, topo):
        assert topo.hops(0, 2) == 1   # tile 0 -> tile 1
        assert topo.hops(0, 12) == 1  # tile 0 -> tile 6 (next row)

    def test_diameter_corners(self, topo):
        # core 0 (tile 0 at (0,0)) to core 47 (tile 23 at (5,3))
        assert topo.hops(0, 47) == 8
        assert topo.max_hops() == 8

    def test_hops_symmetric(self, topo):
        for a, b in [(0, 47), (3, 30), (10, 11), (22, 22)]:
            assert topo.hops(a, b) == topo.hops(b, a)

    def test_xy_route_endpoints_and_length(self, topo):
        path = topo.xy_route(0, 47)
        assert path[0] == (0, 0)
        assert path[-1] == (5, 3)
        assert len(path) == topo.hops(0, 47) + 1

    def test_xy_route_goes_x_first(self, topo):
        path = topo.xy_route(0, 47)
        # X varies before Y does
        ys = [p[1] for p in path]
        assert ys[:6] == [0] * 6

    def test_xy_route_steps_are_unit(self, topo):
        path = topo.xy_route(47, 0)
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            assert abs(x0 - x1) + abs(y0 - y1) == 1

    def test_average_hops_value(self, topo):
        # For a 6x4 mesh the mean distance over distinct tiles is known to
        # be (exactly) computable; sanity-bound it instead of hardcoding.
        avg = topo.average_hops()
        assert 2.5 < avg < 4.0


class TestMemoryControllers:
    def test_four_controllers_at_corners(self, topo):
        assert topo.mc_routers() == [(0, 0), (5, 0), (0, 3), (5, 3)]

    def test_quadrant_assignment(self, topo):
        assert topo.mc_of_core(0) == (0, 0)
        assert topo.mc_of_core(47) == (5, 3)
        # core 10 -> tile 5 at (5, 0): right-top quadrant
        assert topo.mc_of_core(10) == (5, 0)

    def test_hops_to_mc_bounds(self, topo):
        for core in topo.cores():
            assert 0 <= topo.hops_to_mc(core) <= 3


class TestOrderings:
    def test_snake_ring_visits_every_core_once(self, topo):
        order = topo.snake_ring_order()
        assert sorted(order) == list(range(48))

    def test_snake_ring_neighbor_tiles_adjacent(self, topo):
        order = topo.snake_ring_order()
        for a, b in zip(order, order[1:]):
            assert topo.hops(a, b) <= 1


def test_default_topology_cached():
    assert (SCCConfig().resolved_topology()
            is SCCConfig().resolved_topology())
