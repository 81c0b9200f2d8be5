"""Non-default topology shapes: degenerate meshes, tori, weights, chips."""

import pytest

from repro.hw.topo import Topology


class TestDegenerateShapes:
    """1xN / Nx1 meshes: corners alias, routing stays one-dimensional."""

    def test_row_mesh_mc_corners_deduped(self):
        topo = Topology(cols=5, rows=1)
        assert topo.mc_routers() == [(0, 0), (4, 0)]

    def test_column_mesh_mc_corners_deduped(self):
        topo = Topology(cols=1, rows=5)
        assert topo.mc_routers() == [(0, 0), (0, 4)]

    def test_single_tile_mesh_one_mc(self):
        topo = Topology(cols=1, rows=1)
        assert topo.mc_routers() == [(0, 0)]
        assert topo.max_hops() == 0

    def test_row_mesh_hops_are_linear(self):
        topo = Topology(cols=5, rows=1)
        assert topo.hops(0, 8) == 4          # tile 0 -> tile 4
        assert topo.max_hops() == 4
        assert topo.xy_route(0, 8) == [(0, 0), (1, 0), (2, 0),
                                       (3, 0), (4, 0)]

    def test_column_mesh_hops_are_linear(self):
        topo = Topology(cols=1, rows=5)
        assert topo.hops(0, 8) == 4
        assert topo.xy_route(0, 8) == [(0, 0), (0, 1), (0, 2),
                                       (0, 3), (0, 4)]

    def test_mc_of_core_on_row_mesh(self):
        topo = Topology(cols=5, rows=1)
        assert topo.mc_of_core(0) == (0, 0)
        assert topo.mc_of_core(9) == (4, 0)


class TestLargeMesh:
    def test_8x8_counts_and_diameter(self):
        topo = Topology(cols=8, rows=8)
        assert topo.num_tiles == 64
        assert topo.num_cores == 128
        assert topo.max_hops() == 14

    def test_8x8_xy_routing_is_x_first(self):
        topo = Topology(cols=8, rows=8)
        # core 0 at (0,0); core of tile 63 at (7,7)
        route = topo.xy_route(0, 127)
        assert route[0] == (0, 0)
        assert route[-1] == (7, 7)
        assert route[:8] == [(x, 0) for x in range(8)]
        assert topo.hops(0, 127) == 14


class TestTorus:
    def test_wraparound_shortens_hops(self):
        mesh = Topology(cols=6, rows=4)
        torus = Topology(cols=6, rows=4, torus=True)
        # tile 0 -> tile 5: 5 hops on the mesh, 1 wrap hop on the torus
        assert mesh.hops(0, 10) == 5
        assert torus.hops(0, 10) == 1

    def test_wraparound_route_steps_backwards(self):
        torus = Topology(cols=6, rows=4, torus=True)
        assert torus.xy_route(0, 10) == [(0, 0), (5, 0)]

    def test_torus_diameter(self):
        torus = Topology(cols=6, rows=4, torus=True)
        assert torus.max_hops() == 5  # 3 along x (wrapped) + 2 along y

    def test_tie_takes_non_wrapping_direction(self):
        torus = Topology(cols=4, rows=1, torus=True)
        # (0,0) -> (2,0): both directions are 2 hops; route must not wrap.
        assert torus.xy_route(0, 4) == [(0, 0), (1, 0), (2, 0)]


class TestLinkWeights:
    def test_weighted_link_inflates_route_cost(self):
        topo = Topology(link_weights=(((2, 0), (3, 0), 4),))
        # Route 4->6 = tile 2 -> tile 3 crosses exactly the slow link.
        assert topo.hops(4, 6) == 4
        # A route that avoids the slow link is unchanged.
        assert topo.hops(0, 2) == 1

    def test_weight_applies_both_directions(self):
        topo = Topology(link_weights=(((3, 0), (2, 0), 4),))
        assert topo.hops(6, 4) == 4

    def test_non_adjacent_link_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            Topology(link_weights=(((0, 0), (2, 0), 3),))

    def test_out_of_range_link_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Topology(link_weights=(((0, 0), (0, 4), 2),))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Topology(link_weights=(((0, 0), (1, 0), 0),))

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            Topology(link_weights=(((0, 0), (1, 0), 2),
                                   ((1, 0), (0, 0), 3)))


class TestMCPlacement:
    def test_explicit_placement_wins(self):
        topo = Topology(mc_placement=((2, 1), (3, 2)))
        assert topo.mc_routers() == [(2, 1), (3, 2)]

    def test_out_of_range_placement_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Topology(mc_placement=((6, 0),))

    def test_duplicate_placement_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            Topology(mc_placement=((0, 0), (0, 0)))

    def test_empty_placement_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Topology(mc_placement=())


class TestMultiChip:
    @pytest.fixture
    def board(self):
        return Topology(cols=4, rows=3, chips=2)

    def test_counts(self, board):
        assert board.tiles_per_chip == 12
        assert board.num_tiles == 24
        assert board.num_cores == 48

    def test_chip_of(self, board):
        assert board.chip_of(0) == 0
        assert board.chip_of(23) == 0
        assert board.chip_of(24) == 1
        assert board.chip_of(47) == 1

    def test_coords_are_chip_local(self, board):
        # Core 24 is tile 12, the first tile of chip 1 -> local (0, 0).
        assert board.core_coords(24) == (0, 0)
        assert board.core_coords(0) == (0, 0)

    def test_chip_crossings(self, board):
        assert board.chip_crossings(0, 23) == 0
        assert board.chip_crossings(0, 24) == 1
        assert board.chip_crossings(47, 0) == 1

    def test_cross_chip_hops_route_via_gateways(self, board):
        # Core 22 sits on tile 11 = local (3, 2): 5 hops to its gateway.
        # Core 24 sits on the remote gateway tile itself: 0 hops.
        assert board.hops(22, 24) == 5
        route = board.xy_route(22, 24)
        assert route[0] == (3, 2)
        assert route[-1] == (0, 0)

    def test_same_chip_hops_unchanged(self, board):
        flat = Topology(cols=4, rows=3)
        for a, b in ((0, 5), (2, 22), (7, 19)):
            assert board.hops(a, b) == flat.hops(a, b)
            assert (board.hops(24 + a, 24 + b) == flat.hops(a, b))

    def test_snake_ring_covers_all_cores_chipwise(self, board):
        order = board.snake_ring_order()
        assert sorted(order) == list(range(48))
        # All of chip 0 is visited before any core of chip 1.
        assert max(order.index(c) for c in range(24)) < \
            min(order.index(c) for c in range(24, 48))

    def test_invalid_chip_count_rejected(self):
        with pytest.raises(ValueError, match="chip count"):
            Topology(chips=0)
