"""Property-based tests for the mesh topology and XY routing."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hw.topo import Topology

dims = st.tuples(st.integers(min_value=1, max_value=10),
                 st.integers(min_value=1, max_value=10),
                 st.integers(min_value=1, max_value=4))


@st.composite
def topo_and_cores(draw):
    cols, rows, cpt = draw(dims)
    topo = Topology(cols, rows, cpt)
    a = draw(st.integers(min_value=0, max_value=topo.num_cores - 1))
    b = draw(st.integers(min_value=0, max_value=topo.num_cores - 1))
    return topo, a, b


@given(topo_and_cores())
def test_hops_symmetric(args):
    topo, a, b = args
    assert topo.hops(a, b) == topo.hops(b, a)


@given(topo_and_cores())
def test_hops_bounded_by_diameter(args):
    topo, a, b = args
    assert 0 <= topo.hops(a, b) <= topo.max_hops()


@given(topo_and_cores())
def test_hops_zero_iff_same_tile(args):
    topo, a, b = args
    assert (topo.hops(a, b) == 0) == (topo.tile_of(a) == topo.tile_of(b))


@given(topo_and_cores())
def test_xy_route_length_matches_hops(args):
    topo, a, b = args
    path = topo.xy_route(a, b)
    assert len(path) == topo.hops(a, b) + 1
    assert path[0] == topo.core_coords(a)
    assert path[-1] == topo.core_coords(b)


@given(topo_and_cores())
def test_xy_route_steps_unit_manhattan(args):
    topo, a, b = args
    path = topo.xy_route(a, b)
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        assert abs(x0 - x1) + abs(y0 - y1) == 1


@given(topo_and_cores())
@settings(max_examples=50)
def test_triangle_inequality(args):
    topo, a, b = args
    for c in range(0, topo.num_cores, max(1, topo.num_cores // 7)):
        assert topo.hops(a, b) <= topo.hops(a, c) + topo.hops(c, b)


@given(dims)
def test_snake_order_is_permutation_with_adjacent_tiles(d):
    cols, rows, cpt = d
    topo = Topology(cols, rows, cpt)
    order = topo.snake_ring_order()
    assert sorted(order) == list(range(topo.num_cores))
    for a, b in zip(order, order[1:]):
        assert topo.hops(a, b) <= 1


@given(dims)
def test_every_core_has_a_memory_controller(d):
    cols, rows, cpt = d
    topo = Topology(cols, rows, cpt)
    routers = set(topo.mc_routers())
    for core in topo.cores():
        assert topo.mc_of_core(core) in routers
        assert topo.hops_to_mc(core) <= topo.max_hops()
