"""SCC topologies: tiles, cores, XY routing, memory controllers, chips.

The SCC arranges 24 tiles in a 6 (columns) x 4 (rows) mesh; each tile holds
two cores, so core ``i`` sits on tile ``i // 2``.  Tiles are numbered
row-major: tile ``t`` has mesh coordinates ``(x, y) = (t % cols, t // cols)``.
Packets are routed X-first then Y (dimension-ordered XY routing), which is
deadlock-free and gives a hop count equal to the Manhattan distance.
Four DDR3 memory controllers hang off the mesh at the quadrant corners
``(0, 0)``, ``(cols-1, 0)``, ``(0, rows-1)`` and ``(cols-1, rows-1)``;
each core is served by the controller of its quadrant (as on the real
chip, where the lookup tables default to a quadrant mapping).

A shape is named by a ``family:body`` spec string, and
:func:`get_topology` resolves it to a shared :class:`Topology`.  The
families are fixed:

``mesh:CxR[xT]``
    Single-chip mesh of ``C`` columns x ``R`` rows (``T`` cores per tile,
    default 2).  ``mesh:6x4`` is the paper's SCC chip.
``torus:CxR[xT]``
    Same geometry with both mesh axes wrapped; XY routing steps in the
    shorter wrap direction and hop counts use the wrapped distance.
``cluster:KxI``
    ``K`` chips of ``I`` cores each, chained by board-level links.  Each
    chip is a near-square mesh of ``I // 2`` two-core tiles (columns >=
    rows); ``cluster:2x24`` is two half-populated SCC-style chips,
    ``cluster:2x48`` two full 6x4 chips.  Tile and core ids are global
    (chip 0 first), coordinates are chip-local.  Cross-chip traffic
    leaves through the chip's gateway router at local ``(0, 0)`` (the
    system-interface corner, as on the real SCC's SIF) and pays one
    board-level crossing per chip boundary; crossings are *not* counted
    in ``hops`` but reported by :meth:`Topology.chip_crossings`, so the
    latency model can charge them as a separate, much slower link tier.

``mesh`` and ``torus`` accept ``+``-separated option suffixes:

``+mc=X.Y;X.Y;...``
    Explicit memory-controller attach routers (replaces the quadrant
    corners), e.g. ``mesh:8x8+mc=0.0;7.7``.
``+w=X.Y-X.Y:W;...``
    Heterogeneous link weights: the link joining adjacent routers
    ``(X, Y)`` costs ``W`` hop units instead of 1 (a slow or congested
    link; ``hops`` then sums link weights along the XY route), e.g.
    ``mesh:6x4+w=2.0-3.0:4`` makes one column boundary four times slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

#: A single weighted link: two adjacent router coordinates plus an integer
#: hop-cost weight >= 1 (1 is the homogeneous default).
LinkWeight = tuple[tuple[int, int], tuple[int, int], int]


@dataclass(frozen=True)
class Topology:
    """Geometry of the core/tile mesh plus routing helpers."""

    cols: int = 6
    rows: int = 4
    cores_per_tile: int = 2
    torus: bool = False
    chips: int = 1
    mc_placement: Optional[tuple[tuple[int, int], ...]] = None
    link_weights: Optional[tuple[LinkWeight, ...]] = None

    def __post_init__(self) -> None:
        if self.cols <= 0 or self.rows <= 0 or self.cores_per_tile <= 0:
            raise ValueError("topology dimensions must be positive")
        if self.chips <= 0:
            raise ValueError("chip count must be positive")
        if self.mc_placement is not None:
            object.__setattr__(self, "mc_placement",
                               tuple(tuple(r) for r in self.mc_placement))
            self._check_mc_placement()
        if self.link_weights is not None:
            object.__setattr__(self, "link_weights",
                               self._canonical_link_weights())

    def _check_mc_placement(self) -> None:
        placement = self.mc_placement
        assert placement is not None
        if not placement:
            raise ValueError("mc_placement must name at least one router")
        seen: set[tuple[int, int]] = set()
        for router in placement:
            x, y = router
            if not (0 <= x < self.cols and 0 <= y < self.rows):
                raise ValueError(
                    f"mc_placement router {router} outside the "
                    f"{self.cols}x{self.rows} mesh")
            if router in seen:
                raise ValueError(
                    f"mc_placement lists router {router} twice")
            seen.add(router)

    def _canonical_link_weights(self) -> tuple[LinkWeight, ...]:
        """Validate link weights; canonicalise endpoints (undirected)."""
        canonical: list[LinkWeight] = []
        seen: set[tuple[tuple[int, int], tuple[int, int]]] = set()
        for entry in self.link_weights or ():
            (a, b, weight) = (tuple(entry[0]), tuple(entry[1]), entry[2])
            for x, y in (a, b):
                if not (0 <= x < self.cols and 0 <= y < self.rows):
                    raise ValueError(
                        f"link endpoint {(x, y)} outside the "
                        f"{self.cols}x{self.rows} mesh")
            if self._link_span(a, b) != 1:
                raise ValueError(
                    f"link {a}-{b} does not join adjacent routers")
            if weight < 1:
                raise ValueError(
                    f"link {a}-{b} weight must be >= 1, got {weight}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"link {a}-{b} listed twice")
            seen.add(key)
            canonical.append((key[0], key[1], weight))
        return tuple(canonical)

    def _link_span(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Mesh distance between two routers (wrap-aware)."""
        return (self._axis_delta(a[0], b[0], self.cols)
                + self._axis_delta(a[1], b[1], self.rows))

    # -- counting --------------------------------------------------------
    @property
    def tiles_per_chip(self) -> int:
        return self.cols * self.rows

    @property
    def num_tiles(self) -> int:
        return self.tiles_per_chip * self.chips

    @property
    def num_cores(self) -> int:
        return self.num_tiles * self.cores_per_tile

    def cores(self) -> range:
        return range(self.num_cores)

    # -- placement --------------------------------------------------------
    def tile_of(self, core: int) -> int:
        self._check_core(core)
        return core // self.cores_per_tile

    def tile_coords(self, tile: int) -> tuple[int, int]:
        """Chip-local mesh coordinates of a (global) tile id."""
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} out of range [0, {self.num_tiles})")
        local = tile % self.tiles_per_chip
        return (local % self.cols, local // self.cols)

    def core_coords(self, core: int) -> tuple[int, int]:
        return self.tile_coords(self.tile_of(core))

    def cores_of_tile(self, tile: int) -> tuple[int, ...]:
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} out of range [0, {self.num_tiles})")
        base = tile * self.cores_per_tile
        return tuple(range(base, base + self.cores_per_tile))

    # -- chips -------------------------------------------------------------
    def chip_of(self, core: int) -> int:
        """Chip holding a core (0 for every core on single-chip shapes)."""
        return self.tile_of(core) // self.tiles_per_chip

    def chip_crossings(self, core_a: int, core_b: int) -> int:
        """Board-level link crossings between two cores' chips.

        Chips are chained in id order, so the crossing count is the chip
        distance.  Zero whenever both cores share a chip (always, on
        single-chip topologies) -- the latency model charges its
        inter-chip tier only when this is positive.
        """
        if self.chips == 1:
            return 0
        return abs(self.chip_of(core_a) - self.chip_of(core_b))

    # -- routing -----------------------------------------------------------
    def _axis_delta(self, a: int, b: int, size: int) -> int:
        direct = abs(a - b)
        if self.torus:
            return min(direct, size - direct)
        return direct

    def _axis_step(self, a: int, b: int, size: int) -> int:
        """Signed step direction along one axis (wrap-aware, shorter way)."""
        if a == b:
            return 0
        if not self.torus:
            return 1 if b > a else -1
        forward = (b - a) % size
        backward = (a - b) % size
        if forward < backward:
            return 1
        if backward < forward:
            return -1
        return 1 if b > a else -1  # tie: take the non-wrapping direction

    def _route_weight(self, path: list[tuple[int, int]]) -> int:
        """Sum link weights along a router path (1 per unlisted link)."""
        table = {(a, b): w for a, b, w in self.link_weights or ()}
        total = 0
        for u, v in zip(path, path[1:]):
            key = (min(u, v), max(u, v))
            total += table.get(key, 1)
        return total

    def _local_hops(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Routing cost between two routers on one chip, in hop units."""
        if self.link_weights is not None:
            return self._route_weight(self._local_route(a, b))
        return self._axis_delta(a[0], b[0], self.cols) + \
            self._axis_delta(a[1], b[1], self.rows)

    def _local_route(self, a: tuple[int, int],
                     b: tuple[int, int]) -> list[tuple[int, int]]:
        """XY route between two routers on one chip (inclusive)."""
        (xa, ya), (xb, yb) = a, b
        path = [(xa, ya)]
        x, y = xa, ya
        step_x = self._axis_step(xa, xb, self.cols)
        while x != xb:
            x = (x + step_x) % self.cols if self.torus else x + step_x
            path.append((x, y))
        step_y = self._axis_step(ya, yb, self.rows)
        while y != yb:
            y = (y + step_y) % self.rows if self.torus else y + step_y
            path.append((x, y))
        return path

    def hops(self, core_a: int, core_b: int) -> int:
        """Mesh hops between the tiles of two cores.

        On the plain mesh this is the Manhattan distance; on a torus the
        wrapped distance; with ``link_weights`` the weighted length of the
        XY route.  Across chips it is the sum of each core's local route
        to its chip's gateway router at ``(0, 0)`` -- the board-level
        crossings themselves are reported by :meth:`chip_crossings`, not
        counted here.
        """
        ca = self.core_coords(core_a)
        cb = self.core_coords(core_b)
        if self.chip_of(core_a) == self.chip_of(core_b):
            return self._local_hops(ca, cb)
        gateway = (0, 0)
        return self._local_hops(ca, gateway) + self._local_hops(gateway, cb)

    def xy_route(self, core_a: int, core_b: int) -> list[tuple[int, int]]:
        """Router coordinates traversed by an XY-routed packet (inclusive).

        Cross-chip routes are the concatenation of the local route to the
        source chip's gateway ``(0, 0)`` and the route from the target
        chip's gateway onward; coordinates are chip-local.
        """
        ca = self.core_coords(core_a)
        cb = self.core_coords(core_b)
        if self.chip_of(core_a) == self.chip_of(core_b):
            return self._local_route(ca, cb)
        gateway = (0, 0)
        return self._local_route(ca, gateway) + self._local_route(gateway, cb)

    def max_hops(self) -> int:
        """Mesh diameter in hops (routing-cost units)."""
        if self.chips == 1 and not self.torus and self.link_weights is None:
            return (self.cols - 1) + (self.rows - 1)
        return max(self.hops(a, b) for a in self.cores()
                   for b in self.cores())

    def average_hops(self) -> float:
        """Mean hop count over all ordered core pairs (distinct cores)."""
        total = 0
        count = 0
        for a in self.cores():
            for b in self.cores():
                if a != b:
                    total += self.hops(a, b)
                    count += 1
        return total / count if count else 0.0

    # -- memory controllers --------------------------------------------------
    def mc_routers(self) -> list[tuple[int, int]]:
        """Mesh coordinates of the memory-controller attach points.

        Explicit ``mc_placement`` wins; otherwise the four quadrant
        corners, deduplicated in order for degenerate shapes (on a 1xN or
        Nx1 mesh the corners alias pairwise, on 1x1 all four coincide).
        Multi-chip topologies replicate the same local placement on every
        chip (each chip keeps its own DDR controllers).
        """
        if self.mc_placement is not None:
            return list(self.mc_placement)
        corners = [
            (0, 0),
            (self.cols - 1, 0),
            (0, self.rows - 1),
            (self.cols - 1, self.rows - 1),
        ]
        deduped: list[tuple[int, int]] = []
        for corner in corners:
            if corner not in deduped:
                deduped.append(corner)
        return deduped

    def mc_of_core(self, core: int) -> tuple[int, int]:
        """Controller serving a core: the nearest attach point (chip-local
        coordinates; quadrant mapping on the default placement)."""
        x, y = self.core_coords(core)
        routers = self.mc_routers()
        return min(routers, key=lambda r: (abs(r[0] - x) + abs(r[1] - y),
                                           routers.index(r)))

    def hops_to_mc(self, core: int) -> int:
        """Hops from a core's tile to its memory controller's router."""
        xy = self.core_coords(core)
        return self._local_hops(xy, self.mc_of_core(core))

    # -- orderings -------------------------------------------------------------
    def snake_ring_order(self) -> list[int]:
        """A topology-aware ring: tiles visited in boustrophedon (snake)
        order so successive ring neighbours are at most one mesh hop apart.
        Chips are visited in id order.  Used by the topology-mapping
        ablation."""
        order: list[int] = []
        for chip in range(self.chips):
            base = chip * self.tiles_per_chip
            for y in range(self.rows):
                xs = (range(self.cols) if y % 2 == 0
                      else range(self.cols - 1, -1, -1))
                for x in xs:
                    tile = base + y * self.cols + x
                    order.extend(self.cores_of_tile(tile))
        return order

    # -- internals ----------------------------------------------------------
    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range [0, {self.num_cores})")


# -- spec parsing -----------------------------------------------------------

def _bad(spec: str, reason: str) -> ValueError:
    return ValueError(f"malformed topology spec {spec!r}: {reason}")


def _parse_dims(text: str, spec: str) -> tuple[int, int, int]:
    """Parse ``CxR`` or ``CxRxT`` into (cols, rows, cores_per_tile)."""
    parts = text.split("x")
    if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts):
        raise _bad(spec, "expected dimensions 'CxR' or 'CxRxT'")
    cols, rows = int(parts[0]), int(parts[1])
    cpt = int(parts[2]) if len(parts) == 3 else 2
    if cols < 1 or rows < 1 or cpt < 1:
        raise _bad(spec, "dimensions must be positive")
    return cols, rows, cpt


def _parse_router(text: str, spec: str) -> tuple[int, int]:
    x, _, y = text.partition(".")
    if not (x.isdigit() and y.isdigit()):
        raise _bad(spec, f"expected router 'X.Y', got {text!r}")
    return (int(x), int(y))


def _parse_mc(text: str, spec: str) -> tuple[tuple[int, int], ...]:
    entries = [e for e in text.split(";") if e]
    if not entries:
        raise _bad(spec, "+mc= needs at least one 'X.Y' router")
    return tuple(_parse_router(e, spec) for e in entries)


def _parse_weights(text: str, spec: str) -> tuple[LinkWeight, ...]:
    links: list[LinkWeight] = []
    for entry in (e for e in text.split(";") if e):
        ends, _, weight = entry.partition(":")
        a_text, sep, b_text = ends.partition("-")
        if not sep or not weight.isdigit():
            raise _bad(spec, f"expected link 'X.Y-X.Y:W', got {entry!r}")
        links.append((_parse_router(a_text, spec),
                      _parse_router(b_text, spec), int(weight)))
    if not links:
        raise _bad(spec, "+w= needs at least one 'X.Y-X.Y:W' link")
    return tuple(links)


def _make_mesh(body: str, spec: str, *, torus: bool) -> Topology:
    dims, *options = body.split("+")
    cols, rows, cpt = _parse_dims(dims, spec)
    mc: Optional[tuple[tuple[int, int], ...]] = None
    weights: Optional[tuple[LinkWeight, ...]] = None
    for option in options:
        key, sep, value = option.partition("=")
        if not sep:
            raise _bad(spec, f"expected option 'key=value', got {option!r}")
        if key == "mc":
            mc = _parse_mc(value, spec)
        elif key == "w":
            weights = _parse_weights(value, spec)
        else:
            raise _bad(spec, f"unknown option {key!r} (know 'mc' and 'w')")
    try:
        return Topology(cols, rows, cpt, torus=torus,
                        mc_placement=mc, link_weights=weights)
    except ValueError as err:
        raise _bad(spec, str(err)) from None


def _mesh_shape_for(tiles: int) -> tuple[int, int]:
    """Near-square factoring of a tile count, columns >= rows."""
    rows = 1
    r = int(tiles ** 0.5)
    while r >= 1:
        if tiles % r == 0:
            rows = r
            break
        r -= 1
    return tiles // rows, rows


def _make_cluster(body: str, spec: str) -> Topology:
    parts = body.split("x")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise _bad(spec, "expected 'cluster:<chips>x<cores-per-chip>'")
    chips, cores = int(parts[0]), int(parts[1])
    if chips < 1 or cores < 1:
        raise _bad(spec, "chip and core counts must be positive")
    if cores % 2 != 0:
        raise _bad(spec, "cores per chip must be even (two cores per tile)")
    cols, rows = _mesh_shape_for(cores // 2)
    return Topology(cols, rows, 2, chips=chips)


#: The topology families by spec prefix: each builds from (body, spec).
_FAMILIES: dict[str, Callable[[str, str], Topology]] = {
    "cluster": _make_cluster,
    "mesh": lambda body, spec: _make_mesh(body, spec, torus=False),
    "torus": lambda body, spec: _make_mesh(body, spec, torus=True),
}


@lru_cache(maxsize=64)
def get_topology(spec: str) -> Topology:
    """Resolve a ``family:body`` spec string to a cached Topology."""
    family, _, body = spec.partition(":")
    try:
        make = _FAMILIES[family]
    except KeyError:
        raise KeyError(f"unknown topology family {family!r}; "
                       f"known: {', '.join(_FAMILIES)}") from None
    return make(body, f"{family}:{body}")
