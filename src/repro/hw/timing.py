"""Hardware latency model: pure functions from operations to picoseconds.

This module models *hardware* costs only — wire latencies, SRAM/DRAM access
times, per-line copy pipeline costs.  Software overheads (library call
costs, the extra put/get invocation for a padded tail line, request-list
management) are charged by the library layers (``repro.rcce``,
``repro.ircce``, ...), which is exactly the separation the paper exploits:
its optimizations B and C change software costs on identical hardware.

All methods return integer picoseconds.

Memoization
-----------
Every latency here is a pure function of the configuration, the topology,
and the call arguments — but the protocol layers ask for the same handful
of values millions of times per sweep (every flag write, every poll, every
per-chunk copy), and a sweep builds one machine per point on a handful of
configurations.  Each price is therefore written once, as its plain body,
under the :func:`memoized` decorator — the one place that knows where a
price is kept: under ``(tag, *args)`` in the configuration's
:class:`SharedTables`, which every model, machine, cost model and replay
context built on an equal configuration and topology shares (the
schedule-level prices of :mod:`repro.sched.cost` take the same decorator;
whole-schedule estimates key themselves through
:meth:`LatencyModel.prices`).  The tables also hold the protocol programs
:func:`repro.hw.protocol.bind` prices from these latencies.  They come
from the cached factory :func:`shared_tables`, so a process keeps those of
its most recent configurations, and emptying the factory's cache makes the
next model start cold.  Three things keep this exactly equivalent to
recomputing:

* the tables are segregated by the *current* ``erratum_enabled`` level, so
  the fault injector's scheduled arbiter-erratum toggle (which flips
  ``config.erratum_enabled`` mid-simulation) transparently switches to the
  other table instead of serving stale values;
* a model keeps the table it got at construction; mutating any *other*
  config field afterwards requires an explicit
  :meth:`LatencyModel.invalidate`, which re-keys the model to the table
  of the mutated configuration (``tests/hw/test_bound_prices.py`` and
  ``tests/hw/test_timing_memo.py`` do this; sweeps and ablations build
  fresh configs per point).  Until then the model would serve, and add
  to, the old configuration's table;
* pricing is deterministic, so whichever machine fills an entry first,
  every other one would have computed the same value.

Pass ``cache=False`` to get the direct, recompute-every-call reference
implementation — the same bodies, run on every call — which keeps nothing
and shares nothing; ``tests/hw/test_timing_memo.py`` asserts the two are
bit-identical over a sampled argument grid on four topologies.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import Optional

import numpy as np

from repro.hw.config import SCCConfig, config_key
from repro.hw.topo import Topology


@lru_cache(maxsize=32)
def pair_classes(topology: Topology) -> np.ndarray:
    """``classes[a, b]``: which (accessor, owner) core pairs price alike
    (ids from 1).

    Every MPB/flag latency of :class:`LatencyModel` depends on a core
    pair only through the routed hop count in either direction (weighted
    links make XY routes asymmetric), the chip crossings, and whether the
    two are the same core — so pairwise alltoall's p*(p-1) distinct core
    pairs collapse onto a handful of classes
    (``tests/hw/test_shared_programs.py`` checks every pair).
    """
    # Routing is per tile: price one core of each, then fan out.
    heads = [topology.cores_of_tile(t)[0] for t in range(topology.num_tiles)]
    tile_hops = np.array([[topology.hops(a, b) for b in heads]
                          for a in heads])
    tile = np.array([topology.tile_of(core) for core in topology.cores()])
    hops = tile_hops[tile[:, None], tile]
    chip = tile // topology.tiles_per_chip
    traits = np.stack([hops, hops.T, abs(chip[:, None] - chip),
                       np.eye(len(tile), dtype=hops.dtype)])
    _, ids = np.unique(traits.reshape(4, -1), axis=1, return_inverse=True)
    return 1 + ids.reshape(hops.shape)


class SharedTables:
    """What one configuration fixes.  Indexed by the erratum level (the
    bool itself): ``latencies`` holds every :func:`memoized` price (the
    latencies here and the schedule costs of :mod:`repro.sched.cost`),
    ``programs`` the bound
    protocol programs of :func:`repro.hw.protocol.bind` by the pair
    classes of their operands and ``index`` the same programs by the
    acting core and owners a call names; ``tables`` holds the protocol
    tables those are keyed by, by id, and ``classes[a][b]`` is
    :func:`pair_classes` as lists."""

    __slots__ = ("latencies", "programs", "index", "tables", "classes")

    def __init__(self, topology: Topology) -> None:
        self.latencies: tuple[dict, dict] = ({}, {})
        self.programs: tuple[dict, dict] = ({}, {})
        self.index: tuple[dict, dict] = ({}, {})
        self.tables: dict[int, tuple] = {}
        self.classes: list[list[int]] = pair_classes(topology).tolist()


@lru_cache(maxsize=32)
def shared_tables(key: str, topology: Topology) -> SharedTables:
    """The tables of the configuration with :func:`config_key` ``key`` on
    ``topology`` (one instance per pair while it is cached)."""
    return SharedTables(topology)


def memoized(tag: str):
    """Decorator for a price ``body(model, *args)``: keep its value under
    ``(tag, *args)`` in ``model``'s latency table of the current erratum
    level, or recompute it every call when the model has no tables
    (``cache=False``).  The only code that knows where a price is kept.

    The wrapper is written out per arity (one to three arguments): a warm
    hit is the hot path, and a generic ``*args`` wrapper costs about half
    as much again per hit."""
    def decorate(body):
        arity = body.__code__.co_argcount - 1
        if arity == 1:
            def price(model, a):
                memo = model._memo
                if memo is None:
                    return body(model, a)
                memo = memo[model.config.erratum_enabled]
                value = memo.get((tag, a))
                if value is None:
                    value = memo[tag, a] = body(model, a)
                return value
        elif arity == 2:
            def price(model, a, b):
                memo = model._memo
                if memo is None:
                    return body(model, a, b)
                memo = memo[model.config.erratum_enabled]
                value = memo.get((tag, a, b))
                if value is None:
                    value = memo[tag, a, b] = body(model, a, b)
                return value
        elif arity == 3:
            def price(model, a, b, c):
                memo = model._memo
                if memo is None:
                    return body(model, a, b, c)
                memo = memo[model.config.erratum_enabled]
                value = memo.get((tag, a, b, c))
                if value is None:
                    value = memo[tag, a, b, c] = body(model, a, b, c)
                return value
        else:
            raise TypeError(f"{body.__qualname__}: memoized prices take "
                            f"one to three arguments, not {arity}")
        return wraps(body)(price)
    return decorate


class LatencyModel:
    """Computes access/copy latencies for a given config + topology."""

    def __init__(self, config: SCCConfig, topology: Topology, *,
                 cache: bool = True):
        self.config = config
        self.topology = topology
        self._cache_enabled = bool(cache)
        self.invalidate()

    def invalidate(self) -> None:
        """Re-key the model to the tables of its configuration as it is
        now (see the module docstring), and re-snapshot the clock periods.

        Call after mutating a field of :attr:`config` on a live machine
        (other than ``erratum_enabled``, whose two levels have separate
        tables and need no invalidation).  ``shared`` is None when
        memoization is off.
        """
        self._core_ps = self.config.core_clock().ps_per_cycle
        self._mesh_ps = self.config.mesh_clock().ps_per_cycle
        self.shared = (shared_tables(config_key(self.config), self.topology)
                       if self._cache_enabled else None)
        # Both erratum levels' price tables, indexed by the bool itself.
        self._memo = self.shared.latencies if self.shared else None

    def prices(self) -> Optional[dict]:
        """The price table of the current erratum level (None when
        memoization is off), for whole-schedule estimates that key
        themselves."""
        if self._memo is None:
            return None
        return self._memo[self.config.erratum_enabled]

    # -- cycle helpers -----------------------------------------------------
    def core_cycles(self, n: int | float) -> int:
        return int(round(n * self._core_ps))

    def mesh_cycles(self, n: int | float) -> int:
        return int(round(n * self._mesh_ps))

    # -- line arithmetic -----------------------------------------------------
    def lines(self, nbytes: int) -> int:
        """Number of L1 lines covering ``nbytes`` (the WCB transfers whole
        lines; partial tail lines are padded up)."""
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        line = self.config.l1_line_bytes
        return -(-nbytes // line)

    def has_padded_tail(self, nbytes: int) -> bool:
        """True when the message does not fill its last cache line — the
        condition that triggers RCCE's extra put/get call (period-4 spikes,
        Section V-A)."""
        return nbytes % self.config.l1_line_bytes != 0

    # -- single-access latencies ------------------------------------------------
    @memoized("acc")
    def mpb_access(self, accessor: int, owner: int) -> int:
        """Latency of one MPB access (a flag read/write, or the startup
        latency of a bulk copy) by core ``accessor`` to the MPB owned by
        core ``owner``."""
        cfg = self.config
        if accessor == owner:
            if cfg.erratum_enabled:
                return (self.core_cycles(cfg.mpb_local_bug_core_cycles)
                        + self.mesh_cycles(cfg.mpb_local_bug_mesh_cycles))
            return self.core_cycles(cfg.mpb_local_core_cycles)
        hops = self.topology.hops(accessor, owner)
        # Same-tile remote access still crosses the tile's mesh interface.
        mesh = cfg.mpb_mesh_cycles_per_hop * max(1, 2 * hops)
        crossings = self.topology.chip_crossings(accessor, owner)
        if crossings:
            # Board-level link tier: round trip over each slow crossing.
            mesh += cfg.inter_chip_access_mesh_cycles * 2 * crossings
        return (self.core_cycles(cfg.mpb_remote_core_cycles)
                + self.mesh_cycles(mesh))

    @memoized("dram")
    def dram_access(self, core: int) -> int:
        """First-touch latency of an off-chip DRAM access."""
        cfg = self.config
        d = self.topology.hops_to_mc(core)
        return (self.core_cycles(cfg.dram_core_cycles)
                + self.mesh_cycles(cfg.dram_mesh_cycles_per_hop * d))

    @memoized("fw")
    def flag_write(self, writer: int, owner: int) -> int:
        """Cost for ``writer`` to set/clear a flag living in ``owner``'s MPB."""
        return (self.mpb_access(writer, owner)
                + self.core_cycles(self.config.flag_write_extra_cycles))

    @memoized("fn")
    def flag_notify(self, reader: int, owner: int) -> int:
        """Delay between a flag level change and the polling core observing
        it: the final successful poll's read latency."""
        poll = self.core_cycles(self.config.flag_poll_interval_cycles)
        return self.mpb_access(reader, owner) + poll

    # -- bulk copies -----------------------------------------------------------
    def _copy(self, accessor: int, owner: int, nbytes: int,
              line_ps: int) -> int:
        """A bulk copy: one MPB access, then ``line_ps`` per line plus the
        per-line surcharges — on a *local* MPB with the arbiter-erratum
        workaround active every line is a packet the core sends to itself
        through the mesh, and a cross-chip line funnels through the
        board-level link(s) between the chips."""
        if nbytes == 0:
            return 0
        cfg = self.config
        if accessor == owner and cfg.erratum_enabled:
            line_ps += self.mesh_cycles(cfg.mpb_local_bug_mesh_cycles)
        crossings = self.topology.chip_crossings(accessor, owner)
        if crossings:
            line_ps += self.mesh_cycles(
                cfg.inter_chip_line_mesh_cycles * crossings)
        return self.mpb_access(accessor, owner) + self.lines(nbytes) * line_ps

    @memoized("wb")
    def mpb_write_bytes(self, writer: int, owner: int, nbytes: int) -> int:
        """Copy ``nbytes`` from ``writer``'s (cached) private memory into
        ``owner``'s MPB, through the write-combining buffer."""
        cfg = self.config
        return self._copy(writer, owner, nbytes,
                          self.core_cycles(cfg.put_line_core_cycles)
                          + self.core_cycles(cfg.cache_line_core_cycles))

    @memoized("rb")
    def mpb_read_bytes(self, reader: int, owner: int, nbytes: int) -> int:
        """Copy ``nbytes`` from ``owner``'s MPB into ``reader``'s private
        memory (which is cached, so the write side is cheap)."""
        cfg = self.config
        return self._copy(reader, owner, nbytes,
                          self.core_cycles(cfg.get_line_core_cycles)
                          + self.core_cycles(cfg.cache_line_core_cycles))

    @memoized("sr")
    def mpb_stream_read(self, reader: int, owner: int, nbytes: int) -> int:
        """Read ``nbytes`` from an MPB as reduction *operands* (no private
        copy written) — the MPB-direct Allreduce's input path."""
        cfg = self.config
        return self._copy(reader, owner, nbytes, self.core_cycles(
            cfg.get_line_core_cycles + cfg.stream_read_extra_cycles))

    @memoized("sw")
    def mpb_stream_write(self, writer: int, owner: int, nbytes: int) -> int:
        """Write ``nbytes`` of reduction *results* into an MPB (no private
        copy read) — the MPB-direct Allreduce's output path.  For the
        ``writer == owner`` case the per-access erratum penalty applies to
        every line, which is why the paper measured only ~10% gain."""
        return self._copy(writer, owner, nbytes,
                          self.core_cycles(self.config.put_line_core_cycles))

    @memoized("pc")
    def private_copy_bytes(self, nbytes: int) -> int:
        """memcpy between two cached private-memory buffers."""
        return self.lines(nbytes) * self.core_cycles(
            2 * self.config.cache_line_core_cycles)

    def private_first_touch(self, core: int, nbytes: int) -> int:
        """Cost of faulting ``nbytes`` of private memory into the cache."""
        if nbytes == 0:
            return 0
        return self.lines(nbytes) * self.dram_access(core)

    # -- computation ---------------------------------------------------------
    @memoized("rd")
    def reduce_doubles(self, n: int) -> int:
        """Arithmetic cost of reducing ``n`` pairs of doubles."""
        if n < 0:
            raise ValueError(f"negative element count: {n}")
        return self.core_cycles(n * self.config.reduce_op_cycles_per_double)
