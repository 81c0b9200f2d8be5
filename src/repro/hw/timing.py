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
configurations.  The values are therefore memoized in one table per
configuration, :class:`SharedTables`, which every model, machine, cost
model and replay context built on an equal configuration and topology
shares; it also holds the protocol programs
:func:`repro.hw.protocol.bind` prices from these latencies.  The tables
come from the cached factory :func:`shared_tables`, so a process keeps
those of its most recent configurations, and emptying the factory's cache
makes the next model start cold.  Three things keep this exactly
equivalent to recomputing:

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
implementation, which keeps nothing and shares nothing;
``tests/hw/test_timing_memo.py`` asserts the two are bit-identical over a
sampled argument grid.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.hw.config import SCCConfig, config_key
from repro.hw.topology import Topology


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
    bool itself): ``latencies`` is :class:`LatencyModel`'s memo (and the
    schedule-cost memo of :mod:`repro.sched.cost`), ``programs`` the bound
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
        # One memo table per erratum level; indexed by the bool itself.
        self._memo: tuple[dict, dict] = (
            self.shared.latencies if self.shared is not None else ({}, {}))

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
    def mpb_access(self, accessor: int, owner: int) -> int:
        """Latency of one MPB access (a flag read/write, or the startup
        latency of a bulk copy) by core ``accessor`` to the MPB owned by
        core ``owner``."""
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("acc", accessor, owner)
            value = memo.get(key)
            if value is None:
                value = memo[key] = self._raw_mpb_access(accessor, owner)
            return value
        return self._raw_mpb_access(accessor, owner)

    def _raw_mpb_access(self, accessor: int, owner: int) -> int:
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

    def dram_access(self, core: int) -> int:
        """First-touch latency of an off-chip DRAM access."""
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("dram", core)
            value = memo.get(key)
            if value is None:
                value = memo[key] = self._raw_dram_access(core)
            return value
        return self._raw_dram_access(core)

    def _raw_dram_access(self, core: int) -> int:
        cfg = self.config
        d = self.topology.hops_to_mc(core)
        return (self.core_cycles(cfg.dram_core_cycles)
                + self.mesh_cycles(cfg.dram_mesh_cycles_per_hop * d))

    def flag_write(self, writer: int, owner: int) -> int:
        """Cost for ``writer`` to set/clear a flag living in ``owner``'s MPB."""
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("fw", writer, owner)
            value = memo.get(key)
            if value is None:
                value = memo[key] = (
                    self.mpb_access(writer, owner)
                    + self.core_cycles(self.config.flag_write_extra_cycles))
            return value
        return (self.mpb_access(writer, owner)
                + self.core_cycles(self.config.flag_write_extra_cycles))

    def flag_notify(self, reader: int, owner: int) -> int:
        """Delay between a flag level change and the polling core observing
        it: the final successful poll's read latency."""
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("fn", reader, owner)
            value = memo.get(key)
            if value is None:
                poll = self.core_cycles(self.config.flag_poll_interval_cycles)
                value = memo[key] = self.mpb_access(reader, owner) + poll
            return value
        poll = self.core_cycles(self.config.flag_poll_interval_cycles)
        return self.mpb_access(reader, owner) + poll

    # -- bulk copies -----------------------------------------------------------
    def _local_erratum_line_extra(self, accessor: int, owner: int) -> int:
        """Per-line surcharge when a *local* MPB is accessed with the
        arbiter-erratum workaround active: every line becomes a packet the
        core sends to itself through the mesh."""
        if accessor == owner and self.config.erratum_enabled:
            return self.mesh_cycles(self.config.mpb_local_bug_mesh_cycles)
        return 0

    def _inter_chip_line_extra(self, accessor: int, owner: int) -> int:
        """Per-line bandwidth surcharge for cross-chip bulk copies: every
        line funnels through the board-level link(s) between the chips."""
        crossings = self.topology.chip_crossings(accessor, owner)
        if crossings:
            return self.mesh_cycles(
                self.config.inter_chip_line_mesh_cycles * crossings)
        return 0

    def mpb_write_bytes(self, writer: int, owner: int, nbytes: int) -> int:
        """Copy ``nbytes`` from ``writer``'s (cached) private memory into
        ``owner``'s MPB, through the write-combining buffer."""
        if nbytes == 0:
            return 0
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("wb", writer, owner, nbytes)
            value = memo.get(key)
            if value is None:
                value = memo[key] = self._raw_mpb_write_bytes(
                    writer, owner, nbytes)
            return value
        return self._raw_mpb_write_bytes(writer, owner, nbytes)

    def _raw_mpb_write_bytes(self, writer: int, owner: int,
                             nbytes: int) -> int:
        n = self.lines(nbytes)
        per_line = (self.core_cycles(self.config.put_line_core_cycles)
                    + self.core_cycles(self.config.cache_line_core_cycles)
                    + self._local_erratum_line_extra(writer, owner)
                    + self._inter_chip_line_extra(writer, owner))
        return self._raw_mpb_access(writer, owner) + n * per_line

    def mpb_read_bytes(self, reader: int, owner: int, nbytes: int) -> int:
        """Copy ``nbytes`` from ``owner``'s MPB into ``reader``'s private
        memory (which is cached, so the write side is cheap)."""
        if nbytes == 0:
            return 0
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("rb", reader, owner, nbytes)
            value = memo.get(key)
            if value is None:
                value = memo[key] = self._raw_mpb_read_bytes(
                    reader, owner, nbytes)
            return value
        return self._raw_mpb_read_bytes(reader, owner, nbytes)

    def _raw_mpb_read_bytes(self, reader: int, owner: int,
                            nbytes: int) -> int:
        n = self.lines(nbytes)
        per_line = (self.core_cycles(self.config.get_line_core_cycles)
                    + self.core_cycles(self.config.cache_line_core_cycles)
                    + self._local_erratum_line_extra(reader, owner)
                    + self._inter_chip_line_extra(reader, owner))
        return self._raw_mpb_access(reader, owner) + n * per_line

    def mpb_stream_read(self, reader: int, owner: int, nbytes: int) -> int:
        """Read ``nbytes`` from an MPB as reduction *operands* (no private
        copy written) — the MPB-direct Allreduce's input path."""
        if nbytes == 0:
            return 0
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("sr", reader, owner, nbytes)
            value = memo.get(key)
            if value is None:
                value = memo[key] = self._raw_mpb_stream_read(
                    reader, owner, nbytes)
            return value
        return self._raw_mpb_stream_read(reader, owner, nbytes)

    def _raw_mpb_stream_read(self, reader: int, owner: int,
                             nbytes: int) -> int:
        n = self.lines(nbytes)
        per_line = (self.core_cycles(self.config.get_line_core_cycles
                                     + self.config.stream_read_extra_cycles)
                    + self._local_erratum_line_extra(reader, owner)
                    + self._inter_chip_line_extra(reader, owner))
        return self._raw_mpb_access(reader, owner) + n * per_line

    def mpb_stream_write(self, writer: int, owner: int, nbytes: int) -> int:
        """Write ``nbytes`` of reduction *results* into an MPB (no private
        copy read) — the MPB-direct Allreduce's output path.  For the
        ``writer == owner`` case the per-access erratum penalty applies to
        every line, which is why the paper measured only ~10% gain."""
        if nbytes == 0:
            return 0
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("sw", writer, owner, nbytes)
            value = memo.get(key)
            if value is None:
                value = memo[key] = self._raw_mpb_stream_write(
                    writer, owner, nbytes)
            return value
        return self._raw_mpb_stream_write(writer, owner, nbytes)

    def _raw_mpb_stream_write(self, writer: int, owner: int,
                              nbytes: int) -> int:
        n = self.lines(nbytes)
        per_line = (self.core_cycles(self.config.put_line_core_cycles)
                    + self._local_erratum_line_extra(writer, owner)
                    + self._inter_chip_line_extra(writer, owner))
        return self._raw_mpb_access(writer, owner) + n * per_line

    def private_copy_bytes(self, nbytes: int) -> int:
        """memcpy between two cached private-memory buffers."""
        if nbytes == 0:
            return 0
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("pc", nbytes)
            value = memo.get(key)
            if value is None:
                n = self.lines(nbytes)
                value = memo[key] = n * self.core_cycles(
                    2 * self.config.cache_line_core_cycles)
            return value
        n = self.lines(nbytes)
        return n * self.core_cycles(2 * self.config.cache_line_core_cycles)

    def private_first_touch(self, core: int, nbytes: int) -> int:
        """Cost of faulting ``nbytes`` of private memory into the cache."""
        if nbytes == 0:
            return 0
        return self.lines(nbytes) * self.dram_access(core)

    # -- computation ---------------------------------------------------------
    def reduce_doubles(self, n: int) -> int:
        """Arithmetic cost of reducing ``n`` pairs of doubles."""
        if n < 0:
            raise ValueError(f"negative element count: {n}")
        if self._cache_enabled:
            memo = self._memo[self.config.erratum_enabled]
            key = ("rd", n)
            value = memo.get(key)
            if value is None:
                value = memo[key] = self.core_cycles(
                    n * self.config.reduce_op_cycles_per_double)
            return value
        return self.core_cycles(n * self.config.reduce_op_cycles_per_double)
