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
per-chunk copy).  The model therefore memoizes its results in per-instance
tables keyed by the call arguments.  Two things keep this exactly
equivalent to recomputing:

* the tables are segregated by the *current* ``erratum_enabled`` level, so
  the fault injector's scheduled arbiter-erratum toggle (which flips
  ``config.erratum_enabled`` mid-simulation) transparently switches to the
  other table instead of serving stale values;
* mutating any *other* config field after construction requires an explicit
  :meth:`LatencyModel.invalidate` (nothing in the repo does this — ablation
  benchmarks build fresh configs per point — but the escape hatch exists;
  :meth:`~repro.hw.machine.Machine.run_spmd` also calls it when a launch
  ends, to free the tables).

Pass ``cache=False`` to get the direct, recompute-every-call reference
implementation; ``tests/hw/test_timing_memo.py`` asserts the two are
bit-identical over a sampled argument grid.
"""

from __future__ import annotations

from repro.hw.config import SCCConfig
from repro.hw.topology import Topology


class LatencyModel:
    """Computes access/copy latencies for a given config + topology."""

    def __init__(self, config: SCCConfig, topology: Topology, *,
                 cache: bool = True):
        self.config = config
        self.topology = topology
        self._cache_enabled = bool(cache)
        self.invalidate()

    def invalidate(self) -> None:
        """Drop all memoized latencies and the protocol programs kept
        beside them (see :meth:`table`).

        Call after mutating a field of :attr:`config` on a live machine
        (other than ``erratum_enabled``, whose two levels have separate
        tables and need no invalidation).  Also re-snapshots the clock
        periods in case a frequency changed.
        """
        self._core_ps = self.config.core_clock().ps_per_cycle
        self._mesh_ps = self.config.mesh_clock().ps_per_cycle
        # One memo table per erratum level; indexed by the bool itself.
        self._memo: tuple[dict, dict] = ({}, {})

    def table(self) -> dict:
        """The memo table of the current erratum level, which also holds
        the bound protocol programs (a fresh empty dict when memoization
        is off, so nothing is kept)."""
        if self._cache_enabled:
            return self._memo[self.config.erratum_enabled]
        return {}

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
