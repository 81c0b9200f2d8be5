"""SCC hardware configuration.

Every timing constant of the simulated chip lives here.  The defaults model
the *standard preset* used in the paper's evaluation (Section V): cores at
533 MHz, mesh network and DRAM at 800 MHz.  Latency figures are taken from
the paper and the sources it cites:

* local MPB access: **15 core cycles**; with the arbiter-erratum workaround
  active (cores send packets to themselves instead of accessing the local
  MPB directly): **45 core cycles + 8 mesh cycles** (paper Section IV-D,
  citing the SCC programmer's guide),
* off-chip DRAM access: **40 core cycles + 8·d mesh cycles**, d = hops to
  the responsible memory controller (paper Section IV-D, citing [5]),
* L1 cache line: **32 bytes = 4 doubles** — the origin of the period-4
  latency spikes in Fig. 9 (Section V-A),
* per-core MPB: **8 KB** (16 KB per tile, Section II).

Software-overhead constants (cycles charged per library call) are the
*calibrated* part of the model: they are chosen so that the step-wise
Allreduce speedups of Section IV land near the paper's reported +25%
(blocking→iRCCE), +65% (→lightweight), +28% (→balanced, at 552 elements)
and +10% (→MPB-direct, with the erratum active).  EXPERIMENTS.md records
the values measured with these defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from repro.hw.topo import Topology, get_topology
from repro.sim.clock import Clock


@dataclass
class SCCConfig:
    """All parameters of the simulated SCC.

    Instances are mutable on purpose (ablation benchmarks flip individual
    fields, e.g. ``erratum_enabled``); use :meth:`copy` to derive variants
    without touching a shared instance.
    """

    # ------------------------------------------------------------------ #
    # Clock domains (standard preset: "Tile533_Mesh800_DDR800")
    # ------------------------------------------------------------------ #
    core_freq_hz: int = 533_000_000
    mesh_freq_hz: int = 800_000_000
    dram_freq_hz: int = 800_000_000

    # ------------------------------------------------------------------ #
    # Topology: a spec string (see repro.hw.topo, e.g. "mesh:8x8",
    # "mesh:2x1x4", "torus:6x4", "cluster:2x24").  The default is the
    # paper's chip: a 6x4 tile mesh, 2 cores per tile -> 48 cores.
    # ------------------------------------------------------------------ #
    topology: str = "mesh:6x4"

    # ------------------------------------------------------------------ #
    # Memory geometry
    # ------------------------------------------------------------------ #
    l1_line_bytes: int = 32          # P54C L1 line; 4 doubles
    mpb_bytes_per_core: int = 8192   # on-chip SRAM message-passing buffer
    mpb_flag_bytes: int = 192        # slice of the MPB reserved for flags

    # ------------------------------------------------------------------ #
    # Hardware access latencies (paper Section IV-D)
    # ------------------------------------------------------------------ #
    # Local MPB access without the erratum workaround:
    mpb_local_core_cycles: int = 15
    # Local MPB access with the workaround (packet to self):
    mpb_local_bug_core_cycles: int = 45
    mpb_local_bug_mesh_cycles: int = 8
    # Remote MPB access: fixed core-side cost + per-hop mesh cost
    # (round trip for reads; writes are posted but the WCB drain is
    # captured by the per-line pipeline cost below).
    mpb_remote_core_cycles: int = 45
    mpb_mesh_cycles_per_hop: int = 4
    # Off-chip DRAM: first-touch latency; later accesses hit the L2.
    dram_core_cycles: int = 40
    dram_mesh_cycles_per_hop: int = 8
    # Cached private-memory access (L1/L2 hit), per cache line:
    cache_line_core_cycles: int = 4
    # Board-level links between chips of a multi-chip "cluster:" topology
    # (PCIe/TCP-bridged system-interface links on real SCC boards, with
    # latencies in the tens of microseconds): a fixed per-crossing
    # surcharge on every cross-chip MPB/flag access (8000 mesh cycles =
    # 10 us at 800 MHz, doubled for the round trip), plus a per-line
    # per-crossing bandwidth surcharge on bulk copies (400 mesh cycles =
    # 0.5 us per 32 B line, ~64 MB/s).  Both only apply when the active
    # topology has chips > 1.
    inter_chip_access_mesh_cycles: int = 8000
    inter_chip_line_mesh_cycles: int = 400

    # The SCC local-MPB arbiter bug (see paper Section IV-D).  True models
    # real silicon (workaround active, local MPB accesses routed through
    # the mesh); False models the hypothetical fixed chip.
    erratum_enabled: bool = True

    # Model each MPB's single access port: bulk transfers serialize when
    # two cores hit the same MPB simultaneously (e.g. the owner filling
    # its send buffer while the right neighbour drains it).  Off by
    # default — the paper's effects do not need it — but available for
    # the contention ablation and for big-message realism.
    model_mpb_contention: bool = False

    # ------------------------------------------------------------------ #
    # Data-movement costs per 32-byte line.  These are *effective* costs
    # including the per-line software work of RCCE's memcpy paths; the
    # real chip's MPB copy bandwidth for small unaligned chunks was on
    # the order of tens of MB/s, i.e. hundreds of core cycles per line.
    # ------------------------------------------------------------------ #
    # Writing a line core->MPB through the write-combining buffer:
    put_line_core_cycles: int = 110
    # Reading a line MPB->core (pipelined after the first-line latency):
    get_line_core_cycles: int = 150
    # Extra per-line cost when MPB contents are consumed *directly* as
    # reduction operands (MPB-direct Allreduce): the access pattern defeats
    # the streaming memcpy's read combining.
    stream_read_extra_cycles: int = 4
    # Reduction arithmetic: cycles per double (load-add-store on P54C):
    reduce_op_cycles_per_double: int = 24

    # ------------------------------------------------------------------ #
    # Software overheads, RCCE blocking layer (cycles per call)
    # ------------------------------------------------------------------ #
    rcce_send_call_cycles: int = 2400
    rcce_recv_call_cycles: int = 2400
    # One low-level put/get invocation; a message whose size is not a
    # multiple of the L1 line pays this a second time for the padded tail
    # line (paper Section V-A, the period-4 "spikes").
    rcce_putget_call_cycles: int = 900
    flag_write_extra_cycles: int = 120
    flag_poll_interval_cycles: int = 250  # mean residual poll delay

    # ------------------------------------------------------------------ #
    # Software overheads, iRCCE layer (Section IV-B: list keeping,
    # wildcard support, cancellation make these expensive)
    # ------------------------------------------------------------------ #
    ircce_issue_cycles: int = 1700
    ircce_complete_cycles: int = 1300
    ircce_test_cycles: int = 120

    # ------------------------------------------------------------------ #
    # Software overheads, lightweight non-blocking layer (Section IV-B)
    # ------------------------------------------------------------------ #
    lwnb_issue_cycles: int = 260
    lwnb_complete_cycles: int = 160
    lwnb_test_cycles: int = 40

    # ------------------------------------------------------------------ #
    # RCKMPI model (Section III / V-A): full MPI stack on an MPB channel.
    # Byte-granular packets (no line padding -> smooth curves) but heavy
    # per-call and per-packet software overhead (2x-5x slower overall).
    # ------------------------------------------------------------------ #
    rckmpi_call_cycles: int = 6500
    rckmpi_packet_bytes: int = 2048
    rckmpi_packet_cycles: int = 9000
    rckmpi_byte_core_cycles_x8: int = 6  # core cycles per 8 bytes moved

    # ------------------------------------------------------------------ #
    # Collective-layer constants
    # ------------------------------------------------------------------ #
    collective_call_cycles: int = 180    # entry/exit of a collective
    barrier_flag_cycles: int = 120
    # Per-round software cost of the MPB-direct Allreduce (replaces the
    # put/get call overheads of the buffer-based ring).
    mpb_round_overhead_cycles: int = 3400

    # Free-form tag -> value escape hatch for experiments.
    extras: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.topology, str):
            raise ValueError(
                f"topology must be a topology spec string such as "
                f"'mesh:6x4', got {self.topology!r}")
        self.resolved_topology()  # raises on a malformed spec
        if self.l1_line_bytes <= 0 or self.l1_line_bytes % 8:
            raise ValueError(
                f"l1_line_bytes must be a positive multiple of 8 "
                f"(whole doubles per line), got {self.l1_line_bytes}")
        if self.mpb_flag_bytes <= 0:
            raise ValueError(
                f"mpb_flag_bytes must be positive, got "
                f"{self.mpb_flag_bytes}")
        if self.mpb_flag_bytes % self.l1_line_bytes:
            raise ValueError(
                f"mpb_flag_bytes ({self.mpb_flag_bytes}) must be a "
                f"multiple of the cache-line/flag granularity "
                f"({self.l1_line_bytes} B)")
        if self.mpb_bytes_per_core <= self.mpb_flag_bytes:
            raise ValueError(
                f"MPB must be larger than its flag region: "
                f"mpb_bytes_per_core={self.mpb_bytes_per_core} B vs "
                f"mpb_flag_bytes={self.mpb_flag_bytes} B")
        if self.mpb_bytes_per_core % self.l1_line_bytes:
            raise ValueError(
                f"MPB size must be line-aligned: mpb_bytes_per_core="
                f"{self.mpb_bytes_per_core} is not a multiple of "
                f"l1_line_bytes={self.l1_line_bytes}")
        for name in ("core_freq_hz", "mesh_freq_hz", "dram_freq_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        for name in ("inter_chip_access_mesh_cycles",
                     "inter_chip_line_mesh_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)}")

    def check_rank_count(self, cores: int) -> None:
        """Reject SPMD launches that do not fit the mesh.

        Raises :class:`ValueError` for non-positive counts and for counts
        exceeding the chip's ``num_cores``.
        """
        if cores <= 0:
            raise ValueError(f"core count must be positive, got {cores}")
        if cores > self.num_cores:
            raise ValueError(
                f"requested {cores} cores; topology "
                f"{self.topology!r} has only {self.num_cores}")

    # -- derived quantities ---------------------------------------------
    def resolved_topology(self) -> Topology:
        """The active :class:`Topology` (cached by :func:`get_topology`)."""
        return get_topology(self.topology)

    @property
    def num_tiles(self) -> int:
        return self.resolved_topology().num_tiles

    @property
    def num_cores(self) -> int:
        return self.resolved_topology().num_cores

    @property
    def mpb_payload_bytes(self) -> int:
        """MPB bytes available for message payloads (flags excluded)."""
        return self.mpb_bytes_per_core - self.mpb_flag_bytes

    @property
    def doubles_per_line(self) -> int:
        return self.l1_line_bytes // 8

    def core_clock(self) -> Clock:
        return Clock(self.core_freq_hz)

    def mesh_clock(self) -> Clock:
        return Clock(self.mesh_freq_hz)

    def copy(self, **overrides: Any) -> "SCCConfig":
        """A new config with ``overrides`` applied."""
        return replace(self, **overrides)


#: ``SCCConfig``'s fields, read one by one: ``dataclasses.asdict`` deep-
#: copies the config, two thirds of a point fingerprint's cost.
_FIELDS = tuple(f.name for f in fields(SCCConfig))


def config_state(config: SCCConfig) -> dict[str, Any]:
    """Every field of ``config`` as a fresh dict, read shallowly (the
    ``extras`` dict copied one level): what a point fingerprint hashes
    and :func:`config_key` serialises."""
    state = {name: getattr(config, name) for name in _FIELDS}
    state["extras"] = dict(config.extras)
    return state


#: ``json.dumps(..., sort_keys=True, default=repr)`` without building an
#: encoder per call.
_encode = json.JSONEncoder(sort_keys=True, default=repr).encode


def config_key(config: SCCConfig) -> str:
    """A string equal for two configs exactly when every field is: the
    key of everything a process keeps per configuration (the shared
    latency and program tables, the analytic engine's contexts)."""
    return _encode(config_state(config))


def config_keys() -> Callable[[SCCConfig], str]:
    """:func:`config_key` with a memo of its own, for a caller keying
    many configs: each distinct config is serialised once, found again
    by its ``repr`` (a sixth of the cost), which differs wherever the
    JSON would (``533e6`` against ``533_000_000``, ``1`` against
    ``True``)."""
    keys: dict[str, str] = {}

    def key(config: SCCConfig) -> str:
        text = repr(config)
        found = keys.get(text)
        if found is None:
            found = keys[text] = config_key(config)
        return found

    return key


#: Named clock presets the SCC's sccKit supports (subset); used by the
#: clock-preset ablation benchmark.
CLOCK_PRESETS: dict[str, tuple[int, int, int]] = {
    "533_800_800": (533_000_000, 800_000_000, 800_000_000),
    "800_800_800": (800_000_000, 800_000_000, 800_000_000),
    "800_1600_800": (800_000_000, 1_600_000_000, 800_000_000),
    "533_800_1066": (533_000_000, 800_000_000, 1_066_000_000),
}


def config_for_preset(name: str, **overrides: Any) -> SCCConfig:
    """Build an :class:`SCCConfig` for a named clock preset."""
    try:
        core, mesh, dram = CLOCK_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown clock preset {name!r}; known: {sorted(CLOCK_PRESETS)}"
        ) from None
    return SCCConfig(
        core_freq_hz=core, mesh_freq_hz=mesh, dram_freq_hz=dram, **overrides
    )
