"""Hardware model of the Intel Single-Chip Cloud Computer.

Subsystems:

* :mod:`repro.hw.config` — every timing/geometry parameter (`SCCConfig`),
  clock presets, the erratum toggle, the active topology spec.
* :mod:`repro.hw.topology` — tile meshes (the paper's 6x4 chip by
  default), tori, multi-chip clusters, XY routing, hop counts,
  memory-controller placement.
* :mod:`repro.hw.topo` — the topology registry: named ``family:body``
  specs (``mesh:6x4``, ``torus:8x8``, ``cluster:2x24``) resolving to
  shared :class:`~repro.hw.topology.Topology` instances.
* :mod:`repro.hw.timing` — the latency model (MPB/DRAM/cache access costs,
  bulk copy pipelines, reduction arithmetic, the inter-chip link tier).
* :mod:`repro.hw.mpb` — message-passing buffers with real byte storage.
* :mod:`repro.hw.flags` — MPB synchronization flags with timed access.
* :mod:`repro.hw.machine` — the assembled chip (`Machine`), cores with
  busy/wait accounting, and the SPMD launcher (`run_spmd`).
"""

from repro.hw.config import CLOCK_PRESETS, SCCConfig, config_for_preset
from repro.hw.flags import Flag
from repro.hw.machine import Core, CoreEnv, Machine, SPMDResult
from repro.hw.mpb import MPB, MPBError, MPBRegion, as_bytes
from repro.hw.timing import LatencyModel
from repro.hw.topo import (available_topologies, get_topology,
                           register_topology)
from repro.hw.topology import Topology

__all__ = [
    "CLOCK_PRESETS",
    "Core",
    "CoreEnv",
    "Flag",
    "LatencyModel",
    "MPB",
    "MPBError",
    "MPBRegion",
    "Machine",
    "SCCConfig",
    "SPMDResult",
    "Topology",
    "as_bytes",
    "available_topologies",
    "config_for_preset",
    "get_topology",
    "register_topology",
]
