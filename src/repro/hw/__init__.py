"""Hardware model of the Intel Single-Chip Cloud Computer.

Subsystems:

* :mod:`repro.hw.config` — every timing/geometry parameter (`SCCConfig`),
  clock presets, the erratum toggle, the active topology spec.
* :mod:`repro.hw.topo` — the fixed topology families: ``family:body``
  specs (``mesh:6x4``, the paper's chip and the default; ``torus:8x8``;
  ``cluster:2x24``) resolving to shared :class:`~repro.hw.topo.Topology`
  instances with XY routing, hop counts, chip crossings and
  memory-controller placement.
* :mod:`repro.hw.timing` — the latency model (MPB/DRAM/cache access costs,
  bulk copy pipelines, reduction arithmetic, the inter-chip link tier),
  memoized in tables shared by every machine on one configuration.
* :mod:`repro.hw.mpb` — message-passing buffers with real byte storage,
  allocated on first touch.
* :mod:`repro.hw.flags` — MPB synchronization flags with timed access.
* :mod:`repro.hw.machine` — the assembled chip (`Machine`), cores with
  busy/wait accounting, and the SPMD launcher (`run_spmd`).
"""

from repro.hw.config import CLOCK_PRESETS, SCCConfig, config_for_preset
from repro.hw.flags import Flag
from repro.hw.machine import Core, CoreEnv, Machine, SPMDResult
from repro.hw.mpb import MPB, MPBError, MPBRegion, as_bytes
from repro.hw.timing import LatencyModel
from repro.hw.topo import Topology, get_topology

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
    "config_for_preset",
    "get_topology",
]
