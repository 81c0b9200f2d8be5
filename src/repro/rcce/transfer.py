"""Low-level RCCE put/get: cache-line-granular MPB transfers.

RCCE moves data by writing whole L1 cache lines (32 B) of the local core
into an MPB through the write-combining buffer.  A message whose size is
not a multiple of the line size cannot be transferred in one streaming
call: the full lines go in one invocation and the padded tail line requires
**a second call** to the low-level transfer function (paper Section V-A).
Each invocation costs ``rcce_putget_call_cycles`` of software overhead —
this is the mechanistic origin of the period-4-doubles latency spikes in
Fig. 9.

These functions charge the acting core and move real bytes.  Each is a
single ``PUT``/``GET`` micro-op of :mod:`repro.hw.protocol`, the same op
the Fig.-3 tables in :mod:`repro.rcce.api` are made of.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.hw.machine import CoreEnv
from repro.hw.mpb import MPBRegion
from repro.hw.protocol import COPY, GET, PUT, bind, putget_calls, run_ops

_PUT = ((PUT, 0, COPY),)
_GET = ((GET, 0, COPY),)


def put_bytes(env: CoreEnv, region: MPBRegion, raw: np.ndarray,
              at: int = 0) -> Generator:
    """``RCCE_put``: copy ``raw`` (uint8) from private memory into an MPB
    region, charging software call overhead plus the hardware copy cost.
    When MPB port contention is modeled, the copy burst holds the target
    MPB's port."""
    return run_ops(env.core, bind(env.core, _PUT, (region,), int(raw.size),
                                  at=at), raw)


def get_bytes(env: CoreEnv, region: MPBRegion, nbytes: int,
              at: int = 0) -> Generator:
    """``RCCE_get``: copy ``nbytes`` out of an MPB region into private
    memory.  Returns the bytes as a fresh uint8 array."""
    return run_ops(env.core, bind(env.core, _GET, (region,), nbytes, at=at))


__all__ = ["get_bytes", "put_bytes", "putget_calls"]
