"""Barrier algorithms.

The blocking stack uses RCCE's master/worker flag barrier; the
non-blocking stacks use a dissemination barrier (log2(p) rounds of
zero-byte exchanges with stride-doubling partners), which the relaxed
synchronization of optimization A makes deadlock-free without any call
ordering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.hw.machine import CoreEnv

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.comm import Communicator

_EMPTY = np.empty(0, dtype=np.uint8)


def dissemination_rounds(rank: int, p: int) -> list[tuple[int, int]]:
    """Rank ``rank``'s ``(dst, src)`` per round: ceil(log2 p) rounds,
    round k synchronizing with the ranks at stride 2^k (none for p = 1).
    :func:`dissemination_barrier` and replay both run these."""
    return [((rank + (1 << k)) % p, (rank - (1 << k)) % p)
            for k in range((p - 1).bit_length())]


def dissemination_barrier(comm: "Communicator", env: CoreEnv) -> Generator:
    """A zero-byte exchange per :func:`dissemination_rounds` round."""
    layer = comm.p2p
    recv_buf = np.empty(0, dtype=np.uint8)
    for dst, src in dissemination_rounds(env.rank, env.size):
        sreq = yield from layer.isend(env, _EMPTY, dst)
        rreq = yield from layer.irecv(env, recv_buf, src)
        yield from layer.wait_all(env, [sreq, rreq])
