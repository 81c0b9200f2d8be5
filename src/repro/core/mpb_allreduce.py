"""MPB-direct Allreduce — the paper's optimization D (Figs. 7 and 8).

The buffer-based ring copies every in-transit block out of the left
neighbour's MPB into private memory, reduces there, and copies the result
back into the local MPB for the right neighbour.  The MPB-direct variant
feeds the reduction operator straight from the left neighbour's MPB and
writes the result straight into the local MPB, eliminating the private
memory round trip.  Double buffering (the MPB payload split in halves)
lets a core fill one buffer while its right neighbour still reads the
other; the same sent/ready handshake as the non-blocking layer keeps the
halves consistent.

On real silicon the gain was only ~10% because the SCC's arbiter erratum
forces *local* MPB accesses through the mesh (15 → 45 core cycles + 8 mesh
cycles), and the result-write side of this algorithm is all local-MPB
traffic; the simulator reproduces both the buggy and the fixed chip via
``SCCConfig.erratum_enabled`` (see ``benchmarks/test_ablation_erratum``).

Pipeline layout (write counter ``k``; write ``k`` goes to MPB half
``k % 2``):

* ``k = 0``: seed — rank ``me`` puts its own input block ``me-1`` into its
  MPB.
* ``k = 1 .. p-1`` (reduce-scatter round ``r = k-1``): read block
  ``me-2-r`` from the left MPB, reduce with the local input block, write
  into the local MPB.  The final round's output is block ``me``.
* ``k = p .. 2p-3`` (allgather round ``g = k-p``): read block ``me-1-g``
  from the left MPB into the private result *and* forward it through the
  local MPB (in-transit data, Fig. 7's motivation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.core.ops import ReduceOp
from repro.hw.machine import CoreEnv
from repro.hw.mpb import MPBRegion, as_bytes
from repro.hw.protocol import (BUF, CLEAR, COMPUTE, COPY, GET, OVERHEAD, PUT,
                               READY, SENT, SET, WAIT, bind, run_ops)
from repro.obs.spans import span
from repro.sched.engine import run_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.comm import Communicator


#: The double-buffer handshake over one half's handles ``(half, sent,
#: ready)``.  Every PUT/GET here is a fused burst run with an explicit
#: cost: the reduction streams straight out of / into the MPBs, so the
#: caller prices read + combine + write as one charge.
PRODUCE = (
    (WAIT, READY, 1),       # "sync": my half is free ...
    (CLEAR, READY, 0),      #         ... claim it
    (PUT, BUF, COPY),       # "copy": stream the block into it
    (SET, SENT, 0),         # publish it to my right neighbour
)
_CLAIM, _WRITE, _PUBLISH = PRODUCE[:2], PRODUCE[2:3], PRODUCE[3:]
CONSUME_BEGIN = ((WAIT, SENT, 1),)      # left's half is full
REDUCE_FROM = ((GET, BUF, COMPUTE),)    # read + combine + write, one pass
COPY_FROM = ((GET, BUF, COPY),)
CONSUME_END = ((CLEAR, SENT, 0), (SET, READY, 0))   # hand it back
#: Producer-side read-back of the write-verify (rewrites run ``_WRITE``).
VERIFY_READ = ((GET, BUF, OVERHEAD),)


class MPBAllreduceError(Exception):
    """The vector's blocks do not fit the MPB double buffers."""


def _handles(env: CoreEnv, producer: int) -> list[tuple]:
    """``(half, sent, ready)`` for both double-buffer halves of the
    producer→consumer edge: the handles the tables above run over, in
    the MPBs of ``(producer, consumer, producer)`` (see :func:`_owners`).

    ``sent`` lives at the consumer (the producer's right neighbour);
    ``ready`` lives at the producer.  ``ready`` starts True ("buffer
    free") and the handshake is self-restoring: every produced write is
    matched by a consume that re-raises ``ready``, so at the end of a
    call both halves are free again and a later call can rely on the
    flag state it inherits.
    """
    flag = env.machine.flag
    mpb = env.mpb_of_rank(producer)
    halves = MPBRegion(mpb, mpb.payload_offset, mpb.payload_bytes).halves()
    at_consumer = env.core_of_rank((producer + 1) % env.size)
    return [(half, flag(at_consumer, f"mpbar.sent.{h}"),
             flag(env.core_of_rank(producer), f"mpbar.ready.{h}"))
            for h, half in enumerate(halves)]


def _owners(env: CoreEnv, producer: int) -> tuple[int, int, int]:
    """The MPB owners of :func:`_handles`' operands (either half's)."""
    core = env.core_of_rank(producer)
    return core, env.core_of_rank((producer + 1) % env.size), core


def mpb_allreduce(comm: "Communicator", env: CoreEnv, sendbuf: np.ndarray,
                  op: ReduceOp) -> Generator:
    """Allreduce working directly on the MPBs.  Returns the result vector.

    Under fault injection every rank counts its MPB-allreduce calls
    (epochs).  A "faulty" epoch (a rank-consistent classification by the
    injector) gets aggressive payload corruption on the double buffers,
    which the producer-side write-verify loop below detects and repairs
    (or converts into a typed
    :class:`~repro.faults.errors.MPBFaultError`); once the injector
    declares the MPB path degraded, the call falls back to the
    private-memory ring (the ``rsag`` schedule).
    """
    p, me = env.size, env.rank
    if p == 1:
        return sendbuf.copy()
    faults = env.machine.faults
    fault_epoch = None
    if faults is not None:
        # Every rank sees the same epoch number and the same threshold
        # crossing, so either all ranks enter the MPB algorithm or all
        # fall back (a split decision would deadlock the handshake).
        fault_epoch = env.data.get("mpbar.epoch", 0)
        # repro-lint: allow=mpb-direct-write (CoreEnv.data is the rank's dict)
        env.data["mpbar.epoch"] = fault_epoch + 1
        if faults.mpb_degraded(fault_epoch):
            faults.record("mpb_fallback", f"core{env.core_id}",
                          {"epoch": fault_epoch, "algo": "rsag"})
            with span(env, "fallback", fault_epoch):
                return (yield from run_schedule(comm, env, comm.schedule(
                    "allreduce", p, sendbuf.size, sendbuf.nbytes, "rsag"),
                    sendbuf, op=op))
    part = comm.partition(sendbuf.size, p)
    # As producer I handshake with my right neighbour over my halves; as
    # consumer with my left neighbour over theirs.
    left = (me - 1) % p
    prod, cons = _handles(env, me), _handles(env, left)
    prod_owners, cons_owners = _owners(env, me), _owners(env, left)
    half_bytes = prod[0][BUF].size
    max_block_bytes = part.max_size() * sendbuf.itemsize
    if max_block_bytes > half_bytes:
        raise MPBAllreduceError(
            f"block of {max_block_bytes} B exceeds the {half_bytes} B "
            "MPB double-buffer half; use the buffer-based ring instead")

    lat = env.latency
    cfg = env.config
    me_core = env.core_id
    left_core = env.core_of_rank(left)
    core = env.core
    result = np.empty_like(sendbuf)
    dtype = sendbuf.dtype
    itemsize = sendbuf.itemsize

    # Initialize ``ready`` ("my half is free") exactly once per (core,
    # half), the first time this core ever produces on that half.  The
    # handshake is self-restoring afterwards, and forcing on *every*
    # entry is a cross-call race: a producer that re-enters while its
    # (lagging) consumer has not yet drained the final write of the
    # previous call would wipe the consumer's hand-back and overwrite
    # the still-published half.  Found by the MPB sanitizer
    # (write-while-reader-pending); see docs/static-analysis.md.
    init_done = env.machine.services.setdefault("mpbar.ready_init", set())
    for half, handles in enumerate(prod):
        if (me_core, half) not in init_done:
            init_done.add((me_core, half))
            handles[READY].force(True, actor=me_core)

    round_overhead = lat.core_cycles(cfg.mpb_round_overhead_cycles)

    epoch_faulty = (faults is not None
                    and faults.mpb_epoch_faulty(fault_epoch))
    # Write-verify is armed only when the plan can actually corrupt
    # payloads; a plan without corruption keeps the exact baseline timing.
    verify_writes = faults is not None and (
        faults.plan.payload_corrupt_prob > 0
        or faults.plan.mpb_fault_epoch_prob > 0)

    def verify_half(half: int, raw: np.ndarray) -> Generator:
        """Producer-side write-verify: read the just-written half back,
        compare against the intended bytes, rewrite until it sticks
        (bounded by the retry budget).  Detects injected payload
        corruption before the consumer ever sees it."""
        handles = prod[half]
        region = handles[BUF]
        faults.maybe_corrupt(region, raw.size, actor=f"core{me_core}",
                             boost=epoch_faulty)
        verify_cost = lat.mpb_stream_read(me_core, me_core, raw.size)
        rewrite_cost = lat.mpb_stream_write(me_core, me_core, raw.size)
        attempts = 0
        while True:
            written = yield from run_ops(core, bind(
                core, VERIFY_READ, prod_owners, raw.size, cost=verify_cost),
                handles)
            if np.array_equal(written, raw):
                return
            attempts += 1
            faults.record("mpb_repair", f"core{me_core}",
                          {"half": half, "attempt": attempts,
                           "epoch": fault_epoch})
            if attempts > faults.plan.max_retries:
                faults.raise_fault(
                    "mpb", f"MPB half stayed corrupt after {attempts} "
                    f"rewrites", actor=f"core{me_core}", half=half,
                    epoch=fault_epoch)
            with span(env, "retry", attempts):
                yield from run_ops(core, bind(core, _WRITE, prod_owners,
                                              raw.size, cost=rewrite_cost),
                                   handles, raw)
            faults.maybe_corrupt(region, raw.size, actor=f"core{me_core}",
                                 boost=epoch_faulty)

    # The flag handshakes are the same program for both halves.
    claim = bind(core, _CLAIM, prod_owners)
    publish = bind(core, _PUBLISH, prod_owners)
    begin = bind(core, CONSUME_BEGIN, cons_owners)
    end = bind(core, CONSUME_END, cons_owners)

    def produce(k: int, data: np.ndarray, write_cost: int) -> Generator:
        """Write ``data`` into my half ``k % 2`` once it is free."""
        half = k % 2
        raw = as_bytes(data)
        handles = prod[half]
        with span(env, "sync", k):
            yield from run_ops(core, claim, handles)
        with span(env, "copy", data.nbytes):
            yield from run_ops(core, bind(core, _WRITE, prod_owners, raw.size,
                                          cost=write_cost), handles, raw)
        if verify_writes:
            yield from verify_half(half, raw)
        yield from run_ops(core, publish, handles)

    def consume(k: int, table: tuple, phase: str, detail: int,
                nels: int, cost: int) -> Generator:
        """Wait until left's half ``k % 2`` is full, stream ``nels``
        elements out of it in one ``cost`` burst (span ``phase``) and
        hand the half back; returns the elements."""
        handles = cons[k % 2]
        with span(env, "sync", k):
            yield from run_ops(core, begin, handles)
        with span(env, phase, detail):
            raw = yield from run_ops(core, bind(core, table, cons_owners,
                                                nels * itemsize, cost=cost),
                                     handles)
        yield from run_ops(core, end, handles)
        return raw.view(dtype)

    # k = 0: seed my MPB with my own input block (me - 1).
    seed_block = (me - 1) % p
    seed = sendbuf[part.slice_of(seed_block)]
    yield from produce(0, seed,
                       lat.mpb_write_bytes(me_core, me_core, seed.nbytes))

    # Reduce-scatter rounds r = 0 .. p-2 (writes k = r + 1).
    for r in range(p - 1):
        with span(env, "round", r):
            block = (me - 2 - r) % p
            nels = part.size(block)
            nbytes = nels * itemsize
            # One fused pass: stream left's partial from its MPB, combine
            # with the local input block, stream the result into my MPB.
            cost = (round_overhead
                    + lat.mpb_stream_read(me_core, left_core, nbytes)
                    + lat.reduce_doubles(nels)
                    + lat.core_cycles(lat.lines(nbytes)
                                      * cfg.cache_line_core_cycles))
            operand = yield from consume(r, REDUCE_FROM, "reduce", nels,
                                         nels, cost)
            combined = op(sendbuf[part.slice_of(block)], operand)
            if r == p - 2:
                # Final round: 'combined' is my reduced block (index me).
                result[part.slice_of(me)] = combined
            yield from produce(
                r + 1, combined,
                lat.mpb_stream_write(me_core, me_core, nbytes))

    # Allgather rounds g = 0 .. p-2 (reads of writes k = p-1+g).
    for g in range(p - 1):
        with span(env, "round", p - 1 + g):
            block = (me - 1 - g) % p
            nels = part.size(block)
            nbytes = nels * itemsize
            incoming = yield from consume(
                p - 1 + g, COPY_FROM, "copy", nbytes, nels,
                round_overhead
                + lat.mpb_read_bytes(me_core, left_core, nbytes))
            result[part.slice_of(block)] = incoming
            if g < p - 2:
                # Forward in-transit through my MPB for my right neighbour.
                yield from produce(
                    p + g, incoming,
                    lat.mpb_stream_write(me_core, me_core, nbytes))

    return result
