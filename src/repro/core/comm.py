"""The communicator: one object bundling a point-to-point layer, a block
partitioner and the algorithm decision into an MPI-like collective API.

All collective methods are SPMD generators: every rank of the launch calls
the same method with its own arguments and ``yield from``s it.

    comm = make_communicator(machine, "lightweight_balanced")

    def program(env):
        result = yield from comm.allreduce(env, my_vector)
        return result

Every collective is ``span`` + entry overhead + one schedule run: the
algorithms themselves are data (:mod:`repro.sched.builders`) executed by
:func:`repro.sched.engine.run_schedule`, and :meth:`Communicator.resolve`
is the only place that decides which one a call runs.  What the schedule
IR cannot express stays here as code: the MPB-direct Allreduce
(:mod:`repro.core.mpb_allreduce`) and the barriers.

(See :mod:`repro.core.registry` for the stack names of the paper's
figures.)
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Union

import numpy as np

from repro.core.barrier import dissemination_barrier
from repro.core.blocks import Partition, Partitioner, standard_partition
from repro.core.mpb_allreduce import mpb_allreduce
from repro.core.ops import ReduceOp, SUM
from repro.hw.machine import CoreEnv, Machine
from repro.ircce.requests import NonBlockingLayer
from repro.obs.spans import span
from repro.rcce.api import RCCE
from repro.sched.engine import run_schedule

#: RCCE_comm's rule: operands of at least this many bytes run their
#: kind's long-message algorithm (ring / scatter based), smaller ones
#: the binomial trees.
LONG_THRESHOLD_BYTES = 512


class Communicator:
    """MPI-like collectives over a chosen point-to-point stack."""

    def __init__(self, machine: Machine,
                 p2p: Union[RCCE, NonBlockingLayer],
                 partitioner: Partitioner = standard_partition,
                 *,
                 name: str = "",
                 use_mpb_allreduce: bool = False):
        self.machine = machine
        self.p2p = p2p
        self.partitioner = partitioner
        self.name = name or p2p.name
        self.use_mpb_allreduce = use_mpb_allreduce
        #: True over RCCE's rendezvous send/recv (read once per step).
        self.blocking = isinstance(p2p, RCCE)

    # -- plumbing ------------------------------------------------------------

    def partition(self, n: int, p: int) -> Partition:
        """Split ``n`` elements over ``p`` ranks with this stack's scheme."""
        return self.partitioner(n, p)

    def _enter(self, env: CoreEnv) -> Generator:
        """Per-call entry overhead of the collective layer."""
        yield from env.consume(
            env.latency.core_cycles(self.machine.config.collective_call_cycles),
            "overhead")

    def resolve(self, kind: str, p: int, n: int, nbytes: int,
                algo: Optional[str] = None) -> str:
        """The algorithm one call of ``kind`` runs — the single decision
        point, shared by the collectives below, the analytic engine and
        anything else that must know what a call will execute.

        ``n`` is the operand length in elements (per destination row for
        alltoall) and ``nbytes`` its size.  ``algo=None`` applies the
        stack's default: the short/long pair of
        :data:`~repro.sched.builders.DEFAULT_ALGOS` split at
        :data:`LONG_THRESHOLD_BYTES`, with the ``mpb`` stack's long
        Allreduce going to the MPB-direct algorithm.  An explicit name
        is a schedule builder, a ``synth/...`` or ``hier/g<G>`` name, or
        ``mpb`` (Allreduce only); a ``sched:`` prefix is accepted and
        means nothing.  Returns ``"mpb"`` or a name
        :func:`~repro.sched.builders.build_schedule` accepts; raises
        :class:`KeyError` listing the known names otherwise.
        """
        # Imported here: repro.sched.builders imports this package.
        from repro.sched.builders import (DEFAULT_ALGOS, builder_names,
                                          known_algorithm)

        if algo is None:
            short, long = DEFAULT_ALGOS[kind]
            if nbytes < LONG_THRESHOLD_BYTES:
                return short
            if kind == "allreduce" and self.use_mpb_allreduce:
                return "mpb"
            return long
        name = algo[len("sched:"):] if algo.startswith("sched:") else algo
        mpb_ok = kind == "allreduce"
        if known_algorithm(kind, name) or (mpb_ok and name == "mpb"):
            return name
        raise KeyError(
            f"unknown {kind} algorithm {algo!r}; known: "
            f"{', '.join(builder_names(kind))}"
            f"{', mpb (MPB-direct)' if mpb_ok else ''}, synthesized "
            f"'synth/pipeline_c<c>' and 'synth/<base>+c<c>', "
            f"hierarchical 'hier/g<G>' (bcast, reduce, allreduce); "
            f"a 'sched:' prefix is optional")

    def _collective(self, env: CoreEnv, kind: str, buf: np.ndarray,
                    algo: Optional[str], op: ReduceOp = SUM,
                    root: int = 0) -> Generator:
        """One call of a kind with an algorithm choice: span, entry
        overhead, then the resolved algorithm."""
        with span(env, kind, buf.size):
            yield from self._enter(env)
            rows = env.size if kind == "alltoall" else 1
            name = self.resolve(kind, env.size, buf.size // rows,
                                buf.nbytes // rows, algo)
            if name == "mpb":
                return (yield from mpb_allreduce(self, env, buf, op))
            return (yield from run_schedule(self, env, kind, name, buf,
                                            op=op, root=root))

    # -- point-to-point (blocking semantics over either layer) -------------
    def send(self, env: CoreEnv, data: np.ndarray, dst: int) -> Generator:
        if self.blocking:
            yield from self.p2p.send(env, data, dst)
        else:
            req = yield from self.p2p.isend(env, data, dst)
            yield from self.p2p.wait(env, req)

    def recv(self, env: CoreEnv, out: np.ndarray, src: int) -> Generator:
        if self.blocking:
            yield from self.p2p.recv(env, out, src)
        else:
            req = yield from self.p2p.irecv(env, out, src)
            yield from self.p2p.wait(env, req)
        return out

    # -- collectives -----------------------------------------------------------
    def barrier(self, env: CoreEnv) -> Generator:
        with span(env, "barrier"):
            yield from self._enter(env)
            if self.blocking:
                yield from self.p2p.barrier(env)
            else:
                yield from dissemination_barrier(self, env)

    def bcast(self, env: CoreEnv, buf: np.ndarray, root: int = 0,
              algo: Optional[str] = None) -> Generator:
        """Broadcast ``buf`` from ``root``; every rank's ``buf`` is filled
        in place and returned.

        ``algo`` overrides the size-based selection (see
        :meth:`resolve`): ``binomial``, ``scatter_allgather``, or a
        ``synth/...`` / ``hier/g<G>`` name.
        """
        return self._collective(env, "bcast", buf, algo, root=root)

    def reduce(self, env: CoreEnv, sendbuf: np.ndarray, op: ReduceOp = SUM,
               root: int = 0, algo: Optional[str] = None) -> Generator:
        """Reduce to ``root``; returns the result there, None elsewhere.

        ``algo``: ``binomial``, ``rsg`` (ring ReduceScatter + binomial
        gather), or a ``synth/...`` / ``hier/g<G>`` name.
        """
        return self._collective(env, "reduce", sendbuf, algo, op, root)

    def allreduce(self, env: CoreEnv, sendbuf: np.ndarray,
                  op: ReduceOp = SUM, algo: Optional[str] = None) -> Generator:
        """Allreduce; returns the reduced vector on every rank.

        ``algo``: ``rsag`` (ring ReduceScatter+Allgather),
        ``reduce_bcast`` (binomial trees), ``recursive_doubling``,
        ``recursive_halving`` (Rabenseifner), ``mpb`` (the MPB-direct
        algorithm), or a ``synth/...`` / ``hier/g<G>`` name.
        """
        return self._collective(env, "allreduce", sendbuf, algo, op)

    def scan(self, env: CoreEnv, sendbuf: np.ndarray,
             op: ReduceOp = SUM, algo: Optional[str] = None) -> Generator:
        """Inclusive prefix reduction: rank r returns fold(ranks 0..r).

        ``algo``: ``recursive_doubling`` (default) or a ``synth/...``
        name.
        """
        return self._collective(env, "scan", sendbuf, algo, op)

    def exscan(self, env: CoreEnv, sendbuf: np.ndarray,
               op: ReduceOp = SUM) -> Generator:
        """Exclusive prefix reduction (None at rank 0)."""
        with span(env, "exscan", sendbuf.size):
            yield from self._enter(env)
            return (yield from run_schedule(
                self, env, "exscan", "recursive_doubling", sendbuf, op=op))

    def reduce_scatter(self, env: CoreEnv, sendbuf: np.ndarray,
                       op: ReduceOp = SUM,
                       algo: Optional[str] = None) -> Generator:
        """ReduceScatter; returns ``(my_block, partition)`` where
        ``my_block`` is the reduced block ``env.rank``.

        ``algo``: ``ring`` (default) or a ``synth/...`` name.
        """
        return self._collective(env, "reduce_scatter", sendbuf, algo, op)

    def allgather(self, env: CoreEnv, sendbuf: np.ndarray,
                  algo: Optional[str] = None) -> Generator:
        """Allgather; returns the ``(p, n)`` matrix of contributions.

        ``algo``: ``ring`` (default), ``bruck`` or a ``synth/...`` name.
        """
        return self._collective(env, "allgather", sendbuf, algo)

    def alltoall(self, env: CoreEnv, sendbuf: np.ndarray,
                 algo: Optional[str] = None) -> Generator:
        """Alltoall of the ``(p, n)`` matrix ``sendbuf`` (row j goes to
        rank j); returns the ``(p, n)`` matrix of received rows.

        ``algo``: ``pairwise`` (default) or a ``synth/...`` name.
        """
        return self._collective(env, "alltoall", sendbuf, algo)

    def scatter(self, env: CoreEnv, sendbuf: Optional[np.ndarray],
                root: int = 0) -> Generator:
        """Binomial scatter of partition blocks from ``root``; returns this
        rank's block.  Every rank passes an equally-shaped full-size buffer
        (MPI in-place style); only the root's contents matter."""
        with span(env, "scatter", None if sendbuf is None else sendbuf.size):
            yield from self._enter(env)
            if sendbuf is None:
                raise ValueError(
                    "scatter requires a full-size buffer per rank")
            return (yield from run_schedule(
                self, env, "scatter", "binomial", sendbuf, root=root))

    def gather(self, env: CoreEnv, block: np.ndarray, total_size: int,
               root: int = 0) -> Generator:
        """Binomial gather of per-rank partition blocks to ``root``.

        ``block`` must be rank ``me``'s block of a ``total_size``-element
        partition (vrank-relative to ``root``).  Returns the assembled
        vector at root, None elsewhere.
        """
        with span(env, "gather", total_size):
            yield from self._enter(env)
            part = self.partition(total_size, env.size)
            return (yield from self._gather(env, block, part, root))

    def _gather(self, env: CoreEnv, block: np.ndarray, part: Partition,
                root: int) -> Generator:
        vrank = (env.rank - root) % env.size
        if block.size != part.size(vrank):
            raise ValueError(
                f"rank {env.rank} passed a block of {block.size} "
                f"elements; its share of the {part.n}-element vector is "
                f"{part.size(vrank)}")
        vector = np.empty(part.n, dtype=block.dtype)
        vector[part.slice_of(vrank)] = block
        return (yield from run_schedule(
            self, env, "gather", "binomial", vector, root=root, part=part))

    def scatterv(self, env: CoreEnv, sendbuf: Optional[np.ndarray],
                 counts: Sequence[int], root: int = 0) -> Generator:
        """Variable-count scatter (``MPI_Scatterv``): rank ``r`` receives
        ``counts[(r - root) % p]`` elements.  Every rank passes a
        full-size buffer (only the root's contents matter) and the same
        ``counts``."""
        with span(env, "scatterv", int(sum(counts))):
            yield from self._enter(env)
            part = _counts_partition("scatterv", counts, env.size)
            if sendbuf is None or sendbuf.size != part.n:
                raise ValueError(
                    f"scatterv needs a {part.n}-element buffer on every "
                    f"rank")
            return (yield from run_schedule(
                self, env, "scatter", "binomial", sendbuf, root=root,
                part=part))

    def gatherv(self, env: CoreEnv, block: np.ndarray,
                counts: Sequence[int], root: int = 0) -> Generator:
        """Variable-count gather (``MPI_Gatherv``): rank ``r`` contributes
        ``counts[(r - root) % p]`` elements; the root returns the
        concatenation (in vrank order), others None."""
        with span(env, "gatherv", int(sum(counts))):
            yield from self._enter(env)
            part = _counts_partition("gatherv", counts, env.size)
            return (yield from self._gather(env, block, part, root))

    def split(self, env: CoreEnv, color: Optional[int],
              key: Optional[int] = None) -> Generator:
        """MPI_Comm_split: partition the ranks into groups by ``color``.

        Returns a fresh :class:`~repro.hw.machine.CoreEnv` scoped to this
        rank's group (ranks ordered by ``key``, ties by old rank), or
        ``None`` for ranks passing ``color=None`` (MPI_UNDEFINED).  The
        group environment works with every collective of this
        communicator:

            sub = yield from comm.split(env, env.rank % 2)
            result = yield from comm.allreduce(sub, data)

        Like MPI, the split itself is collective (an allgather of the
        color/key table).
        """
        with span(env, "split", color):
            yield from self._enter(env)
            payload = np.array([
                float(color) if color is not None else np.nan,
                float(key if key is not None else env.rank),
            ])
            table = yield from self.allgather(env, payload)
            if color is None:
                return None
            members = [r for r in range(env.size) if table[r, 0] == color]
            members.sort(key=lambda r: (table[r, 1], r))
            cores = [env.core_of_rank(r) for r in members]
            return CoreEnv(self.machine, members.index(env.rank),
                           len(members), cores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Communicator {self.name!r} p2p={self.p2p.name} "
                f"partitioner={self.partitioner.__name__}>")


def _counts_partition(what: str, counts: Sequence[int], p: int) -> Partition:
    if len(counts) != p:
        raise ValueError(
            f"{what} got {len(counts)} counts for {p} ranks")
    return Partition(int(sum(counts)), tuple(int(c) for c in counts))
