"""RCKMPI: the MPICH-based full MPI implementation for the SCC (Section III).

Modeled at the channel level: an eager, packetized MPB channel with heavy
per-call and per-packet software overhead, byte-granular transfers (no
cache-line padding, hence the *smooth* curves of Fig. 9), and bounded
channel windows.  Its collectives reuse the same MPICH-family algorithms
as RCCE_comm (ring ReduceScatter/Allgather, binomial trees, pairwise
Alltoall) — the 2x–5x latency gap to the RCCE-based stacks comes from the
stack's software weight, not the algorithm shapes.  The ``rckmpi`` stack
label (:mod:`repro.core.registry`) is therefore a plain
:class:`~repro.core.comm.Communicator` over :class:`RCKMPIP2P` with the
balanced partition, MPICH's spreading of the remainder across ranks.
"""

from repro.rckmpi.channel import RCKMPIP2P

__all__ = ["RCKMPIP2P"]
