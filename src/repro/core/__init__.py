"""The paper's primary contribution: optimized collective operations.

Public surface:

* :func:`~repro.core.registry.launch` (machine + observers + communicator
  for a run) / :func:`~repro.core.registry.make_communicator` + the stack
  names of the paper's figures (``blocking``, ``ircce``, ``lightweight``,
  ``lightweight_balanced``, ``mpb``, ``rckmpi``),
* :class:`~repro.core.comm.Communicator` — the MPI-like collective API,
* :mod:`~repro.core.blocks` — standard vs balanced block partitioning
  (optimization C, Fig. 6),
* :mod:`~repro.core.ops` — reduction operators,
* what the schedule IR cannot express: the MPB-direct Allreduce
  (:mod:`~repro.core.mpb_allreduce`) and the dissemination barrier
  (:mod:`~repro.core.barrier`).

The collective algorithms themselves (ring ReduceScatter/Allgather,
pairwise Alltoall, binomial trees, scatter-allgather Broadcast, ...) are
schedule builders in :mod:`repro.sched.builders`; name one with
``algo=`` on any :class:`~repro.core.comm.Communicator` method
(:meth:`~repro.core.comm.Communicator.resolve` lists what is valid).
"""

from repro.core.blocks import (
    Partition,
    balanced_partition,
    fig6_table,
    partitioner_by_name,
    standard_partition,
)
from repro.core.comm import Communicator
from repro.core.mpb_allreduce import MPBAllreduceError, mpb_allreduce
from repro.core.ops import MAX, MIN, OPS, PROD, SUM, ReduceOp, op_by_name
from repro.core.registry import (NON_MPB_STACKS, STACKS, launch,
                                 make_communicator)

__all__ = [
    "Communicator",
    "MAX",
    "MIN",
    "MPBAllreduceError",
    "NON_MPB_STACKS",
    "OPS",
    "PROD",
    "Partition",
    "ReduceOp",
    "STACKS",
    "SUM",
    "balanced_partition",
    "fig6_table",
    "launch",
    "make_communicator",
    "mpb_allreduce",
    "op_by_name",
    "partitioner_by_name",
    "standard_partition",
]
