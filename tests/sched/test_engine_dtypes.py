"""Row charges at element sizes other than 8 bytes.

What a step row charges besides its messages is
:func:`repro.sched.cost.row_hold`; the schedule executor passes its
buffer's element size (the cost model and replay price doubles), so a
rotate or a charged copy of float32, int32 or complex128 data costs its
real bytes.  ``PINS`` was recorded before the executor charged through
``row_hold``, when it spelled the charges out with ``nbytes``: each pin
is the kernel's event count, rank 0's latency in ps and a digest of every
rank's ``(latency, exit)`` ps.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.runner import program_for
from repro.core.blocks import balanced_partition
from repro.core.ops import SUM
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sched.builders import build_schedule
from repro.sched.ir import (F_CHARGED, F_REDUCE, FLAGS, OP, OP_COPY,
                            OP_REDUCE_RECV, OP_ROTATE)

CORES = 5

#: (kind, algorithm, per-rank elements, the row it exercises).
CASES = (
    ("allgather", "bruck", 20, "rotate"),
    ("alltoall", "pairwise", 8, "charged copy"),
    ("allreduce", "rsag", 70, "exchange fold"),
    ("reduce", "binomial", 20, "tree fold"),
)

PINS = {
    'allgather:bruck/n20/float32/blocking': (205, 158593944, '9cf2819faac29e1c'),
    'alltoall:pairwise/n8/float32/blocking': (255, 99303816, '48389c5f11b636c9'),
    'allreduce:rsag/n70/float32/blocking': (470, 211705952, '5bca522d186fcffa'),
    'reduce:binomial/n20/float32/blocking': (94, 42650740, 'ffa80c5d09f2bd02'),
    'allgather:bruck/n20/float32/lightweight': (596, 35581272, 'f8d649b2b21aeb90'),
    'alltoall:pairwise/n8/float32/lightweight': (713, 40734580, 'ef3c50327b1f34c0'),
    'allreduce:rsag/n70/float32/lightweight': (1111, 98329552, 'b6906da147cd3ec4'),
    'reduce:binomial/n20/float32/lightweight': (367, 30933880, 'ce3ec80328a6ff32'),
    'allgather:bruck/n20/int32/blocking': (205, 158593944, '9cf2819faac29e1c'),
    'alltoall:pairwise/n8/int32/blocking': (255, 99303816, '48389c5f11b636c9'),
    'allreduce:rsag/n70/int32/blocking': (470, 211705952, '5bca522d186fcffa'),
    'reduce:binomial/n20/int32/blocking': (94, 42650740, 'ffa80c5d09f2bd02'),
    'allgather:bruck/n20/int32/lightweight': (596, 35581272, 'f8d649b2b21aeb90'),
    'alltoall:pairwise/n8/int32/lightweight': (713, 40734580, 'ef3c50327b1f34c0'),
    'allreduce:rsag/n70/int32/lightweight': (1111, 98329552, 'b6906da147cd3ec4'),
    'reduce:binomial/n20/int32/lightweight': (367, 30933880, 'ce3ec80328a6ff32'),
    'allgather:bruck/n20/complex128/blocking': (205, 184501040, 'aae70de60aab1bbc'),
    'alltoall:pairwise/n8/complex128/blocking': (255, 114015264, 'fee258980b2216d6'),
    'allreduce:rsag/n70/complex128/blocking': (470, 205934072, '41594f5f8e02daa5'),
    'reduce:binomial/n20/complex128/blocking': (94, 43409820, '20e9c998163e26be'),
    'allgather:bruck/n20/complex128/lightweight': (596, 44253240, '548fcc9c02fdeb5b'),
    'alltoall:pairwise/n8/complex128/lightweight': (713, 48426100, 'e8367f44659f4507'),
    'allreduce:rsag/n70/complex128/lightweight': (1111, 91825872, 'a92c8ae4803db3b1'),
    'reduce:binomial/n20/complex128/lightweight': (367, 31692960, 'f9ea6c91d287a55c'),
}


def has_row(kind, algo, n, row):
    rows = build_schedule(kind, algo, CORES, n,
                          part=balanced_partition(n, CORES)).table.rows
    op, flags = rows[:, OP], rows[:, FLAGS]
    return bool({
        "rotate": op == OP_ROTATE,
        "charged copy": (op == OP_COPY) & ((flags & F_CHARGED) != 0),
        "exchange fold": (flags & F_REDUCE) != 0,
        "tree fold": op == OP_REDUCE_RECV,
    }[row].any())


def pin(kind, algo, n, dtype, stack):
    machine = Machine(SCCConfig())
    comm = make_communicator(machine, stack)
    rng = np.random.default_rng(20120901)
    inputs = [(rng.normal(size=n) * 8).astype(dtype) for _ in range(CORES)]
    measured = program_for(kind, comm, inputs, SUM, algo)

    def program(env):
        latency = yield from measured(env)
        return latency, env.now

    run = machine.run_spmd(program, ranks=list(range(CORES)))
    digest = hashlib.sha256(repr(run.values).encode()).hexdigest()[:16]
    return (machine.sim.events_processed, int(run.values[0][0]), digest)


@pytest.mark.parametrize("stack", ["blocking", "lightweight"])
@pytest.mark.parametrize("dtype", ["float32", "int32", "complex128"])
@pytest.mark.parametrize("kind,algo,n,row", CASES)
def test_row_charges_at_the_buffer_element_size(kind, algo, n, row, dtype,
                                                 stack):
    assert has_row(kind, algo, n, row)
    key = f"{kind}:{algo}/n{n}/{dtype}/{stack}"
    assert pin(kind, algo, n, dtype, stack) == PINS[key], key
