"""Golden pins for the recorded trace itself.

The tracer is pure observation, so cheaper records (tuple
``TraceRecord``, interned actor/tag strings) must leave every record of a
run where it was: same time, actor, tag and detail, same order.  The
digests below were recorded on the frozen-dataclass ``TraceRecord`` with
per-edge f-strings, before any of that changed.
"""

import hashlib

import pytest

from repro.bench.runner import launch_collective
from repro.sim.trace import Tracer

#: (kind, stack) -> (record count, sha256 over every record) at p=48, n=552.
TRACE_DIGESTS = {
    ("allreduce", "mpb"): (
        46464,
        "ba5cbea27029e07699f1e81529639709d1d043f83d4215a0e451529668cf02e6"),
    ("bcast", "blocking"): (
        14012,
        "9171c929e37d7b157ec89d05ae9da5f79e6f86b3c0fdd2118aa68aba35d2a6f4"),
}


def trace_digest(kind: str, stack: str) -> tuple[int, str]:
    tracer = Tracer(enabled=True)
    launch_collective(kind, stack, 552, cores=48, tracer=tracer)
    digest = hashlib.sha256()
    for rec in tracer.records:
        digest.update(repr((rec.time_ps, rec.actor, rec.tag,
                            repr(rec.detail))).encode())
    return len(tracer.records), digest.hexdigest()


@pytest.mark.parametrize("kind,stack", sorted(TRACE_DIGESTS))
def test_full_trace_is_bit_identical(kind, stack):
    assert trace_digest(kind, stack) == TRACE_DIGESTS[(kind, stack)]
