"""The timed loop and the numbers derived from it.

A workload is a list of ops.  The loop runs the list round-robin (a
*pass*), one op at a time, until ``seconds`` have gone by — closed loop,
one client.  Every op is timed on its own and the run-level rate is built
from each op's best sample:

    ops_per_s = sum(units_i) / sum(min(host seconds of op i))

An op is deterministic, so its samples differ only by what the host did
to them.  The build host slows down by 10-25 % for seconds at a time
(measured: a pure-Python loop alternates between 16 and 20 ms).  Rates
built from per-op medians followed those phases: ten runs of one commit
spread by 10-13 % and their median sank by up to 19 % in a noisy quarter
of an hour; built from per-op minima they spread by 2-5 %.

Output checks run with the clock stopped.  The first pass also yields the
exact numbers (simulated picoseconds, event counts, the digest).
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from simops import OpResult
from trace import Recorder


@dataclass
class Op:
    name: str
    #: How many ops of the workload's unit this call stands for (1 for a
    #: collective, the cycle count for a GCMC run, the point count for a
    #: sweep phase).
    units: int
    run: Callable[[int], OpResult]
    #: Same inputs on every pass: simulated time must repeat exactly.
    stable: bool = True
    #: Counted in ``ops_per_s``.  An unrated op is still run, checked and
    #: reported per layer.
    rated: bool = True
    tags: dict[str, Any] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: Untimed start-up work that belongs to ``setup_s`` (warm-up ops).
    warmup: Callable[[], None]
    #: Called before each pass with the pass index.
    begin_pass: Callable[[int], None] = lambda k: None
    #: After the loop: cross-op checks and workload-specific end-to-end
    #: metrics.  Returns (metrics, attempted, failure texts).
    finish: Callable[["Measurement"], tuple[dict, int, list[str]]] = (
        lambda m: ({}, 0, []))
    #: Traced run only: per-layer metrics of this workload and its probes.
    layers: Callable[["Measurement", Recorder], dict] = lambda m, rec: {}
    #: Releases whatever the ops left behind (temp dirs).
    cleanup: Callable[[], None] = lambda: None


@dataclass
class Sample:
    host_s: float
    events: int
    spmd_s: float
    info: dict


@dataclass
class Measurement:
    ops: list[Op]
    samples: list[list[Sample]]
    first: list[Optional[OpResult]]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_units: int = 0
    passes: int = 0
    wall_s: float = 0.0

    def best_s(self, i: int) -> float:
        return min(s.host_s for s in self.samples[i])

    def select(self, **tags) -> list[int]:
        return [i for i, op in enumerate(self.ops)
                if all(op.tags.get(k) == v for k, v in tags.items())]

    def best_sum(self, indices) -> float:
        return sum(self.best_s(i) for i in indices if self.samples[i])


def measure(workload: Workload, seconds: float, rec: Recorder, *,
            single_pass: bool = False) -> Measurement:
    """Run ``workload`` for ``seconds`` (at least one whole pass)."""
    ops = workload.ops
    m = Measurement(ops, [[] for _ in ops], [None] * len(ops))
    started = time.perf_counter()
    deadline = started + seconds
    pass_index = 0
    done = False
    while not done:
        workload.begin_pass(pass_index)
        for i, op in enumerate(ops):
            if pass_index > 0 and time.perf_counter() >= deadline:
                done = True
                break
            _run_one(m, i, op, pass_index, rec)
        else:
            pass_index += 1
            done = single_pass or time.perf_counter() >= deadline
    m.passes = pass_index
    m.wall_s = time.perf_counter() - started
    rec.op_id = None
    return m


def _run_one(m: Measurement, i: int, op: Op, pass_index: int,
             rec: Recorder) -> None:
    rec.op_id = f"{op.name}#{pass_index}"
    m.attempted += op.units
    # The kernel pauses the collector while it runs, so garbage piles up
    # and is reaped inside whichever op comes next; reap it here, with the
    # clock stopped (it also keeps peak RSS independent of the pass count).
    gc.collect()
    t0 = time.perf_counter()
    try:
        with rec.span("perf.op"):
            result = op.run(pass_index)
    except Exception as exc:  # an op that raises is a failed op
        m.failed_units += op.units
        m.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        return
    host_s = time.perf_counter() - t0
    problem = result.verify() if result.verify is not None else None
    first = m.first[i]
    if problem is None and op.stable and first is not None and (
            first.sim_ps != result.sim_ps or first.events != result.events):
        problem = (f"{op.name}: pass {pass_index} is not bit-identical "
                   f"to pass 0 in simulated ps / event count")
    if problem is not None:
        m.failed_units += op.units
        m.failures.append(problem)
    if first is None:
        result.verify = None  # drop the payload references
        m.first[i] = result
    m.samples[i].append(Sample(host_s, result.events, result.spmd_s,
                               result.info))


# -- derived numbers ----------------------------------------------------
def ops_per_s(m: Measurement) -> tuple[float, float]:
    """(rate, spread): the rate from each op's best sample, and how far
    the median samples sit above the best ones, as a share — the host
    noise this run saw."""
    units = best = typical = 0.0
    for op, samples in zip(m.ops, m.samples):
        if samples and op.rated:
            times = [s.host_s for s in samples]
            units += op.units
            best += min(times)
            typical += statistics.median(times)
    if best <= 0:
        return 0.0, 0.0
    return units / best, (typical - best) / best


def sim_events_per_s(m: Measurement) -> float:
    events = spmd = 0.0
    for samples in m.samples:
        if samples and samples[0].spmd_s > 0:
            events += samples[0].events
            spmd += min(s.spmd_s for s in samples)
    return events / spmd if spmd > 0 else 0.0


def sim_totals(m: Measurement) -> tuple[float, str]:
    """(sim_us_total, sim_digest) of the first pass."""
    digest = hashlib.sha256()
    total_ps = 0
    for op, first in zip(m.ops, m.first):
        digest.update(op.name.encode())
        if first is None:
            digest.update(b"!failed")
            continue
        total_ps += sum(first.sim_ps)
        digest.update(",".join(map(str, first.sim_ps)).encode())
        digest.update(first.digest_extra.encode())
    return total_ps / 1e6, digest.hexdigest()


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
