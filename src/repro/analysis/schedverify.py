"""Static schedule verifier: proves schedule-IR programs before they run.

The schedule engine (:mod:`repro.sched.engine`) will faithfully execute
whatever step rows it is handed — including wrong ones.  This module
checks a :class:`~repro.sched.ir.Schedule` *statically*, without a
machine or a simulation:

* **structure** — every interval lies inside its declared buffer, no
  step writes the read-only ``"in"`` operand, peers are real ranks and
  never the sender itself;
* **matching** — per ordered ``(src, dst)`` pair, sends and receives
  pair off FIFO with equal element counts;
* **deadlock freedom** — under the blocking RCCE lowering (rendezvous
  send/recv, exchanges decomposed in their baked ``F_SEND_FIRST`` order)
  the whole schedule must make progress to completion; a stuck
  configuration is reported with every waiting rank's head operation;
* **symbolic correctness** — each buffer element is interpreted as a
  multiset of ``(origin rank, element index)`` atoms; steps move and
  merge atoms through FIFO channels, and the final ``"work"`` contents
  must equal the collective's postcondition exactly (e.g. Allreduce:
  every rank's atom for index ``j``, exactly once, in every element
  ``j``).  Dropped rounds surface as ``missing-contribution``, double
  folds as ``duplicate-contribution``, misrouted blocks as
  ``unexpected-contribution``.

Diagnostics follow the sanitizer's style (:mod:`repro.analysis.sanitizer`):
frozen records with a ``rule`` from a fixed catalogue, rendered one per
line, raised in bulk as an ``AssertionError`` subclass.
``tools/run_static_checks.py`` verifies the entire shipped repertoire on
every run; ``repro.analysis.sched_fixtures`` keeps known-broken
schedules that must stay flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.blocks import Partition
from repro.sched.interp import run_eager
from repro.sched.ir import (
    F_SEND_FIRST,
    OP_EXCHANGE,
    OP_NAMES,
    OP_ROTATE,
    SIDES,
    Schedule,
)

#: Diagnostic rule identifiers (the catalogue in docs/schedules.md).
RULES = (
    "interval-oob",
    "input-write",
    "bad-peer",
    "self-message",
    "unmatched-send",
    "unmatched-recv",
    "size-mismatch",
    "blocking-deadlock",
    "missing-contribution",
    "duplicate-contribution",
    "unexpected-contribution",
    "bad-meta",
)


@dataclass(frozen=True)
class ScheduleDiagnostic:
    """One verifier finding."""

    rule: str
    schedule: str                #: ``kind:name`` label
    rank: Optional[int] = None
    step: Optional[int] = None   #: index into the rank's plan
    message: str = ""

    def __str__(self) -> str:
        where = ""
        if self.rank is not None:
            where = f" rank{self.rank}"
            if self.step is not None:
                where += f".step{self.step}"
        return f"[{self.schedule}]{where} {self.rule}: {self.message}"


class ScheduleVerifyError(AssertionError):
    """Raised by :func:`assert_valid_schedule` when diagnostics exist."""

    def __init__(self, diagnostics: list[ScheduleDiagnostic]):
        self.diagnostics = diagnostics
        shown = "\n".join(str(d) for d in diagnostics[:20])
        more = (f"\n... and {len(diagnostics) - 20} more"
                if len(diagnostics) > 20 else "")
        super().__init__(
            f"schedule verifier found {len(diagnostics)} diagnostic(s):\n"
            f"{shown}{more}")


# --------------------------------------------------------------------- #
# Structure
# --------------------------------------------------------------------- #
def _check_structure(sched: Schedule) -> list[ScheduleDiagnostic]:
    out = []
    bufs = sched.table.bufs
    for rank, plan in enumerate(sched.plans):
        for i, row in enumerate(plan):
            for (peer, buf, lo, hi), writes in zip(SIDES, (False, True)):
                if row[buf] < 0:
                    continue
                name = bufs[row[buf]]
                size = sched.buffers.get(name)
                if size is None or row[hi] > size:
                    out.append(ScheduleDiagnostic(
                        "interval-oob", sched.label, rank, i,
                        f"{name}[{row[lo]}:{row[hi]}] outside buffers "
                        f"{dict(sched.buffers)}"))
                if writes and name == "in":
                    out.append(ScheduleDiagnostic(
                        "input-write", sched.label, rank, i,
                        f"{OP_NAMES[row.op]} row writes the read-only "
                        f"input {name}[{row[lo]}:{row[hi]}]"))
                if row.op > OP_EXCHANGE:
                    continue
                if not 0 <= row[peer] < sched.p:
                    out.append(ScheduleDiagnostic(
                        "bad-peer", sched.label, rank, i,
                        f"peer {row[peer]} outside 0..{sched.p - 1}"))
                elif row[peer] == rank:
                    out.append(ScheduleDiagnostic(
                        "self-message", sched.label, rank, i,
                        "step communicates with its own rank"))
            if row.op == OP_ROTATE and (row.rhi - row.rlo) % max(row.slo, 1):
                out.append(ScheduleDiagnostic(
                    "bad-meta", sched.label, rank, i,
                    f"rotation rows={row.slo} does not divide "
                    f"buffer {bufs[row.rbuf]!r}"))
    return out


# --------------------------------------------------------------------- #
# Matching and deadlock freedom
# --------------------------------------------------------------------- #
def _blocking_ops(plan):
    """Decompose a plan into its blocking-lowering sync operations.

    Each op is ``(kind, peer, nels, step_index)`` with kind ``"send"``
    or ``"recv"``; an exchange decomposes in its baked ``F_SEND_FIRST``
    order, exactly as the RCCE lowering executes it.
    """
    ops = []
    for i, row in enumerate(plan):
        if row.op > OP_EXCHANGE:
            continue
        pair = [("send", row.speer, row.shi - row.slo, i),
                ("recv", row.rpeer, row.rhi - row.rlo, i)]
        if not row.flags & F_SEND_FIRST:
            pair.reverse()
        ops.extend(op for op in pair if op[1] >= 0)
    return ops


def _check_matching(sched: Schedule) -> list[ScheduleDiagnostic]:
    out = []
    sends: dict[tuple[int, int], list] = {}
    recvs: dict[tuple[int, int], list] = {}
    for rank, plan in enumerate(sched.plans):
        for kind, peer, nels, i in _blocking_ops(plan):
            if not 0 <= peer < sched.p or peer == rank:
                continue  # structure already flagged it
            if kind == "send":
                sends.setdefault((rank, peer), []).append((nels, i))
            else:
                recvs.setdefault((peer, rank), []).append((nels, i))
    for key in sorted(set(sends) | set(recvs)):
        src, dst = key
        s, r = sends.get(key, []), recvs.get(key, [])
        for k in range(min(len(s), len(r))):
            if s[k][0] != r[k][0]:
                out.append(ScheduleDiagnostic(
                    "size-mismatch", sched.label, src, s[k][1],
                    f"message #{k} {src}->{dst} sends {s[k][0]} "
                    f"elements but the receiver expects {r[k][0]}"))
        for nels, i in s[len(r):]:
            out.append(ScheduleDiagnostic(
                "unmatched-send", sched.label, src, i,
                f"send of {nels} elements to rank {dst} has no "
                f"matching receive"))
        for nels, i in r[len(s):]:
            out.append(ScheduleDiagnostic(
                "unmatched-recv", sched.label, dst, i,
                f"receive of {nels} elements from rank {src} has no "
                f"matching send"))
    return out


def _check_deadlock(sched: Schedule) -> list[ScheduleDiagnostic]:
    """Simulate the rendezvous lowering; report a stuck configuration."""
    ops = [_blocking_ops(plan) for plan in sched.plans]
    pcs = [0] * sched.p
    progress = True
    while progress:
        progress = False
        for r in range(sched.p):
            while pcs[r] < len(ops[r]):
                kind, peer, _, _ = ops[r][pcs[r]]
                if peer == r or not 0 <= peer < sched.p:
                    pcs[r] += 1  # structure already flagged it
                    continue
                if pcs[peer] >= len(ops[peer]):
                    break
                pkind, ppeer, _, _ = ops[peer][pcs[peer]]
                want = "recv" if kind == "send" else "send"
                if ppeer == r and pkind == want:
                    pcs[r] += 1
                    pcs[peer] += 1
                    progress = True
                    continue
                break
    stuck = [r for r in range(sched.p) if pcs[r] < len(ops[r])]
    if not stuck:
        return []
    heads = "; ".join(
        f"rank{r} waits on {ops[r][pcs[r]][0]} with rank "
        f"{ops[r][pcs[r]][1]} (step {ops[r][pcs[r]][3]})"
        for r in stuck[:6])
    return [ScheduleDiagnostic(
        "blocking-deadlock", sched.label, stuck[0],
        ops[stuck[0]][pcs[stuck[0]]][3],
        f"rendezvous lowering stalls with {len(stuck)} rank(s) "
        f"blocked: {heads}")]


# --------------------------------------------------------------------- #
# Symbolic interpretation
# --------------------------------------------------------------------- #
def _merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for atom, count in b.items():
        out[atom] = out.get(atom, 0) + count
    return out


#: Elementwise multiset union of two object arrays (never mutates an
#: element, so snapshots may share them).
_merge_each = np.frompyfunc(_merge, 2, 1)


def simulate_schedule(sched: Schedule):
    """Interpret the schedule symbolically; returns per-rank buffers.

    Every element is a multiset (atom -> count dict) of
    ``(origin rank, input index)`` contributions, held in object arrays
    and stepped by the interpreter's eager-FIFO loop
    (:func:`repro.sched.interp.run_eager`) with multiset union as the
    fold.  Sends are eager (non-blocking semantics); run
    :func:`verify_schedule` first if the schedule may be unmatched or
    deadlocked.
    """
    state = [
        {"in": np.array([{(r, j): 1} for j in range(sched.buffers["in"])],
                        dtype=object),
         "work": np.array([{} for _ in range(sched.buffers["work"])],
                          dtype=object)}
        for r in range(sched.p)
    ]
    run_eager(sched, state, _merge_each)
    return state


#: Kinds whose postcondition is stated over ``meta["part_sizes"]``.
_PARTITION_KINDS = ("reduce_scatter", "scatter", "gather")


def _expected_work(sched: Schedule, rank: int):
    """Element index -> expected multiset; None entries are don't-care."""
    p, n = sched.p, sched.n
    root = int(sched.meta.get("root", 0))
    kind = sched.kind
    size = sched.buffers["work"]
    expected: list = [None] * size
    if kind in ("allreduce", "reduce"):
        if kind == "reduce" and rank != root:
            return expected
        for j in range(n):
            expected[j] = {(s, j): 1 for s in range(p)}
    elif kind == "bcast":
        for j in range(n):
            expected[j] = {(root, j): 1}
    elif kind == "allgather":
        for s in range(p):
            for j in range(n):
                expected[s * n + j] = {(s, j): 1}
    elif kind == "alltoall":
        for s in range(p):
            for j in range(n):
                expected[s * n + j] = {(s, rank * n + j): 1}
    elif kind == "scan":
        for j in range(n):
            expected[j] = {(s, j): 1 for s in range(rank + 1)}
    elif kind == "exscan":
        if rank:  # rank 0's result is undefined
            for j in range(n):
                expected[n + j] = {(s, j): 1 for s in range(rank)}
    elif kind in _PARTITION_KINDS:
        sizes = sched.meta.get("part_sizes")
        if sizes is None:
            return expected
        part = Partition(n, tuple(sizes))
        if kind == "reduce_scatter":
            block = part.slice_of(rank)
            for j in range(block.start, block.stop):
                expected[j] = {(s, j): 1 for s in range(p)}
        elif kind == "scatter":
            block = part.slice_of((rank - root) % p)
            for j in range(block.start, block.stop):
                expected[j] = {(root, j): 1}
        elif rank == root:  # gather: vrank v's block comes from its owner
            for v in range(p):
                block = part.slice_of(v)
                for j in range(block.start, block.stop):
                    expected[j] = {((v + root) % p, j): 1}
    return expected


def _classify(actual: dict, expected: dict) -> str:
    for atom, count in actual.items():
        if atom not in expected:
            return "unexpected-contribution"
        if count > expected[atom]:
            return "duplicate-contribution"
    return "missing-contribution"


def _check_dataflow(sched: Schedule) -> list[ScheduleDiagnostic]:
    if sched.kind in _PARTITION_KINDS and \
            sched.meta.get("part_sizes") is None:
        return [ScheduleDiagnostic(
            "bad-meta", sched.label, None, None,
            f"{sched.kind} schedule lacks part_sizes metadata")]
    state = simulate_schedule(sched)
    out = []
    for rank in range(sched.p):
        work = state[rank]["work"]
        flagged: set = set()
        for j, expected in enumerate(_expected_work(sched, rank)):
            if expected is None:
                continue
            actual = work[j]
            if actual == expected:
                continue
            rule = _classify(actual, expected)
            if rule in flagged:
                continue
            flagged.add(rule)
            out.append(ScheduleDiagnostic(
                rule, sched.label, rank, None,
                f"work[{j}] holds {_fmt(actual)}, expected "
                f"{_fmt(expected)}"))
    return out


def _fmt(atoms: dict) -> str:
    if not atoms:
        return "{}"
    parts = [f"r{s}[{j}]" + (f"x{c}" if c != 1 else "")
             for (s, j), c in sorted(atoms.items())]
    return "{" + ", ".join(parts[:6]) + \
        (", ..." if len(parts) > 6 else "") + "}"


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #
def verify_schedule(sched: Schedule, *,
                    blocking: bool = True) -> list[ScheduleDiagnostic]:
    """All diagnostics for one schedule (empty list = verified).

    ``blocking=False`` skips the rendezvous deadlock simulation for
    schedules only ever lowered onto non-blocking stacks.
    """
    out = _check_structure(sched)
    out += _check_matching(sched)
    if out:
        # Channel bookkeeping below assumes structurally sound plans.
        return out
    if blocking:
        out += _check_deadlock(sched)
    if not out:
        out += _check_dataflow(sched)
    return out


def assert_valid_schedule(sched: Schedule, *,
                          blocking: bool = True) -> None:
    diagnostics = verify_schedule(sched, blocking=blocking)
    if diagnostics:
        raise ScheduleVerifyError(diagnostics)


def verify_repertoire(ps=(1, 2, 3, 4, 5, 7, 8, 48),
                      sizes=(1, 2, 8, 70), kinds=None) -> int:
    """Verify every shipped builder of ``kinds`` (default: the kinds
    with an algorithm choice) across a (p, n) grid; returns the number
    of schedules checked.  Raises on the first bad schedule — the
    static-checks gate (`tools/run_static_checks.py`) calls this."""
    from repro.core.blocks import balanced_partition, standard_partition
    from repro.sched.builders import SCHEDULED_KINDS, all_schedules

    kinds = SCHEDULED_KINDS if kinds is None else kinds

    checked = 0
    for p in ps:
        for n in sizes:
            for partitioner in (standard_partition, balanced_partition):
                part = partitioner(n, p)
                for root in (0,) if p == 1 else (0, p - 1):
                    for sched in all_schedules(p, n, part=part,
                                               root=root, kinds=kinds):
                        assert_valid_schedule(sched)
                        checked += 1
    return checked


def verify_hier_repertoire(specs=("mesh:4x4", "cluster:2x24"),
                           sizes=(1, 8, 70)) -> int:
    """Verify the hierarchical repertoire at the rank counts of real
    registry topologies (non-default shapes included); returns the
    number of schedules checked.  The static-checks gate runs this so
    ``hier/g<G>`` names meet the same bar as the hand repertoire on
    every shape they would be selected for."""
    from repro.hw.topo import get_topology
    from repro.sched.hier import HIER_KINDS, build_hier_schedule

    checked = 0
    for spec in specs:
        p = get_topology(spec).num_cores
        for groups in (2, 3, 4):
            if groups > p // 2:
                continue
            name = f"hier/g{groups}"
            for n in sizes:
                for kind in HIER_KINDS:
                    roots = (0,) if kind == "allreduce" else (0, p - 1)
                    for root in roots:
                        assert_valid_schedule(
                            build_hier_schedule(kind, name, p, n,
                                                root=root))
                        checked += 1
    return checked


def verify_synth_repertoire(ps=(2, 3, 5, 8, 48),
                            sizes=(1, 2, 8, 70)) -> int:
    """Verify every synthesized candidate (chunked transforms and
    pipelined chains) across a (p, n) grid; returns the number of
    schedules checked.  The static-checks gate sweeps this alongside
    :func:`verify_repertoire` so ``synth/...`` names meet the same bar
    as the hand repertoire."""
    from repro.sched.synth import synth_repertoire

    checked = 0
    for sched in synth_repertoire(ps=ps, sizes=sizes):
        assert_valid_schedule(sched)
        checked += 1
    return checked
