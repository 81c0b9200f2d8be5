"""Combinatorial schedule synthesis: searching beyond the hand repertoire.

SCCL (PAPERS.md) phrases collective synthesis as a search over
*k-synchronous* algorithms: how many rounds (synchronization phases),
how many steps per round, how finely the payload is chunked.  This
module runs that search on top of the schedule IR:

* the **candidate space** for a ``(kind, p, n)`` point is every hand
  builder, every chunked transform of a hand builder
  (:func:`repro.sched.chunking.chunk_schedule`, ``c`` from
  :data:`CHUNK_GRID_TRANSFORM`) and — for the chain-pipelinable kinds —
  every pipelined chain builder (``c`` from
  :data:`CHUNK_GRID_PIPELINE`).  Each candidate is a complete
  k-synchronous schedule: its round tags *are* its synchronization
  structure (``rounds`` in :class:`Candidate`);
* candidates are **pruned by the BSP cost model**
  (:func:`repro.sched.cost.estimate_schedule_cost`, memoized at both
  the primitive and the whole-schedule level), so pricing one costs
  about a millisecond and a full search stays interactive;
* the result is the per-``n`` winner plus a **Pareto frontier** over
  the latency axis (estimated cost at ``n = 1``, where per-message
  constants dominate) and the bandwidth axis (estimated cost at the
  requested ``n``): a schedule survives iff nothing beats it on both.

Synthesized names are reachable everywhere a builder name is — the
registry prefix is ``synth/``:

* ``synth/pipeline_c<c>`` — pipelined chain builder with ``c`` chunks
  (kinds in :data:`~repro.sched.chunking.PIPELINE_BUILDERS`);
* ``synth/<base>+c<c>`` — the hand builder ``<base>`` with every
  transfer split into ``c`` sub-messages.

``build_schedule`` resolves them (so ``algo="synth/..."`` works on
every communicator), the selector prices them, and ``python -m
repro tune`` folds the winners into the committed selection table.
Every emitted schedule passes :mod:`repro.analysis.schedverify` and the
numpy interpreter (:mod:`repro.sched.interp`) — ``verify=True`` makes
:func:`synthesize` check that on the spot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from repro.core.blocks import Partition, balanced_partition
from repro.hw.config import SCCConfig
from repro.hw.timing import LatencyModel
from repro.sched.builders import build_schedule, builder_names
from repro.sched.chunking import PIPELINE_BUILDERS, chunk_schedule
from repro.sched.cost import estimate_schedule_cost
from repro.sched.ir import Schedule

#: Registry prefix for synthesized schedule names.
SYNTH_PREFIX = "synth/"

#: Chunk counts tried for the chunked transform of each hand builder.
#: Kept small: under the BSP model a transform never beats its base (the
#: sub-messages stay in their original rounds, paying extra per-message
#: constants) — the variants exist for the simulator-level granularity
#: effects and as search-space breadth, not as expected winners.
CHUNK_GRID_TRANSFORM: tuple[int, ...] = (2, 4)

#: Chunk counts tried for the pipelined chain builders, where chunking
#: changes the round structure and genuinely wins at large ``n``.
CHUNK_GRID_PIPELINE: tuple[int, ...] = (2, 4, 8, 16, 32)

#: Reference size for the latency axis of the Pareto frontier.
LATENCY_REF_SIZE = 1


def is_synth_name(name: str) -> bool:
    return name.startswith(SYNTH_PREFIX)


def parse_synth_name(kind: str, name: str) -> tuple[Optional[str], int]:
    """``synth/...`` -> ``(base_builder_or_None, chunks)``.

    ``base`` is the underlying hand builder for chunked transforms and
    ``None`` for the pipeline family.  Raises KeyError (with the known
    grammar) for anything else.
    """
    def _bad(reason: str) -> KeyError:
        return KeyError(
            f"unknown {kind} schedule {name!r} ({reason}); synthesized "
            f"names are 'synth/pipeline_c<c>' or 'synth/<base>+c<c>' "
            f"with <base> in {builder_names(kind)}")

    if not is_synth_name(name):
        raise _bad("missing synth/ prefix")
    body = name[len(SYNTH_PREFIX):]
    if body.startswith("pipeline_c"):
        digits = body[len("pipeline_c"):]
        if not digits.isdigit() or int(digits) < 1:
            raise _bad("malformed chunk count")
        if kind not in PIPELINE_BUILDERS:
            raise _bad(f"no pipeline builder for kind {kind!r}")
        return None, int(digits)
    base, sep, digits = body.rpartition("+c")
    if not sep or not digits.isdigit() or int(digits) < 1:
        raise _bad("malformed name")
    if base not in builder_names(kind):
        raise _bad(f"unknown base builder {base!r}")
    return base, int(digits)


def base_builder(kind: str, name: str) -> Optional[str]:
    """The hand builder a chunked transform wraps (None for pipelines)."""
    base, _ = parse_synth_name(kind, name)
    return base


@lru_cache(maxsize=1024)
def _build_synth_cached(kind: str, name: str, p: int, n: int,
                        part_sizes: Optional[tuple[int, ...]],
                        root: int) -> Schedule:
    base, c = parse_synth_name(kind, name)
    part = (Partition(n, part_sizes) if part_sizes is not None
            else Partition(n, (n,)))
    if base is None:
        sched = PIPELINE_BUILDERS[kind](p, n, part, root, c)
    else:
        sched = chunk_schedule(
            build_schedule(kind, base, p, n, part=part, root=root), c)
    # The schedule's own name is the full registry name (cost memo keys
    # and span labels stay unambiguous); chunk layout is already in meta.
    return sched.renamed(name)


def build_synth_schedule(kind: str, name: str, p: int, n: int, *,
                         part: Optional[Partition] = None,
                         root: int = 0) -> Schedule:
    """Build (or fetch from cache) one synthesized schedule instance."""
    sizes = part.sizes if part is not None else None
    return _build_synth_cached(kind, name, p, n, sizes, root)


def candidate_names(kind: str, p: int, n: int) -> tuple[str, ...]:
    """The synthesized candidates searched at one ``(kind, p, n)`` point.

    Chunk counts above ``n`` are skipped (they clamp to ``n`` chunks and
    duplicate a smaller candidate); single-rank problems have nothing to
    pipeline or chunk.
    """
    if p < 2 or n < 2:
        return ()
    names = []
    for base in builder_names(kind):
        for c in CHUNK_GRID_TRANSFORM:
            if c <= n:
                names.append(f"{SYNTH_PREFIX}{base}+c{c}")
    if kind in PIPELINE_BUILDERS:
        for c in CHUNK_GRID_PIPELINE:
            if c <= n:
                names.append(f"{SYNTH_PREFIX}pipeline_c{c}")
    return tuple(names)


@dataclass(frozen=True)
class Candidate:
    """One priced schedule in a synthesis search."""

    name: str
    synthesized: bool
    cost: int           # BSP estimate at the requested n (bandwidth axis)
    latency_cost: int   # BSP estimate at n = LATENCY_REF_SIZE
    rounds: int         # k of the k-synchronous schedule
    steps: int          # total steps over all ranks

    def dominates(self, other: "Candidate") -> bool:
        return (self.cost <= other.cost
                and self.latency_cost <= other.latency_cost
                and (self.cost < other.cost
                     or self.latency_cost < other.latency_cost))


@dataclass(frozen=True)
class SynthResult:
    """Winner + Pareto frontier for one ``(kind, p, n)`` point."""

    kind: str
    p: int
    n: int
    candidates: tuple[Candidate, ...]   # sorted by cost
    frontier: tuple[Candidate, ...]     # Pareto-optimal, by latency_cost

    @property
    def best(self) -> Candidate:
        return self.candidates[0]

    @property
    def best_hand(self) -> Candidate:
        return next(c for c in self.candidates if not c.synthesized)


def default_model(config: Optional[SCCConfig] = None) -> LatencyModel:
    """A fresh memoized model over the config's topology (tune's model)."""
    config = config if config is not None else SCCConfig()
    return LatencyModel(config, config.resolved_topology())


def synthesize(kind: str, p: int, n: int,
               model: Optional[LatencyModel] = None, *,
               blocking: bool = False,
               verify: bool = False) -> SynthResult:
    """Search the candidate space at one point and rank it.

    Prices every hand builder and every synthesized candidate at ``n``
    (the bandwidth axis) and at :data:`LATENCY_REF_SIZE` (the latency
    axis), returning all candidates cost-sorted plus the Pareto
    frontier.  ``verify=True`` additionally runs every *synthesized*
    candidate through the static verifier and the numpy interpreter
    before it may appear in the result — the ``synth --smoke`` gate.
    """
    model = model if model is not None else default_model()
    names = [(name, False) for name in builder_names(kind)]
    names += [(name, True) for name in candidate_names(kind, p, n)]
    cands = []
    for name, synthesized in names:
        sched = _resolve(kind, name, p, n)
        if verify and synthesized:
            from repro.analysis.schedverify import assert_valid_schedule
            from repro.sched.interp import check_schedule_numeric
            assert_valid_schedule(sched)
            check_schedule_numeric(sched)
        n_lat = min(LATENCY_REF_SIZE, n)
        cands.append(Candidate(
            name=name, synthesized=synthesized,
            cost=estimate_schedule_cost(sched, model, blocking=blocking),
            latency_cost=estimate_schedule_cost(
                _resolve(kind, name, p, n_lat), model, blocking=blocking),
            rounds=sched.rounds,
            steps=sched.total_steps()))
    cands.sort(key=lambda c: (c.cost, c.latency_cost, c.name))
    frontier = tuple(sorted(
        (c for c in cands
         if not any(o.dominates(c) for o in cands)),
        key=lambda c: (c.latency_cost, c.cost, c.name)))
    return SynthResult(kind, p, n, tuple(cands), frontier)


def _resolve(kind: str, name: str, p: int, n: int) -> Schedule:
    part = balanced_partition(n, p)
    if is_synth_name(name):
        return build_synth_schedule(kind, name, p, n, part=part)
    return build_schedule(kind, name, p, n, part=part)


def synth_repertoire(ps: Sequence[int] = (2, 3, 5, 8, 48),
                     sizes: Sequence[int] = (1, 2, 8, 70)):
    """Every synthesized candidate over a small grid (the verify sweep).

    Mirrors :func:`repro.sched.builders.all_schedules` for the
    synthesized namespace; ``tools/run_static_checks.py`` and the
    property suite push each yielded schedule through the verifier.
    """
    from repro.sched.builders import SCHEDULED_KINDS

    for p in ps:
        for n in sizes:
            part = balanced_partition(n, p)
            for kind in SCHEDULED_KINDS:
                for name in candidate_names(kind, p, n):
                    root = 1 if kind in ("bcast", "reduce") and p > 2 else 0
                    yield build_synth_schedule(kind, name, p, n,
                                               part=part, root=root)
