"""Hierarchical (leader-based) collective schedules.

The classic multi-level composition for clustered machines (the
MPI-for-multi-core-clusters pattern): partition the ranks into ``G``
contiguous groups, elect one leader per group, and run each collective
as *intra-group phase -> leader phase -> intra-group phase*:

* ``allreduce``: intra-group binomial reduce to the leader, recursive
  doubling (with non-power-of-two folding) among the leaders, intra-group
  binomial bcast;
* ``reduce``: intra-group binomial reduce, binomial reduce among leaders
  to the root (the root leads its own group, so the result lands exactly
  where the flat algorithms put it);
* ``bcast``: binomial bcast from the root among the leaders, intra-group
  binomial bcast.

On a multi-chip ``cluster:`` topology with ``G`` equal to the chip count,
groups coincide with chips, so only the leader phase crosses the slow
board-level links — once, instead of every round of a flat ring or
doubling pattern.  The schedules themselves are pure ``(p, n, root)``
functions: they are valid (and verified) on any topology; only their
*price* depends on where the group boundaries fall.

Names follow the ``synth/`` convention: ``hier/g<G>`` with ``G >= 2``
(e.g. ``hier/g2``); :func:`~repro.sched.builders.build_schedule` routes
the prefix here, so the whole selection/engine/analytic stack can use
hierarchical names anywhere a builder name is accepted.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.blocks import Partition
from repro.sched.builders import (_binomial_bcast_rows,
                                  _binomial_reduce_rows, _init_copy_rows,
                                  _recursive_doubling_rows)
from repro.sched.ir import Schedule, make_table

if TYPE_CHECKING:
    from repro.hw.topology import Topology

#: Name prefix of hierarchical schedules.
HIER_PREFIX = "hier/"

#: Collective kinds with a hierarchical builder.
HIER_KINDS: tuple[str, ...] = ("allreduce", "reduce", "bcast")


def parse_hier_name(kind: str, name: str) -> int:
    """Parse ``hier/g<G>``; returns the group count.

    Raises :class:`KeyError` (the unknown-schedule-name error type) on
    anything that is not a well-formed hierarchical name for ``kind``.
    """

    def _bad(reason: str) -> KeyError:
        return KeyError(
            f"unknown {kind} schedule {name!r} ({reason}); hierarchical "
            f"names are 'hier/g<G>' with G >= 2 groups, for kinds "
            f"{list(HIER_KINDS)}")

    if not name.startswith(HIER_PREFIX):
        raise _bad(f"missing {HIER_PREFIX!r} prefix")
    if kind not in HIER_KINDS:
        raise _bad("kind has no hierarchical builder")
    body = name[len(HIER_PREFIX):]
    if not body.startswith("g") or not body[1:].isdigit():
        raise _bad("expected 'g' followed by the group count")
    groups = int(body[1:])
    if groups < 2:
        raise _bad("group count must be >= 2")
    return groups


def group_bounds(p: int, groups: int) -> list[tuple[int, int]]:
    """Contiguous balanced rank blocks ``[lo, hi)``, one per group.

    The first ``p % groups`` groups take one extra rank.  When ``p``
    equals a cluster topology's core count and ``groups`` its chip
    count, block ``i`` is exactly chip ``i``.
    """
    base, rem = divmod(p, groups)
    if base == 0:
        raise ValueError(f"cannot split {p} ranks into {groups} groups")
    bounds = []
    lo = 0
    for i in range(groups):
        hi = lo + base + (1 if i < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _group_of(bounds: list[tuple[int, int]], rank: int) -> int:
    for i, (lo, hi) in enumerate(bounds):
        if lo <= rank < hi:
            return i
    raise ValueError(f"rank {rank} outside all groups")


# -- builders -------------------------------------------------------------

def _leaders_for(bounds: list[tuple[int, int]], root: int,
                 rooted: bool) -> list[int]:
    """One leader per group: the first rank, except that for rooted kinds
    the root leads its own group (so results land at the root without an
    extra move)."""
    leaders = [lo for lo, _hi in bounds]
    if rooted:
        leaders[_group_of(bounds, root)] = root
    return leaders


def _intra_rows(phase_rows, bounds: list[tuple[int, int]],
                leaders: list[int], n: int) -> list[np.ndarray]:
    """One binomial tree per group, rooted at the group's leader."""
    return [phase_rows(range(lo, hi), lead - lo, n)
            for (lo, hi), lead in zip(bounds, leaders)]


def _hier_schedule(kind: str, p: int, n: int, groups: int, root: int,
                   blocks: list[np.ndarray]) -> Schedule:
    return Schedule(kind, f"hier/g{groups}", p, n, {"in": n, "work": n},
                    make_table(blocks), {"root": root, "groups": groups})


def build_hier_allreduce(p: int, n: int, groups: int) -> Schedule:
    bounds = group_bounds(p, groups)
    leaders = _leaders_for(bounds, 0, rooted=False)
    return _hier_schedule("allreduce", p, n, groups, 0, [
        _init_copy_rows(np.arange(p), n),
        *_intra_rows(_binomial_reduce_rows, bounds, leaders, n),
        _recursive_doubling_rows(leaders, n),
        *_intra_rows(_binomial_bcast_rows, bounds, leaders, n)])


def build_hier_reduce(p: int, n: int, groups: int, root: int) -> Schedule:
    bounds = group_bounds(p, groups)
    leaders = _leaders_for(bounds, root, rooted=True)
    return _hier_schedule("reduce", p, n, groups, root, [
        _init_copy_rows(np.arange(p), n),
        *_intra_rows(_binomial_reduce_rows, bounds, leaders, n),
        _binomial_reduce_rows(leaders, _group_of(bounds, root), n)])


def build_hier_bcast(p: int, n: int, groups: int, root: int) -> Schedule:
    bounds = group_bounds(p, groups)
    leaders = _leaders_for(bounds, root, rooted=True)
    return _hier_schedule("bcast", p, n, groups, root, [
        _init_copy_rows(root, n),
        _binomial_bcast_rows(leaders, _group_of(bounds, root), n),
        *_intra_rows(_binomial_bcast_rows, bounds, leaders, n)])


@lru_cache(maxsize=1024)
def _build_hier_cached(kind: str, groups: int, p: int, n: int,
                       root: int) -> Schedule:
    if groups > p:
        raise ValueError(
            f"hier/g{groups} needs at least {groups} ranks, got p={p}")
    if kind == "allreduce":
        return build_hier_allreduce(p, n, groups)
    if kind == "reduce":
        return build_hier_reduce(p, n, groups, root)
    if kind == "bcast":
        return build_hier_bcast(p, n, groups, root)
    raise KeyError(f"no hierarchical builder for kind {kind!r}")


def build_hier_schedule(kind: str, name: str, p: int, n: int, *,
                        part: Optional[Partition] = None,
                        root: int = 0) -> Schedule:
    """Build a ``hier/g<G>`` schedule (the partition is unused: all
    phases move whole vectors)."""
    groups = parse_hier_name(kind, name)
    return _build_hier_cached(kind, groups, p, n, root)


# -- candidates -----------------------------------------------------------

def hier_candidate_names(kind: str, p: int,
                         topology: Optional["Topology"] = None) \
        -> tuple[str, ...]:
    """Hierarchical names worth pricing for a selection decision.

    Only multi-chip topologies get candidates (on one chip a hierarchy
    merely adds rounds), with the chip count first and a two-group
    fallback; group counts leaving fewer than two ranks per group are
    dropped (they degenerate into the flat patterns).
    """
    if topology is None or topology.chips <= 1:
        return ()
    if kind not in HIER_KINDS:
        return ()
    names = []
    for g in (topology.chips, 2):
        if 2 <= g <= p // 2 and f"hier/g{g}" not in names:
            names.append(f"hier/g{g}")
    return tuple(names)


def hier_repertoire(ps: tuple[int, ...] = (4, 6, 8, 48),
                    sizes: tuple[int, ...] = (1, 2, 8, 70),
                    groups: tuple[int, ...] = (2, 3, 4)):
    """Yield the hierarchical repertoire over a (p, groups, size) grid --
    every kind, with both a corner and an interior root for the rooted
    kinds.  Used by the schedule-verifier gate."""
    for p in ps:
        for g in groups:
            if g < 2 or g > p // 2:
                continue
            for n in sizes:
                for kind in HIER_KINDS:
                    roots = (0,) if kind == "allreduce" else (0, p - 1)
                    for root in roots:
                        yield build_hier_schedule(kind, f"hier/g{g}", p, n,
                                                  root=root)
