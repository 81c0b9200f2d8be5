"""Phase-scoped spans on top of the raw :class:`~repro.sim.trace.Tracer`.

The tracer's native vocabulary is point records; the paper's profiling
methodology ("cores spend up to 50% of their time in rcce_wait_until",
the Fig. 10 wait profile) needs *intervals* attributable to a collective,
a round of that collective, and a phase within the round (sync, copy,
mesh transfer, reduce op).  This module provides

* :func:`span` — a context manager the communication layers wrap phases
  in.  It emits ``<name>.begin`` / ``<name>.end`` record pairs, the
  convention :class:`~repro.util.timeline.Timeline` already understands.
  With a disabled tracer it is a shared no-op object: one attribute check
  and no allocation per call site.
* :class:`Span` / :func:`extract_spans` — reassemble the begin/end pairs
  into a properly nested span tree per actor (collective > schedule >
  round > phase).
* :func:`phase_times` / :func:`round_times` — attribute *exclusive* time
  (time inside a span but outside its children) to phase names, and
  per-round totals, the numbers the wait-profile table and the search/
  validation workflows of the related work consume.

All spans are pure observation: they never consume simulated time, so an
instrumented run and an uninstrumented run have identical timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.sim.trace import core_actor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import TraceRecord

#: Span names the collective layers emit, grouped by level.
COLLECTIVE_SPANS = ("allreduce", "reduce", "reduce_scatter", "allgather",
                    "alltoall", "bcast", "barrier", "scan", "exscan",
                    "scatter", "gather", "scatterv", "gatherv", "split")
#: Opened by the schedule executor around every algorithm run; its detail
#: is the ``kind:name`` label of what :meth:`Communicator.resolve` chose.
#: It names the algorithm rather than a phase of it, so
#: :func:`phase_times` books its exclusive time on the enclosing
#: collective span.
SCHEDULE_SPAN = "schedule"
ROUND_SPAN = "round"
PHASE_SPANS = ("sync", "copy", "transfer", "reduce", "send", "recv",
               "retry", "fallback")


class _NullSpan:
    """Shared no-op context manager for the disabled-tracer fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


@lru_cache(maxsize=None)
def _edge_tags(name: str) -> tuple[str, str]:
    """The ``.begin``/``.end`` tag pair of a span name, built once: a
    trace shares two tag strings per name instead of two per span."""
    return f"{name}.begin", f"{name}.end"


class _LiveSpan:
    """Emits the ``.begin`` / ``.end`` record pair around a block.

    When a runtime monitor is attached to the simulator, the span also
    feeds the monitor's per-core protocol context (so diagnostics can
    name the collective, round and phase they fired inside) — still pure
    observation, no simulated time is consumed either way.
    """

    __slots__ = ("_env", "_tracer", "_san", "_actor", "_tags", "name",
                 "detail")

    def __init__(self, env: Any, tracer: Any, san: Any, name: str,
                 detail: Any):
        self._env = env
        self._tracer = tracer
        self._san = san
        self._actor = core_actor(env.core_id)
        self._tags = _edge_tags(name)
        self.name = name
        self.detail = detail

    def __enter__(self) -> "_LiveSpan":
        self._tracer.emit(self._env.now, self._actor, self._tags[0],
                          self.detail)
        if self._san is not None:
            self._san.on_span_enter(self._env.core_id, self.name,
                                    self.detail)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer.emit(self._env.now, self._actor, self._tags[1],
                          self.detail)
        if self._san is not None:
            self._san.on_span_exit(self._env.core_id, self.name)
        return None


class _MonitorSpan:
    """A span of a run with a monitor but no tracer: it only keeps the
    monitor's per-core span stack, and records nothing."""

    __slots__ = ("_san", "_core_id", "name", "detail")

    def __init__(self, san: Any, core_id: int, name: str, detail: Any):
        self._san = san
        self._core_id = core_id
        self.name = name
        self.detail = detail

    def __enter__(self) -> "_MonitorSpan":
        self._san.on_span_enter(self._core_id, self.name, self.detail)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._san.on_span_exit(self._core_id, self.name)
        return None


def span(env: Any, name: str, detail: Any = None) -> Any:
    """Scope a phase of simulated work for the tracer.

    Usage inside an SPMD generator (the ``with`` block may contain
    ``yield from``s; begin/end read ``env.now`` at entry/exit)::

        with span(env, "round", r):
            yield from run_exchange(...)

    ``env`` is anything with ``now``, ``core_id`` and a reachable tracer
    (a :class:`~repro.hw.machine.CoreEnv`).  Disabled tracer and no
    attached monitor → shared no-op, no records, no allocation.
    """
    sim = env.sim
    tracer = sim.tracer
    san = sim.san
    if not tracer.enabled:
        if san is None:
            return _NULL_SPAN
        return _MonitorSpan(san, env.core_id, name, detail)
    return _LiveSpan(env, tracer, san, name, detail)


def bracketed(env: Any, name: str, peer: Any, body: Any) -> Any:
    """``body`` (a generator) inside the ``send``/``recv`` record pair of
    one p2p message — the one place the message brackets are emitted.

    With a disabled tracer this *is* ``body``: no frame, no record.
    Otherwise the pair closes however the transfer ends (a cancelled
    request, a typed fault), so later spans of that core never nest
    under a dangling ``.begin``; a ``body`` that returns a value (the
    wildcard receive's matched source) puts it on the ``.end`` record.
    Tracer-only: the monitors' span stack keeps naming collective, round
    and phase.
    """
    tracer = env.sim.tracer
    if not tracer.enabled:
        return body
    return _bracketed(_LiveSpan(env, tracer, None, name, peer), body)


def _bracketed(message: _LiveSpan, body: Any):
    with message:
        matched = yield from body
        if matched is not None:
            message.detail = matched


@dataclass(eq=False, slots=True)
class Span:
    """One reassembled interval of one actor's activity."""

    actor: str
    name: str
    start_ps: int
    end_ps: int
    detail: Any = None
    depth: int = 0
    parent: Optional["Span"] = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps

    def exclusive_ps(self) -> int:
        """Duration minus the time covered by direct children."""
        return self.duration_ps - sum(c.duration_ps for c in self.children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.actor} {self.name} "
                f"[{self.start_ps}, {self.end_ps}) depth={self.depth}>")


def extract_spans(records: Iterable["TraceRecord"]) -> list[Span]:
    """Rebuild nested spans from ``.begin``/``.end`` record pairs.

    Nesting is per actor and purely stack-based: a span that begins while
    another span of the same actor is open becomes its child.  Unclosed
    spans are dropped (a trace cut off by a capacity limit stays usable).
    Records whose tag is not a begin/end pair are ignored.
    """
    done: list[Span] = []
    open_stack: dict[str, list[Span]] = {}
    #: tag -> (opens a span?, span name), or None for a point record;
    #: a trace has a handful of distinct tags, each parsed once.
    edges: dict[str, Optional[tuple[bool, str]]] = {}
    for time_ps, actor, tag, detail in records:
        try:
            edge = edges[tag]
        except KeyError:
            name, dot, kind = tag.rpartition(".")
            edge = edges[tag] = ((kind == "begin", name)
                                 if dot and kind in ("begin", "end")
                                 else None)
        if edge is None:
            continue
        opens, name = edge
        if opens:
            stack = open_stack.get(actor)
            if stack is None:
                stack = open_stack[actor] = []
            stack.append(Span(actor, name, time_ps, time_ps, detail,
                              len(stack), stack[-1] if stack else None))
            continue
        stack = open_stack.get(actor)
        if not stack:
            continue
        # Close the innermost open span of this name; anything opened
        # deeper that never closed is discarded as malformed.
        sp = stack[-1]
        if sp.name == name:
            stack.pop()
        else:
            for index in range(len(stack) - 2, -1, -1):
                if stack[index].name == name:
                    break
            else:
                continue
            sp = stack[index]
            del stack[index:]
        sp.end_ps = time_ps
        # The parent is the entry below on the stack, so it is still open.
        if sp.parent is not None:
            sp.parent.children.append(sp)
        done.append(sp)
    # By start, the longer (outer) span first among equal starts.
    done.sort(key=lambda s: (s.start_ps, -s.end_ps))
    return done


def phase_times(spans: Iterable[Span],
                by_actor: bool = False) -> dict:
    """Exclusive time per span name: ``{name: ps}`` (or
    ``{actor: {name: ps}}`` with ``by_actor=True``).

    Exclusive attribution makes the numbers additive: summing every
    phase of one actor reproduces that actor's total spanned time, so a
    wait-profile table built from these entries is self-consistent.
    """
    out: dict = {}
    for sp in spans:
        name = sp.name
        if name == SCHEDULE_SPAN and sp.parent is not None:
            name = sp.parent.name
        bucket = out.setdefault(sp.actor, {}) if by_actor else out
        bucket[name] = bucket.get(name, 0) + sp.exclusive_ps()
    return out


def round_times(spans: Iterable[Span]) -> dict[Any, dict[str, int]]:
    """Per-round aggregation: ``{round_detail: {actor: duration_ps}}``.

    A round's detail is whatever the emitting algorithm passed (the ring
    algorithms pass the round index ``r``), so the caller can line the
    rows up with the algorithm structure.
    """
    out: dict[Any, dict[str, int]] = {}
    for sp in spans:
        if sp.name != ROUND_SPAN:
            continue
        bucket = out.setdefault(sp.detail, {})
        bucket[sp.actor] = bucket.get(sp.actor, 0) + sp.duration_ps
    return out


def collective_spans(spans: Iterable[Span]) -> list[Span]:
    """Only the top-level collective spans (depth 0, known names)."""
    return [s for s in spans
            if s.depth == 0 and s.name in COLLECTIVE_SPANS]
