"""Structured tracing and busy/wait accounting.

Two facilities:

* :class:`Tracer` — an append-only log of ``TraceRecord`` entries, disabled
  by default (a disabled tracer costs one attribute check per call site).
* :class:`TimeAccount` — per-actor accounting of time spent in named states
  (``busy``, ``wait_flag``, ...).  The paper's profiling observations
  ("cores spend up to 50% of their time in rcce_wait_until", "cores are
  idle two thirds of the time waiting for the first block") are reproduced
  by reading these accounts after a run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterator, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One trace entry: what happened, where, when."""

    time_ps: int
    actor: str
    tag: str
    detail: Any = None

    def __str__(self) -> str:
        detail = f" {self.detail}" if self.detail is not None else ""
        return f"[{self.time_ps:>14d}ps] {self.actor:<12s} {self.tag}{detail}"


_new_record = tuple.__new__


@lru_cache(maxsize=None)
def core_actor(core_id: int) -> str:
    """The actor name of a core's records: one shared ``core<N>`` string
    per core instead of a fresh one per record."""
    return f"core{core_id}"


class Tracer:
    """Append-only trace log; cheap when disabled."""

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None):
        self.enabled = enabled
        self.capacity = capacity
        self.records: list[TraceRecord] = []
        #: Records refused because the log was at ``capacity``.
        self.dropped = 0

    def emit(self, time_ps: int, actor: str, tag: str, detail: Any = None) -> None:
        if not self.enabled:
            return
        records = self.records
        if self.capacity is not None and len(records) >= self.capacity:
            self.dropped += 1
            return
        # The generated ``TraceRecord.__new__`` is a Python-level call;
        # this is what it does.
        records.append(_new_record(TraceRecord,
                                   (time_ps, actor, tag, detail)))

    def filter(self, *, actor: Optional[str] = None,
               tag: Optional[str] = None) -> Iterator[TraceRecord]:
        for rec in self.records:
            if actor is not None and rec.actor != actor:
                continue
            if tag is not None and rec.tag != tag:
                continue
            yield rec

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class TimeAccount:
    """Accumulated time per named state for one actor (e.g. one core).

    States are free-form strings; the communication layers use ``compute``,
    ``copy``, ``wait_flag``, ``wait_request`` and ``overhead``.
    """

    #: ``defaultdict(int)`` so hot paths can do ``states[state] += d``
    #: (one C-level hash probe) instead of a ``get``-then-store pair.
    #: Only states that were actually charged appear as keys, exactly as
    #: with a plain dict.
    states: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def add(self, state: str, duration_ps: int) -> None:
        if duration_ps < 0:
            raise ValueError(f"negative duration for state {state!r}")
        self.states[state] = self.states.get(state, 0) + duration_ps

    def total(self) -> int:
        return sum(self.states.values())

    def get(self, state: str) -> int:
        return self.states.get(state, 0)

    def fraction(self, state: str) -> float:
        """Fraction of accounted time spent in ``state`` (0.0 if empty)."""
        total = self.total()
        if total == 0:
            return 0.0
        return self.states.get(state, 0) / total

    def merged(self, other: "TimeAccount") -> "TimeAccount":
        out = TimeAccount(dict(self.states))
        for state, dur in other.states.items():
            out.states[state] = out.states.get(state, 0) + dur
        return out

    def __str__(self) -> str:
        total = self.total() or 1
        parts = ", ".join(
            f"{k}={v / 1e6:.1f}us ({100 * v / total:.0f}%)"
            for k, v in sorted(self.states.items())
        )
        return f"TimeAccount({parts})"
