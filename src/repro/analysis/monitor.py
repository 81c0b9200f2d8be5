"""What the runtime monitors share: the hook slot and the findings log.

:class:`~repro.analysis.sanitizer.Sanitizer` and
:class:`~repro.analysis.races.RaceDetector` attach through the same
``machine.san`` / ``sim.san`` / ``mpb.san`` pointers (one monitor per
machine), keep the same per-core obs-span stack and log findings under
the same cap.  Subclasses add their shadow state and the ``on_*`` rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.hw.machine import Machine


def uniform(view: "np.ndarray") -> Optional[int]:
    """The one value every element of the non-empty 1-D ``view`` holds,
    or ``None`` when they differ.

    Protocol traffic reads and writes whole slots, so nearly every
    interval a hook sees is uniform and its rule needs scalars only.  The
    probe is one ``memcmp`` of the raw bytes against the first element
    repeated — several times cheaper than a numpy compare-and-reduce on
    slot-sized views.
    """
    raw = view.tobytes()
    if raw == raw[:view.itemsize] * len(view):
        return view.item(0)
    return None


class Monitor:
    """A pure observer attachable to one :class:`Machine`."""

    #: Raised by :meth:`assert_clean` with the stored diagnostics.
    error: type[AssertionError] = AssertionError

    def __init__(self, max_diagnostics: int = 1000):
        self.machine: Optional["Machine"] = None
        self.diagnostics: list = []
        self.max_diagnostics = max_diagnostics
        #: Total findings, including those beyond the storage cap.
        self.total_findings = 0
        #: Open obs spans per core: [(name, detail), ...].
        self._spans: dict[int, list[tuple[str, Any]]] = {}

    # -- lifecycle -------------------------------------------------------
    def install(self, machine: "Machine") -> "Monitor":
        if machine.san is not None:
            raise RuntimeError("machine already has a monitor installed")
        self.machine = machine
        machine.san = self
        machine.sim.san = self
        for mpb in machine.mpbs:
            mpb.san = self
        return self

    def uninstall(self) -> None:
        machine = self.machine
        if machine is None:
            return
        machine.san = None
        machine.sim.san = None
        for mpb in machine.mpbs:
            mpb.san = None
        self.machine = None

    # -- reporting -------------------------------------------------------
    def _now(self) -> int:
        machine = self.machine
        return machine.sim._now if machine is not None else 0

    def _record(self, core: Optional[int], diagnostic: type,
                **fields: Any) -> None:
        """Count one finding and, below the storage cap, store
        ``diagnostic(**fields)`` stamped with the virtual time, ``core``'s
        innermost ``round`` span detail and its open span names."""
        self.total_findings += 1
        if len(self.diagnostics) >= self.max_diagnostics:
            return
        stack = self._spans.get(core, ())
        self.diagnostics.append(diagnostic(
            time_ps=self._now(),
            round=next((d for n, d in reversed(stack) if n == "round"), None),
            spans=tuple(n for n, _ in stack), **fields))

    def counts(self) -> dict[str, int]:
        """Findings per rule (of the stored diagnostics)."""
        out: dict[str, int] = {}
        for d in self.diagnostics:
            out[d.rule] = out.get(d.rule, 0) + 1
        return dict(sorted(out.items()))

    def assert_clean(self) -> None:
        if self.diagnostics:
            raise self.error(self.diagnostics)

    # -- span context (fed by repro.obs.spans) ---------------------------
    def on_span_enter(self, core_id: int, name: str, detail: Any) -> None:
        stack = self._spans.get(core_id)
        if stack is None:
            stack = self._spans[core_id] = []
        stack.append((name, detail))

    def on_span_exit(self, core_id: int, name: str) -> None:
        stack = self._spans.get(core_id)
        if stack and stack[-1][0] == name:
            stack.pop()
