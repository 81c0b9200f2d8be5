"""ASCII timelines of simulated core activity.

Two facilities:

* :class:`Timeline` — renders the spans of a trace
  (:func:`repro.obs.spans.extract_spans`) as a per-actor Gantt chart with
  one character per time bucket.  The communication layers emit such
  spans when the machine is built with an enabled tracer.
* :func:`render_accounts_bar` — a stacked-percentage bar per core from
  the :class:`~repro.sim.trace.TimeAccount` data every run collects, a
  cheap profile view ("how much of each core's time went to waiting?").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

from repro.obs.spans import extract_spans
from repro.sim.trace import TimeAccount, TraceRecord

#: Default glyph per span kind (first letter of the span name otherwise).
GLYPHS = {
    "send": "S",
    "recv": "R",
    "copy": "c",
    "wait": ".",
    "sync": ".",
    "compute": "#",
    "reduce": "+",
    "round": "-",
}


class Timeline:
    """Per-actor activity spans, rendered as an ASCII Gantt chart."""

    def __init__(self) -> None:
        self.spans: dict[str, list[tuple[int, int, str]]] = defaultdict(list)
        self.t_min: Optional[int] = None
        self.t_max: Optional[int] = None

    def feed(self, records: Sequence[TraceRecord]) -> "Timeline":
        """Add every completed begin/end span of ``records``."""
        for sp in extract_spans(records):
            self.add_span(sp.actor, sp.start_ps, sp.end_ps, sp.name)
        return self

    def add_span(self, actor: str, start: int, end: int, kind: str) -> None:
        if end < start:
            raise ValueError(f"span ends before it starts: {start}..{end}")
        self.spans[actor].append((start, end, kind))
        self.t_min = start if self.t_min is None else min(self.t_min, start)
        self.t_max = end if self.t_max is None else max(self.t_max, end)

    def render(self, width: int = 80) -> str:
        """One row per actor, one character per time bucket."""
        if not self.spans or self.t_max is None or self.t_max == self.t_min:
            return "(empty timeline)"
        span_ps = self.t_max - self.t_min
        bucket = max(1, span_ps // width)
        lines = [f"timeline: {span_ps / 1e6:.1f} us total, "
                 f"1 char = {bucket / 1e6:.2f} us"]
        for actor in sorted(self.spans):
            row = [" "] * width
            # Paint longest spans first so nested phase spans (round,
            # sync, ...) stay visible on top of their enclosing spans.
            ordered = sorted(self.spans[actor],
                             key=lambda s: -(s[1] - s[0]))
            for start, end, kind in ordered:
                glyph = GLYPHS.get(kind, kind[:1] or "?")
                b0 = min(width - 1, (start - self.t_min) // bucket)
                b1 = min(width - 1, max(b0, (end - self.t_min - 1) // bucket))
                for i in range(b0, b1 + 1):
                    row[i] = glyph
            lines.append(f"{actor:>10} |{''.join(row)}|")
        return "\n".join(lines)


def render_accounts_bar(accounts: Sequence[TimeAccount], width: int = 50,
                        labels: Optional[Sequence[str]] = None) -> str:
    """Stacked per-core bars showing the share of each accounted state."""
    lines = []
    order = ["compute", "copy", "overhead", "wait_flag", "wait_request",
             "wait_port", "idle"]
    glyph = {"compute": "#", "copy": "c", "overhead": "o",
             "wait_flag": ".", "wait_request": ",", "wait_port": "p",
             "idle": " "}
    for i, acct in enumerate(accounts):
        total = acct.total()
        label = labels[i] if labels else f"core{i}"
        if total == 0:
            lines.append(f"{label:>8} |{' ' * width}|")
            continue
        bar = []
        for state in order:
            n = round(width * acct.get(state) / total)
            bar.append(glyph.get(state, "?") * n)
        for state in sorted(set(acct.states) - set(order)):
            n = round(width * acct.get(state) / total)
            bar.append("?" * n)
        text = "".join(bar)[:width].ljust(width)
        lines.append(f"{label:>8} |{text}|")
    legend = "  ".join(f"{glyph[s]}={s}" for s in order if s != "idle")
    return "\n".join([*lines, legend])
