"""The benchmark's own in-memory span recorder.

One span per call the benchmark makes into a layer of ``repro`` (name,
start, end, parent span, op id).  Spans stay in memory and are written
out once, when the run ends.  A span is named ``<layer>.<callee>``
(``hw.run_spmd``, ``sched.synthesize``).  Self time = duration minus the
part covered by child spans.

The recorder is off in the untraced run: ``span()`` then hands back one
shared no-op context manager and records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from typing import Optional

_NULL = nullcontext()


class _Span:
    __slots__ = ("rec", "index")

    def __init__(self, rec: "Recorder", index: int):
        self.rec = rec
        self.index = index

    def __enter__(self) -> None:
        self.rec._stack.append(self.index)
        self.rec.spans[self.index][1] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.rec.spans[self.index][2] = time.perf_counter()
        self.rec._stack.pop()


class Recorder:
    """Span store; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: [name, start, end, parent index or None, op id or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Identifier shared by every span of the op being executed.
        self.op_id: Optional[str] = None

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        return _Span(self, len(self.spans) - 1)

    # -- attribution -----------------------------------------------------
    def by_name(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s}."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        return out

    def self_by_layer(self, layers) -> dict[str, float]:
        """layer -> self seconds summed over the spans named
        ``<layer>.<callee>`` (the longest matching layer wins)."""
        out = dict.fromkeys(layers, 0.0)
        by_length = sorted(layers, key=len, reverse=True)
        for name, row in self.by_name().items():
            layer = next(x for x in by_length if name.startswith(x + "."))
            out[layer] += row["self_s"]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _o in self.spans
                if n == name]

    def dump(self, path) -> None:
        spans = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                 for n, s, e, p, o in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "by_name": self.by_name()}, fh)
