"""The profiling driver behind ``python -m repro profile``.

:func:`profile_collective` runs one collective (any registered kind, any
stack, any size) under an enabled tracer and returns a
:class:`CollectiveProfile` bundling the raw records, the reassembled
spans, the per-core time accounts, and the flat metrics — everything the
paper's Section IV profiling methodology needs:

* :meth:`CollectiveProfile.wait_profile_table` — the Fig.-10-style table
  (per-core busy/wait percentages plus the dominant wait states),
* :meth:`CollectiveProfile.phase_table` — exclusive time per span phase
  (collective / round / sync / copy / send / recv / reduce),
* :meth:`CollectiveProfile.write` — the export files (Chrome trace JSON,
  metrics JSON, metrics CSV) for ``chrome://tracing`` / Perfetto and
  downstream analysis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.bench.runner import default_cores, launch_collective
from repro.bench.stats import CommStats
from repro.core.ops import SUM, ReduceOp
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine, SPMDResult
from repro.obs.export import (
    WAIT_STATES,
    run_metrics,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.spans import Span, extract_spans, phase_times
from repro.sim.clock import ps_to_us
from repro.sim.trace import TraceRecord, Tracer
from repro.util.tables import format_table


@dataclass
class CollectiveProfile:
    """Everything one profiled collective run produced."""

    kind: str
    stack: str
    size: int
    cores: int
    machine: Machine
    result: SPMDResult
    records: list[TraceRecord]
    spans: list[Span] = field(default_factory=list)

    @property
    def elapsed_us(self) -> float:
        return self.result.elapsed_us

    def metrics(self) -> dict[str, Any]:
        return run_metrics(self.machine, self.result, meta={
            "kind": self.kind, "stack": self.stack,
            "size": self.size, "cores": self.cores,
        })

    # -- tables ----------------------------------------------------------
    def wait_profile_table(self, max_rows: Optional[int] = None) -> str:
        """Per-core busy/wait percentages (the Fig.-10 wait profile).

        Percentages come straight from the per-core
        :class:`~repro.sim.trace.TimeAccount` totals, so they agree with
        the accounts by construction.
        """
        headers = ["core", "total us", "busy %", "wait %",
                   "wait_flag %", "wait_request %", "wait_port %"]
        rows: list[list[Any]] = []
        accounts = self.result.accounts
        shown = accounts if max_rows is None else accounts[:max_rows]
        for i, acct in enumerate(shown):
            total = acct.total()
            wait = sum(acct.get(s) for s in WAIT_STATES)
            pct = (lambda ps: 100.0 * ps / total if total else 0.0)
            rows.append([
                f"core{i}", ps_to_us(total), pct(total - wait), pct(wait),
                pct(acct.get("wait_flag")), pct(acct.get("wait_request")),
                pct(acct.get("wait_port")),
            ])
        merged = accounts[0]
        for acct in accounts[1:]:
            merged = merged.merged(acct)
        total = merged.total()
        wait = sum(merged.get(s) for s in WAIT_STATES)
        pct = (lambda ps: 100.0 * ps / total if total else 0.0)
        rows.append([
            "ALL", ps_to_us(total), pct(total - wait), pct(wait),
            pct(merged.get("wait_flag")), pct(merged.get("wait_request")),
            pct(merged.get("wait_port")),
        ])
        title = (f"wait profile: {self.kind} on stack {self.stack!r}, "
                 f"{self.size} doubles, {self.cores} cores "
                 f"({self.elapsed_us:.1f} us simulated)")
        return title + "\n" + format_table(headers, rows)

    def phase_table(self) -> str:
        """Exclusive simulated time per span phase, summed over cores."""
        per_phase = phase_times(self.spans)
        if not per_phase:
            return "(no spans recorded — tracer disabled?)"
        total = sum(per_phase.values()) or 1
        rows = [
            [name, ps_to_us(ps), 100.0 * ps / total]
            for name, ps in sorted(per_phase.items(),
                                   key=lambda kv: -kv[1])
        ]
        return ("phase breakdown (exclusive core-time per span):\n"
                + format_table(["phase", "us", "%"], rows))

    # -- files -----------------------------------------------------------
    def basename(self) -> str:
        return f"profile_{self.kind}_{self.stack}_{self.size}"

    def write(self, outdir: str) -> dict[str, str]:
        """Write trace + metrics files; returns ``{kind: path}``."""
        os.makedirs(outdir, exist_ok=True)
        base = os.path.join(outdir, self.basename())
        paths = {
            "trace": base + ".trace.json",
            "metrics_json": base + ".metrics.json",
            "metrics_csv": base + ".metrics.csv",
        }
        if self.records:
            write_chrome_trace(paths["trace"], self.records, self.spans)
        else:
            del paths["trace"]  # untraced run: nothing to put in a trace
        metrics = self.metrics()
        write_metrics_json(paths["metrics_json"], metrics)
        write_metrics_csv(paths["metrics_csv"], metrics)
        return paths


def profile_collective(kind: str, stack: str, size: int, *,
                       cores: Optional[int] = None,
                       config: Optional[SCCConfig] = None,
                       op: ReduceOp = SUM,
                       trace: bool = True,
                       trace_capacity: Optional[int] = None,
                       rank_order: Optional[Sequence[int]] = None,
                       seed: int = 20120901) -> CollectiveProfile:
    """Run one collective under the profiler.

    The same launch as :func:`repro.bench.runner.measure_collective`
    (:func:`~repro.bench.runner.launch_collective`: same program, same
    seed, same rank-0 timing convention), keeping the machine, trace
    records and spans for analysis.  ``trace=False`` measures with
    the tracer disabled — the zero-overhead path; simulated time is
    identical either way because spans never consume simulated time.
    """
    cores = cores if cores is not None else default_cores()
    tracer = Tracer(enabled=trace, capacity=trace_capacity)
    machine, result = launch_collective(
        kind, stack, size, cores=cores, config=config, op=op,
        rank_order=rank_order, seed=seed, tracer=tracer,
        observers=[CommStats()])  # the traffic counters run_metrics reports
    records = list(tracer.records)
    return CollectiveProfile(
        kind=kind, stack=stack, size=size, cores=cores,
        machine=machine, result=result, records=records,
        spans=extract_spans(records),
    )
