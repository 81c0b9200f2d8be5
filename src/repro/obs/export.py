"""Trace and metrics exporters.

Two output families:

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the
  ``trace_event`` JSON array Chrome's ``chrome://tracing`` and Perfetto
  load: one complete-duration (``"ph": "X"``) event per reassembled span,
  one instant (``"ph": "i"``) event per non-span trace record, plus
  thread-name metadata so rows are labeled ``core0`` .. ``core47``.
  Timestamps are microseconds (the format's unit), converted from the
  simulator's integer picoseconds.
* :func:`run_metrics` / :func:`write_metrics_json` /
  :func:`write_metrics_csv` — a flat machine-readable profile: per-core
  busy/wait breakdown straight from the :class:`~repro.sim.trace.TimeAccount`
  data, per-mesh-link traffic (message counts and bytes attributed to
  every XY-routed link out of the p2p counters), and per-MPB read/write
  counters.

Everything here is dependency-free (stdlib ``json``/``csv`` only).
"""

from __future__ import annotations

import csv
import json
import zlib
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, TextIO, Union

from repro.obs.spans import Span, extract_spans
from repro.sim.clock import ps_to_us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.machine import Machine, SPMDResult
    from repro.hw.topo import Topology
    from repro.sim.trace import TraceRecord

#: TimeAccount states counted as waiting (the complement is busy).
#: ``stall`` only appears under fault injection (transient core stalls).
WAIT_STATES = ("wait_flag", "wait_request", "wait_port", "idle", "stall")


#: Detail types that are JSON as they stand (exact classes: a subclass
#: may not serialise the same way, so it takes the ``json.dumps`` probe).
_JSON_SCALARS = frozenset((int, str, float, bool, type(None)))


@lru_cache(maxsize=1024)
def _actor_tid(actor: str) -> int:
    """Stable numeric thread id for an actor name (``core7`` -> 7).

    Actors without digits (the fault injector's ``"faults"``) get a CRC
    of the name: the same id in every process, whatever
    ``PYTHONHASHSEED`` is.
    """
    digits = "".join(ch for ch in actor if ch.isdigit())
    return int(digits) if digits else zlib.crc32(actor.encode()) % 10_000


# --------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------- #

def chrome_trace_events(records: Sequence["TraceRecord"],
                        spans: Optional[Iterable[Span]] = None,
                        pid: int = 0) -> list[dict[str, Any]]:
    """Build the ``trace_event`` array for a recorded run.

    ``spans`` defaults to :func:`~repro.obs.spans.extract_spans` of the
    records; pass them explicitly to avoid re-extraction.
    """
    if spans is None:
        spans = extract_spans(records)
    events: list[dict[str, Any]] = []
    actors = sorted({r.actor for r in records},
                    key=lambda a: (_actor_tid(a), a))
    for actor in actors:
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid,
            "tid": _actor_tid(actor), "args": {"name": actor},
        })
    for sp in spans:
        event: dict[str, Any] = {
            "name": sp.name, "ph": "X", "cat": "sim",
            "ts": ps_to_us(sp.start_ps),
            "dur": ps_to_us(sp.end_ps - sp.start_ps),
            "pid": pid, "tid": _actor_tid(sp.actor),
        }
        if sp.detail is not None:
            event["args"] = {"detail": _jsonable(sp.detail)}
        events.append(event)
    for time_ps, actor, tag, detail in records:
        if tag.endswith((".begin", ".end")):
            continue  # represented as "X" duration events above
        event = {
            "name": tag, "ph": "i", "cat": "sim", "s": "t",
            "ts": ps_to_us(time_ps), "pid": pid,
            "tid": _actor_tid(actor),
        }
        if detail is not None:
            event["args"] = {"detail": _jsonable(detail)}
        events.append(event)
    return events


def write_chrome_trace(path_or_file: Union[str, TextIO],
                       records: Sequence["TraceRecord"],
                       spans: Optional[Iterable[Span]] = None) -> None:
    """Write the ``trace_event`` JSON array to ``path_or_file``."""
    events = chrome_trace_events(records, spans)
    if hasattr(path_or_file, "write"):
        json.dump(events, path_or_file, indent=1)
    else:
        with open(path_or_file, "w") as fh:
            json.dump(events, fh, indent=1)


def _jsonable(value: Any) -> Any:
    if value.__class__ in _JSON_SCALARS:
        return value
    try:
        json.dumps(value)
        return value
    except TypeError:
        return repr(value)


# --------------------------------------------------------------------- #
# Flat metrics
# --------------------------------------------------------------------- #

def account_metrics(accounts: Sequence, labels: Optional[Sequence[str]] = None,
                    ) -> list[dict[str, Any]]:
    """Per-core busy/wait rows from a run's :class:`TimeAccount` list.

    Every row carries the raw per-state picoseconds plus derived
    ``busy_pct``/``wait_pct`` (of that core's accounted total), so the
    percentages always agree with the account totals by construction.
    """
    rows = []
    for i, acct in enumerate(accounts):
        total = acct.total()
        wait = sum(acct.get(s) for s in WAIT_STATES)
        rows.append({
            "core": labels[i] if labels else f"core{i}",
            "total_ps": total,
            "busy_ps": total - wait,
            "wait_ps": wait,
            "busy_pct": 100.0 * (total - wait) / total if total else 0.0,
            "wait_pct": 100.0 * wait / total if total else 0.0,
            "states": dict(sorted(acct.states.items())),
        })
    return rows


def link_traffic(machine: "Machine") -> list[dict[str, Any]]:
    """Per-mesh-link traffic from the machine's p2p counters.

    Every recorded (src, dst) message is walked along its XY route and
    its bytes charged to each traversed link; a link is the ordered pair
    of adjacent router coordinates.  Requires the traffic counters to
    have been enabled (``comm_stats(machine)``) before the run; returns
    an empty list otherwise.
    """
    stats = machine.services.get("p2p.stats")
    if stats is None:
        return []
    topo: "Topology" = machine.topology
    links: dict[tuple[tuple[int, int], tuple[int, int]], list[int]] = {}
    for (src, dst), (msgs, nbytes) in sorted(stats.by_pair.items()):
        route = topo.xy_route(src, dst)
        for a, b in zip(route, route[1:]):
            entry = links.setdefault((a, b), [0, 0])
            entry[0] += msgs
            entry[1] += nbytes
    return [
        {"from": list(a), "to": list(b), "messages": m, "bytes": n}
        for (a, b), (m, n) in sorted(links.items())
    ]


def mpb_counters(machine: "Machine") -> list[dict[str, Any]]:
    """Per-MPB read/write counters (bytes actually moved through SRAM)."""
    return [
        {"core": mpb.core_id,
         "reads": mpb.io_reads, "read_bytes": mpb.io_read_bytes,
         "writes": mpb.io_writes, "write_bytes": mpb.io_write_bytes}
        for mpb in machine.mpbs
    ]


def run_metrics(machine: "Machine", result: "SPMDResult",
                meta: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """The full machine-readable profile of one SPMD run.

    ``meta["trace_dropped"]`` counts the records the machine's tracer
    refused at its capacity limit: non-zero means the trace (and every
    span table built from it) is cut short.
    """
    cores = account_metrics(result.accounts)
    total = sum(r["total_ps"] for r in cores)
    wait = sum(r["wait_ps"] for r in cores)
    metrics = {
        "meta": {**(meta or {}),
                 "trace_dropped": machine.sim.tracer.dropped},
        "elapsed_us": result.elapsed_us,
        "wait_fraction": wait / total if total else 0.0,
        "cores": cores,
        "mesh_links": link_traffic(machine),
        "mpb": mpb_counters(machine),
    }
    faults = getattr(machine, "faults", None)
    if faults is not None:
        metrics["faults"] = {
            "seed": faults.plan.seed,
            "counts": faults.summary(),
            "events": len(faults.events),
        }
    return metrics


def write_metrics_json(path_or_file: Union[str, TextIO],
                       metrics: dict[str, Any]) -> None:
    if hasattr(path_or_file, "write"):
        json.dump(metrics, path_or_file, indent=1)
    else:
        with open(path_or_file, "w") as fh:
            json.dump(metrics, fh, indent=1)


def write_metrics_csv(path_or_file: Union[str, TextIO],
                      metrics: dict[str, Any]) -> None:
    """Flatten the per-core rows to CSV (one row per core)."""
    rows = metrics["cores"]
    states = sorted({s for row in rows for s in row["states"]})
    fields = ["core", "total_ps", "busy_ps", "wait_ps",
              "busy_pct", "wait_pct", *states]

    def _write(fh: TextIO) -> None:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            flat = {k: row[k] for k in fields[:6]}
            flat.update({s: row["states"].get(s, 0) for s in states})
            writer.writerow(flat)

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
