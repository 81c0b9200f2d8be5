"""Cost-model-driven algorithm selection and the ``tuned`` stack.

The seed communicator picks algorithms with one hard-coded byte
threshold (RCCE_comm's 512-byte rule).  The selector replaces the rule
with data: :func:`build_selection_table` prices every builder in the
repertoire through :mod:`repro.sched.cost` for a grid of ``(kind, p,
n)`` points and records the winners; the table is persisted as JSON
under ``benchmarks/results/`` (regenerate with ``python -m repro
tune``).

:class:`TunedCommunicator` — registered as stack ``"tuned"`` — is the
lightweight_balanced composition with one change: when the caller does
not force an algorithm, :meth:`TunedCommunicator.resolve` returns the
table's pick instead of applying the built-in threshold.  Points
missing from the table fall back to pricing the candidates on the fly
against the machine's own memoized
:class:`~repro.hw.timing.LatencyModel`, so the stack works without a
table file (just slower on first use per point).
"""

from __future__ import annotations

import json
import logging
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.blocks import balanced_partition
from repro.core.comm import Communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.hw.timing import LatencyModel
from repro.sched.builders import (SCHEDULED_KINDS, build_schedule,
                                   builder_names, known_algorithm)
from repro.sched.cost import estimate_schedule_cost

_log = logging.getLogger(__name__)

#: On-disk table format version.  Schema 2 adds per-topology sub-tables
#: (the ``topologies`` payload); schema-1 files still load, as tables
#: for the default chip.
TABLE_SCHEMA = 2

#: Topology a table without explicit provenance is assumed to describe.
DEFAULT_TOPOLOGY_KEY = "mesh:6x4"

#: Default tuning grid: rank counts spanning the SCC's range (powers of
#: two, the odd prime 47, the full 48-core chip) and vector lengths from
#: single elements through the paper's 500..700-double band.
DEFAULT_PS = (2, 3, 4, 8, 16, 24, 32, 47, 48)
DEFAULT_SIZES = (1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 192, 256, 384,
                 512, 600, 700, 768, 1024)


def default_table_path() -> pathlib.Path:
    """``benchmarks/results/selection_table.json`` in the repo tree."""
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    return repo_root / "benchmarks" / "results" / "selection_table.json"


def select_algo(kind: str, p: int, n: int, model: LatencyModel, *,
                blocking: bool = False, synth: bool = True) -> str:
    """The cheapest algorithm for one ``(kind, p, n)`` point.

    Candidates are the hand builders plus (with ``synth``, the default)
    the synthesized repertoire — chunked transforms and pipelined
    chains, :func:`repro.sched.synth.candidate_names` — plus, on
    multi-chip topologies, the hierarchical leader schedules
    (:func:`repro.sched.hier.hier_candidate_names`).  Ties break
    towards the alphabetically first name so the table is deterministic
    across runs and machines.
    """
    from repro.sched.hier import hier_candidate_names
    from repro.sched.synth import candidate_names

    part = balanced_partition(n, p)
    names: list[str] = list(builder_names(kind))
    if synth:
        names += candidate_names(kind, p, n)
    names += hier_candidate_names(kind, p, model.topology)
    best_name: Optional[str] = None
    best_cost = 0
    for name in sorted(names):
        sched = build_schedule(kind, name, p, n, part=part)
        cost = estimate_schedule_cost(sched, model, blocking=blocking)
        if best_name is None or cost < best_cost:
            best_name, best_cost = name, cost
    assert best_name is not None  # every kind has at least one builder
    return best_name


@dataclass
class SelectionTable:
    """Per-``(kind, p, n)`` algorithm picks, with nearest-point lookup.

    A table describes one topology (``meta["topology"]``, the default
    chip when absent) through its flat ``entries``; picks for *other*
    topologies live in per-spec sub-tables under :attr:`topologies` and
    are reached by passing ``topology=`` to :meth:`record`/:meth:`pick`.
    There is no cross-topology fallback: an untuned topology returns
    ``None`` and the tuned stack prices candidates on the fly instead.
    """

    entries: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    topologies: dict = field(default_factory=dict)

    @property
    def topology_key(self) -> str:
        """The topology this table's flat entries describe."""
        return self.meta.get("topology", DEFAULT_TOPOLOGY_KEY)

    def _slot(self, topology: Optional[str]) -> "SelectionTable":
        """The (sub-)table holding entries for ``topology``; creates the
        sub-table on first use."""
        if topology is None or topology == self.topology_key:
            return self
        sub = self.topologies.get(topology)
        if sub is None:
            sub = self.topologies[topology] = SelectionTable(
                meta={"topology": topology})
        return sub

    def record(self, kind: str, p: int, n: int, algo: str, *,
               topology: Optional[str] = None) -> None:
        slot = self._slot(topology)
        if slot is not self:
            slot.record(kind, p, n, algo)
            return
        self.entries.setdefault(kind, {})[(p, n)] = algo

    def pick(self, kind: str, p: int, n: int, *,
             topology: Optional[str] = None) -> Optional[str]:
        """The recorded pick, or the nearest tuned point's pick.

        Nearest means: among entries for this kind, minimize first the
        rank-count distance then the size distance (log-ish problems
        shift with p much faster than with n).  Returns None for kinds
        the table has never tuned — and for topologies it has never
        tuned, so picks priced for one shape are never served to
        another.
        """
        if topology is not None and topology != self.topology_key:
            sub = self.topologies.get(topology)
            return sub.pick(kind, p, n) if sub is not None else None
        points = self.entries.get(kind)
        if not points:
            return None
        exact = points.get((p, n))
        if exact is not None:
            return exact
        key = min(points, key=lambda pn: (abs(pn[0] - p), abs(pn[1] - n),
                                          pn))
        return points[key]

    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))

    def merge(self, other: "SelectionTable") -> None:
        """Overlay ``other``'s entries (and grid metadata) onto this table.

        The partial-regeneration primitive behind ``python -m repro tune
        --kinds/--cores/--topology``: points tuned by ``other`` replace
        this table's picks, every untouched point (including other
        topologies' sub-tables) survives, and the meta grid lists grow
        to the union so the provenance of a merged table stays readable.
        A table tuned for a different topology merges into that
        topology's sub-table, leaving the flat entries alone.
        """
        self._slot(other.topology_key)._merge_flat(other)
        for spec, sub in other.topologies.items():
            self._slot(spec)._merge_flat(sub)

    def _merge_flat(self, other: "SelectionTable") -> None:
        for kind, points in other.entries.items():
            self.entries.setdefault(kind, {}).update(points)
        for key in ("ps", "sizes"):
            ours = self.meta.get(key)
            theirs = other.meta.get(key)
            if ours is not None and theirs is not None:
                self.meta[key] = sorted(set(ours) | set(theirs))
            elif theirs is not None:
                self.meta[key] = list(theirs)
        for key, value in other.meta.items():
            if key not in ("ps", "sizes"):
                self.meta[key] = value

    # -- persistence -----------------------------------------------------
    def _entries_payload(self) -> dict:
        return {
            kind: [[p, n, algo]
                   for (p, n), algo in sorted(points.items())]
            for kind, points in sorted(self.entries.items())
        }

    def to_json(self) -> str:
        payload = {
            "schema": TABLE_SCHEMA,
            "meta": self.meta,
            "entries": self._entries_payload(),
        }
        if self.topologies:
            payload["topologies"] = {
                spec: {"meta": sub.meta,
                       "entries": sub._entries_payload()}
                for spec, sub in sorted(self.topologies.items())
            }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SelectionTable":
        payload = json.loads(text)
        schema = payload.get("schema")
        if schema not in (1, TABLE_SCHEMA):
            raise ValueError(
                f"selection table schema {schema!r} unsupported "
                f"(expected {TABLE_SCHEMA}); re-run 'python -m repro tune'")
        table = cls(meta=dict(payload.get("meta", {})))
        for kind, rows in payload.get("entries", {}).items():
            for p, n, algo in rows:
                table.record(kind, int(p), int(n), str(algo))
        for spec, sub_payload in payload.get("topologies", {}).items():
            sub = cls(meta=dict(sub_payload.get("meta", {})))
            for kind, rows in sub_payload.get("entries", {}).items():
                for p, n, algo in rows:
                    sub.record(kind, int(p), int(n), str(algo))
            table.topologies[spec] = sub
        return table

    def save(self, path: Optional[pathlib.Path] = None) -> pathlib.Path:
        path = path if path is not None else default_table_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Optional[pathlib.Path] = None) -> "SelectionTable":
        path = path if path is not None else default_table_path()
        return cls.from_json(path.read_text())


def build_selection_table(
        kinds: Optional[Iterable[str]] = None,
        ps: Sequence[int] = DEFAULT_PS,
        sizes: Sequence[int] = DEFAULT_SIZES,
        config: Optional[SCCConfig] = None, *,
        blocking: bool = False, synth: bool = True) -> SelectionTable:
    """Price the repertoire over a ``(kind, p, n)`` grid and keep winners.

    With ``synth`` (the default) the synthesized candidates compete at
    every point, so chunked/pipelined winners land in the table as
    ``synth/...`` names; ``synth=False`` reproduces the hand-only
    tables of earlier revisions.
    """
    config = config if config is not None else SCCConfig()
    topology = config.resolved_topology()
    model = LatencyModel(config, topology)
    kinds = tuple(kinds) if kinds is not None else SCHEDULED_KINDS
    table = SelectionTable(meta={
        "ps": list(ps),
        "sizes": list(sizes),
        "blocking": blocking,
        "cores": config.num_cores,
        "synth": synth,
        "topology": config.topology,
    })
    for kind in kinds:
        for p in ps:
            if p > config.num_cores:
                continue
            for n in sizes:
                table.record(kind, p, n,
                             select_algo(kind, p, n, model,
                                         blocking=blocking,
                                         synth=synth))
    return table


class TunedCommunicator(Communicator):
    """lightweight_balanced + table-driven schedule selection.

    Only the *default* decision changes (:meth:`resolve` with
    ``algo=None``); explicit ``algo=`` arguments resolve exactly as on
    any other stack.
    """

    def __init__(self, machine: Machine, *,
                 table: Optional[SelectionTable] = None,
                 table_path: Optional[pathlib.Path] = None):
        from repro.lwnb.api import LWNB
        super().__init__(machine, LWNB(machine),
                         partitioner=balanced_partition, name="tuned")
        self._table = table
        self._table_path = table_path
        self._table_loaded = table is not None
        self._fallback_picks: dict = {}

    def _load_table(self) -> Optional[SelectionTable]:
        if not self._table_loaded:
            self._table_loaded = True
            path = (self._table_path if self._table_path is not None
                    else default_table_path())
            try:
                self._table = SelectionTable.load(path)
            except FileNotFoundError:
                self._table = None  # no table: price on the fly
            except (OSError, ValueError) as exc:
                _log.warning(
                    "selection table %s is unusable (%s: %s); falling "
                    "back to pricing candidates with the cost model",
                    path, type(exc).__name__, exc)
                self._table = None
        return self._table

    def pick_algo(self, kind: str, p: int, n: int) -> str:
        """The table's winner at the nearest tabulated point of this
        machine's topology, else the cost model's (memoized per point)."""
        table = self._load_table()
        topology = self.machine.config.topology
        name = (table.pick(kind, p, n, topology=topology)
                if table is not None else None)
        if name is None or not known_algorithm(kind, name):
            key = (kind, p, n)
            name = self._fallback_picks.get(key)
            if name is None:
                name = select_algo(kind, p, n, self.machine.latency,
                                   blocking=self.blocking)
                self._fallback_picks[key] = name
        return name

    def resolve(self, kind: str, p: int, n: int, nbytes: int,
                algo: Optional[str] = None) -> str:
        # A single rank has nothing to tune.
        if algo is None and p > 1:
            return self.pick_algo(kind, p, n)
        return super().resolve(kind, p, n, nbytes, algo)
