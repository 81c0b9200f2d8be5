"""Static determinism/protocol lint for the simulator's source tree.

The simulator's core guarantee is that a run is a pure function of its
inputs: integer virtual time, one seeded RNG stream per subsystem, and
every MPB byte moved through the timed transfer API.  Those invariants
are easy to break silently — a stray ``time.time()`` in a protocol
module, an unseeded ``default_rng()``, a direct ``region.write`` that
moves bytes nobody paid latency for.  This module is a small AST-based
checker that rejects such code at review time, complementing the
*runtime* sanitizer in :mod:`repro.analysis.sanitizer`.

Rules
-----

``wallclock-time``
    No wall-clock reads (``time.time``/``monotonic``/``perf_counter``,
    ``datetime.now``/``utcnow``/``today``) inside the deterministic
    packages (``sim``, ``hw``, ``core``, ``rcce``, ``ircce``, ``lwnb``,
    ``rckmpi``).  Wall-clock belongs in ``bench`` (host-performance
    measurement), never in simulated behaviour.
``unseeded-random``
    No stdlib ``random`` (process-global state) and no unseeded
    ``numpy.random.default_rng()`` / legacy ``np.random.*`` draws in the
    deterministic packages.  Every stream must derive from an explicit
    seed so runs replay bit-identically.
``mpb-direct-write``
    Outside ``hw``/``rcce``/``ircce``, modules that import the MPB types
    must not call ``.write``/``.read``/``.read_into`` on regions or poke
    ``.data[...]`` directly — bytes that bypass the timed transfer API
    are invisible to the latency model and the sanitizer.  Intentional
    sites (the MPB-direct Allreduce, the fault injector's corruption)
    carry a waiver with a rationale.
``unattributed-access``
    Inside the deterministic packages, MPB traffic
    (``.write``/``.read``/``.read_into`` in the sanctioned transfer
    layers, where ``mpb-direct-write`` does not apply) and flag
    ``.force`` calls anywhere must carry an explicit ``actor=``
    keyword.  An unattributed access reaches the
    runtime monitors as ``actor=None`` — the sanitizer loses its rank
    attribution and the happens-before race detector silently drops the
    access from its clocks, blinding both.
``span-unpaired``
    ``span(...)`` must be used as a ``with`` item (or a branch of a
    conditional one): the begin/end pair (and the sanitizer's span
    stack) is only balanced by the context manager protocol.
``trace-begin-end``
    Literal trace tags ending in ``.begin`` must have a matching
    ``.end`` literal in the same module (and vice versa), so the
    timeline reassembler never sees systematically unclosed spans.
``float-time-eq``
    No ``==``/``!=`` on virtual-time floats (``ps_to_us(...)`` results,
    ``*_us`` values) — compare the integer picosecond values or use an
    explicit tolerance.
``salted-hash``
    No builtin ``hash(...)``: on ``str``/``bytes`` (and anything holding
    them) it is salted per process by ``PYTHONHASHSEED``, so a value
    derived from it that reaches a trace, a file or a cache key on disk
    differs from run to run.  Use ``zlib.crc32``/``hashlib``; a key that
    never leaves the process carries a waiver.
``unused-import``
    Imported names must be referenced (docstring/annotation mentions
    count; ``__init__.py`` re-export modules are exempt).

Waivers: a ``# repro-lint: allow=<rule>[,<rule>...]`` comment waives the
named rules on its own line and the line directly below it.

Run as ``python -m repro lint [paths...]`` (defaults to ``src/repro``);
findings print as ``path:line:col: rule message`` and the exit status is
non-zero when any finding survives.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: Packages whose behaviour is simulated and must stay deterministic.
DETERMINISTIC_PKGS = ("sim", "hw", "core", "rcce", "ircce", "lwnb",
                      "rckmpi")
#: Packages allowed to touch MPB bytes directly (they *are* the API).
TRANSFER_PKGS = ("hw", "rcce", "ircce")

_WALLCLOCK = {
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "clock"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}
_WALLCLOCK_FROMS = {"time", "monotonic", "perf_counter", "process_time"}
_LEGACY_NP_RANDOM = {"random", "rand", "randn", "randint", "choice",
                     "shuffle", "permutation", "seed"}
_MPB_NAMES = {"MPB", "MPBRegion"}
_DIRECT_CALLS = {"write", "read", "read_into"}

_WAIVER_RE = re.compile(r"#\s*repro-lint:\s*allow=([\w,\-]+)")


@dataclass(frozen=True)
class Finding:
    """One lint finding at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _module_key(path: Path) -> str:
    """Posix path from the ``repro`` package root (or the plain name)."""
    parts = path.resolve().parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


def _in_pkgs(key: str, pkgs: Sequence[str]) -> bool:
    return any(key.startswith(f"repro/{p}/") for p in pkgs)


class _ModuleLint:
    """All rules over one parsed module."""

    def __init__(self, path: Path, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.key = _module_key(path)
        self.findings: list[Finding] = []
        self.waivers: dict[int, set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _WAIVER_RE.search(text)
            if match:
                rules = set(match.group(1).split(","))
                for covered in (lineno, lineno + 1):
                    self.waivers.setdefault(covered, set()).update(rules)

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if rule in self.waivers.get(line, ()):
            return
        self.findings.append(Finding(
            str(self.path), line, getattr(node, "col_offset", 0) + 1,
            rule, message))

    # -- rule passes -----------------------------------------------------
    def run(self) -> list[Finding]:
        imports = self._imports()
        deterministic = _in_pkgs(self.key, DETERMINISTIC_PKGS)
        mpb_module = (bool(imports["mpb_names"])
                      and not _in_pkgs(self.key, TRANSFER_PKGS))
        with_items = set()
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    with_items.add(id(expr))
                    if isinstance(expr, ast.IfExp):  # either branch is it
                        with_items.update((id(expr.body), id(expr.orelse)))
        begin_tags: dict[str, ast.Constant] = {}
        end_tags: dict[str, ast.Constant] = {}

        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                if deterministic:
                    self._check_wallclock(node, imports)
                    self._check_random(node)
                if mpb_module:
                    self._check_direct_call(node)
                if deterministic:
                    self._check_unattributed(node)
                self._check_span(node, with_items)
                self._check_salted_hash(node)
            elif isinstance(node, ast.Subscript) and mpb_module:
                self._check_data_poke(node)
            elif isinstance(node, ast.Compare):
                self._check_float_time_eq(node)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                if node.value.endswith(".begin"):
                    begin_tags.setdefault(node.value[:-6], node)
                elif node.value.endswith(".end"):
                    end_tags.setdefault(node.value[:-4], node)

        for prefix, node in begin_tags.items():
            if prefix not in end_tags:
                self.report(node, "trace-begin-end",
                            f'"{prefix}.begin" has no matching '
                            f'"{prefix}.end" literal in this module')
        for prefix, node in end_tags.items():
            if prefix not in begin_tags:
                self.report(node, "trace-begin-end",
                            f'"{prefix}.end" has no matching '
                            f'"{prefix}.begin" literal in this module')

        if self.path.name != "__init__.py":
            self._check_unused_imports()
        return self.findings

    # -- helpers ---------------------------------------------------------
    def _imports(self) -> dict:
        """Names bound by imports, split by what the rules care about."""
        out = {"wallclock_names": set(), "mpb_names": set()}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module in ("time", "datetime"):
                    for alias in node.names:
                        if alias.name in _WALLCLOCK_FROMS | {"datetime",
                                                             "date"}:
                            out["wallclock_names"].add(
                                alias.asname or alias.name)
                if node.module in ("repro.hw.mpb", "repro.hw"):
                    for alias in node.names:
                        if alias.name in _MPB_NAMES:
                            out["mpb_names"].add(alias.asname or alias.name)
        return out

    @staticmethod
    def _dotted(node: ast.AST) -> Optional[tuple[str, str]]:
        """``base.attr`` of an Attribute over a Name, else None."""
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)):
            return node.value.id, node.attr
        return None

    def _check_wallclock(self, node: ast.Call, imports: dict) -> None:
        dotted = self._dotted(node.func)
        if dotted in _WALLCLOCK:
            self.report(node, "wallclock-time",
                        f"wall-clock read {dotted[0]}.{dotted[1]}() in a "
                        "deterministic package (virtual time only; "
                        "wall-clock measurement belongs in repro.bench)")
            return
        if (isinstance(node.func, ast.Name)
                and node.func.id in imports["wallclock_names"]
                and node.func.id in _WALLCLOCK_FROMS):
            self.report(node, "wallclock-time",
                        f"wall-clock read {node.func.id}() in a "
                        "deterministic package")

    def _check_random(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is None:
            # np.random.default_rng() etc: Attribute over Attribute.
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "random"
                    and isinstance(func.value.value, ast.Name)):
                if func.attr == "default_rng" and not node.args:
                    self.report(node, "unseeded-random",
                                "default_rng() without a seed in a "
                                "deterministic package")
                elif func.attr in _LEGACY_NP_RANDOM:
                    self.report(node, "unseeded-random",
                                f"legacy global-state np.random."
                                f"{func.attr}() in a deterministic "
                                "package (use a seeded default_rng)")
            return
        base, attr = dotted
        if base == "random":
            self.report(node, "unseeded-random",
                        f"stdlib random.{attr}() uses process-global "
                        "state; use a seeded numpy Generator")

    def _check_direct_call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _DIRECT_CALLS):
            self.report(node, "mpb-direct-write",
                        f".{node.func.attr}() on an MPB region outside "
                        "the transfer layer; route bytes through "
                        "repro.rcce.transfer (or waive with a rationale)")

    def _check_unattributed(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        # Direct MPB calls outside the transfer layers are already flagged
        # wholesale by mpb-direct-write; attribution only matters where the
        # call is sanctioned.
        mpb_access = (attr in _DIRECT_CALLS
                      and _in_pkgs(self.key, TRANSFER_PKGS))
        if not mpb_access and attr != "force":
            return
        if any(kw.arg == "actor" for kw in node.keywords):
            return
        what = ("flag .force()" if attr == "force"
                else f"MPB .{attr}()")
        self.report(node, "unattributed-access",
                    f"{what} without an actor= keyword; unattributed "
                    "accesses are invisible to the sanitizer's rank "
                    "attribution and the race detector's clocks "
                    "(pass actor=, or waive for genuine setup)")

    def _check_data_poke(self, node: ast.Subscript) -> None:
        if (isinstance(node.value, ast.Attribute)
                and node.value.attr == "data"):
            self.report(node, "mpb-direct-write",
                        "raw MPB .data[...] access outside the transfer "
                        "layer (bytes invisible to the latency model)")

    def _check_span(self, node: ast.Call, with_items: set[int]) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "span"
                and id(node) not in with_items):
            self.report(node, "span-unpaired",
                        "span(...) must be a `with` item so its "
                        "begin/end records always pair up")

    def _check_salted_hash(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self.report(node, "salted-hash",
                        "builtin hash() is salted per process for str/bytes "
                        "(PYTHONHASHSEED); use zlib.crc32 or hashlib for a "
                        "value that leaves the process (or waive an "
                        "in-process key)")

    def _check_float_time_eq(self, node: ast.Compare) -> None:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for operand in [node.left, *node.comparators]:
            name = None
            if isinstance(operand, ast.Call):
                func = operand.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name != "ps_to_us":
                    name = None
            elif isinstance(operand, ast.Name):
                name = operand.id if operand.id.endswith("_us") else None
            elif isinstance(operand, ast.Attribute):
                name = operand.attr if operand.attr.endswith("_us") else None
            if name is not None:
                self.report(node, "float-time-eq",
                            f"float equality on virtual-time value "
                            f"{name!r}; compare integer picoseconds or "
                            "use an explicit tolerance")
                return

    def _check_unused_imports(self) -> None:
        lines = self.source.splitlines()
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name.split(".")[0], a) for a in
                         node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__" or any(
                        a.name == "*" for a in node.names):
                    continue
                names = [(a.asname or a.name, a) for a in node.names]
            else:
                continue
            span_lines = set(range(node.lineno,
                                   (node.end_lineno or node.lineno) + 1))
            for name, _alias in names:
                pattern = re.compile(rf"\b{re.escape(name)}\b")
                used = any(pattern.search(text)
                           for lineno, text in enumerate(lines, start=1)
                           if lineno not in span_lines)
                if not used:
                    self.report(node, "unused-import",
                                f"imported name {name!r} is never used")


def lint_file(path: Path) -> list[Finding]:
    """Lint one python file; syntax errors are findings, not crashes."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(str(path), exc.lineno or 1, (exc.offset or 0) + 1,
                        "syntax-error", exc.msg or "invalid syntax")]
    return _ModuleLint(path, source, tree).run()


def default_root() -> Path:
    """The ``src/repro`` tree this module was loaded from."""
    return Path(__file__).resolve().parents[1]


def lint_paths(paths: Iterable[Path]) -> list[Finding]:
    findings: list[Finding] = []
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                findings.extend(lint_file(file))
        else:
            findings.extend(lint_file(path))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: print findings, return the exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    paths = [Path(a) for a in argv] or [default_root()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"repro-lint: no such path: {p}", file=sys.stderr)
        return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
