"""Per-figure experiment definitions: the paper's evaluation as code.

Each ``fig9*`` function regenerates one panel of Fig. 9 (latency vs vector
size for one collective across the library stacks); :func:`fig6` prints
the block-size table; :func:`fig10` runs the GCMC application across the
stacks.  All return structured results *and* render the paper-style
textual report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.driver import run_gcmc
from repro.bench.report import (
    Series,
    format_series_table,
    format_speedup_summary,
    mean_speedup,
)
from repro.bench.runner import default_cores, default_sizes, sweep
from repro.bench.stats import CommStats
from repro.core.blocks import fig6_table
from repro.core.registry import launch
from repro.obs.export import (
    run_metrics,
    write_metrics_csv,
    write_metrics_json,
)

#: Fig. 9 panel definitions: (figure id, collective, stacks shown).
_NON_BALANCED = ("rckmpi", "blocking", "ircce", "lightweight")
_BALANCED = _NON_BALANCED + ("lightweight_balanced",)
_ALLREDUCE = _BALANCED + ("mpb",)

FIG9_PANELS: dict[str, tuple[str, tuple[str, ...]]] = {
    "9a": ("allgather", _NON_BALANCED),
    "9b": ("alltoall", _NON_BALANCED),
    "9c": ("reduce_scatter", _BALANCED),
    "9d": ("bcast", _BALANCED),
    "9e": ("reduce", _BALANCED),
    "9f": ("allreduce", _ALLREDUCE),
}


@dataclass
class Fig9Result:
    """One regenerated Fig. 9 panel."""

    figure: str
    kind: str
    series: list[Series]

    @property
    def baseline(self) -> Series:
        return next(s for s in self.series if s.label == "blocking")

    def optimized(self) -> Series:
        """The most-optimized stack shown in this panel."""
        return self.series[-1]

    def mean_speedup_vs_blocking(self, label: str) -> float:
        other = next(s for s in self.series if s.label == label)
        return mean_speedup(self.baseline, other)

    def render(self) -> str:
        parts = [
            f"=== Fig. {self.figure}: {self.kind} latency vs vector size "
            f"({default_cores()} cores) ===",
            format_series_table(self.series),
            "",
            format_speedup_summary(self.baseline,
                                   [s for s in self.series
                                    if s.label != "blocking"]),
        ]
        return "\n".join(parts)


def fig9(figure: str, sizes: Optional[Sequence[int]] = None,
         cores: Optional[int] = None) -> Fig9Result:
    """Regenerate one Fig. 9 panel ('9a' .. '9f')."""
    try:
        kind, stacks = FIG9_PANELS[figure]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure!r}; known: {sorted(FIG9_PANELS)}"
        ) from None
    sizes = list(sizes) if sizes is not None else default_sizes()
    data = sweep(kind, stacks, sizes, cores)
    series = [Series.from_lists(stack, sizes, data[stack])
              for stack in stacks]
    return Fig9Result(figure, kind, series)


def fig6(p: int = 48) -> str:
    """Render the Fig. 6 block-size table."""
    rows = fig6_table(p)
    lines = [
        f"=== Fig. 6: block sizes and imbalance ratios (p = {p}) ===",
        f"{'n':>6} {'std first':>10} {'std general':>12} {'std ratio':>10}"
        f" {'bal max':>8} {'bal min':>8} {'bal ratio':>10}",
    ]
    for r in rows:
        lines.append(
            f"{r['n']:>6} {r['standard_first']:>10} "
            f"{r['standard_general']:>12} {r['standard_ratio']:>10.1f}"
            f" {r['balanced_max']:>8} {r['balanced_min']:>8}"
            f" {r['balanced_ratio']:>10.2f}")
    return "\n".join(lines)


#: The paper's Fig. 10 bars, as (label, mm:ss) for reference.
FIG10_PAPER_RUNTIMES: dict[str, str] = {
    "rckmpi": "55:27",
    "blocking": "25:36",
    "ircce": "23:09",
    "lightweight": "19:38",
    "lightweight_balanced": "18:24",
    "mpb": "17:58",
}

FIG10_STACKS = ("rckmpi", "blocking", "ircce", "lightweight",
                "lightweight_balanced", "mpb")


@dataclass
class Fig10Result:
    """Regenerated application-performance comparison."""

    runtimes_us: dict[str, float]
    wait_fractions: dict[str, float]
    cycles: int
    final_energy: float
    final_particles: int

    def ratio(self, stack: str) -> float:
        base = self.runtimes_us.get("blocking")
        if base is None:
            base = max(self.runtimes_us.values())
        return self.runtimes_us[stack] / base

    def speedup_blocking_to_mpb(self) -> Optional[float]:
        """blocking/mpb runtime ratio; None when either stack wasn't run."""
        if "blocking" not in self.runtimes_us or "mpb" not in self.runtimes_us:
            return None
        return self.runtimes_us["blocking"] / self.runtimes_us["mpb"]

    def render(self) -> str:
        lines = [
            f"=== Fig. 10: GCMC application runtime "
            f"({self.cycles} MC cycles, {default_cores()} cores) ===",
            f"{'stack':<24}{'simulated':>14}{'vs blocking':>12}"
            f"{'paper':>10}{'wait':>7}",
        ]
        paper_base = _mmss_to_s(FIG10_PAPER_RUNTIMES["blocking"])
        for stack in (s for s in FIG10_STACKS if s in self.runtimes_us):
            us = self.runtimes_us[stack]
            paper_ratio = _mmss_to_s(FIG10_PAPER_RUNTIMES[stack]) / paper_base
            lines.append(
                f"{stack:<24}{us / 1000:>12.1f}ms{self.ratio(stack):>12.3f}"
                f"{paper_ratio:>10.3f}{self.wait_fractions[stack]:>7.2f}")
        speedup = self.speedup_blocking_to_mpb()
        if speedup is not None:
            lines.append(f"speedup blocking -> mpb: {speedup:.2f}x"
                         " (paper: >1.40x)")
        return "\n".join(lines)


def default_app_cycles() -> int:
    return int(os.environ.get("REPRO_APP_CYCLES", "6"))


def fig10(cycles: Optional[int] = None,
          stacks: Sequence[str] = FIG10_STACKS,
          app_config: Optional[GCMCConfig] = None,
          profile_dir: Optional[str] = None) -> Fig10Result:
    """Run the GCMC application on every stack; identical physics, only
    the simulated runtimes differ.

    With ``profile_dir`` set, each stack's run also emits a
    machine-readable profile (``fig10_<stack>.metrics.{json,csv}``): the
    per-core busy/wait breakdown, per-mesh-link traffic, and MPB I/O
    counters described in ``docs/observability.md``.
    """
    cycles = cycles if cycles is not None else default_app_cycles()
    cfg = app_config if app_config is not None else GCMCConfig()
    runtimes: dict[str, float] = {}
    waits: dict[str, float] = {}
    energy = None
    particles = None
    for stack in stacks:
        # The traffic counters give the profile its per-link attribution.
        machine, comm = launch(
            stack, observers=[CommStats()] if profile_dir is not None else ())
        result = run_gcmc(machine, comm, cfg, cycles)
        if profile_dir is not None:
            os.makedirs(profile_dir, exist_ok=True)
            metrics = run_metrics(machine, result, meta={
                "figure": "10", "app": "gcmc",
                "stack": stack, "cycles": cycles,
            })
            base = os.path.join(profile_dir, f"fig10_{stack}")
            write_metrics_json(base + ".metrics.json", metrics)
            write_metrics_csv(base + ".metrics.csv", metrics)
        runtimes[stack] = result.elapsed_us
        waits[stack] = result.wait_fraction()
        if energy is None:
            energy = result.final_energy
            particles = result.final_particles
        elif abs(energy - result.final_energy) > 1e-6:
            raise RuntimeError(
                f"stack {stack} changed the physics: {result.final_energy} "
                f"!= {energy}")
    return Fig10Result(runtimes, waits, cycles, energy, particles)


def _mmss_to_s(text: str) -> float:
    mm, ss = text.split(":")
    return int(mm) * 60 + float(ss)
