"""The PCA envelope: build it from an ensemble, persist it, score against it.

The method is CESM-ECT's (PyCECT), scaled to this reproduction: given a
feature matrix of ``n`` accepted member runs,

1. standardize each feature by the ensemble mean and (sample) standard
   deviation — features whose ensemble spread is numerically zero are
   *degenerate* and are split off for exact-tolerance checking instead
   (a constant observable carries no statistical envelope, but a
   candidate that moves it is wrong with certainty);
2. take the SVD of the standardized matrix; the right singular vectors
   are the principal components, kept up to a cumulative explained
   variance of :data:`DEFAULT_KEEP_VARIANCE` (trailing PCs are sampling
   noise at these ensemble sizes and would make the gate brittle);
3. a candidate's features are standardized with the *stored* mean/std,
   projected onto the stored components, and each PC score is divided by
   the ensemble's std along that PC — a per-PC z-score.  The candidate
   **fails** when more than ``max_pc_fail`` PCs exceed the z threshold
   (degenerate-feature violations count as failing PCs).

The summary is a committed, schema-versioned JSON artifact under
``benchmarks/results/`` — like the tuned stack's selection table, it is
regenerated by a CLI command (``python -m repro ensemble summarize``)
and refused with a clear error when the schema version moves on.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.driver import GCMCResult
from repro.ensemble.features import (
    DEFAULT_BLOCK_SIZE,
    FEATURE_NAMES,
    extract_features,
)
from repro.ensemble.members import ensemble_features, member_seeds
from repro.util.tables import format_table

#: Bumped when the stored summary's meaning changes (feature set,
#: standardization, scoring rule).  A mismatching file must be
#: regenerated, never reinterpreted.
ENSEMBLE_SCHEMA = 1

#: Per-PC z-score threshold a candidate must stay inside.
DEFAULT_THRESHOLD = 3.0

#: How many PCs may exceed the threshold before the run fails.
DEFAULT_MAX_PC_FAIL = 1

#: Cumulative explained-variance fraction retained by the PC basis.
DEFAULT_KEEP_VARIANCE = 0.995


#: The committed reference ensemble (``benchmarks/results/
#: ensemble_summary.json``): a small, fast GCMC system — dense enough
#: for nontrivial move statistics, small enough that one member runs in
#: ~100 ms serially and one simulated candidate in ~1 s.
REFERENCE_MEMBERS = 32
REFERENCE_CYCLES = 32
REFERENCE_CORES = 8


def reference_config() -> GCMCConfig:
    """GCMC configuration of the committed reference ensemble."""
    return GCMCConfig(initial_particles=48, capacity=96, box=6.0)


def default_summary_path() -> pathlib.Path:
    """``benchmarks/results/ensemble_summary.json`` in the repo tree."""
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    return repo_root / "benchmarks" / "results" / "ensemble_summary.json"


def _degenerate_tol(mean: np.ndarray) -> np.ndarray:
    """Absolute tolerance below which an ensemble spread — or a candidate
    deviation on a degenerate feature — counts as zero."""
    return 1e-12 + 1e-9 * np.abs(mean)


@dataclass
class CheckResult:
    """One candidate scored against the envelope."""

    passed: bool
    z_scores: np.ndarray                 #: per kept PC
    failed_pcs: list[int]                #: PC indices with ``|z| > thr``
    degenerate_failures: list[str]       #: violated constant features
    threshold: float
    max_pc_fail: int
    features: np.ndarray                 #: the candidate's raw vector
    pc_dominant: list[str] = field(default_factory=list)
    label: str = "candidate"

    @property
    def n_failed(self) -> int:
        return len(self.failed_pcs) + len(self.degenerate_failures)

    def table(self) -> str:
        """Per-PC diagnostic table (the ``ensemble check`` output)."""
        headers = ["PC", "dominant feature", "z-score", "status"]
        rows: list[list[Any]] = []
        for i, z in enumerate(self.z_scores):
            status = "FAIL" if i in self.failed_pcs else "ok"
            rows.append([i, self.pc_dominant[i], f"{z:+.2f}", status])
        for name in self.degenerate_failures:
            rows.append(["-", f"{name} (constant)", "inf", "FAIL"])
        verdict = "PASS" if self.passed else "FAIL"
        title = (f"{self.label}: {verdict} "
                 f"({self.n_failed} of {len(self.z_scores)} PCs outside "
                 f"|z| <= {self.threshold:g}, allowed {self.max_pc_fail})")
        return title + "\n" + format_table(headers, rows)


@dataclass
class EnsembleSummary:
    """The stored envelope: standardization + PC basis + metadata."""

    mean: np.ndarray                 #: (d,) feature means
    std: np.ndarray                  #: (d,) feature sample stds
    components: np.ndarray           #: (k, d_active) PC rows
    pc_std: np.ndarray               #: (k,) ensemble std along each PC
    degenerate: tuple[int, ...]      #: indices of constant features
    feature_names: tuple[str, ...] = FEATURE_NAMES
    keep_variance: float = DEFAULT_KEEP_VARIANCE
    meta: dict[str, Any] = field(default_factory=dict)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_features(cls, features: np.ndarray, *,
                      keep_variance: float = DEFAULT_KEEP_VARIANCE,
                      meta: Optional[dict[str, Any]] = None
                      ) -> "EnsembleSummary":
        """PCA over one ensemble's feature matrix ``(n, d)``."""
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 2:
            raise ValueError(f"need a (members, features) matrix with at "
                             f"least 2 members, got shape {X.shape}")
        if X.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, "
                             f"got {X.shape[1]}")
        n = X.shape[0]
        mean = X.mean(axis=0)
        std = X.std(axis=0, ddof=1)
        degenerate = np.flatnonzero(std <= _degenerate_tol(mean))
        active = np.setdiff1d(np.arange(X.shape[1]), degenerate)
        if active.size == 0:
            raise ValueError("every feature is constant across the "
                             "ensemble — no envelope to build (are all "
                             "member seeds identical?)")
        Z = (X[:, active] - mean[active]) / std[active]
        _, s, vt = np.linalg.svd(Z, full_matrices=False)
        var = s ** 2 / (n - 1)
        total = var.sum()
        cum = np.cumsum(var) / total
        k = int(np.searchsorted(cum, keep_variance) + 1)
        # Never keep numerically-dead directions, whatever the target.
        k = min(k, int(np.sum(var > var[0] * 1e-12)))
        components = vt[:k].copy()
        # Sign convention: dominant loading positive, so regenerating the
        # summary from the same ensemble is bit-reproducible.
        for row in components:
            if row[np.argmax(np.abs(row))] < 0:
                row *= -1.0
        return cls(mean=mean, std=std, components=components,
                   pc_std=np.sqrt(var[:k]),
                   degenerate=tuple(int(i) for i in degenerate),
                   keep_variance=keep_variance,
                   meta=dict(meta or {}))

    # -- introspection ---------------------------------------------------
    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def active(self) -> np.ndarray:
        """Indices of the non-degenerate (PCA-carried) features."""
        return np.setdiff1d(np.arange(len(self.feature_names)),
                            np.array(self.degenerate, dtype=int))

    def dominant_features(self) -> list[str]:
        """Per PC: the feature with the largest absolute loading."""
        active = self.active
        return [self.feature_names[active[int(np.argmax(np.abs(row)))]]
                for row in self.components]

    def config(self) -> GCMCConfig:
        """The GCMC configuration the ensemble was built with."""
        return GCMCConfig(**self.meta["config"])

    @property
    def cycles(self) -> int:
        """GCMC cycles of every member run, and of a scored candidate."""
        return int(self.meta["cycles"])

    @property
    def cores(self) -> int:
        """Ranks every member run decomposed over."""
        return int(self.meta["cores"])

    # -- scoring ---------------------------------------------------------
    def check(self, features: np.ndarray, *,
              threshold: float = DEFAULT_THRESHOLD,
              max_pc_fail: int = DEFAULT_MAX_PC_FAIL,
              label: str = "candidate") -> CheckResult:
        """Score one candidate's feature vector against the envelope."""
        x = np.asarray(features, dtype=np.float64)
        if x.shape != (len(self.feature_names),):
            raise ValueError(f"candidate has shape {x.shape}; the summary "
                             f"expects ({len(self.feature_names)},) — was "
                             f"it extracted with the same feature set?")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if max_pc_fail < 0:
            raise ValueError(f"max_pc_fail must be >= 0, got {max_pc_fail}")
        active = self.active
        z_feat = (x[active] - self.mean[active]) / self.std[active]
        scores = self.components @ z_feat
        z = scores / self.pc_std
        failed = [int(i) for i in np.flatnonzero(np.abs(z) > threshold)]
        tol = _degenerate_tol(self.mean)
        deg_failed = [self.feature_names[i] for i in self.degenerate
                      if abs(x[i] - self.mean[i]) > tol[i]]
        n_failed = len(failed) + len(deg_failed)
        return CheckResult(
            passed=n_failed <= max_pc_fail, z_scores=z,
            failed_pcs=failed, degenerate_failures=deg_failed,
            threshold=threshold, max_pc_fail=max_pc_fail, features=x,
            pc_dominant=self.dominant_features(), label=label)

    def score(self, result: GCMCResult, *,
              threshold: float = DEFAULT_THRESHOLD,
              max_pc_fail: int = DEFAULT_MAX_PC_FAIL,
              label: str = "candidate") -> CheckResult:
        """:meth:`check` a finished GCMC run, its features extracted
        with the ensemble's own block size."""
        features = extract_features(result, int(self.meta["block_size"]))
        return self.check(features, threshold=threshold,
                          max_pc_fail=max_pc_fail, label=label)

    # -- persistence -----------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "schema": ENSEMBLE_SCHEMA,
            "feature_names": list(self.feature_names),
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "components": self.components.tolist(),
            "pc_std": self.pc_std.tolist(),
            "degenerate": list(self.degenerate),
            "keep_variance": self.keep_variance,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any],
                  source: str = "<memory>") -> "EnsembleSummary":
        schema = payload.get("schema")
        if schema != ENSEMBLE_SCHEMA:
            raise ValueError(
                f"{source} has ensemble schema {schema!r}, this code "
                f"expects {ENSEMBLE_SCHEMA} — regenerate it with "
                f"'python -m repro ensemble summarize'")
        names = tuple(payload["feature_names"])
        if names != FEATURE_NAMES:
            raise ValueError(
                f"{source} was built over a different feature set "
                f"{names} — regenerate it with "
                f"'python -m repro ensemble summarize'")
        return cls(
            mean=np.array(payload["mean"], dtype=np.float64),
            std=np.array(payload["std"], dtype=np.float64),
            components=np.array(payload["components"], dtype=np.float64),
            pc_std=np.array(payload["pc_std"], dtype=np.float64),
            degenerate=tuple(int(i) for i in payload["degenerate"]),
            feature_names=names,
            keep_variance=float(payload["keep_variance"]),
            meta=dict(payload["meta"]))

    def save(self, path: Optional[pathlib.Path] = None) -> pathlib.Path:
        path = pathlib.Path(path) if path is not None \
            else default_summary_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Optional[pathlib.Path] = None) -> "EnsembleSummary":
        path = pathlib.Path(path) if path is not None \
            else default_summary_path()
        if not path.exists():
            raise FileNotFoundError(
                f"no ensemble summary at {path} — generate one with "
                f"'python -m repro ensemble summarize'")
        return cls.from_json(json.loads(path.read_text()), source=str(path))

    def describe(self) -> str:
        """Human-readable sketch (the ``summarize`` stdout)."""
        meta = self.meta
        lines = [
            f"ensemble summary: {meta.get('members', '?')} members, "
            f"{meta.get('cycles', '?')} cycles, "
            f"{meta.get('cores', '?')} ranks, base seed "
            f"{meta.get('base_seed', '?')}",
            f"  {self.n_components} principal components keep "
            f">= {self.keep_variance:.1%} of the ensemble variance",
        ]
        if self.degenerate:
            names = [self.feature_names[i] for i in self.degenerate]
            lines.append(f"  constant features (exact-checked): {names}")
        headers = ["PC", "dominant feature", "ensemble std"]
        rows = [[i, name, f"{s:.4g}"]
                for i, (name, s) in enumerate(
                    zip(self.dominant_features(), self.pc_std))]
        lines.append(format_table(headers, rows))
        return "\n".join(lines)


def build_summary(cfg: GCMCConfig, cycles: int, cores: int, *,
                  members: int, block_size: int = DEFAULT_BLOCK_SIZE,
                  keep_variance: float = DEFAULT_KEEP_VARIANCE,
                  jobs: Optional[int] = None,
                  seeds: Optional[Sequence[int]] = None) -> EnsembleSummary:
    """Run the seed ensemble (fork-pool fan-out) and build its envelope.

    ``cfg.seed`` is the *base* seed: members run seeds ``base+1 ..
    base+members`` (see :func:`repro.ensemble.members.member_seeds`), so
    the base itself stays held out for validation.
    """
    seeds = (list(seeds) if seeds is not None
             else member_seeds(cfg.seed, members))
    features = ensemble_features(cfg, cycles, cores, seeds,
                                 block_size=block_size, jobs=jobs)
    meta = {
        "config": dataclasses.asdict(cfg),
        "cycles": int(cycles),
        "cores": int(cores),
        "members": len(seeds),
        "base_seed": int(cfg.seed),
        "seeds": [int(s) for s in seeds],
        "block_size": int(block_size),
    }
    return EnsembleSummary.from_features(features,
                                         keep_variance=keep_variance,
                                         meta=meta)
