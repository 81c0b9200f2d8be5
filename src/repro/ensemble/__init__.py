"""Statistical ensemble verification of the GCMC application (PyCECT).

The CESM-ECT idea, ported to this reproduction: a *seed ensemble* of
accepted GCMC runs (same physics, perturbed RNG seeds) defines a PCA
envelope over a compact vector of thermodynamic observables; a candidate
run — produced under fault injection, a different collective algorithm,
a different stack, or the serial engine — is *accepted* iff its
observables fall inside that envelope, and *rejected* as scientifically
wrong otherwise.  This turns "is this run still correct?" from a brittle
bit-for-bit question into a statistical one: timing perturbations pass,
corrupted physics fails.

Layout:

* :mod:`repro.ensemble.features` — the per-run observable vector,
* :mod:`repro.ensemble.members` — ensemble/candidate run execution
  (serial fast path, fork-pool fan-out, simulated candidates),
* :mod:`repro.ensemble.summary` — the PCA envelope: build, persist
  (schema-versioned JSON under ``benchmarks/results/``), score,
* :mod:`repro.ensemble.engines` — exact GCMC timing by replay of the
  serial run's call log, and the replay-vs-sim acceptance test.

CLI: ``python -m repro ensemble summarize`` / ``python -m repro
ensemble check`` / ``python -m repro ensemble compare-engines``; docs:
``docs/robustness.md``.
"""

from repro.ensemble.features import FEATURE_NAMES, extract_features
from repro.ensemble.members import (
    CandidateSpec,
    ensemble_features,
    member_seeds,
    run_candidate,
)
from repro.ensemble.summary import (
    DEFAULT_MAX_PC_FAIL,
    DEFAULT_THRESHOLD,
    ENSEMBLE_SCHEMA,
    CheckResult,
    EnsembleSummary,
    build_summary,
    default_summary_path,
)

__all__ = [
    "FEATURE_NAMES",
    "extract_features",
    "CandidateSpec",
    "ensemble_features",
    "member_seeds",
    "run_candidate",
    "DEFAULT_MAX_PC_FAIL",
    "DEFAULT_THRESHOLD",
    "ENSEMBLE_SCHEMA",
    "CheckResult",
    "EnsembleSummary",
    "build_summary",
    "default_summary_path",
]
