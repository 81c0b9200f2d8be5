#!/usr/bin/env python
"""Standalone ensemble-verification entry point (CI smoke gate).

Thin wrapper over ``python -m repro ensemble`` that puts ``src/`` on the
path itself, plus a ``--smoke`` mode for CI: validate the committed
``benchmarks/results/ensemble_summary.json`` (schema version, feature
set, finite numbers), score the held-out base seed through the fast
serial engine (must PASS), and score a deterministically corrupted
serial trajectory (must FAIL).  Everything is seconds-scale and
seed-pinned — no flaky statistics in CI.

Run:  python tools/run_ensemble.py --smoke
      python tools/run_ensemble.py summarize --jobs 0
      python tools/run_ensemble.py check --force-corruption --fault-seed 6

Exit status: 0 when the smoke checks (or the forwarded subcommand)
pass, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def smoke() -> int:
    import numpy as np

    from repro.apps.gcmc.serial import run_gcmc_serial
    from repro.ensemble.summary import EnsembleSummary

    summary = EnsembleSummary.load()  # raises on schema/feature mismatch
    for name, arr in (("mean", summary.mean), ("std", summary.std),
                      ("components", summary.components),
                      ("pc_std", summary.pc_std)):
        if not np.all(np.isfinite(arr)):
            print(f"FAIL committed summary has non-finite {name}",
                  file=sys.stderr)
            return 1
    print(f"summary ok: {summary.meta['members']} members, "
          f"{summary.n_components} PCs")

    cfg = summary.config()
    cycles, cores = summary.cycles, summary.cores

    held_out = run_gcmc_serial(cfg, cycles, nranks=cores)
    check = summary.score(held_out, label="held-out base seed (serial)")
    print(check.table().splitlines()[0])
    if not check.passed:
        print("FAIL the held-out base seed must pass its own envelope",
              file=sys.stderr)
        return 1

    # Wrong physics: truncating the real-space cutoff changes the energy
    # functional itself — the envelope must reject the trajectory.
    wrecked = run_gcmc_serial(cfg.copy(cutoff=cfg.cutoff / 1.5), cycles,
                              nranks=cores)
    check = summary.score(wrecked, label="wrong-physics run (serial)")
    print(check.table().splitlines()[0])
    if check.passed:
        print("FAIL the envelope accepted a wrong-physics run",
              file=sys.stderr)
        return 1
    print("ensemble smoke: all checks passed")
    return 0


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args[:1] == ["--smoke"]:
        return smoke()
    from repro.cli import main as cli_main

    return cli_main(["ensemble", *args])


if __name__ == "__main__":
    sys.exit(main())
