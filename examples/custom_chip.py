#!/usr/bin/env python
"""Explore what-if chips: custom mesh sizes, clock presets, a fixed erratum.

The hardware model is fully parameterized, so the library doubles as a
design-space exploration tool: this example sweeps three hypothetical
SCC variants and reports how the optimized Allreduce responds.

Run:  python examples/custom_chip.py [--smoke]
"""

import argparse

import numpy as np

from repro.core import launch
from repro.hw import SCCConfig, config_for_preset


def allreduce_latency(config: SCCConfig, stack: str = "mpb",
                      n: int = 552) -> float:
    machine, comm = launch(stack, config=config)
    rng = np.random.default_rng(7)
    inputs = [rng.normal(size=n) for _ in range(machine.num_cores)]

    def program(env):
        yield from comm.allreduce(env, inputs[env.rank])

    return machine.run_spmd(program).elapsed_us


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small vectors, skip the 96-core what-if")
    args = parser.parse_args()
    n = 96 if args.smoke else 552

    chips = {
        "SCC (standard preset)": SCCConfig(),
        "SCC, erratum fixed": SCCConfig(erratum_enabled=False),
        "SCC @ 800 MHz cores": config_for_preset("800_800_800"),
        "half-SCC (3x4 tiles, 24 cores)": SCCConfig(topology="mesh:3x4"),
    }
    if not args.smoke:
        chips["double-SCC (12x4 tiles, 96 cores)"] = SCCConfig(
            topology="mesh:12x4")
    print(f"{'chip':<36}{'cores':>6}{'diameter':>9}"
          f"{f'allreduce({n})':>16}")
    for name, cfg in chips.items():
        latency = allreduce_latency(cfg, n=n)
        print(f"{name:<36}{cfg.num_cores:>6}"
              f"{cfg.resolved_topology().max_hops():>7} h"
              f"{latency:>13.1f} us")
    print()
    print("Notes: more cores = more ring rounds (latency grows ~linearly);")
    print("fixing the arbiter erratum speeds up every local MPB access;")
    print("faster cores shrink the software-overhead share the paper's")
    print("lightweight primitives target.")


if __name__ == "__main__":
    main()
