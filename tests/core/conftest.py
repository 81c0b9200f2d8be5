"""Shared fixtures for collective tests."""

import numpy as np
import pytest

from repro.core.registry import STACKS, make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine


def small_machine(tiles_x=4, tiles_y=1):
    """A small SCC variant (default 8 cores) for cheap collective tests."""
    return Machine(SCCConfig(topology=f"mesh:{tiles_x}x{tiles_y}"))


def make_inputs(p, n, seed=7, dtype=np.float64):
    """Deterministic per-rank input vectors."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n).astype(dtype) for _ in range(p)]


def run_collective(stack, program_factory, *, tiles_x=4, tiles_y=1):
    """Build machine+comm for ``stack`` and run the SPMD program."""
    machine = small_machine(tiles_x, tiles_y)
    comm = make_communicator(machine, stack)
    program = program_factory(comm)
    return machine.run_spmd(program)


@pytest.fixture(params=list(STACKS))
def stack(request):
    return request.param


@pytest.fixture(params=[s for s in STACKS if s != "mpb"])
def non_mpb_stack(request):
    return request.param
