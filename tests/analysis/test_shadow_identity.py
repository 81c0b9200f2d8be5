"""Golden pins for the monitors' shadow-state rules on mixed intervals.

The seeded-bug fixtures only ever touch uniform intervals (one writer,
one state).  This drives the sanitizer and the race detector through the
hardware hook sites with a seeded stream of overlapping, unaligned,
multi-writer accesses, so every rule is decided on intervals whose bytes
disagree — the case the per-byte rule bodies exist for — and pins every
diagnostic text.  A scalar fast path for uniform intervals must leave
all of it unchanged.
"""

import hashlib
import re

import numpy as np
import pytest

from repro.analysis.races import RaceDetector
from repro.analysis.sanitizer import Sanitizer
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

CORES = 4
LINE = 32
BASE = 192          # first payload byte of an MPB
SPAN = 8 * LINE     # the window the stream plays in


def drive(monitor, seed: int, ops: int = 2500) -> None:
    """Feed ``monitor`` a seeded stream of raw MPB/flag traffic."""
    machine = Machine(SCCConfig(topology="mesh:2x1"))
    monitor.install(machine)
    rng = np.random.default_rng(seed)
    flags = [machine.flag(owner, f"fz.{i}")
             for owner in range(CORES) for i in range(2)]
    for step in range(ops):
        machine.sim._now = 1000 * step
        kind = rng.choice(["write", "read", "read", "set", "clear",
                           "observe", "corrupt", "alloc", "force"],
                          p=[.28, .2, .14, .14, .08, .08, .03, .03, .02])
        owner = int(rng.integers(CORES))
        actor = int(rng.integers(CORES))
        mpb = machine.mpbs[owner]
        start = BASE + int(rng.integers(SPAN // LINE)) * LINE
        nbytes = int(rng.integers(1, 5)) * LINE
        if rng.random() < 0.25:     # unaligned edges: mixed intervals
            start += int(rng.integers(LINE))
            nbytes -= int(rng.integers(LINE))
        nbytes = min(nbytes, BASE + SPAN - start)
        flag = flags[int(rng.integers(len(flags)))]
        if kind == "write":
            who = None if rng.random() < 0.05 else actor
            mpb.write(start, np.zeros(nbytes, dtype=np.uint8), actor=who)
        elif kind == "read":
            mpb.read(start, nbytes, actor=actor)
        elif kind in ("set", "clear"):
            level = kind == "set"
            monitor.on_flag_write(flag, level, actor)
            flag.gate.set() if level else flag.gate.clear()
        elif kind == "observe":
            monitor.on_flag_observed(flag, flag.value, actor)
        elif kind == "corrupt":
            monitor.on_corrupt(mpb, start)
        elif kind == "alloc":
            monitor.on_alloc(mpb, start, nbytes)
        else:
            flag.force(bool(rng.integers(2)),
                       actor if rng.random() < 0.5 else None)


def digest(monitor) -> tuple[int, str]:
    """Finding count and sha256 over every diagnostic text.  The writer a
    ``read-before-publish`` names is masked: on a mixed interval the
    recording commit could name the reader itself (fixed since; pinned in
    ``test_sanitizer.py``)."""
    text = "\n".join(re.sub(r"B written by core \d+ but",
                            "B written by core N but", str(d))
                     for d in monitor.diagnostics)
    return monitor.total_findings, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed,expected", [
    (1, (1325, "72266336bb38a5f0f487628f0f04de5f"
                "52e1503be5a0f53dd9eea601941dac04")),
    (2, (1370, "8a47219476d5a6bf1824c24ba296753"
                "163459cb3e9062d6df38162a96e582b56")),
])
def test_sanitizer_diagnostics_on_mixed_intervals(seed, expected):
    san = Sanitizer(max_diagnostics=100_000)
    drive(san, seed)
    assert digest(san) == expected


@pytest.mark.parametrize("seed,expected", [
    (1, (2525, "1386b630269fc2853e520823d36738cd"
                "c1345d4b11ab30ce804b6148c118d0fa",
         "dab84f86bd5b38e3a9bebe9c91496eea"
         "f4b99290ad8bebac38d973a3e87ede5b")),
    (2, (2398, "19ba85593c173ddcbcd24fec054df09a"
                "6e99c2a351cf46c5d24a631494906ff8",
         "810bcc817f7b0827bd30a50bba5023ee"
         "1724de47bda0ee945ddf7ad7d1dc9f79")),
])
def test_race_candidates_on_mixed_intervals(seed, expected):
    det = RaceDetector(max_diagnostics=100_000)
    drive(det, seed)
    clocks = hashlib.sha256(
        repr([det.clock_of(c).tolist() for c in range(CORES)]).encode())
    assert digest(det) + (clocks.hexdigest(),) == expected
