"""CI gates: clean protocol stacks sanitize clean; known-bad ones don't.

Two directions, both required for the sanitizer to mean anything:

* **Clean gate** — every collective kind at 2/47/48 cores (and every
  stack for Allreduce) runs under the sanitizer with zero diagnostics.
  A finding here is a protocol bug in the shipped stacks.
* **Detector gate** — every known-bad fixture schedule from
  :mod:`repro.analysis.fixtures` triggers its documented rule.  Silence
  here means the sanitizer lost a detector.

Plus the regression pinning the cross-call MPB-Allreduce handshake bug
this subsystem found (see docs/static-analysis.md): re-forcing the
``ready`` flags on every entry loses a notification and — under core
stalls — deadlocks the ring.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.fixtures import FIXTURES, run_fixture
from repro.analysis.sanitizer import Sanitizer
from repro.bench.runner import KINDS, program_for
from repro.core.ops import SUM
from repro.core.registry import STACKS, make_communicator
from repro.faults import FaultInjector, FaultPlan
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sim.errors import DeadlockError

pytestmark = pytest.mark.sanitize

GATE_CORES = (2, 47, 48)


def _run_sanitized(kind, stack, size, cores, calls=1, plan=None):
    machine = Machine(SCCConfig())
    if plan is not None:
        FaultInjector(plan).install(machine)
    san = Sanitizer().install(machine)
    comm = make_communicator(machine, stack)
    rng = np.random.default_rng(20120901)
    inputs = [rng.normal(size=size) for _ in range(cores)]
    program = program_for(kind, comm, inputs, SUM)
    result = machine.run_spmd(program, ranks=list(range(cores)))
    return san, result


class TestCleanGate:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cores", GATE_CORES)
    def test_every_kind_sanitizes_clean(self, kind, cores):
        san, _ = _run_sanitized(kind, "lightweight", 96, cores)
        san.assert_clean()

    @pytest.mark.parametrize("stack", STACKS)
    def test_every_stack_sanitizes_clean_at_full_chip(self, stack):
        san, _ = _run_sanitized("allreduce", stack, 96, 48)
        san.assert_clean()

    @pytest.mark.parametrize("stack", ["blocking", "ircce", "mpb"])
    def test_short_protocol_paths_sanitize_clean(self, stack):
        # size 8 stays under the long-message threshold: the one-line
        # eager paths and their flag handshakes.
        san, _ = _run_sanitized("allreduce", stack, 8, 47)
        san.assert_clean()

    def test_repeated_collectives_share_state_cleanly(self):
        # Back-to-back calls on one machine: cross-call flag and MPB
        # slot reuse must also satisfy the discipline.
        machine = Machine(SCCConfig())
        san = Sanitizer().install(machine)
        comm = make_communicator(machine, "mpb")
        rng = np.random.default_rng(20120901)
        inputs = [rng.normal(size=96) for _ in range(8)]

        def program(env):
            out = None
            for _ in range(3):
                out = yield from comm.allreduce(env, inputs[env.rank], SUM)
            return out

        result = machine.run_spmd(program, ranks=list(range(8)))
        san.assert_clean()
        for value in result.values:
            np.testing.assert_allclose(value, sum(inputs))


class TestDetectorGate:
    @pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f.name)
    def test_known_bad_schedule_is_flagged(self, fixture):
        san = run_fixture(fixture)
        counts = san.counts()
        for rule in fixture.rules:
            assert rule in counts, (
                f"fixture {fixture.name!r} should trigger {rule!r}; "
                f"got {counts}")

    def test_fixture_diagnostics_carry_context(self):
        san = run_fixture(FIXTURES[0])               # read-before-publish
        diag = san.diagnostics[0]
        assert diag.actor == 0
        assert diag.owner == 1
        assert diag.time_ps > 0

    def test_fixture_diagnostic_texts_are_pinned(self):
        """Every word of every diagnostic the seeded bugs produce, as
        recorded on the masked-numpy rule bodies."""
        texts = [str(d) for fx in FIXTURES
                 for d in run_fixture(fx).diagnostics]
        assert len(texts) == 8
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "dbbf2462372f5a89201607e726731cbf685514409f1bf3873e629bcba85c42de")


class TestCrossCallRegression:
    """The bug the sanitizer found in the seed MPB-direct Allreduce.

    The seed forced ``mpbar.ready.* = True`` on *every* call entry.  The
    handshake is self-restoring, so on re-entry the force is usually a
    no-op — but a producer can finish a call and re-enter while its
    consumer still owes the final ``ready`` hand-back of the previous
    call; the force then masks the pending hand-back and the two calls'
    handshakes interleave.  Fault-free this surfaces as a lost ``ready``
    notification; with core stalls the ring deadlocks.  The fix
    initializes each (core, half) once and trusts the handshake after.
    """

    STALL_PLAN = dict(core_stall_prob=0.05, core_stall_cycles=50_000,
                      seed=7)

    @staticmethod
    def _machine(emulate_seed_behaviour, plan):
        machine = Machine(SCCConfig())
        if plan is not None:
            FaultInjector(plan).install(machine)
        san = Sanitizer().install(machine)
        comm = make_communicator(machine, "mpb")
        rng = np.random.default_rng(20120901)
        inputs = [rng.normal(size=96) for _ in range(8)]

        def program(env):
            out = None
            for _ in range(2):
                if emulate_seed_behaviour:
                    for half in (0, 1):
                        env.machine.flag(
                            env.core_id, f"mpbar.ready.{half}").force(True)
                out = yield from comm.allreduce(env, inputs[env.rank], SUM)
            return out

        return machine, san, program, inputs

    def test_seed_behaviour_flagged_fault_free(self):
        machine, san, program, _ = self._machine(True, None)
        machine.run_spmd(program, ranks=list(range(8)))
        assert "flag-double-set" in san.counts()

    def test_seed_behaviour_deadlocks_under_stalls(self):
        machine, san, program, _ = self._machine(
            True, FaultPlan(**self.STALL_PLAN))
        with pytest.raises(DeadlockError):
            machine.run_spmd(program, ranks=list(range(8)))
        assert "write-while-reader-pending" in san.counts()

    def test_fixed_handshake_survives_stalls_clean(self):
        machine, san, program, inputs = self._machine(
            False, FaultPlan(**self.STALL_PLAN))
        result = machine.run_spmd(program, ranks=list(range(8)))
        san.assert_clean()
        for value in result.values:
            np.testing.assert_allclose(value, sum(inputs))
