"""FaultInjector mechanics: determinism, hooks, typed give-ups."""

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FlagFaultError,
    MPBFaultError,
    TransferFaultError,
)
from repro.faults.campaign import run_trial
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine


def test_install_is_exclusive():
    machine = Machine(SCCConfig())
    FaultInjector(FaultPlan()).install(machine)
    with pytest.raises(RuntimeError):
        FaultInjector(FaultPlan()).install(machine)


def test_same_seed_same_run():
    plan = FaultPlan(mesh_jitter_prob=0.2, flag_drop_prob=0.05,
                     flag_stale_prob=0.1, core_stall_prob=0.05, seed=11)
    a = run_trial("allreduce", "lightweight", plan, size=32, cores=4)
    b = run_trial("allreduce", "lightweight", plan, size=32, cores=4)
    assert a.outcome == b.outcome
    assert a.elapsed_us == b.elapsed_us
    assert a.fault_counts == b.fault_counts


def test_different_seed_different_faults():
    base = FaultPlan(mesh_jitter_prob=0.2, flag_stale_prob=0.1,
                     core_stall_prob=0.05)
    runs = {
        seed: run_trial("allreduce", "lightweight", base.with_seed(seed),
                        size=32, cores=4)
        for seed in (1, 2, 3)
    }
    latencies = {t.elapsed_us for t in runs.values()}
    assert len(latencies) > 1  # the seed actually steers the injection


def test_rank_consistent_epoch_classification():
    plan = FaultPlan(mpb_fault_epoch_prob=0.5, seed=4)
    a = FaultInjector(plan)
    b = FaultInjector(plan)
    for epoch in range(32):
        assert a.mpb_epoch_faulty(epoch) == b.mpb_epoch_faulty(epoch)
    # The classification must not depend on unrelated stream draws.
    c = FaultInjector(plan)
    c.rng.random(1000)  # desynchronize the shared stream
    for epoch in range(32):
        assert c.mpb_epoch_faulty(epoch) == a.mpb_epoch_faulty(epoch)


def test_degradation_threshold_counts_past_epochs():
    plan = FaultPlan(mpb_fault_epoch_prob=1.0, mpb_fallback_threshold=2,
                     seed=0)
    inj = FaultInjector(plan)
    assert not inj.mpb_degraded(0)  # no history yet
    assert not inj.mpb_degraded(1)  # one faulty epoch < threshold 2
    assert inj.mpb_degraded(2)
    assert inj.mpb_degraded(10)


def test_certain_flag_drop_raises_typed_error():
    # Every write (and rewrite) lost -> the write-verify loop must give
    # up with a FlagFaultError, not hang.
    plan = FaultPlan(flag_drop_prob=1.0, max_retries=3, seed=0)
    t = run_trial("barrier", "blocking", plan, size=8, cores=4)
    assert t.outcome == "fault"
    assert "flag write lost" in t.detail


def test_certain_corruption_raises_typed_error():
    # Every MPB payload write corrupted -> retransmits can never deliver
    # a clean chunk; the hardened transfer gives up with a typed error.
    plan = FaultPlan(payload_corrupt_prob=1.0, max_retries=3, seed=0)
    t = run_trial("allreduce", "lightweight", plan, size=32, cores=4)
    assert t.outcome == "fault"
    assert t.fault_counts.get("retransmit", 0) > 0


def test_moderate_corruption_recovered_by_retransmit():
    plan = FaultPlan(payload_corrupt_prob=0.3, seed=3)
    t = run_trial("allreduce", "lightweight", plan, size=48, cores=4)
    assert t.outcome == "ok", t.detail
    assert t.fault_counts.get("payload_corrupt", 0) > 0
    assert t.fault_counts.get("retransmit", 0) > 0


def test_corruption_without_checksums_is_silent():
    # The why of the checksum layer: with it disabled, the same fault
    # regime silently corrupts results instead of being caught.
    plan = FaultPlan(payload_corrupt_prob=1.0, checksums=False, seed=3)
    t = run_trial("allreduce", "lightweight", plan, size=48, cores=4)
    assert t.outcome == "wrong"


def test_stalls_and_jitter_slow_but_do_not_break():
    plan = FaultPlan(core_stall_prob=0.3, core_stall_cycles=2000,
                     mesh_jitter_prob=0.5, seed=5)
    clean = run_trial("allreduce", "lightweight", FaultPlan(),
                      size=32, cores=4)
    noisy = run_trial("allreduce", "lightweight", plan, size=32, cores=4)
    assert clean.outcome == noisy.outcome == "ok"
    assert noisy.elapsed_us > clean.elapsed_us
    assert noisy.fault_counts.get("core_stall", 0) > 0


def test_erratum_toggle_fires_at_scheduled_time():
    config = SCCConfig(erratum_enabled=True)
    machine = Machine(config)
    inj = FaultInjector(FaultPlan(erratum_toggle_at_ps=1000)).install(machine)

    def program(env):
        yield from env.core.consume(10_000, "compute")

    machine.run_spmd(program, ranks=[0])
    assert config.erratum_enabled is False
    assert inj.counts.get("erratum_toggle") == 1


def test_corrupt_flips_exactly_one_byte():
    machine = Machine(SCCConfig())
    inj = FaultInjector(FaultPlan(payload_corrupt_prob=1.0)).install(machine)
    region = machine.mpbs[0].alloc(64)
    data = np.zeros(64, dtype=np.uint8)
    region.write(data)
    assert inj.maybe_corrupt(region, 64, actor="test")
    readback = region.read(64)
    assert np.count_nonzero(readback) == 1
    assert readback.max() == 0xFF


def test_typed_errors_carry_context():
    inj = FaultInjector(FaultPlan())
    with pytest.raises(TransferFaultError) as exc_info:
        inj.raise_fault("transfer", "retransmit budget exhausted",
                        actor="core1", peer=2, seq=7)
    err = exc_info.value
    assert err.kind == "transfer"
    assert err.context["peer"] == 2
    assert "seq=7" in str(err)
    with pytest.raises(FlagFaultError):
        inj.raise_fault("flag_write", "lost")
    with pytest.raises(MPBFaultError):
        inj.raise_fault("mpb", "corrupt")


def _stalled_run():
    """Three cores charging through ``Core.consume`` and ``Flag`` writes
    under stalls and jitter; core 0 also runs a helper process that
    contends for its CPU lock."""
    machine = Machine(SCCConfig())
    FaultInjector(FaultPlan(core_stall_prob=0.3, mesh_jitter_prob=0.4,
                            seed=5)).install(machine)
    done = machine.flag(0, "pin.done")

    def helper(env):
        for _ in range(3):
            yield from env.consume(700, "overhead")

    def program(env):
        if env.rank == 0:
            env.sim.process(helper(env))
        for i in range(6):
            yield from env.consume(1000 * (env.rank + 1) * (i % 3), "copy")
            yield from env.compute(50)
        if env.rank == 1:
            yield from done.set_by(env.core)
        else:
            yield from done.wait_set(env.core)
        return env.now

    result = machine.run_spmd(program, ranks=[0, 1, 2])
    return (machine.sim.now, machine.sim.events_processed, result.values,
            [sorted(a.states.items()) for a in result.accounts])


def test_consume_under_stalls_is_pinned():
    """Recorded on the two-body ``Core.consume`` (per-hold ``Timeout``s
    on the fault-aware side): the single charge path must land every
    stall and hold on the same (time, seq) slot."""
    assert _stalled_run() == (
        57424220, 63, [38654320, 19649340, 57424220],
        [[("compute", 562800), ("copy", 6000), ("overhead", 2100),
          ("stall", 37520000), ("wait_flag", 563420)],
         [("compute", 562800), ("copy", 12000), ("overhead", 314540),
          ("stall", 18760000)],
         [("compute", 562800), ("copy", 18000), ("stall", 56280000),
          ("wait_flag", 563420)]])


@pytest.mark.parametrize("contention", [False, True])
def test_core_stall_fires_on_mpb_copies_with_and_without_contention(
        contention):
    """A certain stall lands on ``put_bytes`` whether or not MPB port
    contention is modelled: there is one charge path.  (The port-holding
    ``Core.consume_at_mpb`` it replaced never drew the stall.)"""
    from repro.hw.mpb import MPBRegion
    from repro.rcce.transfer import put_bytes

    machine = Machine(SCCConfig(model_mpb_contention=contention))
    injector = FaultInjector(FaultPlan(
        core_stall_prob=1.0, core_stall_cycles=1000)).install(machine)
    mpb = machine.mpbs[1]
    region = MPBRegion(mpb, mpb.payload_offset, 64)

    def program(env):
        yield from put_bytes(env, region, np.zeros(64, dtype=np.uint8))

    result = machine.run_spmd(program, ranks=[0])
    assert result.accounts[0].get("stall") == 1_876_000
    assert injector.summary() == {"core_stall": 1}
