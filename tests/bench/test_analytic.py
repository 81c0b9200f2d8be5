"""The analytic engine: accuracy contract, fallbacks, and sweep wiring.

The accuracy contract is the load-bearing test: for every collective
kind the builder repertoire can express, at p in {2, 47, 48} on both a
blocking and a non-blocking stack, the closed-form estimate must stay
within :data:`repro.bench.analytic.DEFAULT_DRIFT_TOL` relative error of
the simulated latency.  The bound was calibrated from exactly this grid
(worst measured point +34%, blocking reduce_scatter at short vectors);
if a cost-model change pushes any family past it, auto-mode sweeps
would start raising :class:`EngineDriftError` in users' hands — this
test catches that first.
"""

import pytest

from repro.bench import analytic
from repro.bench.analytic import (
    DEFAULT_DRIFT_TOL,
    EngineDriftError,
    analytic_latency_us,
    validation_sample,
)
from repro.bench.executor import ResultCache, SweepPoint, run_sweep
from repro.bench.runner import KINDS, measure_collective

SCHEDULED_KINDS = tuple(k for k in KINDS if k != "barrier")


# --------------------------------------------------------------------- #
# Accuracy: every kind, boundary rank counts, both pricing regimes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("cores", [2, 47, 48])
@pytest.mark.parametrize("kind", SCHEDULED_KINDS)
@pytest.mark.parametrize("stack", ["blocking", "lightweight_balanced"])
def test_estimate_within_tolerance(kind, stack, cores):
    point = SweepPoint(kind=kind, stack=stack, size=32, cores=cores)
    estimate = analytic_latency_us(point)
    assert estimate is not None, f"{kind} unexpectedly unpriceable"
    simulated = measure_collective(kind, stack, 32, cores=cores)
    drift = abs(estimate - simulated) / simulated
    assert drift <= DEFAULT_DRIFT_TOL, (
        f"{kind}/{stack} p={cores}: analytic {estimate:.2f}us vs "
        f"sim {simulated:.2f}us ({drift:.1%} > {DEFAULT_DRIFT_TOL:.0%})")


def test_estimate_within_tolerance_long_vectors():
    # The paper's application size on the flagship stack.
    point = SweepPoint(kind="allreduce", stack="lightweight_balanced",
                       size=552, cores=48)
    estimate = analytic_latency_us(point)
    simulated = measure_collective("allreduce", "lightweight_balanced",
                                   552, cores=48)
    assert abs(estimate - simulated) / simulated <= DEFAULT_DRIFT_TOL


# --------------------------------------------------------------------- #
# Fallbacks
# --------------------------------------------------------------------- #
def test_barrier_is_unpriceable():
    point = SweepPoint(kind="barrier", stack="blocking", size=1, cores=48)
    assert analytic_latency_us(point) is None


def test_rckmpi_is_unpriceable():
    point = SweepPoint(kind="allreduce", stack="rckmpi", size=32, cores=48)
    assert analytic_latency_us(point) is None


def test_single_rank_is_unpriceable():
    point = SweepPoint(kind="allreduce", stack="blocking", size=32, cores=1)
    assert analytic_latency_us(point) is None


def test_non_identity_rank_order_is_unpriceable():
    point = SweepPoint(kind="allreduce", stack="blocking", size=32,
                       cores=4, rank_order=(3, 2, 1, 0))
    assert analytic_latency_us(point) is None


def test_mpb_long_vector_default_is_unpriceable():
    # The mpb stack's long-vector default is the MPB-direct allreduce,
    # which has no builder port.
    point = SweepPoint(kind="allreduce", stack="mpb", size=552, cores=48)
    assert analytic_latency_us(point) is None


def test_unknown_schedule_name_is_unpriceable():
    # ring is not an allreduce builder; the simulator owns the error.
    point = SweepPoint(kind="allreduce", stack="lightweight_balanced",
                       size=552, cores=48, algo="sched:ring")
    assert analytic_latency_us(point) is None


def test_explicit_algorithm_is_priced():
    point = SweepPoint(kind="allreduce", stack="lightweight_balanced",
                       size=32, cores=48, algo="sched:recursive_doubling")
    estimate = analytic_latency_us(point)
    simulated = measure_collective(
        "allreduce", "lightweight_balanced", 32, cores=48,
        algo="sched:recursive_doubling")
    assert estimate is not None
    assert abs(estimate - simulated) / simulated <= DEFAULT_DRIFT_TOL


# --------------------------------------------------------------------- #
# Engine wiring through run_sweep
# --------------------------------------------------------------------- #
def _points():
    return [SweepPoint(kind="allreduce", stack="lightweight_balanced",
                       size=n, cores=2) for n in (8, 16, 32)]


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        run_sweep(_points(), cache=False, engine="quantum")


def test_sim_engine_reports_no_analytic_points():
    outcome = run_sweep(_points(), cache=False, engine="sim")
    assert outcome.analytic == 0
    assert outcome.validated == 0
    assert outcome.replayed == 3 and outcome.simulated == 0
    assert outcome.hits == outcome.misses == 0  # no cache was consulted


def test_analytic_engine_prices_without_simulating():
    outcome = run_sweep(_points(), cache=False, engine="analytic")
    assert outcome.analytic == 3
    assert outcome.validated == 0
    assert outcome.simulated == outcome.replayed == 0  # nothing run at all
    expected = [analytic_latency_us(p) for p in _points()]
    assert outcome.latencies == expected


def test_analytic_engine_simulates_fallback_points():
    points = _points() + [SweepPoint(kind="barrier", stack="blocking",
                                     size=1, cores=2)]
    outcome = run_sweep(points, cache=False, engine="analytic")
    assert outcome.analytic == 3
    # The barrier has no estimate: its exact value is replayed.
    assert outcome.replayed == 1 and outcome.simulated == 0
    assert outcome.latencies[3] == measure_collective(
        "barrier", "blocking", 1, cores=2)


def test_auto_engine_validates_and_reports_drift(monkeypatch):
    monkeypatch.setattr(analytic, "DEFAULT_VALIDATE", 2)
    outcome = run_sweep(_points(), cache=False, engine="auto")
    assert outcome.analytic == 3
    assert outcome.validated == 2
    assert 0.0 < abs(outcome.max_drift) <= DEFAULT_DRIFT_TOL
    # Auto reports the analytic values for priced points.
    assert outcome.latencies == [analytic_latency_us(p) for p in _points()]


def test_auto_engine_raises_on_drift(monkeypatch):
    monkeypatch.setattr(analytic, "DEFAULT_DRIFT_TOL", 1e-9)
    with pytest.raises(EngineDriftError) as excinfo:
        run_sweep(_points(), cache=False, engine="auto")
    assert excinfo.value.tolerance == pytest.approx(1e-9)
    assert excinfo.value.drifts
    assert "--engine sim" in str(excinfo.value)


def test_analytic_estimates_never_enter_the_cache(tmp_path, monkeypatch):
    store = ResultCache(tmp_path)
    run_sweep(_points(), cache=store, engine="analytic")
    assert len(store) == 0
    # Auto's validation runs are real simulations and are cached.
    monkeypatch.setattr(analytic, "DEFAULT_VALIDATE", 1)
    outcome = run_sweep(_points(), cache=store, engine="auto")
    assert outcome.validated == 1
    assert len(store) == 1


# --------------------------------------------------------------------- #
# Deterministic validation sampling + the two constants
# --------------------------------------------------------------------- #
def test_validation_sample_is_deterministic_and_covers_extremes():
    sample = validation_sample(100, 5)
    assert sample == validation_sample(100, 5)
    assert sample[0] == 0 and sample[-1] == 99
    assert sample == sorted(set(sample))


def test_validation_sample_edge_cases():
    assert validation_sample(0, 3) == []
    assert validation_sample(5, 0) == []
    assert validation_sample(3, 7) == [0, 1, 2]
    assert validation_sample(9, 1) == [4]


def test_env_knob_defaults_and_errors(monkeypatch):
    """The validation count and the drift bound are module constants,
    read at each sweep."""
    assert analytic.DEFAULT_VALIDATE == 3
    assert DEFAULT_DRIFT_TOL == 0.40
    assert run_sweep(_points(), cache=False, engine="auto").validated == 3
    monkeypatch.setattr(analytic, "DEFAULT_VALIDATE", 0)
    assert run_sweep(_points(), cache=False, engine="auto").validated == 0
