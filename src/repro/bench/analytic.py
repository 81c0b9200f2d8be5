"""The analytic benchmark engine: pricing sweep points without simulating.

Every sweep point the benchmark layer runs is one deterministic SPMD
simulation (:func:`~repro.bench.runner.measure_collective`).  The analytic
engine replaces that simulation — for the points it can express — with a
closed-form estimate: the point's algorithm is resolved by the stack's own
:meth:`~repro.core.comm.Communicator.resolve`, built from the repertoire
(:mod:`repro.sched.builders`) and priced through the BSP cost model
(:mod:`repro.sched.cost`) over the machine's memoized
:class:`~repro.hw.timing.LatencyModel`, *plus* the calibrated per-call
software overheads of the point's stack (RCCE call cycles, request
issue/complete cycles, collective entry).  One point costs microseconds
of wall-clock instead of seconds — three to four orders of magnitude
faster than the simulator — at the price of ignoring cross-round
pipelining skew.

Where the estimate lands relative to the simulator, per algorithm family,
and when each engine is the right tool is documented in
``docs/engines.md``.  The contract enforced by
``tests/bench/test_analytic.py``: for every expressible (kind, stack)
at p in {2, 47, 48} the estimate stays within
:data:`DEFAULT_DRIFT_TOL` relative error of the simulated latency.

Fallback points
---------------
:func:`analytic_latency_us` returns ``None`` (caller must simulate) for
points outside the model:

* ``barrier`` (no schedule builder; latency is all flag traffic),
* the ``rckmpi`` stack (a different channel model entirely),
* the MPB-direct Allreduce (``algo="mpb"`` or the ``mpb`` stack's
  long-vector default — it is not a schedule),
* ``synth/...`` names (the tuned stack's pipelined picks),
* non-identity ``rank_order`` (the cost model prices rank *r* at core
  *r*),
* single-rank launches and unknown algorithm names (the simulator is
  also the authority on raising the right error).

Engine selection
----------------
``run_sweep``, ``sweep()`` and the ``sweep`` command accept ``engine``:

* ``"sim"`` (default) — simulate every point; bit-identical to the seed.
* ``"analytic"`` — estimate every expressible point, simulate the rest.
* ``"auto"`` — like ``analytic``, but a deterministic sample of the
  estimated points (:data:`DEFAULT_VALIDATE` per sweep) is *also*
  simulated and the relative drift checked against
  :data:`DEFAULT_DRIFT_TOL`.  Drift beyond tolerance raises
  :class:`EngineDriftError` naming the offending points — the estimate
  is never silently wrong by more than the tolerance on the validated
  sample.

Analytic estimates never touch the on-disk result cache: the cache
stores *simulated* latencies and an estimate must not shadow one (or
vice versa).  Re-pricing a point analytically is cheaper than a cache
read anyway.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.hw.timing import LatencyModel
from repro.sched.cost import SoftwareOverhead, estimate_schedule_cost
from repro.sched.engine import schedule_for
from repro.sim.clock import ps_to_us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.executor import SweepPoint
    from repro.core.comm import Communicator

#: Engine names accepted by the sweep layer.
ENGINES = ("sim", "analytic", "auto")

#: Relative-error tolerance of auto-mode cross-validation.
#: Calibrated against the full (kind x stack x size) grid at
#: p in {2, 47, 48}: typical drift is within +/-15%, the worst measured
#: point (blocking reduce_scatter, short vectors) sits at +34%, and the
#: bound adds margin on top of that — see docs/engines.md for the
#: per-family drift table this was derived from.
DEFAULT_DRIFT_TOL = 0.40

#: Points cross-validated per auto-mode sweep.
DEFAULT_VALIDATE = 3


class EngineDriftError(RuntimeError):
    """Auto-mode cross-validation found analytic estimates out of tolerance.

    Carries ``drifts``: one ``(point_description, analytic_us, sim_us,
    relative_drift)`` tuple per validated point that exceeded the
    tolerance, worst first.
    """

    def __init__(self, drifts: list[tuple[str, float, float, float]],
                 tolerance: float):
        self.drifts = drifts
        self.tolerance = tolerance
        worst = "; ".join(
            f"{desc}: analytic {ana:.2f}us vs sim {sim:.2f}us "
            f"({drift:+.1%})"
            for desc, ana, sim, drift in drifts[:3])
        more = f" (+{len(drifts) - 3} more)" if len(drifts) > 3 else ""
        super().__init__(
            f"analytic engine drifted beyond +/-{tolerance:.0%} of the "
            f"simulator on {len(drifts)} validated point(s): {worst}{more}. "
            f"Re-run with --engine sim (see docs/engines.md).")


def validation_sample(count: int, k: int) -> list[int]:
    """``k`` indices spread deterministically over ``range(count)``.

    Always includes the first and last index when ``k >= 2`` — the
    extremes of a size sweep are where the estimate is most likely to
    drift.  The same (count, k) always yields the same sample, keeping
    auto-mode sweeps reproducible.
    """
    if count <= 0 or k <= 0:
        return []
    if k >= count:
        return list(range(count))
    if k == 1:
        return [count // 2]
    step = (count - 1) / (k - 1)
    return sorted({round(i * step) for i in range(k)})


# --------------------------------------------------------------------- #
# Stack introspection
# --------------------------------------------------------------------- #
@dataclass
class _StackContext:
    """Everything needed to price points of one (stack, config)."""

    comm: "Communicator"
    model: LatencyModel
    overhead: SoftwareOverhead


#: (stack, config key) -> context.  Bounded: the bench layer uses a
#: handful of configs per process (ablations build one per variant).
_CONTEXTS: dict[tuple[str, str], _StackContext] = {}
_CONTEXT_LIMIT = 64


def _config_key(config: SCCConfig) -> str:
    return json.dumps(asdict(config), sort_keys=True, default=repr)


def stack_overhead(comm: "Communicator",
                   model: LatencyModel) -> SoftwareOverhead:
    """The per-call software costs of ``comm``'s point-to-point stack.

    Blocking RCCE pays its send/recv call cycles per message; the
    non-blocking layers pay issue + completion cycles per request (both
    are charged in full — the request's CPU work does not overlap with
    anything in the round-synchronous algorithms).  Every stack pays the
    collective-layer entry cost once per collective.
    """
    config = comm.machine.config
    if comm.blocking:
        send_ps = model.core_cycles(config.rcce_send_call_cycles)
        recv_ps = model.core_cycles(config.rcce_recv_call_cycles)
    else:
        per_request = (comm.p2p.issue_cycles()
                       + comm.p2p.complete_cycles())
        send_ps = recv_ps = model.core_cycles(per_request)
    return SoftwareOverhead(
        send_ps=send_ps, recv_ps=recv_ps,
        call_ps=model.core_cycles(config.collective_call_cycles))


def _stack_context(stack: str, config: SCCConfig) -> Optional[_StackContext]:
    """Build (or fetch) the pricing context; None for unpriceable stacks."""
    if stack == "rckmpi":
        return None
    key = (stack, _config_key(config))
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        from repro.core.registry import make_communicator

        try:
            comm = make_communicator(Machine(config), stack)
        except KeyError:
            return None
        if len(_CONTEXTS) >= _CONTEXT_LIMIT:
            _CONTEXTS.clear()
        ctx = _CONTEXTS[key] = _StackContext(
            comm=comm, model=comm.machine.latency,
            overhead=stack_overhead(comm, comm.machine.latency))
    return ctx


def _priced_schedule_name(comm: "Communicator", kind: str, size: int,
                          cores: int, algo: Optional[str]) -> Optional[str]:
    """The name the point would execute (:meth:`Communicator.resolve`,
    the same call the simulated collective makes), or None when the
    simulator must answer: unknown names (it is the authority on the
    error), the MPB-direct Allreduce (not a schedule) and ``synth/...``
    names (outside the calibrated overhead regime)."""
    try:
        name = comm.resolve(kind, cores, size, size * 8, algo)  # doubles
    except KeyError:
        return None
    if name == "mpb" or name.startswith("synth/"):
        return None
    return name


# --------------------------------------------------------------------- #
# Pricing
# --------------------------------------------------------------------- #
def analytic_latency_us(point: "SweepPoint") -> Optional[float]:
    """Closed-form latency estimate for one sweep point (microseconds).

    Returns ``None`` when the point is outside the analytic model (see
    the module docstring for the exact fallback list); the caller is
    expected to simulate such points instead.
    """
    if point.kind == "barrier" or point.cores <= 1:
        return None
    if point.rank_order is not None and \
            tuple(point.rank_order) != tuple(range(point.cores)):
        return None
    ctx = _stack_context(point.stack, point.config)
    if ctx is None:
        return None
    name = _priced_schedule_name(ctx.comm, point.kind, point.size,
                                 point.cores, point.algo)
    if name is None:
        return None
    sched = schedule_for(ctx.comm, point.kind, name, point.cores,
                         point.size)
    total_ps = estimate_schedule_cost(sched, ctx.model,
                                      blocking=ctx.comm.blocking,
                                      overhead=ctx.overhead)
    return ps_to_us(total_ps)


def price_points(points: Sequence["SweepPoint"]
                 ) -> list[Optional[float]]:
    """Vectorized convenience: one estimate (or None) per point."""
    return [analytic_latency_us(point) for point in points]
