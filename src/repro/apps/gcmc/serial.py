"""The GCMC loop run serially: every rank of the SPMD driver in lockstep.

There is one GCMC loop, :func:`repro.apps.gcmc.driver.gcmc_program`.
The simulator runs it per rank on a machine; :func:`run_gcmc_serial`
runs every rank of it in one process, without a machine.  The runner
advances each rank to its next ``env.compute`` or collective, checks
that all ranks agree on the call's kind, element count and root, and
does it in numpy: an allreduce sums the buffers in rank order from rank
0's, a bcast copies the root's buffer into every rank's.  A rank whose
call differs from rank 0's raises.  The physics is the driver's; only
the reduction order can differ from a simulated run.

A :class:`GCMCOpLog` records the calls as the ranks issue them: one
``("compute", cycles)`` per ``env.compute`` (``cycles[r]`` on rank r)
and one ``(kind, n, None, root, None)`` per collective.  That is a call
list of :meth:`repro.sched.replay.Session.calls`, which is how
:mod:`repro.ensemble.engines` times a GCMC run without the simulator.
"""

from __future__ import annotations

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.driver import gcmc_program


class GCMCOpLog:
    """The call list of one serial GCMC run (see the module docstring)."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []


class _Env:
    """The part of a core the GCMC program uses: rank, size, compute."""

    def __init__(self, rank: int, size: int) -> None:
        self.rank = rank
        self.size = size

    def compute(self, cycles):
        yield ("compute", cycles, 0)


class _Comm:
    """Collectives that hand their buffer to the lockstep runner."""

    def allreduce(self, env, sendbuf, algo=None):
        return (yield ("allreduce", sendbuf, 0))

    def bcast(self, env, buf, root=0, algo=None):
        yield ("bcast", buf, root)
        return buf

    def barrier(self, env):
        yield ("barrier", None, 0)


def _step(program, reply) -> tuple:
    """Resume one rank to its next call, or to its return."""
    try:
        return program.send(reply)
    except StopIteration as stop:
        return ("return", stop.value, 0)


def _describe(call: tuple) -> str:
    """What all ranks must agree on: kind, element count and root."""
    kind, buf, root = call
    if kind in ("allreduce", "bcast"):
        return f"{kind} of {len(buf)} doubles rooted at {root}"
    return kind


def _lockstep(programs: list, calls: list, log) -> list:
    """Run the ranks, each waiting at its call in ``calls``, to their
    return values."""
    while True:
        head = _describe(calls[0])
        for rank, call in enumerate(calls[1:], start=1):
            if _describe(call) != head:
                raise RuntimeError(
                    f"rank {rank} diverged from rank 0: it issued "
                    f"{_describe(call)} where rank 0 issued {head}")
        kind, buf, root = calls[0]
        if kind == "return":
            return [call[1] for call in calls]
        replies = [None] * len(calls)
        if kind == "compute":
            entry = ("compute", [call[1] for call in calls])
        else:
            if kind == "allreduce":
                total = buf.copy()
                for call in calls[1:]:
                    total += call[1]
                replies = [total.copy() for _ in calls]
            elif kind == "bcast":
                source = calls[root][1].copy()
                for call in calls:
                    call[1][:] = source
            entry = (kind, 0 if buf is None else len(buf), None, root, None)
        if log is not None:
            log.calls.append(entry)
        calls = [_step(program, reply)
                 for program, reply in zip(programs, replies)]


def run_gcmc_serial(cfg: GCMCConfig, cycles: int, nranks: int = 48,
                    return_system: bool = False, log=None):
    """Run ``cycles`` MC cycles of the ``nranks``-rank program in lockstep.

    Returns rank 0's :class:`~repro.apps.gcmc.driver.GCMCResult` (zero
    simulated time), or ``(result, system)`` with rank 0's final
    :class:`~repro.apps.gcmc.particles.ParticleSystem` when
    ``return_system=True``.  ``log`` is a :class:`GCMCOpLog` or None.
    """
    programs = [gcmc_program(_Env(rank, nranks), _Comm(), cfg, cycles)
                for rank in range(nranks)]
    calls = [_step(program, None) for program in programs]
    # Every rank now waits at its first barrier, so rank 0's frame holds
    # the system it built and mutates in place for the rest of the run.
    system = programs[0].gi_frame.f_locals["system"]
    result = _lockstep(programs, calls, log)[0]
    return (result, system) if return_system else result
