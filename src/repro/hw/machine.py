"""The assembled machine: cores, MPBs, flags, and the SPMD launcher.

:class:`Machine` wires an :class:`~repro.hw.config.SCCConfig` into a live
simulated chip.  User code (and the communication stacks) interact with it
through :class:`CoreEnv` objects handed to an SPMD program:

    def program(env):
        yield from env.compute(1000)            # 1000 core cycles of work
        ...
    machine = Machine()
    result = machine.run_spmd(program)
    print(result.elapsed_us)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Sequence

from repro.hw.config import SCCConfig
from repro.hw.flags import Flag
from repro.hw.mpb import MPB
from repro.hw.timing import LatencyModel
from repro.hw.topology import Topology
from repro.sim.clock import ps_to_us
from repro.sim.engine import Simulator
from repro.sim.events import Event, Interrupt, Timeout
from repro.sim.resources import FifoLock
from repro.sim.trace import TimeAccount, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sanitizer import Sanitizer
    from repro.faults.injector import FaultInjector


class Core:
    """One P54C core: an execution context with busy/wait accounting.

    All core-time consumption funnels through :meth:`consume`, which holds
    the core's CPU lock — so the core's main program and any non-blocking
    communication sub-processes can never consume the same cycles twice.
    """

    __slots__ = ("machine", "core_id", "cpu", "account")

    def __init__(self, machine: "Machine", core_id: int):
        self.machine = machine
        self.core_id = core_id
        self.cpu = FifoLock(machine.sim, name=f"cpu{core_id}")
        self.account = TimeAccount()

    def consume(self, duration_ps: int, state: str = "compute") -> Generator:
        """Occupy the core for ``duration_ps``, accounted under ``state``.

        This is the kernel's hottest generator (one call per modeled
        latency charge), so it inlines the lock fast path (and
        :meth:`FifoLock.acquired`) and the account update.  A fault
        injector only adds a term: a transient stall, drawn before the
        lock is requested and held first, accounted as ``stall``.
        :func:`repro.hw.protocol.run_ops` inlines the same hold (plus
        the MPB port) for the protocol micro-ops: keep the two in sync.
        """
        faults = self.machine.faults
        stall = (faults.stall_ps(self.core_id)
                 if faults is not None and duration_ps > 0 else 0)
        cpu = self.cpu
        if cpu._locked or cpu._queue:
            grant = cpu.acquire()
            try:
                yield grant
            except Interrupt:
                cpu.abandon(grant)
                raise
        else:
            cpu._locked = True
        try:
            if stall:
                yield stall
                self.account.states["stall"] += stall
            if duration_ps > 0:
                yield duration_ps
            self.account.states[state] += duration_ps
        finally:
            queue = cpu._queue
            if queue:
                queue.popleft().succeed()
            else:
                cpu._locked = False

    def wait(self, event: Event, state: str = "wait") -> Generator:
        """Wait on ``event`` without occupying the core; time is accounted
        under ``state``.  Returns the event's value."""
        sim = self.machine.sim
        t0 = sim._now
        value = yield event
        self.account.states[state] += sim._now - t0
        return value

    def compute_cycles(self, cycles: int | float, state: str = "compute") -> Generator:
        return self.consume(self.machine.latency.core_cycles(cycles), state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.core_id}>"


@dataclass
class SPMDResult:
    """Outcome of one :meth:`Machine.run_spmd` launch."""

    values: list[Any]
    elapsed_ps: int
    accounts: list[TimeAccount]

    @property
    def elapsed_us(self) -> float:
        return ps_to_us(self.elapsed_ps)

    def account_fraction(self, state: str) -> float:
        """Fraction of total accounted time (all cores) spent in ``state``."""
        total = sum(a.total() for a in self.accounts)
        if total == 0:
            return 0.0
        return sum(a.get(state) for a in self.accounts) / total


class Machine:
    """A simulated SCC chip."""

    def __init__(self, config: Optional[SCCConfig] = None,
                 tracer: Optional[Tracer] = None):
        self.config = config if config is not None else SCCConfig()
        self.sim = Simulator(tracer)
        # Topology is immutable, so machines with the same geometry share
        # one instance (a sweep builds thousands of Machines; rebuilding
        # the mesh helpers per point is pure waste).  The registry cache
        # behind resolved_topology() provides the sharing.
        self.topology: Topology = self.config.resolved_topology()
        self.latency = LatencyModel(self.config, self.topology)
        self.cores = [Core(self, i) for i in range(self.config.num_cores)]
        self.mpbs = [
            MPB(i, self.config.mpb_bytes_per_core, self.config.l1_line_bytes,
                self.config.mpb_flag_bytes)
            for i in range(self.config.num_cores)
        ]
        self._flags: dict[tuple[int, str], Flag] = {}
        #: Scratch space for communication layers to stash per-machine
        #: state (e.g. the iRCCE wildcard-receive announcement queues).
        self.services: dict[str, Any] = {}
        #: Per-MPB access-port locks (only when contention is modeled).
        self.mpb_ports: Optional[list[FifoLock]] = (
            [FifoLock(self.sim, name=f"mpbport{i}")
             for i in range(self.config.num_cores)]
            if self.config.model_mpb_contention else None)
        #: Fault injector, or None.  Every fault hook site guards on this
        #: being non-None, so fault-free runs pay one attribute check and
        #: execute the exact pre-existing code path (zero overhead).
        self.faults: Optional["FaultInjector"] = None
        #: MPB/flag sanitizer, or None (same zero-overhead discipline;
        #: see :mod:`repro.analysis.sanitizer`).
        self.san: Optional["Sanitizer"] = None

    @property
    def num_cores(self) -> int:
        return self.config.num_cores

    def flag(self, owner: int, name: str) -> Flag:
        """The flag ``name`` in ``owner``'s MPB (created on first use)."""
        flag = self._flags.get((owner, name))
        if flag is None:
            if not 0 <= owner < self.num_cores:
                raise ValueError(f"flag owner {owner} out of range")
            flag = self._flags[(owner, name)] = Flag(self, owner, name)
        return flag

    def reset_mpbs(self) -> None:
        for mpb in self.mpbs:
            mpb.clear()

    # ------------------------------------------------------------------ #
    def run_spmd(self, program: Callable[..., Generator], *args: Any,
                 ranks: Optional[Sequence[int]] = None,
                 watchdog_ps: Optional[int] = None,
                 **kwargs: Any) -> SPMDResult:
        """Run ``program(env, *args, **kwargs)`` on every core.

        ``ranks`` restricts the launch to a subset of cores (they become
        ranks 0..len-1 of the job).  ``watchdog_ps`` bounds the virtual
        time of the launch: exceeding it raises a
        :class:`~repro.sim.errors.WatchdogTimeout` with per-process wait
        diagnostics instead of letting a faulty run stall silently.
        Returns per-rank return values, the simulated makespan, and
        per-rank time accounts.

        The latency memo and the protocol programs bound from it are
        dropped when the launch ends: a machine's objects refer to each
        other, so a finished machine is reclaimed only by the cyclic
        collector, and a sweep's dead machines would otherwise each hold
        them until it runs.
        """
        ranks = list(ranks) if ranks is not None else list(range(self.num_cores))
        size = len(ranks)
        if size == 0:
            raise ValueError("run_spmd needs at least one rank")
        start = self.sim.now
        envs = [CoreEnv(self, rank, size, ranks) for rank in range(size)]
        procs = [
            self.sim.process(program(env, *args, **kwargs),
                             name=f"rank{env.rank}")
            for env in envs
        ]
        try:
            self.sim.run_until_processes(procs, watchdog_ps=watchdog_ps)
        finally:
            self.latency.invalidate()
        return SPMDResult(
            values=[p.value for p in procs],
            elapsed_ps=self.sim.now - start,
            accounts=[self.cores[cid].account for cid in ranks],
        )


class CoreEnv:
    """Per-rank execution environment handed to SPMD programs.

    ``sim``, ``config``, ``latency``, ``core_id`` are plain attributes
    (they can never change over the env's lifetime) and the time helpers
    return the underlying :class:`Core` generators directly — both shave
    an attribute hop or a generator frame off paths the protocol layers
    hit once or more per simulated event.
    """

    __slots__ = ("machine", "rank", "size", "_ranks", "core", "data",
                 "sim", "config", "latency", "core_id")

    def __init__(self, machine: Machine, rank: int, size: int,
                 ranks: Sequence[int]):
        self.machine = machine
        self.rank = rank
        self.size = size
        self._ranks = list(ranks)
        self.core = machine.cores[self._ranks[rank]]
        self.data: dict[str, Any] = {}
        self.sim: Simulator = machine.sim
        self.config: SCCConfig = machine.config
        self.latency: LatencyModel = machine.latency
        self.core_id: int = self.core.core_id

    # -- identity ----------------------------------------------------------
    def core_of_rank(self, rank: int) -> int:
        return self._ranks[rank]

    def rank_of_core(self, core_id: int) -> int:
        return self._ranks.index(core_id)

    @property
    def now(self) -> int:
        return self.sim._now

    # -- time --------------------------------------------------------------
    def compute(self, cycles: int | float) -> Generator:
        """Model ``cycles`` core cycles of application computation."""
        return self.core.compute_cycles(cycles, "compute")

    def consume(self, duration_ps: int, state: str) -> Generator:
        return self.core.consume(duration_ps, state)

    def sleep(self, duration_ps: int) -> Generator:
        """Idle (not occupying the CPU) for a fixed duration."""
        return self.core.wait(Timeout(self.sim, duration_ps), "idle")

    # -- hardware handles -----------------------------------------------------
    def my_mpb(self) -> MPB:
        return self.machine.mpbs[self.core_id]

    def mpb_of_rank(self, rank: int) -> MPB:
        return self.machine.mpbs[self.core_of_rank(rank)]

    def flag(self, owner_rank: int, name: str) -> Flag:
        return self.machine.flag(self.core_of_rank(owner_rank), name)
