"""Exact replay: a collective's virtual time from its bound programs,
computed with integers instead of simulated.

A measured collective is a deterministic function of the programs its
ranks run: the communicator's entry charge, the barrier tables, every
message's program (the protocol's ``program``: what
:meth:`RCCE.message <repro.rcce.api.RCCE.message>` or RCKMPI's
:meth:`EagerChannels.message <repro.rckmpi.channel.EagerChannels.message>`
runs, blocking or as a request's sub-process) and the request layer's
issue, completion, copy and reduce charges.  :func:`replay_measurement`
expands every call into those programs from the definitions the
simulated call runs (:meth:`Communicator.schedule
<repro.core.comm.Communicator.schedule>`, :func:`repro.sched.engine.lower`,
:func:`repro.rcce.api.barrier_runs`,
:func:`repro.core.barrier.dissemination_rounds`) and executes them
without generators, processes or payload bytes.  It returns every
rank's ``(latency, exit)`` in ps, what
:func:`~repro.bench.runner.launch_collective` measures, to the
picosecond (``tests/sched/test_replay.py`` pins it against
``engine_golden.json`` and the kernel-identity runs).  The programs are
the simulator's own objects, shared through the configuration's tables;
a replay only maps each row's role to one of its int slots.

Every rank's program is one list of compiled ``(op, slot, charge)``
rows (:func:`_compile`), on every stack; two executors run them:

* **Blocking RCCE** (one actor per core).  Each rank walks its rows
  with its own pc, adding every charge to its clock.  A ``SET`` records
  when its write lands; the k-th ``WAIT`` on a flag matches that flag's
  k-th ``SET`` and completes at ``max(clock, set) + notify``,
  ``Gate.wait_true``'s rule.  Every RCCE flag is cleared by its only
  waiter, so the order of same-instant operations cannot move time: the
  ranks run in any order, each until it waits on a ``SET`` not yet made.
  No heap.  The request executor gives the same marks on these
  programs, two to three times slower.
* **Request stacks** (iRCCE, lightweight, lightweight_balanced, tuned,
  rckmpi).  A core's CPU is a FIFO lock shared by the main program and
  its request sub-processes, so the order of same-instant entries
  decides who holds it first.  Main programs are rows as requests are,
  and one loop runs both.  Channel locks, RCKMPI windows
  and packet queues are FIFO slots beside the flags.  The executor
  pushes where the kernel pushes: a process's bootstrap, a lock or
  window grant (one hop even when a place is free), a CPU grant, a
  hold's end, a flag or queue wake, the completion a waiting main
  program resumes on and ``wait_all``'s ``AllOf`` hop.  An entry goes
  into its instant's FIFO lane of pids, and a heap holds the distinct
  instants.  That is the kernel's ``(time, seq)`` order by construction:
  ``seq`` only grows, so entries of one instant pop in push order, and
  an entry pushed for the instant being run is appended to the lane
  being run.  The completion of a request nobody waits on is not
  pushed: nothing observes it, and leaving an entry out does not
  reorder the others.

A :class:`Session` binds once per ``(stack, cores, config,
rank_order)`` and replays any number of calls on it (a sweep group's
points); :func:`replay_calls` and :func:`replay_measurement` are
one-call sessions.  Every measured point starts with the same barrier
prefix, so a session runs it once: later points resume from a
snapshot of the executor's state where the prefix ends, and each
executor says where that is.

* **Blocking.**  The ranks run in any order, so every rank may run its
  whole prefix first: the snapshot is the state once all have (``sets``,
  ``taken``, ``clocks``, ``pcs``, ``marks``), and a point's rows
  continue from each rank's pc.
* **Request stacks.**  The cut is T*, the first instant at which any
  main program passes the prefix's ``_MARK``: the least of the ranks'
  first marks.  Before T* every entry runs prefix rows only, so the
  state at the start of instant T* (the instants and their lanes, the
  processes, the CPU locks and queues, every slot's level, count,
  places and waiters) is the same for every point.  The snapshot is
  that state, left by a run of the prefix alone that stops at T*; a
  resumed run copies it, points each main program at its whole rows and
  extends the slot arrays to the slots bound since.

The snapshot is taken lazily: the first measured call runs from t = 0
and gives T* in its own marks, and the second builds the snapshot and
resumes from it, as does every later one.  A one-call session
(:func:`replay_measurement`, a single-point sweep group) thus makes
one executor pass and builds no snapshot it would not use.
:meth:`Session.calls` always runs from t = 0.

A call is a collective, a barrier, or a
``compute`` of per-rank core cycles (``env.compute`` on every rank:
blocking adds it to the rank's CPU time, a request stack runs it as one
CPU-lock hold of the main program), so a whole application's call list
replays its run.

What only the simulator can answer raises :class:`Escalation`:
``model_mpb_contention``; the ``mpb`` algorithm; stacks, kinds,
algorithms and arguments replay does not know or the simulator rejects
(it raises the real error); a rank count or rank order the chip
rejects; and a replay that cannot make progress (the simulator raises
the real deadlock error).  Replay takes no tracer, monitor or fault
injector: a run with one is the simulator's.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Optional, Sequence

from repro.core.barrier import dissemination_rounds
from repro.core.comm import Communicator
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.hw.protocol import (ACQUIRE, CLEAR, DEQUEUE, ENQUEUE, NOTE, SET,
                               WAIT, bind)
from repro.ircce.requests import NonBlockingLayer
from repro.rcce.api import RCCE, barrier_runs
from repro.rckmpi.channel import WINDOW_PACKETS
from repro.sched import engine
from repro.sched.select import TunedCommunicator

#: The kinds a measured call can be (``bench.runner.collective_call``).
KINDS = frozenset(("allreduce", "reduce", "reduce_scatter", "allgather",
                   "alltoall", "bcast", "barrier", "scan", "exscan"))
#: Bytes per element: measured operands are float64 vectors.
_ITEMSIZE = 8

#: A compiled row is three ints ``(op, slot, charge)``.  The timed ops
#: hold the CPU for ``charge``, then ``_SET``/``_CLEAR`` flag ``slot`` or
#: ``_ISSUE`` (a main program's) start request template ``slot``;
#: ``_CHARGE`` is any other hold.  The untimed ones: ``_WAIT`` for flag
#: ``slot``, notified ``charge`` after it is set; ``_ACQUIRE`` or
#: ``_RELEASE`` one of the ``charge`` places of window or lock ``slot``
#: (a request's rows start with its channel lock's ``_ACQUIRE``, and the
#: lock is released when they are done); ``_ENQUEUE`` a packet on queue
#: ``slot``, ``_DEQUEUE`` one (waiting ``charge`` past its arrival when
#: there is none); a main program's ``_JOIN`` of the last request it
#: issued or ``_JOIN_ALL`` of every one, and ``_MARK`` of its time.
_STEP = 3
(_CHARGE, _SET, _CLEAR, _ISSUE, _WAIT, _ACQUIRE, _RELEASE, _ENQUEUE,
 _DEQUEUE, _JOIN, _JOIN_ALL, _MARK) = range(12)

#: Request executor: why a process is resumed (``_RUN``: at its pc,
#: which a process that waits moves past the row it waits on).
_RUN, _GRANTED, _HELD, _COMPLETED = range(4)


class Escalation(Exception):
    """Replay cannot answer this run; the message says why.  The caller
    runs the simulator, which gives the authoritative value or error."""


# -- what a replay binds on --------------------------------------------------
class _Context:
    """A never-run machine to bind programs on, the stack's communicator
    (for its ``schedule``, its entry charge and the request layer's
    charges) and the protocol whose ``program`` gives a message's bound
    program."""

    __slots__ = ("machine", "comm", "proto", "blocking", "issue_ps",
                 "complete_ps")

    def __init__(self, stack: str, config: SCCConfig):
        machine = Machine(config.copy())
        try:
            comm = make_communicator(machine, stack)
        except KeyError:
            raise Escalation(f"unknown stack {stack!r}") from None
        if type(comm) not in (Communicator, TunedCommunicator):
            raise Escalation(f"{type(comm).__name__} communicator")
        p2p = comm.p2p
        self.blocking = type(p2p) is RCCE
        if self.blocking:
            self.proto = p2p
            self.issue_ps = self.complete_ps = 0
        elif (isinstance(p2p, NonBlockingLayer)
              and hasattr(p2p._proto, "program")):
            self.proto = p2p._proto
            self.issue_ps = p2p._issue_ps
            self.complete_ps = p2p._complete_ps
        else:
            raise Escalation(f"{type(p2p).__name__} layer")
        self.machine = machine
        self.comm = comm


# -- binding -----------------------------------------------------------------
def _compile(bound: tuple, slots: tuple) -> tuple:
    """A bound program's rows as flat ``(op, slot, charge)`` ints, the
    operand of each role being ``slots[role]``."""
    out: list[int] = []
    for op, role, _priced, charge, state, port, _piece, _at in bound[1]:
        if port is not None:
            raise Escalation("a bound MPB port")
        if op <= CLEAR:
            out += (_SET if op == SET else _CLEAR, slots[role], charge)
        elif op == WAIT:
            if state != 1:
                raise Escalation("a wait for a cleared flag")
            out += (_WAIT, slots[role], charge)
        elif op == ACQUIRE:
            out += (_ACQUIRE, slots[role], WINDOW_PACKETS)
        elif op == ENQUEUE:
            out += (_ENQUEUE, slots[role], 0)
        elif op == DEQUEUE:
            # Take a packet, then free its window place.
            out += (_DEQUEUE, slots[role], charge,
                    _RELEASE, slots[state], WINDOW_PACKETS)
        elif op != NOTE:
            out += (_CHARGE, -1, charge)
    return tuple(out)


class _Binder:
    """One replay's flags, windows, queues and locks as int slots, and
    its programs compiled over them, once per ``(side, nbytes, call)``.
    A message's program is the protocol's own (its ``program``, what
    its ``message`` runs), shared with every machine on the
    configuration."""

    def __init__(self, ctx: _Context, cores: list[int]):
        self.ctx = ctx
        self.cores = cores
        self.slots: dict[tuple, int] = {}
        self.memo: dict[tuple, tuple] = {}

    def slot(self, key: tuple) -> int:
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self.slots)
        return slot

    def message(self, src: int, dst: int, sending: bool, nbytes: int,
                call_cycles: int = 0) -> tuple:
        """The compiled program of one side of a src->dst message, over
        the channel's operands by role (RCCE's ``(buf, sent, ready)``,
        RCKMPI's ``(window, queue)``)."""
        key = (src, dst, sending, nbytes, call_cycles)
        flat = self.memo.get(key)
        if flat is None:
            ctx = self.ctx
            flat = self.memo[key] = _compile(
                ctx.proto.program(ctx.machine.cores[src if sending else dst],
                                  src, dst, sending, nbytes, call_cycles),
                tuple(self.slot((src, dst, role)) for role in range(3)))
        return flat

    def table(self, core: int, table: tuple, owners: tuple, slots: tuple,
              cost: Optional[int] = None) -> tuple:
        return _compile(bind(self.ctx.machine.cores[core], table, owners,
                             cost=cost), slots)


# -- what each rank runs -----------------------------------------------------
def _schedule(ctx: _Context, p: int, call: tuple):
    """The schedule one call runs (None for a barrier): the
    communicator's own :meth:`~repro.core.comm.Communicator.schedule`."""
    kind, n, algo, root, part = call
    if kind == "barrier":
        if algo is not None:
            raise Escalation("barrier takes no algorithm")
        return None
    try:
        sched = ctx.comm.schedule(kind, p, n, n * _ITEMSIZE, algo, root,
                                  part)
    except (KeyError, ValueError) as exc:
        raise Escalation(f"{type(exc).__name__}: {exc}") from None
    if sched is None:
        raise Escalation("the mpb algorithm")
    return sched


class _Programs:
    """Every rank's program, compiled rows appended to call by call."""

    def __init__(self, binder: _Binder, p: int):
        self.binder = binder
        self.p = p
        self.progs: list[list] = [[] for _ in range(p)]

    def state(self) -> list[list]:
        """A copy of what the calls so far appended."""
        return [list(prog) for prog in self.progs]

    def restore(self, state: list[list]) -> None:
        """Continue from a copy of ``state``, which stays as it is."""
        self.progs = [list(prog) for prog in state]

    def mark(self) -> None:
        for prog in self.progs:
            prog += (_MARK, -1, 0)

    def compute(self, holds: list[int]) -> None:
        for prog, hold in zip(self.progs, holds):
            prog += (_CHARGE, -1, hold)


class _BlockingPrograms(_Programs):
    """Every rank's program on the blocking stack: each message side is
    the protocol's program with RCCE's call charge."""

    def barrier(self, call_ps: int) -> None:
        """``RCCE.barrier``: every rank's :func:`barrier_runs`, bound on
        this replay's slots."""
        binder = self.binder
        cores = binder.cores
        enter_ps = binder.ctx.proto.barrier_ps
        for rank, prog in enumerate(self.progs):
            prog += (_CHARGE, -1, call_ps)
            for table, flags in barrier_runs(rank, self.p, cores.__getitem__):
                prog += binder.table(
                    cores[rank], table, tuple(owner for owner, _ in flags),
                    tuple(map(binder.slot, flags)), cost=enter_ps)

    def collective(self, sched, call_ps: int) -> None:
        binder = self.binder
        cores = binder.cores
        latency = binder.ctx.machine.latency
        message = binder.message
        cycles = binder.ctx.proto.call_cycles
        for rank, prog in enumerate(self.progs):
            me = cores[rank]
            prog += (_CHARGE, -1, call_ps)
            for _, _, sides, _, pre, post in engine.lower(
                    sched, rank, True, latency, _ITEMSIZE):
                if pre is not None:
                    prog += (_CHARGE, -1, pre)
                for sending, peer, _, lo, hi in sides:
                    peer = cores[peer]
                    prog += message(me if sending else peer,
                                    peer if sending else me, sending,
                                    (hi - lo) * _ITEMSIZE, cycles[sending])
                if post is not None:
                    prog += (_CHARGE, -1, post)


def _blocking_state(p: int, nslots: int,
                    start: Optional[tuple] = None) -> tuple:
    """The blocking executor's state, ``(sets, taken, clocks, pcs,
    marks)``: every rank at pc 0 and t = 0, or a copy of ``start`` with
    its flag arrays extended to ``nslots``."""
    if start is None:
        return ([[] for _ in range(nslots)], [0] * nslots, [0] * p, [0] * p,
                [[] for _ in range(p)])
    sets, taken, clocks, pcs, marks = start
    extra = nslots - len(taken)
    return ([list(times) for times in sets] + [[] for _ in range(extra)],
            taken + [0] * extra, list(clocks), list(pcs),
            [list(rank_marks) for rank_marks in marks])


def _blocking_pass(progs: list[list], sets: list[list[int]],
                   taken: list[int], clocks: list[int], pcs: list[int],
                   marks: list[list[int]]) -> None:
    """Run every rank from its pc and clock to the end of its rows,
    updating the state in place."""
    p = len(progs)
    blocked = [-1] * len(taken)
    finished = 0
    work = list(range(p - 1, -1, -1))
    while work:
        rank = work.pop()
        rows = progs[rank]
        i = pcs[rank]
        t = clocks[rank]
        n = len(rows)
        while i < n:
            op = rows[i]
            if op < _WAIT:
                # A hold (_CHARGE, _CLEAR or _SET); a set lands after it.
                t += rows[i + 2]
                if op == _SET:
                    slot = rows[i + 1]
                    sets[slot].append(t)
                    waiter = blocked[slot]
                    if waiter >= 0:
                        blocked[slot] = -1
                        work.append(waiter)
            elif op == _WAIT:
                # A blocked rank keeps its pc on the wait and retries it.
                slot = rows[i + 1]
                k = taken[slot]
                times = sets[slot]
                if k == len(times):
                    blocked[slot] = rank
                    break
                taken[slot] = k + 1
                s = times[k]
                t = (t if t > s else s) + rows[i + 2]
            else:  # _MARK
                marks[rank].append(t)
            i += _STEP
        else:
            finished += 1
        pcs[rank] = i
        clocks[rank] = t
    if finished != p:
        raise Escalation("no progress: a wait no set satisfies")


def _run_blocking(progs: list[list], nslots: int,
                  start: Optional[tuple] = None) -> list[list[int]]:
    """Execute the blocking stack's programs from t = 0, or from
    ``start`` (a :func:`_blocking_start` state: ``progs`` then continue
    its prefix); every rank's marks."""
    state = _blocking_state(len(progs), nslots, start)
    _blocking_pass(progs, *state)
    return state[-1]


def _blocking_start(prefix: list[list], nslots: int) -> tuple:
    """The blocking executor's state once every rank has run all of
    ``prefix``: ranks run in any order, so a program that continues the
    prefix resumes from here."""
    state = _blocking_state(len(prefix), nslots)
    _blocking_pass(prefix, *state)
    return state


class _RequestPrograms(_Programs):
    """Every rank's main program on a request stack, compiled rows as a
    request's are, and the request templates its ``_ISSUE`` rows start:
    the channel lock's ``_ACQUIRE``, then the message's program (the
    executor releases the lock when the request is done)."""

    def __init__(self, binder: _Binder, p: int):
        super().__init__(binder, p)
        self.templates: list[list] = []
        self.issues: dict[tuple, tuple] = {}
        ctx = binder.ctx
        self.issue_ps = ctx.issue_ps
        self.complete = (_CHARGE, -1, ctx.complete_ps)

    def request(self, src: int, dst: int, sending: bool,
                nbytes: int) -> tuple:
        """The row that issues one request: its issue charge, then its
        start."""
        key = (src, dst, sending, nbytes)
        rows = self.issues.get(key)
        if rows is None:
            binder = self.binder
            lock = binder.slot(NonBlockingLayer.lock_key(
                *(("send", src, dst) if sending else ("recv", dst, src))))
            # A list, as a main program's rows are: the executor's
            # indexing sites then see one type.
            self.templates.append(
                [_ACQUIRE, lock, 1, *binder.message(src, dst, sending,
                                                    nbytes)])
            rows = self.issues[key] = (_ISSUE, len(self.templates) - 1,
                                       self.issue_ps)
        return rows

    def barrier(self, call_ps: int) -> None:
        """``dissemination_barrier``: a zero-byte exchange per
        :func:`dissemination_rounds` round."""
        cores = self.binder.cores
        wait_all = (_JOIN_ALL, -1, 0) + self.complete * 2
        for rank, prog in enumerate(self.progs):
            prog += (_CHARGE, -1, call_ps)
            me = cores[rank]
            for dst, src in dissemination_rounds(rank, self.p):
                prog += self.request(me, cores[dst], True, 0)
                prog += self.request(cores[src], me, False, 0)
                prog += wait_all

    def collective(self, sched, call_ps: int) -> None:
        cores = self.binder.cores
        latency = self.binder.ctx.machine.latency
        request = self.request
        complete = self.complete
        for rank, prog in enumerate(self.progs):
            me = cores[rank]
            prog += (_CHARGE, -1, call_ps)
            for _, _, sides, wait_all, pre, post in engine.lower(
                    sched, rank, False, latency, _ITEMSIZE):
                if pre is not None:
                    prog += (_CHARGE, -1, pre)
                for sending, peer, _, lo, hi in sides:
                    peer = cores[peer]
                    prog += request(me if sending else peer,
                                    peer if sending else me, sending,
                                    (hi - lo) * _ITEMSIZE)
                if sides:
                    prog += (_JOIN_ALL if wait_all else _JOIN, -1, 0)
                    prog += complete * len(sides)
                if post is not None:
                    prog += (_CHARGE, -1, post)


def _request_state(progs: list[list], nslots: int,
                   start: Optional[tuple] = None) -> tuple:
    """The request executor's state, ``(times, lanes, procs, locked,
    queues, level, count, places, waiting)``: every main program's
    bootstrap at t = 0, or a copy of ``start`` whose main programs run
    ``progs`` (each continuing its prefix) and whose slot arrays are
    extended to ``nslots``."""
    p = len(progs)
    if start is None:
        return ([0], {0: list(range(p))},  # every bootstrap at t = 0
                [[rows, 0, _RUN, rank, [], 0, [], False, None]
                 for rank, rows in enumerate(progs)],
                [False] * p, [deque() for _ in range(p)], bytearray(nslots),
                [0] * nslots, {}, [[] for _ in range(nslots)])
    times, lanes, procs, locked, queues, level, count, places, waiting = start
    extra = nslots - len(count)
    # A finished request is never written again: it is shared.
    procs = [st if st[7] else list(st) for st in procs]
    for rank, rows in enumerate(progs):
        st = procs[rank]
        st[0], st[4], st[6] = rows, list(st[4]), list(st[6])
    return (list(times), {at: list(lane) for at, lane in lanes.items()},
            procs, list(locked), [deque(queue) for queue in queues],
            level + bytes(extra), count + [0] * extra,
            {slot: deque(queue) for slot, queue in places.items()},
            [list(waiters) for waiters in waiting]
            + [[] for _ in range(extra)])


def _request_pass(p: int, state: tuple, templates: list[list],
                  cut: Optional[int] = None) -> None:
    """Run the main programs (pids below ``p``) and the requests they
    start in the kernel's ``(time, seq)`` order, updating ``state`` in
    place, until no entry is left or the next instant is ``cut``.

    Each instant is a FIFO lane of pids, run in push order; a push at
    the instant being run appends to its lane.  A process is ``[rows,
    pc, resume, cpu, issued pids, join_all count, marks, done,
    waiter]``: pid ``r < p`` is rank ``r``'s main program; a request
    runs on its issuer's CPU, and ``waiter`` is the pid of a main
    program waiting on it alone, ``-1 - pid`` of one in ``_JOIN_ALL``.
    Flag and queue slots keep a level and their waiters, queue slots the
    count of packets queued; window and lock slots the count of their
    holders and queued processes, and the FIFO of the queued ones.
    """
    times, lanes, procs, locked, queues, level, count, places, waiting = state

    def later(at: int, pid: int) -> None:
        lane = lanes.get(at)
        if lane is None:
            lanes[at] = [pid]
            heappush(times, at)
        else:
            lane.append(pid)

    while times:
        if cut is not None and times[0] >= cut:
            return
        now = heappop(times)
        lane = lanes[now]
        for pid in lane:
            while True:
                st = procs[pid]
                rows, i, resume, cpu = st[0], st[1], st[2], st[3]
                if resume == _COMPLETED:
                    waiter = st[8]
                    if waiter >= 0:
                        pid = waiter  # resumed inside this dispatch
                        continue
                    main = procs[-1 - waiter]
                    main[5] -= 1
                    if not main[5]:
                        lane.append(-1 - waiter)
                    break
                if resume == _GRANTED:
                    if rows[i + 2] > 0:
                        later(now + rows[i + 2], pid)
                        st[2] = _HELD
                        break
                    resume = _HELD
                n = len(rows)
                while i < n:
                    op = rows[i]
                    if op <= _ISSUE:
                        # -- a timed op: hold the CPU, release it, apply ----
                        if resume != _HELD:
                            if locked[cpu] or queues[cpu]:
                                queues[cpu].append(pid)
                                st[2] = _GRANTED
                                break
                            if rows[i + 2] > 0:
                                locked[cpu] = True
                                later(now + rows[i + 2], pid)
                                st[2] = _HELD
                                break
                        resume = _RUN
                        queue = queues[cpu]
                        if queue:
                            lane.append(queue.popleft())
                        else:
                            locked[cpu] = False
                        if op:  # not a bare _CHARGE
                            slot = rows[i + 1]
                            if op == _SET:
                                if not level[slot]:
                                    level[slot] = 1
                                    for waiter, extra in waiting[slot]:
                                        later(now + extra, waiter)
                                    waiting[slot].clear()
                            elif op == _CLEAR:
                                level[slot] = 0
                            else:
                                st[4].append(len(procs))
                                lane.append(len(procs))
                                procs.append([templates[slot], 0, _RUN, cpu,
                                              None, 0, None, False, None])
                        i += _STEP
                        continue
                    # -- an untimed op: no CPU ------------------------------
                    slot = rows[i + 1]
                    if op == _WAIT:
                        if level[slot]:
                            later(now + rows[i + 2], pid)
                        else:
                            waiting[slot].append((pid, rows[i + 2]))
                        st[2] = _RUN
                        i += _STEP
                        break
                    if op == _ACQUIRE:
                        # A place is granted at now, a heap hop, even when
                        # one is free.  ``count`` is the holders and the
                        # processes queued for a place.
                        count[slot] += 1
                        if count[slot] <= rows[i + 2]:
                            lane.append(pid)
                        else:
                            places.setdefault(slot, deque()).append(pid)
                        st[2] = _RUN
                        i += _STEP
                        break
                    if op == _RELEASE:
                        count[slot] -= 1
                        if count[slot] >= rows[i + 2]:
                            lane.append(places[slot].popleft())
                    elif op == _JOIN:
                        req = procs[st[4].pop()]
                        if not req[7]:
                            req[8] = pid
                            st[2] = _RUN
                            i += _STEP
                            break
                    elif op == _JOIN_ALL:
                        pending = [procs[q] for q in st[4] if not procs[q][7]]
                        st[4] = []
                        if pending:
                            for req in pending:
                                req[8] = -1 - pid
                            st[5] = len(pending)
                            st[2] = _RUN
                            i += _STEP
                            break
                    elif op == _ENQUEUE:
                        count[slot] += 1
                        if not level[slot]:
                            level[slot] = 1
                            for waiter, extra in waiting[slot]:
                                later(now + extra, waiter)
                            waiting[slot].clear()
                    elif op == _DEQUEUE:
                        if not count[slot]:
                            # Lower the gate and re-check on wake.
                            level[slot] = 0
                            waiting[slot].append((pid, rows[i + 2]))
                            st[2] = _RUN
                            break
                        count[slot] -= 1
                    else:
                        st[6].append(now)
                    i += _STEP
                else:
                    if pid >= p:
                        # Done: a request releases the channel lock its
                        # first row took, then completes for whoever
                        # waits on it.
                        lock = rows[1]
                        count[lock] -= 1
                        if count[lock] >= rows[2]:
                            lane.append(places[lock].popleft())
                        st[7] = True
                        if st[8] is not None:
                            lane.append(pid)
                            st[2] = _COMPLETED
                st[1] = i
                break
        del lanes[now]


def _run_requests(progs: list[list], templates: list[list], nslots: int,
                  start: Optional[tuple] = None) -> list[list[int]]:
    """Execute the main programs and the requests they start from t = 0,
    or from ``start`` (a :func:`_request_start` state: ``progs`` then
    continue its prefix); every rank's marks."""
    p = len(progs)
    state = _request_state(progs, nslots, start)
    _request_pass(p, state, templates)
    procs = state[2]
    if any(st[1] != len(st[0]) for st in procs[:p]):
        raise Escalation("no progress: a main program never finished")
    return [st[6] for st in procs[:p]]


def _request_start(prefix: list[list], templates: list[list], nslots: int,
                   cut: int) -> tuple:
    """The request executor's state at the start of instant ``cut``, the
    first at which a main program passes the end of its ``prefix``:
    every entry before it belongs to the prefix alone, so a program
    that continues the prefix resumes from here."""
    state = _request_state(prefix, nslots)
    _request_pass(len(prefix), state, templates, cut)
    return state


# -- entry points ------------------------------------------------------------
class Session:
    """Replays on one ``(stack, cores, config, rank_order)``: the
    communicator, the binder with its compiled programs and request
    templates, and a measurement's barrier prefix are built once
    and shared by every call; each call runs on fresh copies of the
    program lists, and from the second measured call on, from a copy of
    the executor's state at the prefix's cut (see the module
    docstring).  Lives as long as its caller keeps it (one sweep
    group): nothing is kept between sessions.

    The constructor raises :class:`Escalation` where no call on the
    session can be replayed (MPB contention, a rank count or rank order
    the chip rejects, a stack replay does not know); a call
    raises it for that call alone (the ``mpb`` algorithm, an unknown
    kind or algorithm, a run that cannot make progress).
    """

    def __init__(self, stack: str, cores: int, *,
                 config: Optional[SCCConfig] = None,
                 rank_order: Optional[Sequence[int]] = None):
        config = config if config is not None else SCCConfig()
        if config.model_mpb_contention:
            raise Escalation("MPB contention")
        try:
            config.check_rank_count(cores)
        except ValueError as exc:
            raise Escalation(str(exc)) from None
        ranks = (list(rank_order) if rank_order is not None
                 else list(range(cores)))
        if (len(ranks) != cores or len(set(ranks)) != cores
                or not all(0 <= core < config.num_cores for core in ranks)):
            raise Escalation(f"rank order {ranks}")
        self.ctx = _Context(stack, config)
        self.cores = cores
        self.binder = _Binder(self.ctx, ranks)
        self.programs = (_BlockingPrograms if self.ctx.blocking
                         else _RequestPrograms)(self.binder, cores)
        self.empty = self.programs.state()
        self.prefix: Optional[list[list]] = None
        #: T*: the first instant a main program passes the prefix's mark,
        #: read from the first measured call's marks.
        self.cut: Optional[int] = None
        #: The executor's state at the cut, built on the second.
        self.start: Optional[tuple] = None

    def calls(self, calls: Sequence[tuple]) -> list[list[int]]:
        """Every rank's virtual time (ps) after each of ``calls``, made
        back to back by every rank from t = 0, as an SPMD program would.

        A call is ``(kind, n, algo, root, part)``: ``barrier``, a kind of
        :data:`KINDS` (``n`` elements per rank; per destination row for
        ``alltoall``), or ``scatter``/``gather`` (with ``part`` for
        their ``v`` forms); or ``("compute", cycles)``, every rank's
        ``env.compute`` with ``cycles[r]`` core cycles on rank r
        (converted by the configuration's ``LatencyModel.core_cycles``
        as ``CoreEnv.compute`` converts them).  An SPMD program's calls
        in its order, computes included, replay its run: the last
        call's times are its ranks' exits
        (:func:`repro.ensemble.engines.replay_gcmc` replays a GCMC run
        so)."""
        self.programs.restore(self.empty)
        for call in calls:
            self._append(call)
        return self._execute(None)

    def measure(self, kind: str, size: int,
                algo: Optional[str] = None) -> list[tuple[int, int]]:
        """Every rank's ``(latency, exit)`` ps of one measured collective
        (:func:`~repro.bench.runner.program_for`: a barrier, then the
        timed call; rank 0's latency is what ``measure_collective``
        reports)."""
        if kind not in KINDS:
            raise Escalation(f"unknown kind {kind!r}")
        programs = self.programs
        if self.prefix is None:
            programs.restore(self.empty)
            self._append(("barrier", 0, None, 0, None))
            self.prefix = programs.state()
        programs.restore(self.prefix)
        self._append((kind, size, algo, 0, None))
        if self.cut is not None and self.start is None:
            nslots = len(self.binder.slots)
            self.start = (
                _blocking_start(self.prefix, nslots) if self.ctx.blocking
                else _request_start(self.prefix, programs.templates, nslots,
                                    self.cut))
        marks = self._execute(self.start)
        if self.cut is None:
            self.cut = min(rank_marks[0] for rank_marks in marks)
        return [(done - start, done) for start, done in marks]

    def _append(self, call: tuple) -> None:
        if call[0] == "compute":
            cycles = call[1]
            if len(cycles) != self.cores:
                raise ValueError(f"compute call for {len(cycles)} ranks "
                                 f"on {self.cores}")
            core_cycles = self.ctx.machine.latency.core_cycles
            self.programs.compute([core_cycles(c) for c in cycles])
        else:
            sched = _schedule(self.ctx, self.cores, call)
            if sched is None:
                self.programs.barrier(self.ctx.comm.call_ps)
            else:
                self.programs.collective(sched, self.ctx.comm.call_ps)
        self.programs.mark()

    def _execute(self, start: Optional[tuple]) -> list[list[int]]:
        """Run the programs from t = 0, or from ``start``."""
        programs = self.programs
        nslots = len(self.binder.slots)
        if self.ctx.blocking:
            return _run_blocking(programs.progs, nslots, start)
        return _run_requests(programs.progs, programs.templates, nslots,
                             start)


def replay_calls(stack: str, cores: int, calls: Sequence[tuple], *,
                 config: Optional[SCCConfig] = None,
                 rank_order: Optional[Sequence[int]] = None
                 ) -> list[list[int]]:
    """:meth:`Session.calls` on a session of its own.  Raises
    :class:`Escalation` for what only the simulator can answer (see the
    module docstring)."""
    return Session(stack, cores, config=config,
                   rank_order=rank_order).calls(calls)


def replay_measurement(kind: str, stack: str, size: int, *, cores: int,
                       config: Optional[SCCConfig] = None,
                       rank_order: Optional[Sequence[int]] = None,
                       algo: Optional[str] = None) -> list[tuple[int, int]]:
    """:meth:`Session.measure` on a session of its own.  Arguments as
    for :func:`~repro.bench.runner.launch_collective`; raises
    :class:`Escalation` where the simulator must answer."""
    return Session(stack, cores, config=config,
                   rank_order=rank_order).measure(kind, size, algo)


__all__ = ["Escalation", "KINDS", "Session", "replay_calls",
           "replay_measurement"]
