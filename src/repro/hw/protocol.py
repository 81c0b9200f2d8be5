"""MPB protocols as data: the micro-op vocabulary, its binder and its one
interpreter.

The paper's optimisations A and B re-order and re-price six MPB
micro-operations (Fig. 3 vs Fig. 5).  A protocol is therefore a
module-level **table** of ``(op, role, arg)`` int rows kept beside the
stack that owns it (``SEND_CHUNK``/``RECV_CHUNK`` and the barrier in
:mod:`repro.rcce.api`, produce/consume in :mod:`repro.core.mpb_allreduce`,
RCKMPI's eager packets in :mod:`repro.rckmpi.channel`).

=======  ==========================  ====================================
op       role / arg                  what the acting core does
=======  ==========================  ====================================
CHARGE   -- / state                  hold the CPU for ``cost`` ps
PUT      region / state              copy payload bytes into the region
GET      region / state              copy bytes out of the region
SET      flag / --                   write 1 to the flag
CLEAR    flag / --                   write 0 to the flag
WAIT     flag / level                poll until the flag is at ``level``
                                     (no CPU occupancy)
NOTE     POSTED | TAKEN / --         untimed wildcard-receive bookkeeping
ACQUIRE  window / --                 take a window slot (untimed)
ENQUEUE  queue / --                  queue a copy of the piece (untimed)
DEQUEUE  queue / window              await a piece, take it, free its slot
=======  ==========================  ====================================

``role`` indexes the ``handles`` sequence a table is bound to (for a p2p
channel ``(buf, sent, ready[, nack])``, see the role constants); ``state``
indexes :data:`STATES`.

**Binding** (:func:`bind`) resolves a table once for an acting core, its
handles and a payload size into a *program*: ``(erratum level, rows)``,
every row carrying its handle, the MPB owner, the base charge taken from
the :class:`~repro.hw.timing.LatencyModel`, the account state, the MPB
port (under ``model_mpb_contention``) and the payload slice it moves.  A
priced ``PUT``/``GET`` is an ``RCCE_put``/``RCCE_get``: call overhead
plus line copy; with an explicit ``cost`` it is a fused burst the caller
priced (the MPB-direct Allreduce) and charged as given.  With ``chunk``
the table is repeated once per ``chunk``-byte piece of the payload (and
``cost`` may be a function of the piece's size), so a whole multi-chunk
message is one program.  The stacks memoize a message's program in the
latency model's table of the current erratum level
(:meth:`~repro.hw.timing.LatencyModel.table`), so a channel is priced the
first time it carries a message of that size, and
:meth:`~repro.hw.timing.LatencyModel.invalidate` drops the programs with
the latencies.

:func:`run_ops` is the single generator that executes a program: the
only place in the protocol layers that holds the CPU lock (an inline of
:meth:`repro.hw.machine.Core.consume`, plus the port), re-prices a row
bound before an erratum toggle, adds the fault injector's terms — mesh
jitter, then a core stall, on every timed op; write-verify against
dropped flag writes; stale flag notifies; payload corruption after a
priced ``PUT``, in that draw order (none on a window or queue op) — and
calls the monitor's flag hooks.  Faulted, monitored and port-contended
runs execute the same rows.  Given a non-blocking
:class:`~repro.ircce.requests.Request`, the run is that request's whole
sub-process: it holds the request's channel lock around the rows and
retires the request when they are done.

``NOTE`` rows only matter to a wildcard receive; the stacks bind them
only on a machine where a wildcard-capable layer called
:func:`accept_wildcards`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from repro.sim.events import Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.machine import Core, Machine
    from repro.hw.timing import LatencyModel

#: Micro-ops, the commonest first.  ``WAIT`` and the ops from ``NOTE`` on
#: are untimed; the others hold the CPU.
SET, CLEAR, WAIT, PUT, GET, CHARGE, NOTE, ACQUIRE, ENQUEUE, DEQUEUE = range(10)
#: ``NOTE`` kinds: the sender posted a chunk / the receiver took it.
POSTED, TAKEN = 0, 1
#: Time-account states a timed op's ``arg`` selects.
STATES = ("overhead", "copy", "compute")
OVERHEAD, COPY, COMPUTE = range(3)
#: Roles of a p2p channel's handles ``(buf, sent, ready[, nack])``.
BUF, SENT, READY, NACK = range(4)
#: Where a bound row (see :func:`bind`) keeps its payload slice.
PIECE = 6

#: Where the announcement queues live; present only on a machine with a
#: wildcard-capable layer.
_PENDING = "p2p.pending"


def putget_calls(nbytes: int, line_bytes: int) -> int:
    """Number of low-level transfer invocations for an ``nbytes`` message:
    one streaming call for the full lines plus one for a padded tail."""
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    full, tail = divmod(nbytes, line_bytes)
    return (full > 0) + (tail > 0)


# -- binding ---------------------------------------------------------------
def _price(latency: "LatencyModel", core_id: int, op: int, owner: int,
           piece: slice) -> int:
    """The base charge of a priced row at the current erratum level."""
    if op <= CLEAR:
        return latency.flag_write(core_id, owner)
    if op == WAIT:
        return latency.flag_notify(core_id, owner)
    nbytes = piece.stop - piece.start
    config = latency.config
    return (latency.core_cycles(putget_calls(nbytes, config.l1_line_bytes)
                                * config.rcce_putget_call_cycles)
            + (latency.mpb_write_bytes if op == PUT
               else latency.mpb_read_bytes)(core_id, owner, nbytes))


def bind(core: "Core", table: Sequence[tuple], handles: Sequence[Any] = (),
         nbytes: int = 0, chunk: int = 0, cost: Optional[int] = None,
         at: int = 0, call: int = 0) -> tuple:
    """Resolve ``table`` for ``core`` into a program ``(level, rows)``.

    ``nbytes`` is the payload a run moves (the ``data`` its ``PUT`` rows
    copy, the bytes its ``GET`` rows read) and ``at`` its offset in the
    region; with ``chunk`` the table repeats for every ``chunk``-byte
    piece (once for an empty payload).  ``cost`` is the explicit charge
    of ``CHARGE`` rows and fused copies (or a function of a piece's
    size); ``call`` prepends one ``overhead`` charge of that many ps (a
    blocking call's software overhead).  A bound row is ``(op, obj,
    owner, charge, state, port, piece, at)``: ``owner`` is -1 on a row
    priced by the caller, a ``WAIT`` row's ``state`` is the awaited
    level, a ``NOTE`` row's ``obj`` is the peer core and its ``state``
    the kind, and a ``DEQUEUE`` row's ``state`` the window it frees.
    """
    machine = core.machine
    latency = machine.latency
    ports = machine.mpb_ports
    core_id = core.core_id
    rows = ([(CHARGE, None, -1, call, "overhead", None, None, 0)]
            if call else [])
    if chunk and nbytes > chunk:
        pieces = [slice(lo, min(lo + chunk, nbytes))
                  for lo in range(0, nbytes, chunk)]
    else:
        pieces = (slice(0, nbytes),)
    # Channel binding is on the first message of every channel, so the
    # common rows are priced inline rather than through ``_price``.
    for piece in pieces:
        charge = cost(piece.stop - piece.start) if callable(cost) else cost
        for op, role, arg in table:
            if op <= CLEAR:
                obj = handles[role]
                owner = obj.owner
                rows.append((op, obj, owner,
                             latency.flag_write(core_id, owner), "overhead",
                             None, piece, at))
            elif op == WAIT:
                obj = handles[role]
                owner = obj.owner
                rows.append((op, obj, owner,
                             latency.flag_notify(core_id, owner), arg, None,
                             piece, at))
            elif op == NOTE:
                peer = handles[BUF if role == TAKEN else SENT].owner
                rows.append((op, peer, -1, 0, role, None, piece, 0))
            elif op > NOTE:
                rows.append((op, handles[role], -1, 0, handles[arg], None,
                             piece, at))
            elif op == CHARGE or cost is not None:
                rows.append((op, None if op == CHARGE else handles[role], -1,
                             charge, STATES[arg], None, piece, at))
            else:
                obj = handles[role]
                owner = obj.owner
                rows.append((op, obj, owner,
                             _price(latency, core_id, op, owner, piece),
                             STATES[arg],
                             None if ports is None else ports[owner],
                             piece, at))
    return machine.config.erratum_enabled, tuple(rows)


# -- the wildcard-receive announcement channel ------------------------------
def accept_wildcards(machine: "Machine") -> None:
    """Register a wildcard-capable layer (iRCCE) on ``machine``: from now
    on every message announces itself to its receiver.  Programs bound
    before are dropped so that they are re-bound with their ``NOTE``
    rows."""
    if _PENDING not in machine.services:
        machine.services[_PENDING] = {}
        machine.latency.invalidate()


def announcing(machine: "Machine") -> bool:
    """True once a wildcard-capable layer is installed on ``machine``."""
    return _PENDING in machine.services


def announcements(machine: "Machine", dst: int) -> list[tuple[int, int]]:
    """``dst``'s queue of ``(src, nbytes)`` announcements, oldest first."""
    queues = machine.services[_PENDING]
    queue = queues.get(dst)
    if queue is None:
        queue = queues[dst] = []
    return queue


def announce_send(machine: "Machine", src: int, dst: int, nbytes: int) -> None:
    """Record that ``src`` has posted data for ``dst`` (called when the
    sent flag is raised)."""
    announcements(machine, dst).append((src, nbytes))
    machine.flag(dst, "p2p.incoming").force(True, actor=src)


def take_announcement(machine: "Machine", dst: int,
                      src: Optional[int] = None) -> Optional[tuple[int, int]]:
    """Pop a pending (src, nbytes) announcement for ``dst`` (FIFO); with
    ``src`` given, pop that sender's first announcement."""
    queue = announcements(machine, dst)
    for index, (s, _n) in enumerate(queue):
        if src is None or s == src:
            break
    else:
        return None
    item = queue.pop(index)
    if not queue:
        machine.flag(dst, "p2p.incoming").force(False, actor=dst)
    return item


# -- the interpreter ---------------------------------------------------------
def run_ops(core: "Core", program: tuple, data: Any = None,
            req: Any = None) -> Generator:
    """Execute a bound ``program`` for ``core``.

    ``data`` is the payload: the uint8 array ``PUT`` rows copy slices of
    and ``GET`` rows fill, or ``None`` for a run whose ``GET`` reads into
    fresh arrays.  ``req`` makes the run a non-blocking request's
    sub-process (see the module docstring); an interrupted request run
    returns ``None``, any other run re-raises the
    :class:`~repro.sim.events.Interrupt`.  Returns the bytes of the last
    ``GET`` when ``data`` is ``None``.
    """
    machine = core.machine
    core_id = core.core_id
    config = machine.config
    faults = machine.faults
    san = machine.san
    sim = machine.sim
    cpu = core.cpu
    states = core.account.states
    level, rows = program
    result = held = None
    try:
        if req is not None:
            if req.lock._locked or req.lock._queue:
                grant = req.lock.acquire()
                try:
                    yield grant
                except Interrupt:
                    req.lock.abandon(grant)
                    return None
                held = req.lock
            else:
                # A free lock is granted inline; the zero hold resumes the
                # run at the heap position the grant would have had.
                held = req.lock
                held._locked = True
                yield 0
        for op, obj, owner, charge, state, port, piece, at in rows:
            if owner >= 0 and config.erratum_enabled != level:
                # Bound before the injector toggled the erratum.
                charge = _price(machine.latency, core_id, op, owner, piece)
            # -- an untimed op runs and moves on ...
            if op == WAIT:
                if faults is not None:
                    charge += faults.flag_stale_extra_ps(core_id, owner,
                                                         obj.name)
                if state:
                    grant = obj.gate.wait_true(charge)
                    grant.label = obj._label_set
                else:
                    grant = obj.gate.wait_false(charge)
                    grant.label = obj._label_clear
                t0 = sim._now
                yield grant
                states["wait_flag"] += sim._now - t0
                if san is not None:
                    san.on_flag_observed(obj, state == 1, core_id)
                continue
            if op >= NOTE:
                if op == NOTE:
                    if state == POSTED:
                        announce_send(machine, core_id, obj,
                                      piece.stop - piece.start)
                    else:
                        take_announcement(machine, core_id, obj)
                elif op == ACQUIRE:
                    grant = obj.acquire()
                    try:
                        yield grant
                    except Interrupt:
                        obj.abandon(grant)
                        raise
                elif op == ENQUEUE:
                    obj.items.append(data[piece].copy())
                    obj.set()
                else:
                    while not obj.items:
                        # Priced when the wait starts: one local MPB read.
                        obj.clear()
                        yield from core.wait(obj.wait_true(
                            machine.latency.mpb_access(core_id, core_id)),
                            "wait_flag")
                    result = obj.items.popleft()
                    state.release()
                    if result.size != piece.stop - piece.start:
                        raise ValueError(f"{result.size}-B packet, expected "
                                         f"{piece.stop - piece.start} B")
                    data[piece] = result
                continue
            stall = 0
            if faults is not None:
                if owner >= 0:
                    charge += faults.mesh_extra_ps(core_id, owner)
                if charge > 0:
                    stall = faults.stall_ps(core_id)

            # ... a timed one holds the CPU, then the MPB port (lock order
            # is always CPU first; port holders only wait on timeouts, so
            # it cannot deadlock).  Inline of Core.consume: keep in sync.
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
                if port is None:
                    pass
                elif port._locked or port._queue:
                    t0 = sim._now
                    grant = port.acquire()
                    try:
                        yield grant
                    except Interrupt:
                        port.abandon(grant)
                        port = None
                        raise
                    if sim._now > t0:
                        states["wait_port"] += sim._now - t0
                else:
                    port._locked = True
                try:
                    if stall:
                        yield stall
                        states["stall"] += stall
                    if charge > 0:
                        yield charge
                    states[state] += charge
                finally:
                    if port is not None:
                        port.release()
            finally:
                if cpu._queue:
                    cpu._queue.popleft().succeed()
                else:
                    cpu._locked = False

            # ... and applies its effect.
            if op <= CLEAR:
                if faults is not None:
                    # Write-verify against lost flag writes: the writer
                    # reads the flag back (one MPB access) and rewrites
                    # until the level sticks, bounded by the retry budget.
                    attempts = 0
                    while faults.flag_write_dropped(core_id, owner,
                                                    obj.name):
                        attempts += 1
                        if attempts > faults.plan.max_retries:
                            faults.raise_fault(
                                "flag_write",
                                f"flag write lost {attempts} times",
                                actor=f"core{core_id}", owner=owner,
                                flag=obj.name, level=op == SET)
                        yield from core.consume(
                            machine.latency.mpb_access(core_id, owner)
                            + machine.latency.flag_write(core_id, owner),
                            "overhead")
                if san is not None:
                    san.on_flag_write(obj, op == SET, core_id)
                if op == SET:
                    obj.gate.set()
                else:
                    obj.gate.clear()
            elif op == PUT:
                obj.write(data[piece], at=at, actor=core_id)
                if faults is not None and owner >= 0:
                    faults.maybe_corrupt(obj, piece.stop - piece.start,
                                         at=at, actor=f"core{core_id}")
            elif op == GET:
                result = obj.read(piece.stop - piece.start, at=at,
                                  actor=core_id)
                if data is not None:
                    data[piece] = result
    except Interrupt:
        if req is None:
            raise
        return None
    finally:
        if held is not None:
            held.release()
    if req is not None:
        req.retire()
    return result if data is None else None
