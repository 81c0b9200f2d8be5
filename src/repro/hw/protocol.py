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
                                     (no CPU occupancy)
=======  ==========================  ====================================

``role`` indexes the operands a table is bound to and run over (for a
p2p channel ``(buf, sent, ready[, nack])``, see the role constants);
``state`` indexes :data:`STATES`.

**Binding** (:func:`bind`) resolves a table for an acting core, the MPB
owners of its operands and a payload size into a *program*: ``(erratum
level, rows)``, every row carrying the role of its operand, whether
:func:`bind` priced it, the base charge taken from the
:class:`~repro.hw.timing.LatencyModel`, the account state, whether it
holds its operand's MPB port (under ``model_mpb_contention``) and the
payload slice it moves.  Rows hold only ints, strings, slices and None,
never a machine object or a core id, so a program is a function of the
configuration alone: :func:`bind` keeps it in the configuration's
:class:`~repro.hw.timing.SharedTables`, which every machine, cost model
and replay context on an equal configuration shares.  A program is
found by the table, the acting core, the owners, the size, the chunk,
the cost and the call charge (and the erratum level it was priced at),
and kept once per pricing class (:func:`~repro.hw.timing.pair_classes`)
of each operand's (acting core, owner) pair: every latency depends on a
core pair only through its class, so equidistant channels share one
program.  :func:`run_ops` looks up the run's own
operands — its flags, regions, windows and queues — by role, and their
owners where a fault or a port needs them.  A priced ``PUT``/``GET`` is
an ``RCCE_put``/``RCCE_get``: call overhead plus line copy; with an
explicit ``cost`` it is a fused burst the caller priced (the MPB-direct
Allreduce) and charged as given.  With ``chunk`` the table is repeated
once per ``chunk``-byte piece of the payload (and ``cost`` may be a
module-level function of the piece's size), so a whole multi-chunk
message is one program, priced the first time any machine on the
configuration sends a message of its class and size.

:func:`run_ops` is the single generator that executes a program: the
only place in the protocol layers that holds the CPU lock (an inline of
:meth:`repro.hw.machine.Core.consume`, plus the port), re-prices a row
bound before an erratum toggle, adds the fault injector's terms — mesh
jitter, then a core stall, on every timed op; write-verify against
dropped flag writes; stale flag notifies; payload corruption after a
priced ``PUT``, in that draw order (none on a window or queue op) — and
calls the monitor's flag hooks.  Faulted, monitored and port-contended
runs execute the same rows.  A non-blocking request runs a message's
program inside the sub-process :class:`~repro.ircce.requests.NonBlockingLayer`
wraps around it (the channel-lock hold, cancellation and retirement).

``NOTE`` rows only matter to a wildcard receive; the stacks bind the
tables that have them only on a machine where a wildcard-capable layer
called :func:`accept_wildcards`.
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
#: Programs kept per configuration and erratum level (under 1 KB each),
#: so that a sweep over many sizes holds at most a few MB; a full table
#: is emptied before the next one is kept.  The ten p=48 points of the
#: Fig.-9 benchmark bind 236 programs, the 306 points of the harness
#: benchmark 292.
PROGRAM_LIMIT = 8192

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
    if op == DEQUEUE:
        # The wait for a packet: one read of the reader's own MPB.
        return latency.mpb_access(core_id, core_id)
    nbytes = piece.stop - piece.start
    config = latency.config
    return (latency.core_cycles(putget_calls(nbytes, config.l1_line_bytes)
                                * config.rcce_putget_call_cycles)
            + (latency.mpb_write_bytes if op == PUT
               else latency.mpb_read_bytes)(core_id, owner, nbytes))


def bind(core: "Core", table: Sequence[tuple], owners: tuple = (),
         nbytes: int = 0, chunk: int = 0, cost: Any = None, at: int = 0,
         call: int = 0) -> tuple:
    """The program ``(level, rows)`` of ``table`` for ``core`` over
    operands in the MPBs of the cores ``owners`` (by role), from the
    configuration's shared tables (bound and kept there on first use):
    found by these arguments, and shared with every call whose owners
    are in the same pair classes.

    ``nbytes`` is the payload a run moves (the ``data`` its ``PUT`` rows
    copy, the bytes its ``GET`` rows read) and ``at`` its offset in the
    region; with ``chunk`` the table repeats for every ``chunk``-byte
    piece (once for an empty payload).  ``cost`` is the explicit charge
    of ``CHARGE`` rows and fused copies, or a module-level function
    ``cost(latency, core_id, owners, piece_bytes)`` that depends on each
    owner only through its pair class (it is part of the key); ``call``
    prepends one ``overhead`` charge of that many core cycles (a blocking
    call's software overhead).  A bound row is ``(op, role, priced, charge,
    state, port, piece, at)``: ``priced`` is False on a row priced by
    the caller, ``port`` True on a row that holds its operand's MPB port,
    a ``WAIT`` row's ``state`` is the awaited level, a ``NOTE`` row's
    ``role`` is the operand whose owner is the peer and its ``state`` the
    kind, and a ``DEQUEUE`` row's ``state`` the role of the window it
    frees and its ``charge`` the notify delay of its wait.
    """
    latency = core.machine.latency
    shared = latency.shared
    core_id = core.core_id
    if shared is None:
        # The reference model keeps nothing.
        return _bind(latency, core_id, table, owners, nbytes, chunk, cost,
                     at, call)
    level = latency.config.erratum_enabled
    index = shared.index[level]
    # A table is keyed by identity (hashing its rows costs more than the
    # lookup); ``shared.tables`` keeps every keyed table alive, so that
    # no other object can take its id while a key holds it.
    key = (id(table), core_id, owners, nbytes, chunk, cost, at, call)
    program = index.get(key)
    if program is None:
        # Equidistant channels share one program.
        programs = shared.programs[level]
        pairs = shared.classes[core_id]
        priced = (id(table), tuple([pairs[owner] for owner in owners]),
                  nbytes, chunk, cost, at, call)
        program = programs.get(priced)
        if program is None:
            program = _bind(latency, core_id, table, owners, nbytes, chunk,
                            cost, at, call)
        if len(index) >= PROGRAM_LIMIT:
            index.clear()
            programs.clear()
        shared.tables[id(table)] = table
        index[key] = programs[priced] = program
    return program


def _bind(latency: "LatencyModel", core_id: int, table: Sequence[tuple],
          owners: tuple, nbytes: int, chunk: int, cost: Any,
          at: int, call: int) -> tuple:
    """:func:`bind`'s pricing, at the current erratum level."""
    config = latency.config
    ported = config.model_mpb_contention
    rows = ([(CHARGE, None, False, latency.core_cycles(call), "overhead",
              None, None, 0)] if call else [])
    if chunk and nbytes > chunk:
        pieces = [slice(lo, min(lo + chunk, nbytes))
                  for lo in range(0, nbytes, chunk)]
    else:
        pieces = (slice(0, nbytes),)
    for piece in pieces:
        charge = (cost(latency, core_id, owners, piece.stop - piece.start)
                  if callable(cost) else cost)
        for op, role, arg in table:
            if op <= CLEAR:
                rows.append((op, role, True,
                             latency.flag_write(core_id, owners[role]),
                             "overhead", None, piece, at))
            elif op == WAIT:
                rows.append((op, role, True,
                             latency.flag_notify(core_id, owners[role]), arg,
                             None, piece, at))
            elif op == NOTE:
                # The peer is the owner of the sender's buffer or of the
                # receiver's sent flag.
                rows.append((op, BUF if role == TAKEN else SENT, False, 0,
                             role, None, piece, 0))
            elif op == DEQUEUE:
                rows.append((op, role, True,
                             _price(latency, core_id, op, core_id, piece), arg,
                             None, piece, at))
            elif op > NOTE:
                rows.append((op, role, False, 0, arg, None, piece, at))
            elif op == CHARGE or cost is not None:
                rows.append((op, None if op == CHARGE else role, False,
                             charge, STATES[arg], None, piece, at))
            else:
                rows.append((op, role, True,
                             _price(latency, core_id, op, owners[role], piece),
                             STATES[arg], ported or None, piece, at))
    return config.erratum_enabled, tuple(rows)


# -- the wildcard-receive announcement channel ------------------------------
def accept_wildcards(machine: "Machine") -> None:
    """Register a wildcard-capable layer (iRCCE) on ``machine``: from now
    on every message binds the tables with ``NOTE`` rows and announces
    itself to its receiver."""
    machine.services.setdefault(_PENDING, {})


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
def _rewrite_flag(core: "Core", flag: Any, level: bool) -> Generator:
    """Write-verify against a lost flag write: the writer reads the flag
    back (one MPB access) and rewrites until the level sticks, bounded by
    the retry budget.  Entered after the first write was dropped."""
    machine = core.machine
    faults = machine.faults
    core_id = core.core_id
    attempts = 1
    while True:
        if attempts > faults.plan.max_retries:
            faults.raise_fault(
                "flag_write", f"flag write lost {attempts} times",
                actor=f"core{core_id}", owner=flag.owner, flag=flag.name,
                level=level)
        yield from core.consume(
            machine.latency.mpb_access(core_id, flag.owner)
            + machine.latency.flag_write(core_id, flag.owner), "overhead")
        if not faults.flag_write_dropped(core_id, flag.owner, flag.name):
            return
        attempts += 1


def run_ops(core: "Core", program: tuple, handles: Sequence[Any] = (),
            data: Any = None) -> Generator:
    """Execute a bound ``program`` for ``core`` over ``handles``, the
    run's operands by role (the flags, regions, windows and queues whose
    owners it was bound for).

    ``data`` is the payload: the uint8 array ``PUT`` rows copy slices of
    and ``GET`` rows fill, or ``None`` for a run whose ``GET`` reads into
    fresh arrays.  Returns the bytes of the last ``GET`` when ``data`` is
    ``None``.
    """
    machine = core.machine
    core_id = core.core_id
    config = machine.config
    faults = machine.faults
    san = machine.san
    sim = machine.sim
    cpu = core.cpu
    states = core.account.states
    level = program[0]
    result = None
    for op, role, priced, charge, state, port, piece, at in program[1]:
        if priced and config.erratum_enabled != level:
            # Bound before the injector toggled the erratum.
            charge = _price(machine.latency, core_id, op,
                            core_id if op == DEQUEUE else handles[role].owner,
                            piece)
        # -- an untimed op runs and moves on ...
        if op == WAIT:
            obj = handles[role]
            if faults is not None:
                charge += faults.flag_stale_extra_ps(core_id, obj.owner,
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
            obj = handles[role]
            if op == NOTE:
                if state == POSTED:
                    announce_send(machine, core_id, obj.owner,
                                  piece.stop - piece.start)
                else:
                    take_announcement(machine, core_id, obj.owner)
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
                    obj.clear()
                    yield from core.wait(obj.wait_true(charge), "wait_flag")
                result = obj.items.popleft()
                handles[state].release()
                if result.size != piece.stop - piece.start:
                    raise ValueError(f"{result.size}-B packet, expected "
                                     f"{piece.stop - piece.start} B")
                data[piece] = result
            continue
        stall = 0
        if faults is not None:
            if priced:
                charge += faults.mesh_extra_ps(core_id, handles[role].owner)
            if charge > 0:
                stall = faults.stall_ps(core_id)

        # ... a timed one holds the CPU, then the MPB port (lock order is
        # always CPU first; port holders only wait on timeouts, so it
        # cannot deadlock).  Inline of Core.consume: keep in sync.
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
            elif ((port := machine.mpb_ports[handles[role].owner])._locked
                  or port._queue):
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
        if op == CHARGE:
            continue
        obj = handles[role]
        if op <= CLEAR:
            if faults is not None and faults.flag_write_dropped(
                    core_id, obj.owner, obj.name):
                yield from _rewrite_flag(core, obj, op == SET)
            if san is not None:
                san.on_flag_write(obj, op == SET, core_id)
            if op == SET:
                obj.gate.set()
            else:
                obj.gate.clear()
        elif op == PUT:
            obj.write(data[piece], at=at, actor=core_id)
            if faults is not None and priced:
                faults.maybe_corrupt(obj, piece.stop - piece.start,
                                     at=at, actor=f"core{core_id}")
        elif op == GET:
            result = obj.read(piece.stop - piece.start, at=at, actor=core_id)
            if data is not None:
                data[piece] = result
    return result if data is None else None
