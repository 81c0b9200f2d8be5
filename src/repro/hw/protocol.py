"""MPB protocols as data: the micro-op vocabulary and its one interpreter.

The paper's optimisations A and B re-order and re-price six MPB
micro-operations (Fig. 3 vs Fig. 5).  A protocol is therefore a
module-level **table** of ``(op, role, arg)`` int rows kept beside the
stack that owns it (``SEND_CHUNK``/``RECV_CHUNK`` and the barrier in
:mod:`repro.rcce.api`, produce/consume in :mod:`repro.core.mpb_allreduce`),
and :func:`run_ops` is the single generator that executes one for a core.

======  ==========================  =====================================
op      role / arg                  what the acting core does
======  ==========================  =====================================
CHARGE  -- / state                  hold the CPU for ``cost`` ps
PUT     region / state              copy ``data`` into the region
GET     region / state              copy ``data`` bytes out of the region
SET     flag / --                   write 1 to the flag
CLEAR   flag / --                   write 0 to the flag
WAIT    flag / level                poll until the flag is at ``level``
                                    (no CPU occupancy)
NOTE    POSTED | TAKEN / --         untimed channel bookkeeping
======  ==========================  =====================================

``role`` indexes the ``handles`` sequence a run is bound to (for a p2p
channel ``(buf, sent, ready[, nack])``, see the role constants); ``state``
indexes :data:`STATES`.  A ``PUT``/``GET`` run with ``cost=None`` is an
``RCCE_put``/``RCCE_get``: the interpreter prices it (call overhead plus
line copy), holds the owner's MPB port when contention is modelled and
applies the injector's per-access terms.  With an explicit ``cost`` it is
a fused burst the caller priced (the MPB-direct Allreduce) and is charged
as given.

This is the only place in the protocol layers that holds the CPU lock
(an inline of :meth:`repro.hw.machine.Core.consume`, plus the port),
adds the fault injector's terms — mesh jitter, then a core stall, on
every timed op; write-verify against dropped flag writes; stale flag
notifies; payload corruption after a priced ``PUT``, in that draw order —
and calls the monitor's flag hooks.  A run given the channel's ``xfer``
state is under the **verify policy** of the fault-hardened transfer:
``NOTE POSTED`` stamps the chunk's ``(seq, crc32)`` frame and a ``GET``
that does not match it ends the run early (returning ``None``, before
the table's ``SET ready``) so the caller can NACK and re-run the same
table.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from repro.sim.events import Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.machine import Core, Machine

#: Micro-ops, the commonest first.  All but ``WAIT`` and ``NOTE`` are
#: timed: they hold the CPU.
SET, CLEAR, WAIT, PUT, GET, CHARGE, NOTE = range(7)
#: ``NOTE`` kinds: the sender posted a chunk / the receiver took it.
POSTED, TAKEN = 0, 1
#: Time-account states a timed op's ``arg`` selects.
STATES = ("overhead", "copy", "compute")
OVERHEAD, COPY, COMPUTE = range(3)
#: Roles of a p2p channel's handles ``(buf, sent, ready[, nack])``.
BUF, SENT, READY, NACK = range(4)


def putget_calls(nbytes: int, line_bytes: int) -> int:
    """Number of low-level transfer invocations for an ``nbytes`` message:
    one streaming call for the full lines plus one for a padded tail."""
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    full, tail = divmod(nbytes, line_bytes)
    return (full > 0) + (tail > 0)


def announce_send(machine: "Machine", src: int, dst: int, nbytes: int) -> None:
    """Bookkeeping used by iRCCE's wildcard receive: record that ``src``
    has posted data for ``dst`` (called when the sent flag is raised)."""
    pending = machine.services.setdefault("p2p.pending", {})
    pending.setdefault(dst, []).append((src, nbytes))
    machine.flag(dst, "p2p.incoming").force(True, actor=src)


def take_announcement(machine: "Machine", dst: int,
                      src: Optional[int] = None) -> Optional[tuple[int, int]]:
    """Pop a pending (src, nbytes) announcement for ``dst`` (FIFO); with
    ``src`` given, pop that sender's first announcement."""
    pending = machine.services.setdefault("p2p.pending", {})
    queue = pending.get(dst, [])
    for index, (s, _n) in enumerate(queue):
        if src is None or s == src:
            break
    else:
        return None
    item = queue.pop(index)
    if not queue:
        machine.flag(dst, "p2p.incoming").force(False, actor=dst)
    return item


def _note(machine: "Machine", core_id: int, kind: int,
          handles: Sequence[Any], data: Any, xfer: Optional[dict]) -> None:
    """The untimed channel bookkeeping of a ``NOTE`` row."""
    if kind == TAKEN:
        take_announcement(machine, core_id, handles[BUF].owner)
        return
    # POSTED.  Under the verify policy the chunk's frame is stamped; a
    # retransmission re-stamps the sequence number the frame already
    # carries and is not announced again.
    if xfer is not None:
        seq, frame = xfer["seq_out"], xfer["frame"]
        xfer["frame"] = (seq, zlib.crc32(data.tobytes()))
        if frame is not None and frame[0] == seq:
            return
    announce_send(machine, core_id, handles[SENT].owner, int(data.size))


def run_ops(core: "Core", table: Sequence[tuple], handles: Sequence[Any],
            data: Any = None, xfer: Optional[dict] = None, at: int = 0,
            cost: Optional[int] = None) -> Generator:
    """Execute ``table`` for ``core`` with its roles bound to ``handles``.

    ``data`` is the table's payload (the uint8 array a ``PUT`` writes,
    the byte count a ``GET`` reads), ``xfer`` the channel state of a run
    under the verify policy, ``at`` the payload's offset in the region,
    ``cost`` the explicit charge of ``CHARGE`` rows and fused copies.
    Returns the bytes of the last ``GET`` (``None`` when the verify
    policy rejected them).
    """
    machine = core.machine
    core_id = core.core_id
    latency = machine.latency
    faults = machine.faults
    san = machine.san
    cpu = core.cpu
    states = core.account.states
    result = port = None
    for op, role, arg in table:
        # -- price a timed op (or run an untimed one and move on) ...
        if op <= CLEAR:
            flag = handles[role]
            owner = flag.owner      # the MPB whose access may be jittered
            charge = latency.flag_write(core_id, owner)
            state = "overhead"
        elif op == WAIT:
            flag = handles[role]
            charge = latency.flag_notify(core_id, flag.owner)
            if faults is not None:
                charge += faults.flag_stale_extra_ps(core_id, flag.owner,
                                                     flag.name)
            if arg:
                grant = flag.gate.wait_true(charge)
                grant.label = flag._label_set
            else:
                grant = flag.gate.wait_false(charge)
                grant.label = flag._label_clear
            sim = machine.sim
            t0 = sim._now
            yield grant
            states["wait_flag"] += sim._now - t0
            if san is not None:
                san.on_flag_observed(flag, arg == 1, core_id)
            continue
        elif op == NOTE:
            _note(machine, core_id, role, handles, data, xfer)
            continue
        else:
            state = STATES[arg]
            owner = -1
            if cost is not None:
                charge = cost
            else:
                owner = handles[role].owner
                nbytes = int(data.size) if op == PUT else data
                charge = (
                    latency.core_cycles(
                        putget_calls(nbytes, machine.config.l1_line_bytes)
                        * machine.config.rcce_putget_call_cycles)
                    + (latency.mpb_write_bytes if op == PUT
                       else latency.mpb_read_bytes)(core_id, owner, nbytes))
                if machine.mpb_ports is not None:
                    port = machine.mpb_ports[owner]
        stall = 0
        if faults is not None:
            if owner >= 0:
                charge += faults.mesh_extra_ps(core_id, owner)
            if charge > 0:
                stall = faults.stall_ps(core_id)

        # ... hold the CPU, then the MPB port (lock order is always CPU
        # first; port holders only wait on timeouts, so it cannot
        # deadlock).  Inline of Core.consume: keep in sync.
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
                sim = machine.sim
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
                    port = None
        finally:
            if cpu._queue:
                cpu._queue.popleft().succeed()
            else:
                cpu._locked = False

        # ... and apply the effect.
        if op <= CLEAR:
            if faults is not None:
                # Write-verify against lost flag writes: the writer reads
                # the flag back (one MPB access) and rewrites until the
                # level sticks, bounded by the plan's retry budget.
                attempts = 0
                while faults.flag_write_dropped(core_id, owner, flag.name):
                    attempts += 1
                    if attempts > faults.plan.max_retries:
                        faults.raise_fault(
                            "flag_write",
                            f"flag write lost {attempts} times",
                            actor=f"core{core_id}", owner=owner,
                            flag=flag.name, level=op == SET)
                    yield from core.consume(
                        latency.mpb_access(core_id, owner)
                        + latency.flag_write(core_id, owner), "overhead")
            if san is not None:
                san.on_flag_write(flag, op == SET, core_id)
            if op == SET:
                flag.gate.set()
            else:
                flag.gate.clear()
        elif op == PUT:
            handles[role].write(data, at=at, actor=core_id)
            if faults is not None and owner >= 0:
                faults.maybe_corrupt(handles[role], nbytes, at=at,
                                     actor=f"core{core_id}")
        elif op == GET:
            result = handles[role].read(data, at=at, actor=core_id)
            if xfer is not None:    # verify policy: the stamped frame
                if (xfer["frame"] is None
                        or xfer["frame"][0] != xfer["seq_in"]
                        or zlib.crc32(result.tobytes()) != xfer["frame"][1]):
                    return None
                xfer["seq_in"] += 1
    return result
