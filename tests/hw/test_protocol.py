"""The protocol tables are data: walk them symbolically, no simulator.

A *party* is a list of ``(table, handles)`` runs, the handles being names
(strings) of the flags, windows and packet queues a row's role selects.
:func:`walk` interleaves the parties over a dict of flag levels and the
occupancy of every window and queue — a ``WAIT`` blocks until its flag
is at the awaited level, ``SET``/``CLEAR`` write it, an ``ACQUIRE``
blocks while its window is full, an ``ENQUEUE`` adds a packet, a
``DEQUEUE`` blocks until its queue has one and frees a slot of its
window, everything else is a no-op — and rejects a set of tables that

* makes a party wait for a level no party ever writes (and the flag does
  not start at),
* deadlocks,
* queues more packets than the window admits or frees a slot nobody
  holds, or
* leaves a flag away from its initial level, a packet in a queue or a
  window slot taken (the protocols are self-restoring: the next message
  inherits the channel state).
"""

from collections import Counter

import pytest

from repro.core.mpb_allreduce import (CONSUME_BEGIN, CONSUME_END, COPY_FROM,
                                      PRODUCE, REDUCE_FROM, VERIFY_READ)
from repro.hw.protocol import (ACQUIRE, CHARGE, CLEAR, DEQUEUE, ENQUEUE, GET,
                               NOTE, PUT, READY, SET, STATES, WAIT)
from repro.rcce.api import (ACK_REJECT, BARRIER_COLLECT, BARRIER_RELEASE,
                            BARRIER_WORKER, RECV_CHUNK, REJECT_CHUNK,
                            SEND_CHUNK)
from repro.rckmpi.channel import RECV_PACKET, SEND_PACKET, WINDOW_PACKETS

ALL_TABLES = (SEND_CHUNK, RECV_CHUNK, REJECT_CHUNK, ACK_REJECT,
              BARRIER_WORKER, BARRIER_COLLECT, BARRIER_RELEASE,
              PRODUCE, CONSUME_BEGIN, REDUCE_FROM, COPY_FROM, CONSUME_END,
              VERIFY_READ, SEND_PACKET, RECV_PACKET)

#: The rows the walk models; the others (charges, copies, notes) are
#: no-ops to it.
WALKED = (SET, CLEAR, WAIT, ACQUIRE, ENQUEUE, DEQUEUE)


class ProtocolError(AssertionError):
    pass


def party_ops(runs):
    """The party's modelled rows in program order: ``(op, handle, arg)``,
    a ``DEQUEUE``'s arg being the window it frees."""
    return [(op, handles[role], handles[arg] if op == DEQUEUE else arg)
            for table, handles in runs
            for op, role, arg in table if op in WALKED]


def walk(parties, initial=None, window=WINDOW_PACKETS):
    """Run ``parties`` (name -> runs) to completion; returns the number of
    modelled operations executed.  ``initial`` gives non-zero start
    levels, ``window`` every window's slots."""
    initial = dict(initial or {})
    programs = {name: party_ops(runs) for name, runs in parties.items()}
    written = {(flag, 1 if op == SET else 0)
               for ops in programs.values() for op, flag, _ in ops
               if op in (SET, CLEAR)}
    for name, ops in programs.items():
        for op, flag, level in ops:
            if (op == WAIT and (flag, level) not in written
                    and initial.get(flag, 0) != level):
                raise ProtocolError(
                    f"{name} waits for {flag}={level}, which nobody writes")
    levels = dict(initial)
    held, queued = Counter(), Counter()
    pc = dict.fromkeys(programs, 0)
    steps = 0
    progress = True
    while progress:
        progress = False
        for name, ops in programs.items():
            while pc[name] < len(ops):
                op, obj, arg = ops[pc[name]]
                if op == WAIT:
                    if levels.get(obj, 0) != arg:
                        break
                elif op == ACQUIRE:
                    if held[obj] == window:
                        break
                    held[obj] += 1
                elif op == ENQUEUE:
                    queued[obj] += 1
                    if queued[obj] > window:
                        raise ProtocolError(
                            f"{name} queues packet {queued[obj]} on {obj}, "
                            f"past the window of {window}")
                elif op == DEQUEUE:
                    if not queued[obj]:
                        break
                    queued[obj] -= 1
                    if not held[arg]:
                        raise ProtocolError(
                            f"{name} frees a slot of {arg} nobody holds")
                    held[arg] -= 1
                else:
                    levels[obj] = 1 if op == SET else 0
                pc[name] += 1
                steps += 1
                progress = True
    stuck = {name: ops[pc[name]] for name, ops in programs.items()
             if pc[name] < len(ops)}
    if stuck:
        raise ProtocolError(f"deadlock: {stuck}")
    moved = {flag: level for flag, level in levels.items()
             if level != initial.get(flag, 0)}
    if moved:
        raise ProtocolError(f"flags left away from their initial level: "
                            f"{moved}")
    left = {obj: n for obj, n in (held + queued).items() if n}
    if left:
        raise ProtocolError(f"packets or window slots left over: {left}")
    return steps


CHAN = ("buf", "sent", "ready", "nack")


def test_tables_are_static_int_rows():
    for table in ALL_TABLES:
        assert isinstance(table, tuple) and table
        for row in table:
            assert isinstance(row, tuple) and len(row) == 3
            assert all(type(x) is int for x in row)
            op, role, arg = row
            assert op in (CHARGE, PUT, GET, SET, CLEAR, WAIT, NOTE,
                          ACQUIRE, ENQUEUE, DEQUEUE)
            if op in (CHARGE, PUT, GET):
                assert 0 <= arg < len(STATES)
            if op == WAIT:
                assert arg in (0, 1)


@pytest.mark.parametrize("chunks", [1, 3])
def test_send_recv(chunks):
    steps = walk({"sender": [(SEND_CHUNK, CHAN)] * chunks,
                  "receiver": [(RECV_CHUNK, CHAN)] * chunks})
    assert steps == 6 * chunks      # 3 flag ops a side and chunk


def test_send_recv_with_one_rejected_chunk():
    """The verify policy: a GET that fails verification ends the run
    before ``SET ready``; the receiver answers REJECT_CHUNK and runs the
    table again, the sender lowers the NACK and retransmits."""
    get = [op for op, _, _ in RECV_CHUNK].index(GET)
    assert RECV_CHUNK[get + 1:] == ((SET, READY, 0),)
    walk({"sender": [(SEND_CHUNK, CHAN), (ACK_REJECT, CHAN),
                     (SEND_CHUNK, CHAN)],
          "receiver": [(RECV_CHUNK[:get + 1], CHAN), (REJECT_CHUNK, CHAN),
                       (RECV_CHUNK, CHAN)]})


def test_barrier_master_and_workers_p3():
    workers = {r: (f"arrived{r}", f"go{r}") for r in (1, 2)}
    master = ([(BARRIER_COLLECT, h) for h in workers.values()]
              + [(BARRIER_RELEASE, h) for h in workers.values()])
    parties = {"master": master}
    for r, handles in workers.items():
        parties[f"worker{r}"] = [(BARRIER_WORKER, handles)]
    for _ in range(2):      # reusable without sense reversal
        walk(parties)


def test_mpb_produce_consume_over_two_halves():
    halves = [(f"half{h}", f"sent{h}", f"ready{h}") for h in (0, 1)]
    writes = [halves[k % 2] for k in range(5)]
    walk({"producer": [(PRODUCE, h) for h in writes],
          "consumer": [(table, h) for h in writes
                       for table in (CONSUME_BEGIN, REDUCE_FROM,
                                     CONSUME_END)]},
         initial={"ready0": 1, "ready1": 1})


PACKET_CHAN = ("window", "queue")


@pytest.mark.parametrize("packets", [1, WINDOW_PACKETS, 5])
def test_rckmpi_eager_packets(packets):
    """Every enqueue meets a dequeue, the queue never holds more than the
    window and both end empty; 3 modelled ops a packet."""
    steps = walk({"sender": [(SEND_PACKET, PACKET_CHAN)] * packets,
                  "receiver": [(RECV_PACKET, PACKET_CHAN)] * packets})
    assert steps == 3 * packets


class TestBrokenTablesAreRejected:
    def test_clear_ready_dropped(self):
        broken = tuple(row for row in SEND_CHUNK
                       if row != (CLEAR, READY, 0))
        assert len(broken) == len(SEND_CHUNK) - 1
        with pytest.raises(ProtocolError, match="initial level.*ready"):
            walk({"sender": [(broken, CHAN)],
                  "receiver": [(RECV_CHUNK, CHAN)]})

    def test_wait_on_a_flag_nobody_writes(self):
        with pytest.raises(ProtocolError, match="nobody writes"):
            walk({"sender": [(SEND_CHUNK, CHAN)], "receiver": []})

    def test_both_sides_waiting_first_deadlocks(self):
        with pytest.raises(ProtocolError, match="deadlock"):
            walk({"a": [(RECV_CHUNK, CHAN)],
                  "b": [(RECV_CHUNK, ("buf", "ready", "sent", "nack"))]})

    def test_dequeue_without_enqueue_deadlocks(self):
        broken = tuple(row for row in SEND_PACKET if row[0] != ENQUEUE)
        assert len(broken) == len(SEND_PACKET) - 1
        with pytest.raises(ProtocolError, match="deadlock"):
            walk({"sender": [(broken, PACKET_CHAN)],
                  "receiver": [(RECV_PACKET, PACKET_CHAN)]})

    def test_send_without_a_window_slot_overruns_the_window(self):
        broken = tuple(row for row in SEND_PACKET if row[0] != ACQUIRE)
        with pytest.raises(ProtocolError, match="past the window"):
            walk({"sender": [(broken, PACKET_CHAN)] * 3,
                  "receiver": [(RECV_PACKET, PACKET_CHAN)] * 3})


def test_interpreter_frame_stays_a_small_object():
    """A generator above pymalloc's 512-byte small-object limit is
    allocated by the system allocator: slower to create (run_ops is
    created once per chunk and per flag op) and it cost +2 MB peak RSS on
    the Fig.-9 benchmark.  Drop a local before adding one."""
    import sys

    from repro.hw.protocol import run_ops
    assert sys.getsizeof(run_ops(None, (), ())) <= 512
