"""The protocol tables are data: walk them symbolically, no simulator.

A *party* is a list of ``(table, handles)`` runs, the handles being flag
names (strings) where a row's role selects a flag.  :func:`walk`
interleaves the parties over a dict of flag levels — a ``WAIT`` blocks
until its flag is at the awaited level, ``SET``/``CLEAR`` write it,
everything else is a no-op — and rejects a set of tables that

* makes a party wait for a level no party ever writes (and the flag does
  not start at),
* deadlocks, or
* leaves a flag away from its initial level (the handshakes are
  self-restoring: the next message inherits the flag state).
"""

import pytest

from repro.core.mpb_allreduce import (CONSUME_BEGIN, CONSUME_END, COPY_FROM,
                                      PRODUCE, REDUCE_FROM, VERIFY_READ)
from repro.hw.protocol import (CHARGE, CLEAR, GET, NOTE, PUT, READY, SET,
                               STATES, WAIT)
from repro.rcce.api import (ACK_REJECT, BARRIER_COLLECT, BARRIER_RELEASE,
                            BARRIER_WORKER, RECV_CHUNK, REJECT_CHUNK,
                            SEND_CHUNK)

ALL_TABLES = (SEND_CHUNK, RECV_CHUNK, REJECT_CHUNK, ACK_REJECT,
              BARRIER_WORKER, BARRIER_COLLECT, BARRIER_RELEASE,
              PRODUCE, CONSUME_BEGIN, REDUCE_FROM, COPY_FROM, CONSUME_END,
              VERIFY_READ)


class ProtocolError(AssertionError):
    pass


def flag_ops(runs):
    """The party's flag rows in program order: ``(op, flag name, arg)``."""
    return [(op, handles[role], arg)
            for table, handles in runs
            for op, role, arg in table if op in (SET, CLEAR, WAIT)]


def walk(parties, initial=None):
    """Run ``parties`` (name -> runs) to completion; returns the number of
    flag operations executed.  ``initial`` gives non-zero start levels."""
    initial = dict(initial or {})
    programs = {name: flag_ops(runs) for name, runs in parties.items()}
    written = {(flag, 1 if op == SET else 0)
               for ops in programs.values() for op, flag, _ in ops
               if op != WAIT}
    for name, ops in programs.items():
        for op, flag, level in ops:
            if (op == WAIT and (flag, level) not in written
                    and initial.get(flag, 0) != level):
                raise ProtocolError(
                    f"{name} waits for {flag}={level}, which nobody writes")
    levels = dict(initial)
    pc = dict.fromkeys(programs, 0)
    steps = 0
    progress = True
    while progress:
        progress = False
        for name, ops in programs.items():
            while pc[name] < len(ops):
                op, flag, arg = ops[pc[name]]
                if op == WAIT and levels.get(flag, 0) != arg:
                    break
                if op != WAIT:
                    levels[flag] = 1 if op == SET else 0
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
    return steps


CHAN = ("buf", "sent", "ready", "nack")


def test_tables_are_static_int_rows():
    for table in ALL_TABLES:
        assert isinstance(table, tuple) and table
        for row in table:
            assert isinstance(row, tuple) and len(row) == 3
            assert all(type(x) is int for x in row)
            op, role, arg = row
            assert op in (CHARGE, PUT, GET, SET, CLEAR, WAIT, NOTE)
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


def test_interpreter_frame_stays_a_small_object():
    """A generator above pymalloc's 512-byte small-object limit is
    allocated by the system allocator: slower to create (run_ops is
    created once per chunk and per flag op) and it cost +2 MB peak RSS on
    the Fig.-9 benchmark.  Drop a local before adding one."""
    import sys

    from repro.hw.protocol import run_ops
    assert sys.getsizeof(run_ops(None, (), ())) <= 512
