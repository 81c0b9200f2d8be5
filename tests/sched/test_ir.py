"""IR-level invariants: row validation and schedule structure.

The checks the step dataclasses used to run in ``__post_init__`` are
enforced once, vectorised, where a table is bound to a ``Schedule``
(``ir._check_table``) — for every table, hand-made or built.
"""

import numpy as np
import pytest

from repro.sched.builders import build_schedule
from repro.sched.ir import (
    F_REDUCE,
    IN,
    NCOLS,
    OP_COPY,
    OP_EXCHANGE,
    OP_SEND,
    WORK,
    Schedule,
    StepRow,
    StepTable,
    make_table,
)


def schedule(rows, p=2, n=4):
    """Bind hand-written rows to a schedule (runs the validation)."""
    block = np.array(rows, dtype=np.int64).reshape(-1, NCOLS)
    return Schedule("bcast", "test", p, n, {"in": n, "work": n},
                    make_table([block]))


def send(rank, peer, lo, hi, buf=WORK):
    return StepRow(rank, -1, OP_SEND, speer=peer, sbuf=buf, slo=lo, shi=hi)


def exchange(rank=0, **sides):
    return StepRow(rank, -1, OP_EXCHANGE, **sides)


class TestInterval:
    def test_nels_and_str(self):
        row = schedule([send(0, 1, 2, 6)]).plans[0][0]
        assert row.shi - row.slo == 4
        assert StepRow._fields.index("shi") == 6 and row[6] == 6
        assert row.round is None and row._replace(phase=3).round == 3

    def test_empty_interval_is_legal(self):
        assert schedule([send(0, 1, 3, 3)]).total_steps() == 1

    @pytest.mark.parametrize("lo,hi", [(-1, 3), (5, 2)])
    def test_bad_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="rank 1 step 0: bad send"):
            schedule([send(0, 1, 0, 4), send(1, 0, lo, hi)])


class TestExchange:
    def test_one_sided_send(self):
        row = schedule([exchange(speer=1, sbuf=WORK, shi=4)]).plans[0][0]
        assert row.rpeer == row.rbuf == -1

    def test_sides_must_pair(self):
        with pytest.raises(ValueError, match="set together"):
            schedule([exchange(speer=1)])                 # peer, no interval
        with pytest.raises(ValueError, match="set together"):
            schedule([exchange(rbuf=WORK, rhi=4)])        # interval, no peer

    def test_neither_side_rejected(self):
        with pytest.raises(ValueError, match="neither side"):
            schedule([exchange()])

    def test_reduce_needs_receive(self):
        with pytest.raises(ValueError, match="rank 0 step 1: reduce"):
            schedule([send(0, 1, 0, 4),
                      exchange(speer=1, sbuf=WORK, shi=4, flags=F_REDUCE)])


class TestCopyBlock:
    def copy(self, rhi, flags=0):
        return StepRow(0, -1, OP_COPY, sbuf=IN, shi=4, rbuf=WORK, rhi=rhi,
                       flags=flags)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="copy size mismatch"):
            schedule([self.copy(3)])

    def test_uncharged_by_default(self):
        assert schedule([self.copy(4)]).plans[0][0].flags == 0


class TestSchedule:
    def make(self, p=2):
        return schedule([send(r, 1 - r, 0, 4) for r in range(p)], p=p)

    def test_label_and_total_steps(self):
        sched = self.make()
        assert sched.label == "bcast:test"
        assert sched.total_steps() == 2
        assert [len(plan) for plan in sched.plans] == [1, 1]

    def test_plan_count_must_match_p(self):
        # A row for rank 2 in a two-rank schedule.
        with pytest.raises(ValueError, match="rank 2 step 0: rank outside"):
            schedule([send(0, 1, 0, 4), send(2, 0, 0, 4)], p=2)
        assert len(schedule([send(0, 1, 0, 4)], p=3).plans) == 3

    def test_every_table_is_checked_not_only_hand_made_ones(self):
        """Ring, pairwise, chain and chunked rows never passed through a
        step constructor; a broken one must not bind either."""
        sched = build_schedule("allgather", "ring", 4, 8)
        rows = sched.table.rows.copy()
        rows[5, 6] = rows[5, 5] - 1       # SHI < SLO on rank 1, step 1
        with pytest.raises(ValueError, match="rank 1 step 1: bad send"):
            sched.with_rows(rows)
        shuffled = StepTable(sched.table.rows[::-1], sched.table.bufs)
        with pytest.raises(ValueError, match="ascending rank"):
            Schedule("allgather", "ring", 4, 8, sched.buffers, shuffled)
