"""The static schedule verifier: clean repertoire, flagged fixtures."""

import numpy as np
import pytest

from repro.analysis.sched_fixtures import broken_schedules
from repro.analysis.schedverify import (
    RULES,
    ScheduleVerifyError,
    assert_valid_schedule,
    simulate_schedule,
    verify_repertoire,
    verify_schedule,
)
from repro.core.blocks import Partition, standard_partition
from repro.sched.builders import FIXED_KINDS, all_schedules, build_schedule
from repro.sched.ir import (
    IN,
    NCOLS,
    OP_RECV,
    OP_SEND,
    WORK,
    Schedule,
    StepRow,
    make_table,
)


def test_shipped_repertoire_is_clean():
    part = standard_partition(8, 4)
    for sched in all_schedules(4, 8, part=part):
        assert verify_schedule(sched) == []


def test_verify_repertoire_sweep():
    assert verify_repertoire(ps=(1, 2, 3, 5), sizes=(1, 8)) > 0


def test_fixed_kinds_sweep():
    # scatter(v)/gather(v)/exscan have no algo= choice, so the default
    # sweep skips them; p x n x 2 partitions x 2 roots x 3 kinds.
    assert FIXED_KINDS == ("exscan", "scatter", "gather")
    assert verify_repertoire(ps=(2, 5, 47), sizes=(1, 70),
                             kinds=FIXED_KINDS) == 3 * 2 * 2 * 2 * 3


@pytest.mark.parametrize("kind,name,rank,rule", [
    # The root never stages its vector: nothing real is scattered.
    ("scatter", "binomial", 2, "missing-contribution"),
    # A leaf keeps its block to itself: unmatched receive at its parent.
    ("gather", "binomial", 4, "unmatched-recv"),
    # The last hand-down is dropped: rank 4 never gets its prefix.
    ("exscan", "recursive_doubling", 3, "unmatched-recv"),
])
def test_fixed_kind_mutations_are_flagged(kind, name, rank, rule):
    part = Partition(11, (3, 0, 4, 1, 3))  # uneven, one empty block
    sched = build_schedule(kind, name, 5, 11, part=part, root=2)
    assert verify_schedule(sched) == []
    plans = list(sched.plans)
    drop = 0 if kind == "scatter" else -1
    plans[rank] = tuple(s for i, s in enumerate(plans[rank])
                        if i != drop % len(plans[rank]))
    broken = sched.with_rows([row for plan in plans for row in plan])
    assert rule in {d.rule for d in verify_schedule(broken)}


@pytest.mark.parametrize("name", sorted(broken_schedules()))
def test_broken_fixture_trips_its_rule(name):
    sched, expected_rule = broken_schedules()[name]
    diagnostics = verify_schedule(sched)
    assert expected_rule in {d.rule for d in diagnostics}, (
        f"{name}: expected {expected_rule}, got "
        f"{[str(d) for d in diagnostics]}")


def test_at_least_three_fixtures():
    # The verifier's own regression floor: several distinct bug classes.
    fixtures = broken_schedules()
    assert len(fixtures) >= 3
    assert len({rule for _, rule in fixtures.values()}) >= 3
    for _, rule in fixtures.values():
        assert rule in RULES


def test_assert_valid_raises_with_catalogue_rule():
    sched, rule = broken_schedules()["truncated_send"]
    with pytest.raises(ScheduleVerifyError) as err:
        assert_valid_schedule(sched)
    assert rule in str(err.value)
    assert all(d.rule in RULES for d in err.value.diagnostics)


def _two_rank(*rows, kind="bcast", n=4):
    block = np.array(rows, dtype=np.int64).reshape(-1, NCOLS)
    return Schedule(kind, "handmade", 2, n, {"in": n, "work": n},
                    make_table([block]))


def _send(rank, peer, buf=WORK):
    return StepRow(rank, -1, OP_SEND, speer=peer, sbuf=buf, shi=4)


def test_self_message_flagged():
    sched = _two_rank(_send(0, 0))
    assert "self-message" in {d.rule for d in verify_schedule(sched)}


def test_bad_peer_flagged():
    sched = _two_rank(_send(0, 7))
    assert "bad-peer" in {d.rule for d in verify_schedule(sched)}


def test_symbolic_interpreter_moves_atoms():
    sched = _two_rank(_send(0, 1, IN),
                      StepRow(1, -1, OP_RECV, rpeer=0, rbuf=WORK, rhi=4))
    state = simulate_schedule(sched)
    # Rank 1's work now holds rank 0's input atoms, element by element.
    for j in range(4):
        assert state[1]["work"][j] == {(0, j): 1}
    # Rank 0's input is untouched.
    for j in range(4):
        assert state[0]["in"][j] == {(0, j): 1}


def test_diagnostic_str_mentions_schedule_and_rule():
    sched, rule = broken_schedules()["oob_interval"]
    diag = verify_schedule(sched)[0]
    text = str(diag)
    assert sched.label in text
    assert diag.rule in text
