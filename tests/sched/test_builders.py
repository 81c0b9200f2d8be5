"""Builder-level structure: registries, caching, baked orderings."""

import pytest

from repro.core.blocks import balanced_partition, standard_partition
from repro.sched.builders import (
    BUILDERS,
    DEFAULT_ALGOS,
    SCHEDULED_KINDS,
    all_schedules,
    build_schedule,
    builder_names,
)
from repro.sched.ir import F_SEND_FIRST, OP_EXCHANGE, OP_ROTATE


def test_every_kind_has_builders_and_defaults():
    assert set(DEFAULT_ALGOS) == set(SCHEDULED_KINDS)
    for kind, (short, long) in DEFAULT_ALGOS.items():
        assert short in BUILDERS[kind]
        assert long in BUILDERS[kind]


def test_builder_names_sorted():
    for kind in SCHEDULED_KINDS:
        names = builder_names(kind)
        assert names == tuple(sorted(names))


def test_unknown_kind_and_name_list_known():
    with pytest.raises(KeyError, match="barrier"):
        build_schedule("barrier", "ring", 4, 8)
    with pytest.raises(KeyError, match="bruck"):
        build_schedule("allgather", "nope", 4, 8)


def test_build_is_cached():
    part = standard_partition(64, 4)
    a = build_schedule("allreduce", "rsag", 4, 64, part=part)
    b = build_schedule("allreduce", "rsag", 4, 64, part=part)
    assert a is b
    c = build_schedule("allreduce", "rsag", 4, 64,
                       part=balanced_partition(64, 4))
    assert c is not a or part.sizes == balanced_partition(64, 4).sizes


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 48])
def test_plans_cover_every_rank(p):
    part = standard_partition(8, p)
    for sched in all_schedules(p, 8, part=part):
        assert len(sched.plans) == sched.p == p


def test_ring_send_first_is_odd_even():
    part = standard_partition(8, 4)
    sched = build_schedule("allgather", "ring", 4, 8, part=part)
    for me, plan in enumerate(sched.plans):
        for step in plan:
            if step.op == OP_EXCHANGE and step.speer >= 0 \
                    and step.rpeer >= 0:
                assert bool(step.flags & F_SEND_FIRST) == (me % 2 == 0)


def test_pairwise_send_first_is_rank_comparison():
    sched = build_schedule("alltoall", "pairwise", 4, 2)
    for me, plan in enumerate(sched.plans):
        for step in plan:
            if step.op == OP_EXCHANGE:
                assert bool(step.flags & F_SEND_FIRST) == (me < step.speer)


def test_partitioned_meta_records_sizes():
    part = balanced_partition(70, 5)
    for kind, name in [("allreduce", "rsag"), ("reduce", "rsg"),
                       ("bcast", "scatter_allgather"),
                       ("reduce_scatter", "ring")]:
        sched = build_schedule(kind, name, 5, 70, part=part)
        assert tuple(sched.meta["part_sizes"]) == part.sizes


def test_bruck_always_rotates():
    # The seed's bruck_allgather pays the final rotation even at p=1;
    # bit-identity depends on the builder emitting it unconditionally.
    for p in (1, 2, 5):
        sched = build_schedule("allgather", "bruck", p, 4)
        assert any(s.op == OP_ROTATE
                   for plan in sched.plans for s in plan)


def test_root_changes_tree_shape():
    a = build_schedule("bcast", "binomial", 4, 8, root=0)
    b = build_schedule("bcast", "binomial", 4, 8, root=2)
    assert a.meta["root"] == 0 and b.meta["root"] == 2
    assert a.plans != b.plans
