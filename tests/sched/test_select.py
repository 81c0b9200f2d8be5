"""Cost model, selection table, and the tuned stack."""

import json
import logging

import numpy as np
import pytest

from repro.core.blocks import standard_partition
from repro.core.registry import (
    STACKS,
    available_stacks,
    make_communicator,
    register_stack,
)
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.hw.timing import LatencyModel
from repro.sched.builders import SCHEDULED_KINDS, build_schedule, builder_names
from repro.sched.cost import estimate_schedule_cost
from repro.sched.select import (
    DEFAULT_SIZES,
    SelectionTable,
    TunedCommunicator,
    build_selection_table,
    default_table_path,
    known_algorithm,
    select_algo,
)


@pytest.fixture(scope="module")
def model():
    cfg = SCCConfig()
    return LatencyModel(cfg, cfg.resolved_topology())


class TestCostModel:
    def test_positive_and_deterministic(self, model):
        part = standard_partition(64, 8)
        sched = build_schedule("allreduce", "rsag", 8, 64, part=part)
        a = estimate_schedule_cost(sched, model)
        assert a > 0
        assert estimate_schedule_cost(sched, model) == a

    def test_cost_grows_with_size(self, model):
        costs = []
        for n in (8, 64, 512):
            part = standard_partition(n, 8)
            sched = build_schedule("allreduce", "rsag", 8, n, part=part)
            costs.append(estimate_schedule_cost(sched, model))
        assert costs == sorted(costs) and costs[0] < costs[-1]

    def test_blocking_never_cheaper(self, model):
        part = standard_partition(64, 8)
        sched = build_schedule("allgather", "ring", 8, 64, part=part)
        nb = estimate_schedule_cost(sched, model, blocking=False)
        b = estimate_schedule_cost(sched, model, blocking=True)
        assert b >= nb


class TestSelectAlgo:
    def test_returns_known_algorithm(self, model):
        for kind in SCHEDULED_KINDS:
            name = select_algo(kind, 8, 64, model)
            assert known_algorithm(kind, name)

    def test_trees_short_pipelines_long(self, model):
        assert select_algo("allreduce", 8, 2, model) in (
            "recursive_doubling", "reduce_bcast")
        assert select_algo("allreduce", 8, 1024, model) in (
            "rsag", "recursive_halving")
        assert select_algo("bcast", 8, 2, model) == "binomial"
        # With the synthesized repertoire in the running, a pipelined
        # chain wins the long-vector bcast point; the hand-only search
        # still picks the paper's two-phase tree.
        assert select_algo("bcast", 8, 1024, model) == \
            "synth/pipeline_c32"
        assert select_algo("bcast", 8, 1024, model, synth=False) == \
            "scatter_allgather"

    def test_known_algorithm_grammar(self):
        assert known_algorithm("allreduce", "rsag")
        assert known_algorithm("allreduce", "synth/rsag+c4")
        assert known_algorithm("scan", "synth/pipeline_c8")
        assert not known_algorithm("allreduce", "mpich")
        assert not known_algorithm("allreduce", "synth/bogus+c4")
        assert not known_algorithm("allgather", "synth/pipeline_c8")


class TestSelectionTable:
    def make(self):
        table = SelectionTable()
        table.record("allreduce", 8, 64, "rsag")
        table.record("allreduce", 8, 4, "recursive_doubling")
        table.record("allreduce", 48, 64, "recursive_halving")
        return table

    def test_exact_and_nearest_pick(self):
        table = self.make()
        assert table.pick("allreduce", 8, 64) == "rsag"
        # nearest n at the same p
        assert table.pick("allreduce", 8, 70) == "rsag"
        assert table.pick("allreduce", 8, 5) == "recursive_doubling"
        # nearest p dominates n distance
        assert table.pick("allreduce", 47, 1) == "recursive_halving"
        assert table.pick("bcast", 8, 64) is None

    def test_json_round_trip(self, tmp_path):
        table = self.make()
        path = table.save(tmp_path / "table.json")
        loaded = SelectionTable.load(path)
        assert loaded.entries == table.entries

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            SelectionTable.from_json(json.dumps({"schema": 999}))

    def test_build_covers_grid(self):
        table = build_selection_table(["bcast"], ps=(2, 8),
                                      sizes=(4, 600))
        assert set(table.entries["bcast"]) == {
            (2, 4), (2, 600), (8, 4), (8, 600)}
        for algo in table.entries["bcast"].values():
            assert known_algorithm("bcast", algo)

    def test_build_hand_only(self):
        table = build_selection_table(["bcast"], ps=(8,), sizes=(600,),
                                      synth=False)
        assert table.meta["synth"] is False
        for algo in table.entries["bcast"].values():
            assert algo in builder_names("bcast")

    def test_merge_overlays_entries_and_meta(self):
        base = self.make()
        base.meta = {"ps": [8, 48], "sizes": [4, 64], "synth": False}
        part = SelectionTable(meta={"ps": [4], "sizes": [64],
                                    "synth": True})
        part.record("allreduce", 8, 64, "synth/rsag+c2")
        part.record("bcast", 8, 64, "binomial")
        base.merge(part)
        # re-tuned point replaced, untouched points survive
        assert base.pick("allreduce", 8, 64) == "synth/rsag+c2"
        assert base.pick("allreduce", 8, 4) == "recursive_doubling"
        assert base.pick("allreduce", 48, 64) == "recursive_halving"
        assert base.pick("bcast", 8, 64) == "binomial"
        assert base.meta["ps"] == [4, 8, 48]
        assert base.meta["sizes"] == [4, 64]
        assert base.meta["synth"] is True

    def test_committed_table_loads(self):
        # benchmarks/results/selection_table.json is checked in;
        # regenerate with `python -m repro tune` after model changes.
        table = SelectionTable.load(default_table_path())
        assert set(table.kinds()) == set(SCHEDULED_KINDS)
        for size in DEFAULT_SIZES:
            assert known_algorithm("allreduce",
                                   table.pick("allreduce", 48, size))

    def test_committed_table_has_synth_winners(self):
        # The acceptance artifact of the synthesis PR: at least one
        # synthesized schedule out-prices every hand algorithm somewhere
        # in the committed grid.
        table = SelectionTable.load(default_table_path())
        assert table.meta.get("synth") is True
        synth_picks = {algo
                       for points in table.entries.values()
                       for algo in points.values()
                       if algo.startswith("synth/")}
        assert synth_picks, "no synthesized winner in the committed table"


class TestRegistry:
    def test_paper_tuples_unchanged(self):
        assert STACKS == ("rckmpi", "blocking", "ircce", "lightweight",
                          "lightweight_balanced", "mpb")

    def test_available_includes_tuned(self):
        stacks = available_stacks()
        assert stacks[:len(STACKS)] == STACKS
        assert "tuned" in stacks

    def test_unknown_stack_lists_known_sorted(self):
        with pytest.raises(KeyError) as err:
            make_communicator(Machine(SCCConfig()), "bogus")
        listed = str(err.value).split("known: ")[1].rstrip("\"'").split(
            ", ")
        assert listed == sorted(listed)
        assert "tuned" in listed

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_stack("blocking", lambda machine: None)


class TestTunedStack:
    def make(self, **kwargs):
        machine = Machine(SCCConfig())
        return machine, TunedCommunicator(machine, **kwargs)

    def test_registered_composition(self):
        machine = Machine(SCCConfig())
        comm = make_communicator(machine, "tuned")
        assert isinstance(comm, TunedCommunicator)
        assert comm.name == "tuned"
        assert not comm.blocking

    def test_pick_uses_table(self):
        table = SelectionTable()
        table.record("allreduce", 4, 16, "recursive_doubling")
        _, comm = self.make(table=table)
        assert comm.pick_algo("allreduce", 4, 16) == "recursive_doubling"

    def test_pick_accepts_synth_table_entry(self):
        table = SelectionTable()
        table.record("scan", 4, 64, "synth/pipeline_c4")
        _, comm = self.make(table=table)
        assert comm.pick_algo("scan", 4, 64) == "synth/pipeline_c4"

    def test_pick_falls_back_to_cost_model(self, tmp_path, caplog):
        _, comm = self.make(table_path=tmp_path / "missing.json")
        with caplog.at_level(logging.WARNING, logger="repro.sched.select"):
            name = comm.pick_algo("allreduce", 4, 16)
        assert known_algorithm("allreduce", name)
        assert not caplog.records  # a missing table is the quiet default

    def test_damaged_table_falls_back_with_a_warning(self, tmp_path, caplog):
        path = tmp_path / "truncated.json"
        text = default_table_path().read_text()
        path.write_text(text[:len(text) // 2])
        _, comm = self.make(table_path=path)
        with caplog.at_level(logging.WARNING, logger="repro.sched.select"):
            name = comm.pick_algo("allreduce", 4, 16)
            comm.pick_algo("allreduce", 4, 32)  # loaded (and warned) once
        assert known_algorithm("allreduce", name)
        [record] = caplog.records
        assert record.name == "repro.sched.select"
        assert str(path) in record.getMessage()
        assert "JSONDecodeError" in record.getMessage()

    def test_collectives_correct(self):
        machine, comm = self.make()
        p, n = 5, 70
        rng = np.random.default_rng(7)
        inputs = [np.round(rng.normal(size=n) * 8) for _ in range(p)]

        def program(env):
            total = yield from comm.allreduce(env, inputs[env.rank])
            rows = yield from comm.allgather(env, inputs[env.rank])
            prefix = yield from comm.scan(env, inputs[env.rank])
            return total, rows, prefix

        run = machine.run_spmd(program, ranks=list(range(p)))
        expected_sum = np.sum(inputs, axis=0)
        expected_rows = np.stack(inputs)
        for rank, (total, rows, prefix) in enumerate(run.values):
            assert np.array_equal(total, expected_sum)
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(prefix,
                                  np.sum(inputs[:rank + 1], axis=0))

    def test_explicit_algo_passes_through(self):
        machine, comm = self.make()
        n = 16
        inputs = [np.full(n, float(r)) for r in range(4)]

        def program(env):
            return (yield from comm.allreduce(env, inputs[env.rank],
                                              algo="recursive_doubling"))

        run = machine.run_spmd(program, ranks=list(range(4)))
        assert np.array_equal(run.values[0], np.sum(inputs, axis=0))
