"""Span reassembly: nesting, attribution, exclusive-time arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_communicator
from repro.core.registry import available_stacks
from repro.hw import Machine, SCCConfig
from repro.obs.spans import (
    COLLECTIVE_SPANS,
    SCHEDULE_SPAN,
    collective_spans,
    extract_spans,
    phase_times,
    round_times,
    span,
)
from repro.sim.trace import TraceRecord, Tracer


def rec(t, actor, tag, detail=None):
    return TraceRecord(t, actor, tag, detail)


class TestExtractSpans:
    def test_flat_span(self):
        spans = extract_spans([rec(10, "core0", "copy.begin"),
                               rec(30, "core0", "copy.end")])
        (sp,) = spans
        assert (sp.actor, sp.name) == ("core0", "copy")
        assert (sp.start_ps, sp.end_ps, sp.duration_ps) == (10, 30, 20)
        assert sp.depth == 0 and sp.parent is None and sp.children == []

    def test_nesting_parent_child(self):
        spans = extract_spans([
            rec(0, "core0", "round.begin", 0),
            rec(5, "core0", "copy.begin"),
            rec(15, "core0", "copy.end"),
            rec(20, "core0", "reduce.begin"),
            rec(30, "core0", "reduce.end"),
            rec(40, "core0", "round.end", 0),
        ])
        by_name = {s.name: s for s in spans}
        outer = by_name["round"]
        assert by_name["copy"].parent is outer
        assert by_name["reduce"].parent is outer
        assert by_name["copy"].depth == 1
        assert [c.name for c in outer.children] == ["copy", "reduce"]
        # Exclusive = 40 total - 10 copy - 10 reduce.
        assert outer.exclusive_ps() == 20

    def test_actors_do_not_interleave(self):
        spans = extract_spans([
            rec(0, "core0", "send.begin"),
            rec(1, "core1", "recv.begin"),
            rec(2, "core0", "send.end"),
            rec(3, "core1", "recv.end"),
        ])
        assert {(s.actor, s.name, s.depth) for s in spans} == {
            ("core0", "send", 0), ("core1", "recv", 0)}

    def test_unclosed_span_dropped(self):
        spans = extract_spans([rec(0, "core0", "round.begin"),
                               rec(5, "core0", "copy.begin"),
                               rec(9, "core0", "copy.end")])
        assert [s.name for s in spans] == ["copy"]

    def test_unmatched_end_ignored(self):
        assert extract_spans([rec(5, "core0", "copy.end")]) == []

    def test_point_records_ignored(self):
        assert extract_spans([rec(5, "core0", "flag.set"),
                              rec(6, "core0", "deadlock")]) == []

    def test_sorted_by_start_then_outermost_first(self):
        spans = extract_spans([
            rec(0, "core0", "round.begin"),
            rec(0, "core0", "copy.begin"),
            rec(5, "core0", "copy.end"),
            rec(9, "core0", "round.end"),
        ])
        assert [s.name for s in spans] == ["round", "copy"]


def reference_spans(records):
    """The pairing rule spelled out: per actor, an end closes the
    innermost open span of its name and discards what was opened above
    it; a closed span hangs under the span it was opened inside."""
    stacks, done = {}, []
    for r in records:
        name, dot, edge = r.tag.rpartition(".")
        stack = stacks.setdefault(r.actor, [])
        if dot and edge == "begin":
            stack.append({"actor": r.actor, "name": name, "start": r.time_ps,
                          "end": r.time_ps, "detail": r.detail,
                          "depth": len(stack), "kids": [],
                          "parent": stack[-1] if stack else None})
        elif dot and edge == "end" and any(s["name"] == name for s in stack):
            while (sp := stack.pop())["name"] != name:
                pass
            sp["end"] = r.time_ps
            if sp["parent"] is not None:
                sp["parent"]["kids"].append(sp)
            done.append(sp)
    return sorted(done, key=lambda s: (s["start"], s["start"] - s["end"]))


def _ident(sp):
    return None if sp is None else (sp.actor, sp.name, sp.start_ps, sp.end_ps)


def _ref_ident(sp):
    return None if sp is None else (sp["actor"], sp["name"], sp["start"],
                                    sp["end"])


_edges = st.tuples(
    st.integers(0, 3),                                  # time step (ties)
    st.sampled_from(["core0", "core1", "faults"]),
    st.sampled_from(["round", "copy", "send", "a.b"]),
    st.sampled_from([".begin", ".begin", ".end", ".end", ".set", ""]),
    st.one_of(st.none(), st.integers(0, 2)))


class TestExtractSpansProperty:
    @given(st.lists(_edges, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_pairing(self, edges):
        """Random streams: unclosed, mismatched, interleaved actors."""
        now, records = 0, []
        for step, actor, name, edge, detail in edges:
            now += step
            records.append(rec(now, actor, name + edge, detail))
        got = extract_spans(records)
        want = reference_spans(records)
        assert [(_ident(s), s.detail, s.depth, _ident(s.parent),
                 [_ident(c) for c in s.children]) for s in got] == [
            (_ref_ident(s), s["detail"], s["depth"], _ref_ident(s["parent"]),
             [_ref_ident(c) for c in s["kids"]]) for s in want]


class TestAttribution:
    RECORDS = [
        rec(0, "core0", "round.begin", 0),
        rec(2, "core0", "copy.begin"),
        rec(6, "core0", "copy.end"),
        rec(10, "core0", "round.end", 0),
        rec(10, "core0", "round.begin", 1),
        rec(11, "core0", "copy.begin"),
        rec(17, "core0", "copy.end"),
        rec(20, "core0", "round.end", 1),
        rec(0, "core1", "round.begin", 0),
        rec(8, "core1", "round.end", 0),
    ]

    def test_phase_times_exclusive_and_additive(self):
        spans = extract_spans(self.RECORDS)
        times = phase_times(spans)
        assert times["copy"] == 4 + 6
        # round exclusive: (10-4) + (10-6) on core0, 8 on core1.
        assert times["round"] == 6 + 4 + 8
        # Additivity: phases sum to total top-level spanned time.
        top = sum(s.duration_ps for s in spans if s.depth == 0)
        assert sum(times.values()) == top

    def test_phase_times_by_actor(self):
        times = phase_times(extract_spans(self.RECORDS), by_actor=True)
        assert times["core1"] == {"round": 8}
        assert times["core0"]["copy"] == 10

    def test_round_times_keyed_by_detail(self):
        rounds = round_times(extract_spans(self.RECORDS))
        assert rounds[0] == {"core0": 10, "core1": 8}
        assert rounds[1] == {"core0": 10}


class TestScheduleSpan:
    """``schedule`` names the algorithm; it is not a phase of its own."""

    RECORDS = [
        rec(0, "core0", "allreduce.begin", 8),
        rec(2, "core0", "schedule.begin", "allreduce:reduce_bcast"),
        rec(3, "core0", "send.begin"),
        rec(9, "core0", "send.end"),
        rec(12, "core0", "schedule.end", "allreduce:reduce_bcast"),
        rec(12, "core0", "allreduce.end", 8),
    ]

    def test_exclusive_time_is_booked_on_the_collective(self):
        times = phase_times(extract_spans(self.RECORDS))
        # allreduce: 2 of its own + the schedule's 10 - 6.
        assert times == {"allreduce": 2 + 4, "send": 6}

    def test_by_actor_and_additivity(self):
        spans = extract_spans(self.RECORDS)
        assert phase_times(spans, by_actor=True) == {
            "core0": {"allreduce": 6, "send": 6}}
        top = sum(s.duration_ps for s in spans if s.depth == 0)
        assert sum(phase_times(spans).values()) == top

    def test_orphan_schedule_span_keeps_its_name(self):
        spans = extract_spans(self.RECORDS[1:-1])
        assert phase_times(spans) == {"schedule": 4, "send": 6}


class TestSpanContextManager:
    def test_disabled_tracer_is_shared_noop(self):
        class Env:
            class sim:
                tracer = Tracer(enabled=False)
                san = None
        a, b = span(Env, "copy"), span(Env, "reduce", 7)
        assert a is b  # one shared object, no allocation per call site
        with a:
            pass
        assert Env.sim.tracer.records == []

    def test_enabled_tracer_emits_pair(self):
        tracer = Tracer(enabled=True)

        class Env:
            now = 42
            core_id = 3

            class sim:
                san = None
        Env.sim.tracer = tracer
        with span(Env, "copy", detail=128):
            Env.now = 99
        tags = [(r.time_ps, r.actor, r.tag, r.detail)
                for r in tracer.records]
        assert tags == [(42, "core3", "copy.begin", 128),
                        (99, "core3", "copy.end", 128)]


class TestInstrumentedCollectives:
    """The communication layers really emit the documented span tree."""

    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer(enabled=True)
        machine = Machine(SCCConfig(), tracer=tracer)
        comm = make_communicator(machine, "mpb")
        rng = np.random.default_rng(1)
        inputs = [rng.normal(size=64) for _ in range(8)]

        def program(env):
            out = yield from comm.allreduce(env, inputs[env.rank])
            return out

        result = machine.run_spmd(program, ranks=list(range(8)))
        assert np.allclose(result.values[0], np.sum(inputs, axis=0))
        return extract_spans(tracer.records)

    def test_every_core_has_one_collective_span(self, traced):
        tops = collective_spans(traced)
        assert sorted(s.actor for s in tops) == [f"core{i}"
                                                 for i in range(8)]
        assert all(s.name == "allreduce" for s in tops)

    def test_rounds_nest_under_collective(self, traced):
        # The MPB-direct Allreduce is native code: no schedule span.
        rounds = [s for s in traced if s.name == "round"]
        assert rounds
        assert all(s.parent is not None
                   and s.parent.name in COLLECTIVE_SPANS + ("round",)
                   for s in rounds)
        assert not [s for s in traced if s.name == SCHEDULE_SPAN]

    def test_phases_nest_under_rounds(self, traced):
        phases = [s for s in traced if s.name in ("sync", "reduce")
                  and s.depth > 0]
        assert phases
        assert all(s.parent.name in ("round", "allreduce")
                   for s in phases)

    @pytest.mark.parametrize("stack", available_stacks())
    def test_rounds_nest_under_a_schedule_span_on_every_stack(self, stack):
        tracer = Tracer(enabled=True)
        machine = Machine(SCCConfig(), tracer=tracer)
        comm = make_communicator(machine, stack)

        def program(env):
            yield from comm.reduce_scatter(env, np.arange(16.0))

        machine.run_spmd(program, ranks=list(range(4)))
        spans = extract_spans(tracer.records)
        rounds = [s for s in spans if s.name == "round"]
        assert len(rounds) == 4 * 3
        for s in rounds:
            assert s.parent.name == SCHEDULE_SPAN
            assert s.parent.detail == "reduce_scatter:ring"
            assert s.parent.parent.name == "reduce_scatter"
        folds = [s for s in spans if s.name == "reduce"]
        assert folds and all(s.parent.name == "round" for s in folds)
        assert SCHEDULE_SPAN not in phase_times(spans)

    def test_spans_cover_positive_time_within_parent(self, traced):
        for s in traced:
            assert s.duration_ps >= 0
            if s.parent is not None:
                assert s.parent.start_ps <= s.start_ps
                assert s.end_ps <= s.parent.end_ps
                assert s.parent.exclusive_ps() >= 0


class TestCancelledRequestClosesItsBracket:
    """A cancelled ``irecv``/``isend`` used to emit ``recv.begin`` /
    ``send.begin`` and never the ``.end``: the span was dropped and every
    later span of that core nested under the dangling one."""

    @pytest.fixture(scope="class")
    def records(self):
        tracer = Tracer(enabled=True)
        machine = Machine(SCCConfig(), tracer=tracer)
        comm = make_communicator(machine, "ircce")
        layer = comm.p2p

        def program(env):
            if env.rank == 0:
                # A receive nobody matches, and a send queued behind one
                # the receiver has not picked up yet.
                recv = yield from layer.irecv(env, np.empty(8), 1)
                held = yield from layer.isend(env, np.ones(8), 1)
                queued = yield from layer.isend(env, np.ones(8), 1)
                yield from env.compute(1000)
                yield from layer.cancel(env, queued)
                yield from layer.cancel(env, recv)
                yield from layer.wait(env, held)
            else:
                yield from env.compute(5000)
                yield from comm.recv(env, np.empty(8), 0)
            out = yield from comm.allreduce(env, np.arange(16.0))
            return out

        result = machine.run_spmd(program, ranks=[0, 1])
        assert np.array_equal(result.values[0], 2 * np.arange(16.0))
        return tracer.records

    def test_every_begin_has_its_end(self, records):
        opened = {}
        for r in records:
            name, _, edge = r.tag.rpartition(".")
            if edge == "begin":
                opened[(r.actor, name)] = opened.get((r.actor, name), 0) + 1
            elif edge == "end":
                opened[(r.actor, name)] -= 1
        assert opened and not any(opened.values())
        assert [r.tag for r in records
                if r.actor == "core0"][:2] == ["recv.begin", "send.begin"]

    def test_later_collective_is_top_level_on_every_core(self, records):
        tops = collective_spans(extract_spans(records))
        assert sorted(s.actor for s in tops) == ["core0", "core1"]
        assert all(s.name == "allreduce" and s.depth == 0 for s in tops)
