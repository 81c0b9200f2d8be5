"""Unit tests for the timeline/Gantt utilities."""

import numpy as np
import pytest

from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sim.trace import TimeAccount, Tracer, TraceRecord
from repro.util.timeline import Timeline, render_accounts_bar


class TestTimeline:
    def test_empty(self):
        assert "(empty timeline)" in Timeline().render()

    def test_manual_spans(self):
        tl = Timeline()
        tl.add_span("core0", 0, 1_000_000, "send")
        tl.add_span("core1", 500_000, 2_000_000, "recv")
        text = tl.render(width=40)
        assert "core0" in text and "core1" in text
        assert "S" in text and "R" in text

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            Timeline().add_span("x", 10, 5, "send")

    def test_feed_from_begin_end_records(self):
        records = [
            TraceRecord(0, "core0", "send.begin", 1),
            TraceRecord(100, "core0", "send.end", 1),
            TraceRecord(50, "core1", "recv.begin", 0),
            TraceRecord(150, "core1", "recv.end", 0),
        ]
        tl = Timeline().feed(records)
        assert tl.spans["core0"] == [(0, 100, "send")]
        assert tl.spans["core1"] == [(50, 150, "recv")]

    def test_unmatched_end_ignored(self):
        tl = Timeline().feed([TraceRecord(5, "c", "send.end", 0)])
        assert not tl.spans

    def test_feed_from_real_simulation(self):
        """A traced collective produces a renderable timeline."""
        tracer = Tracer(enabled=True)
        machine = Machine(SCCConfig(topology="mesh:2x1"),
                          tracer=tracer)
        comm = make_communicator(machine, "lightweight")
        data = np.arange(64, dtype=np.float64)

        def program(env):
            yield from comm.allreduce(env, data + env.rank)

        machine.run_spmd(program)
        assert len(tracer) > 0
        tl = Timeline().feed(tracer.records)
        assert len(tl.spans) == 4  # every core sent and received
        text = tl.render()
        assert "core0" in text

    def test_blocking_layer_also_traces(self):
        tracer = Tracer(enabled=True)
        machine = Machine(SCCConfig(topology="mesh:2x1"),
                          tracer=tracer)
        comm = make_communicator(machine, "blocking")

        def program(env):
            if env.rank == 0:
                yield from comm.send(env, np.zeros(8), 1)
            elif env.rank == 1:
                out = np.empty(8)
                yield from comm.recv(env, out, 0)
            else:
                yield from env.compute(0)

        machine.run_spmd(program)
        tags = {r.tag for r in tracer.records}
        assert {"send.begin", "send.end", "recv.begin", "recv.end"} <= tags


class TestAccountsBar:
    def test_renders_proportions(self):
        acct = TimeAccount({"compute": 50, "wait_flag": 50})
        text = render_accounts_bar([acct], width=10)
        bar_line = text.splitlines()[0]
        assert bar_line.count("#") == 5
        assert bar_line.count(".") == 5

    def test_zero_account(self):
        text = render_accounts_bar([TimeAccount()], width=10)
        assert "core0" in text

    def test_custom_labels(self):
        text = render_accounts_bar([TimeAccount({"compute": 1})],
                                   labels=["rank7"])
        assert "rank7" in text

    def test_unknown_state_rendered_as_question(self):
        acct = TimeAccount({"exotic": 100})
        text = render_accounts_bar([acct], width=10)
        assert "?" in text
