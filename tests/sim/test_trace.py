"""Unit tests for tracing and time accounting."""

import pytest

from repro.sim.trace import TimeAccount, Tracer


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        tr.emit(0, "core0", "send")
        assert len(tr) == 0

    def test_enabled_tracer_records(self):
        tr = Tracer()
        tr.emit(10, "core0", "send", {"bytes": 64})
        tr.emit(20, "core1", "recv")
        assert len(tr) == 2
        assert tr.records[0].time_ps == 10
        assert tr.records[0].detail == {"bytes": 64}

    def test_capacity_limit(self):
        tr = Tracer(capacity=2)
        for i in range(5):
            tr.emit(i, "c", "t")
        assert len(tr) == 2
        assert tr.dropped == 3

    def test_dropped_is_zero_below_capacity_and_after_clear(self):
        tr = Tracer(capacity=1)
        tr.emit(0, "c", "t")
        assert tr.dropped == 0
        tr.emit(1, "c", "t")
        assert tr.dropped == 1
        tr.clear()
        assert (len(tr), tr.dropped) == (0, 0)

    def test_filter_by_actor_and_tag(self):
        tr = Tracer()
        tr.emit(1, "core0", "send")
        tr.emit(2, "core1", "send")
        tr.emit(3, "core0", "recv")
        assert len(list(tr.filter(actor="core0"))) == 2
        assert len(list(tr.filter(tag="send"))) == 2
        assert len(list(tr.filter(actor="core0", tag="recv"))) == 1

    def test_clear(self):
        tr = Tracer()
        tr.emit(1, "c", "t")
        tr.clear()
        assert len(tr) == 0

    def test_record_str(self):
        tr = Tracer()
        tr.emit(1, "core0", "send", "x")
        assert "core0" in str(tr.records[0])


class TestTimeAccount:
    def test_add_and_total(self):
        acct = TimeAccount()
        acct.add("compute", 100)
        acct.add("wait_flag", 300)
        acct.add("compute", 50)
        assert acct.get("compute") == 150
        assert acct.total() == 450

    def test_fraction(self):
        acct = TimeAccount()
        acct.add("compute", 250)
        acct.add("wait_flag", 750)
        assert acct.fraction("wait_flag") == pytest.approx(0.75)

    def test_fraction_of_empty_account(self):
        assert TimeAccount().fraction("anything") == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimeAccount().add("x", -1)

    def test_merged(self):
        a = TimeAccount({"compute": 10})
        b = TimeAccount({"compute": 5, "copy": 7})
        m = a.merged(b)
        assert m.get("compute") == 15
        assert m.get("copy") == 7
        # originals untouched
        assert a.get("compute") == 10

    def test_str_contains_percent(self):
        acct = TimeAccount({"compute": 1_000_000})
        assert "%" in str(acct)
