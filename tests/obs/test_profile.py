"""The profiling driver: tables, exports, the zero-overhead guarantee,
and the ``python -m repro profile`` subcommand."""

import functools
import json
import re

import pytest

from repro.cli import main
from repro.obs.profile import CollectiveProfile, profile_collective


@pytest.fixture(scope="module")
def prof():
    return profile_collective("allreduce", "mpb", 64, cores=8)


class TestProfileCollective:
    def test_returns_bundle(self, prof):
        assert isinstance(prof, CollectiveProfile)
        assert (prof.kind, prof.stack, prof.size, prof.cores) \
            == ("allreduce", "mpb", 64, 8)
        assert prof.records and prof.spans
        assert len(prof.result.accounts) == 8
        assert prof.elapsed_us > 0

    def test_tracing_has_zero_simulated_overhead(self):
        traced = profile_collective("allreduce", "lightweight", 64, cores=8)
        untraced = profile_collective("allreduce", "lightweight", 64,
                                      cores=8, trace=False)
        assert untraced.records == [] and untraced.spans == []
        assert traced.elapsed_us == untraced.elapsed_us
        for a, b in zip(traced.result.accounts, untraced.result.accounts):
            assert a.states == b.states

    def test_wait_table_agrees_with_accounts(self, prof):
        """The acceptance criterion: printed busy/wait percentages are the
        TimeAccount totals, re-derived independently here."""
        from repro.obs.export import WAIT_STATES
        table = prof.wait_profile_table()
        for i, acct in enumerate(prof.result.accounts):
            total = acct.total()
            wait = 100.0 * sum(acct.get(s) for s in WAIT_STATES) / total
            row = next(l for l in table.splitlines()
                       if l.strip().startswith(f"core{i} "))
            cells = row.split()
            assert float(cells[2]) == pytest.approx(100.0 - wait, abs=0.005)
            assert float(cells[3]) == pytest.approx(wait, abs=0.005)

    def test_wait_table_has_all_row_and_title(self, prof):
        table = prof.wait_profile_table(max_rows=2)
        assert "wait profile: allreduce on stack 'mpb'" in table
        assert re.search(r"^\s*ALL\b", table, re.M)
        assert "core2" not in table  # max_rows honored (ALL row stays)

    def test_phase_table_lists_instrumented_phases(self, prof):
        table = prof.phase_table()
        for phase in ("copy", "reduce", "sync"):
            assert phase in table
        # Percent column sums to ~100 (rows start after title/header/rule).
        pcts = [float(line.split()[-1]) for line in table.splitlines()[3:]]
        assert sum(pcts) == pytest.approx(100.0, abs=0.5)

    def test_write_exports_all_files(self, prof, tmp_path):
        paths = prof.write(str(tmp_path))
        assert set(paths) == {"trace", "metrics_json", "metrics_csv"}
        events = json.loads((tmp_path / "profile_allreduce_mpb_64"
                             ".trace.json").read_text())
        assert isinstance(events, list)
        assert any(ev["ph"] == "X" and ev["name"] == "allreduce"
                   for ev in events)
        metrics = json.loads(open(paths["metrics_json"]).read())
        assert metrics["meta"]["stack"] == "mpb"
        assert metrics["mesh_links"], "profile runs enable comm_stats"

    def test_rejects_too_many_cores(self):
        with pytest.raises(ValueError, match="cores"):
            profile_collective("allreduce", "mpb", 64, cores=64)

    def test_full_tracer_counts_what_it_dropped(self, prof):
        assert prof.metrics()["meta"]["trace_dropped"] == 0
        cut = profile_collective("allreduce", "mpb", 64, cores=8,
                                 trace_capacity=100)
        assert len(cut.records) == 100
        assert cut.metrics()["meta"]["trace_dropped"] \
            == len(prof.records) - 100


class TestProfileCLI:
    def test_profile_subcommand(self, capsys, tmp_path):
        assert main(["profile", "allreduce", "--stack", "mpb",
                     "--sizes", "64", "--cores", "8",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wait profile: allreduce on stack 'mpb'" in out
        assert "phase breakdown" in out
        assert "wrote" in out
        trace = tmp_path / "profile_allreduce_mpb_64.trace.json"
        events = json.loads(trace.read_text())
        assert isinstance(events, list) and events
        assert all(ev["ph"] in ("X", "M", "i") for ev in events)

    def test_profile_multiple_sizes(self, capsys, tmp_path):
        assert main(["profile", "barrier", "--stack", "blocking",
                     "--sizes", "8,16", "--cores", "8",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "profile_barrier_blocking_8.trace.json").exists()
        assert (tmp_path / "profile_barrier_blocking_16.trace.json").exists()

    def test_profile_no_trace(self, capsys, tmp_path):
        assert main(["profile", "allreduce", "--stack", "lightweight",
                     "--sizes", "64", "--cores", "8", "--no-trace",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wait profile" in out
        assert "phase breakdown" not in out

    def test_profile_warns_when_the_trace_was_cut(self, capsys, tmp_path,
                                                  monkeypatch):
        argv = ["profile", "allreduce", "--stack", "mpb", "--sizes", "64",
                "--cores", "8", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "warning" not in capsys.readouterr().err
        monkeypatch.setattr(
            "repro.cli.profile_collective",
            functools.partial(profile_collective, trace_capacity=100))
        assert main(argv) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and "dropped" in warnings[0]

    def test_profile_rejects_unknown_stack(self):
        with pytest.raises(SystemExit):
            main(["profile", "allreduce", "--stack", "warp-drive",
                  "--sizes", "64"])
