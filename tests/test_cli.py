"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_seeds, _parse_sizes, build_parser, main


class TestParseSizes:
    def test_range_spec(self):
        assert _parse_sizes("10:20:5") == [10, 15]

    def test_comma_list(self):
        assert _parse_sizes("552,575,576") == [552, 575, 576]

    def test_single_value(self):
        assert _parse_sizes("42") == [42]

    @pytest.mark.parametrize("spec", ["1:2", "10:20:x"])
    def test_malformed_range_names_the_option(self, spec):
        with pytest.raises(ValueError, match="malformed --sizes spec"):
            _parse_sizes(spec)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError,
                           match="--sizes spec '20:10:2': the range is empty"):
            _parse_sizes("20:10:2")

    @pytest.mark.parametrize("spec", ["", ",", "8,x", "8,,16"])
    def test_malformed_list_names_the_option(self, spec):
        with pytest.raises(ValueError, match="malformed --sizes spec"):
            _parse_sizes(spec)

    @pytest.mark.parametrize("argv", [
        ["sweep", "allreduce", "--sizes", "1:2"],
        ["fig9", "9f", "--sizes", "1:2"],
        ["profile", "allreduce", "--sizes", "1:2"],
        ["tune", "--sizes", "1:2"],
        ["synth", "--sizes", "1:2"],
    ])
    def test_every_sizes_option_is_checked(self, argv):
        with pytest.raises(ValueError, match="--sizes"):
            main(argv)


class TestParseSeeds:
    def test_range_and_list(self):
        assert _parse_seeds("1:4") == [1, 2, 3]
        assert _parse_seeds("3,5") == [3, 5]

    @pytest.mark.parametrize("spec", ["1:4:2", "abc"])
    def test_malformed_spec_names_the_option(self, spec):
        with pytest.raises(
                ValueError,
                match=f"malformed --seeds spec '{spec}': expected "
                      "'start:stop' or a comma list of integers"):
            main(["chaos", "--seeds", spec])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_fig9_requires_valid_panel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9", "9z"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "48" in out
        assert "533" in out
        assert "erratum" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "552" in out and "575" in out

    def test_fig9_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CORES", "8")
        assert main(["fig9", "9f", "--sizes", "64,96", "--cores", "8"]) == 0
        out = capsys.readouterr().out
        assert "blocking" in out and "mpb" in out

    def test_sweep_small(self, capsys):
        assert main(["sweep", "allreduce", "--stacks", "blocking",
                     "lightweight", "--sizes", "64", "--cores", "8"]) == 0
        out = capsys.readouterr().out
        assert "lightweight" in out

    def test_stepwise_small(self, capsys):
        assert main(["stepwise", "--size", "96", "--cores", "8"]) == 0
        out = capsys.readouterr().out
        assert "combined" in out

    def test_gcmc_small(self, capsys):
        assert main(["gcmc", "--cycles", "1", "--particles", "24",
                     "--stack", "lightweight"]) == 0
        out = capsys.readouterr().out
        assert "final energy" in out

    def test_fig10_small(self, capsys):
        assert main(["fig10", "--cycles", "1",
                     "--stacks", "lightweight", "blocking"]) == 0
        out = capsys.readouterr().out
        assert "blocking" in out

    def test_paper_digest(self, capsys):
        assert main(["paper", "--cycles", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "Section IV" in out
        assert "Fig. 10" in out


class TestBenchCommand:
    """`sweep` is the command over repro.bench's executor: worker pool,
    result cache and the accounting line."""

    ARGV = ["sweep", "allreduce", "--stacks", "blocking", "lightweight",
            "--sizes", "16,20", "--cores", "4"]

    def test_bench_sweep_with_cache_dir(self, capsys, tmp_path):
        argv = self.ARGV + ["--jobs", "1", "--cache-dir",
                            str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "blocking" in cold and "lightweight" in cold
        assert "4 points" in cold
        assert "simulated 4" in cold
        assert main(argv) == 0  # second run is served from the cache
        warm = capsys.readouterr().out
        assert "cache hits 4" in warm and "simulated 0" in warm
        # Same table either way; only the accounting line differs.
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]

    def test_bench_no_cache_writes_nothing(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "barrier", "--stacks", "lightweight",
                     "--sizes", "8", "--cores", "4", "--jobs", "1",
                     "--no-cache"]) == 0
        assert "cache hits 0" in capsys.readouterr().out
        assert not any(tmp_path.rglob("*.json"))

    def test_sweep_jobs_2_prints_the_same_table(self, capsys):
        tables = []
        for jobs in ("1", "2"):
            assert main(self.ARGV + ["--jobs", jobs, "--no-cache"]) == 0
            tables.append(capsys.readouterr().out.splitlines()[:-1])
        assert tables[0] == tables[1]

    def test_sweep_auto_engine_accounting(self, capsys):
        assert main(self.ARGV + ["--engine", "auto", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "analytic 4, validated 3 [max drift " in out

    def test_bench_rejects_unknown_stack(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "allreduce",
                                       "--stacks", "openmpi"])

    def test_bench_command_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])


class TestRankCountChecked:
    """Every launching command rejects an oversubscribed chip with
    check_rank_count's message, not an IndexError from CoreEnv."""

    @pytest.mark.parametrize("command", ["sanitize", "race"])
    def test_cores_49_names_the_topology(self, command):
        with pytest.raises(ValueError,
                           match="topology 'mesh:6x4' has only 48"):
            main([command, "allreduce", "--stacks", "lightweight",
                  "--cores", "49", "--size", "8"])


class TestSynthCommand:
    def test_synth_one_point_with_frontier(self, capsys):
        assert main(["synth", "--kinds", "scan", "--cores", "5",
                     "--sizes", "64", "--frontier", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "best " in out
        assert "frontier" in out
        assert "candidates/s" in out
        assert "verified" in out

    def test_synth_smoke(self, capsys):
        assert main(["synth", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "synthesized candidates verified" in out
        assert "synthesized winner at" in out

    def test_synth_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "--kinds", "gather"])


class TestTuneCommand:
    def test_partial_retune_merges(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        assert main(["tune", "--kinds", "scan", "--cores", "2", "4",
                     "--sizes", "8,64", "--out", str(out),
                     "--fresh"]) == 0
        capsys.readouterr()
        assert main(["tune", "--kinds", "bcast", "--cores", "4",
                     "--sizes", "64", "--out", str(out)]) == 0
        merged = capsys.readouterr().out
        assert "merged 1 re-tuned entries" in merged

        from repro.sched.select import SelectionTable
        table = SelectionTable.load(out)
        assert set(table.kinds()) == {"scan", "bcast"}
        assert len(table.entries["scan"]) == 4
        assert table.meta["ps"] == [2, 4]
        assert table.meta["sizes"] == [8, 64]

    def test_fresh_discards_existing(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        assert main(["tune", "--kinds", "scan", "--cores", "2",
                     "--sizes", "8", "--out", str(out)]) == 0
        assert main(["tune", "--kinds", "bcast", "--cores", "2",
                     "--sizes", "8", "--out", str(out), "--fresh"]) == 0
        from repro.sched.select import SelectionTable
        assert SelectionTable.load(out).kinds() == ("bcast",)

    def test_no_synth_reproduces_hand_tables(self, capsys, tmp_path):
        from repro.sched.builders import builder_names
        from repro.sched.select import SelectionTable

        out = tmp_path / "table.json"
        assert main(["tune", "--kinds", "scan", "--cores", "8",
                     "--sizes", "1024", "--out", str(out), "--fresh",
                     "--no-synth"]) == 0
        table = SelectionTable.load(out)
        for algo in table.entries["scan"].values():
            assert algo in builder_names("scan")
