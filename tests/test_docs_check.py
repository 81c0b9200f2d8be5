"""The documentation stays healthy: links resolve, examples run.

Wires ``tools/check_docs.py`` into the test suite.  Set
``REPRO_SKIP_EXAMPLE_SMOKE=1`` to skip the (seconds-scale) example runs
when iterating on unrelated code.
"""

import os
import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_docs  # noqa: E402


class TestLinkChecker:
    def test_all_repo_links_resolve(self):
        assert check_docs.check_links() == []

    def test_covers_the_documentation_set(self):
        names = {os.path.basename(p) for p in check_docs.doc_files()}
        assert {"README.md", "api.md", "observability.md",
                "collectives.md"} <= names

    def test_detects_broken_links(self, tmp_path, monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        (tmp_path / "good.md").write_text("[ok](docs/bad.md)\n")
        (docs / "bad.md").write_text(
            "[yes](../good.md) [no](missing.md#frag)\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
        failures = check_docs.check_links()
        assert len(failures) == 1
        assert "docs/bad.md:1" in failures[0]
        assert "missing.md" in failures[0]

    def test_external_and_anchor_links_skipped(self, tmp_path, monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        (tmp_path / "r.md").write_text(
            "[a](https://example.org/x) [b](#section) [c](mailto:x@y.z)\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
        assert check_docs.check_links() == []

    def test_cli_entrypoint(self, capsys):
        assert check_docs.main(["--links"]) == 0


class TestCliCoverage:
    def test_all_subcommands_documented(self):
        assert check_docs.check_cli() == []

    def test_introspects_the_real_parser(self):
        names = check_docs.cli_subcommands()
        assert names == sorted(names)
        assert {"fig9", "sweep", "tune", "lint"} <= set(names)

    def test_detects_undocumented_subcommand(self, tmp_path, monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "api.md").write_text("python -m repro sweep\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
        failures = check_docs.check_cli()
        assert failures
        assert any("'tune'" in f for f in failures)
        assert not any("'sweep'" in f for f in failures)

    def test_cli_entrypoint(self, capsys):
        assert check_docs.main(["--cli"]) == 0


class TestCliFlagCoverage:
    def test_all_flags_documented(self):
        assert check_docs.check_cli_flags() == []

    def test_introspects_the_real_parser(self):
        flags = check_docs.cli_flags()
        assert "--engine" in flags["sweep"]
        assert {"--jobs", "--no-cache", "--cache-dir"} <= set(flags["sweep"])
        assert "bench" not in flags
        assert all("--help" not in longs for longs in flags.values())

    def test_detects_undocumented_flag(self, tmp_path, monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        # A reference that names every flag except --engine.
        documented = {
            flag
            for longs in check_docs.cli_flags().values()
            for flag in longs if flag != "--engine"
        }
        (docs / "api.md").write_text(" ".join(sorted(documented)) + "\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
        failures = check_docs.check_cli_flags()
        assert failures
        assert all("'--engine'" in f for f in failures)

    def test_cli_entrypoint(self, capsys):
        assert check_docs.main(["--cli-flags"]) == 0


@pytest.mark.skipif(os.environ.get("REPRO_SKIP_EXAMPLE_SMOKE") == "1",
                    reason="example smoke runs disabled by env")
class TestExamplesSmoke:
    def test_every_example_runs_with_smoke(self):
        scripts = check_docs.example_scripts()
        assert len(scripts) >= 7
        assert check_docs.check_examples() == []
