"""The AST lint's rules fire on synthetic bad code and respect waivers.

Each rule gets a minimal offending module written under a fake
``repro/<pkg>/`` directory (the rules are package-scoped), plus a
matching negative case showing the idiomatic form passes.
"""

from pathlib import Path

from repro.analysis.lint import (
    Finding,
    default_root,
    lint_file,
    lint_paths,
    main,
)


def _module(tmp_path: Path, pkg: str, source: str,
            name: str = "mod.py") -> Path:
    path = tmp_path / "repro" / pkg / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _rules(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


class TestWallclockRule:
    def test_time_time_in_sim_flagged(self, tmp_path):
        path = _module(tmp_path, "sim",
                       "import time\n\ndef f():\n    return time.time()\n")
        assert _rules(lint_file(path)) == {"wallclock-time"}

    def test_perf_counter_from_import_flagged(self, tmp_path):
        path = _module(tmp_path, "hw",
                       "from time import perf_counter\n\n"
                       "def f():\n    return perf_counter()\n")
        assert "wallclock-time" in _rules(lint_file(path))

    def test_datetime_now_flagged(self, tmp_path):
        path = _module(tmp_path, "core",
                       "from datetime import datetime\n\n"
                       "def f():\n    return datetime.now()\n")
        assert "wallclock-time" in _rules(lint_file(path))

    def test_bench_package_exempt(self, tmp_path):
        path = _module(tmp_path, "bench",
                       "import time\n\ndef f():\n    return time.time()\n")
        assert lint_file(path) == []


class TestUnseededRandomRule:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        path = _module(tmp_path, "rcce",
                       "import numpy as np\n\n"
                       "def f():\n    return np.random.default_rng()\n")
        assert _rules(lint_file(path)) == {"unseeded-random"}

    def test_seeded_default_rng_passes(self, tmp_path):
        path = _module(tmp_path, "rcce",
                       "import numpy as np\n\n"
                       "def f(seed):\n    return np.random.default_rng(seed)\n")
        assert lint_file(path) == []

    def test_legacy_np_random_flagged(self, tmp_path):
        path = _module(tmp_path, "core",
                       "import numpy as np\n\n"
                       "def f():\n    return np.random.randint(4)\n")
        assert "unseeded-random" in _rules(lint_file(path))

    def test_stdlib_random_flagged(self, tmp_path):
        path = _module(tmp_path, "sim",
                       "import random\n\n"
                       "def f():\n    return random.random()\n")
        assert "unseeded-random" in _rules(lint_file(path))


class TestMpbDirectWriteRule:
    BAD = ("from repro.hw.mpb import MPBRegion\n\n"
           "def f(region: MPBRegion, raw):\n    region.write(raw)\n")

    def test_direct_write_outside_transfer_layer_flagged(self, tmp_path):
        path = _module(tmp_path, "core", self.BAD)
        assert _rules(lint_file(path)) == {"mpb-direct-write"}

    def test_rcce_package_is_the_transfer_layer(self, tmp_path):
        # The direct call is sanctioned there (only the actor attribution
        # rule still applies to it).
        rules = _rules(lint_file(_module(tmp_path, "rcce", self.BAD)))
        assert "mpb-direct-write" not in rules

    def test_module_without_mpb_import_exempt(self, tmp_path):
        # `.write` on arbitrary objects (files, profiles) is fine.
        path = _module(tmp_path, "obs",
                       "def f(fh):\n    fh.write('x')\n")
        assert lint_file(path) == []

    def test_raw_data_poke_flagged(self, tmp_path):
        path = _module(tmp_path, "faults",
                       "from repro.hw.mpb import MPB\n\n"
                       "def f(mpb: MPB):\n    mpb.data[0] = 1\n")
        assert "mpb-direct-write" in _rules(lint_file(path))

    def test_waiver_comment_above(self, tmp_path):
        path = _module(
            tmp_path, "core",
            "from repro.hw.mpb import MPBRegion\n\n"
            "def f(region: MPBRegion, raw):\n"
            "    # repro-lint: allow=mpb-direct-write\n"
            "    region.write(raw)\n")
        assert lint_file(path) == []

    def test_waiver_same_line(self, tmp_path):
        path = _module(
            tmp_path, "core",
            "from repro.hw.mpb import MPBRegion\n\n"
            "def f(region: MPBRegion, raw):\n"
            "    region.write(raw)  # repro-lint: allow=mpb-direct-write\n")
        assert lint_file(path) == []

    def test_waiver_is_rule_specific(self, tmp_path):
        path = _module(
            tmp_path, "core",
            "from repro.hw.mpb import MPBRegion\n\n"
            "def f(region: MPBRegion, raw):\n"
            "    region.write(raw)  # repro-lint: allow=span-unpaired\n")
        assert "mpb-direct-write" in _rules(lint_file(path))


class TestUnattributedAccessRule:
    def test_transfer_layer_write_without_actor_flagged(self, tmp_path):
        path = _module(tmp_path, "rcce",
                       "def f(region, raw):\n    region.write(raw)\n")
        assert _rules(lint_file(path)) == {"unattributed-access"}

    def test_transfer_layer_write_with_actor_passes(self, tmp_path):
        path = _module(tmp_path, "rcce",
                       "def f(region, raw, me):\n"
                       "    region.write(raw, actor=me)\n")
        assert lint_file(path) == []

    def test_force_without_actor_flagged_anywhere(self, tmp_path):
        path = _module(tmp_path, "core",
                       "def f(flag):\n    flag.force(True)\n")
        assert _rules(lint_file(path)) == {"unattributed-access"}

    def test_force_with_actor_passes(self, tmp_path):
        path = _module(tmp_path, "core",
                       "def f(flag, me):\n    flag.force(True, actor=me)\n")
        assert lint_file(path) == []

    def test_outside_transfer_layer_defers_to_direct_write(self, tmp_path):
        # In `core` the raw .write is mpb-direct-write territory; the
        # attribution rule must not double-report the same call.
        path = _module(tmp_path, "core",
                       "from repro.hw.mpb import MPBRegion\n\n"
                       "def f(region: MPBRegion, raw):\n"
                       "    region.write(raw)\n")
        assert _rules(lint_file(path)) == {"mpb-direct-write"}

    def test_waiver_for_setup_force(self, tmp_path):
        path = _module(
            tmp_path, "core",
            "def f(flag):\n"
            "    flag.force(False)  # repro-lint: allow=unattributed-access\n")
        assert lint_file(path) == []


class TestSpanRules:
    def test_bare_span_call_flagged(self, tmp_path):
        path = _module(tmp_path, "obs",
                       "from repro.obs.spans import span\n\n"
                       "def f(env):\n    span(env, 'copy')\n")
        assert "span-unpaired" in _rules(lint_file(path))

    def test_with_span_passes(self, tmp_path):
        path = _module(tmp_path, "obs",
                       "from repro.obs.spans import span\n\n"
                       "def f(env):\n"
                       "    with span(env, 'copy'):\n        pass\n")
        assert lint_file(path) == []

    def test_conditional_with_span_passes(self, tmp_path):
        path = _module(tmp_path, "obs",
                       "from repro.obs.spans import span\n\n"
                       "def f(env, rnd, none):\n"
                       "    with span(env, 'round', rnd) if rnd else none:\n"
                       "        pass\n")
        assert lint_file(path) == []

    def test_unpaired_begin_literal_flagged(self, tmp_path):
        path = _module(tmp_path, "obs",
                       "def f(tracer, now):\n"
                       "    tracer.emit(now, 'core0', 'send.begin', None)\n")
        assert _rules(lint_file(path)) == {"trace-begin-end"}

    def test_paired_literals_pass(self, tmp_path):
        path = _module(tmp_path, "obs",
                       "def f(tracer, now):\n"
                       "    tracer.emit(now, 'c', 'send.begin', None)\n"
                       "    tracer.emit(now, 'c', 'send.end', None)\n")
        assert lint_file(path) == []


class TestFloatTimeEqRule:
    def test_us_name_equality_flagged(self, tmp_path):
        path = _module(tmp_path, "util",
                       "def f(elapsed_us, expected):\n"
                       "    return elapsed_us == expected\n")
        assert _rules(lint_file(path)) == {"float-time-eq"}

    def test_ps_to_us_call_equality_flagged(self, tmp_path):
        path = _module(tmp_path, "util",
                       "from repro.sim.clock import ps_to_us\n\n"
                       "def f(ps, expected):\n"
                       "    return ps_to_us(ps) != expected\n")
        assert "float-time-eq" in _rules(lint_file(path))

    def test_integer_ps_comparison_passes(self, tmp_path):
        path = _module(tmp_path, "util",
                       "def f(elapsed_ps, expected):\n"
                       "    return elapsed_ps == expected\n")
        assert lint_file(path) == []


class TestSaltedHashRule:
    def test_builtin_hash_flagged_in_any_package(self, tmp_path):
        path = _module(tmp_path, "obs",
                       "def tid(actor):\n"
                       "    return abs(hash(actor)) % 10_000\n")
        assert _rules(lint_file(path)) == {"salted-hash"}

    def test_methods_named_hash_and_waived_keys_pass(self, tmp_path):
        path = _module(tmp_path, "util",
                       "def f(table, digest):\n"
                       "    # repro-lint: allow=salted-hash\n"
                       "    key = hash(table)\n"
                       "    return key, digest.hash(table)\n")
        assert lint_file(path) == []


class TestUnusedImportRule:
    def test_unused_import_flagged(self, tmp_path):
        path = _module(tmp_path, "util",
                       "import os\n\n\ndef f():\n    return 1\n")
        assert _rules(lint_file(path)) == {"unused-import"}

    def test_quoted_annotation_counts_as_use(self, tmp_path):
        path = _module(tmp_path, "util",
                       "from typing import TYPE_CHECKING\n\n"
                       "if TYPE_CHECKING:\n"
                       "    from repro.hw.machine import Machine\n\n"
                       "def f(machine: 'Machine') -> None:\n    pass\n")
        assert lint_file(path) == []

    def test_init_py_reexports_exempt(self, tmp_path):
        path = _module(tmp_path, "util",
                       "from os import sep\n", name="__init__.py")
        assert lint_file(path) == []


class TestDriver:
    def test_syntax_error_is_a_finding(self, tmp_path):
        path = _module(tmp_path, "util", "def f(:\n")
        findings = lint_file(path)
        assert _rules(findings) == {"syntax-error"}

    def test_finding_format_is_clickable(self, tmp_path):
        path = _module(tmp_path, "sim",
                       "import time\n\ndef f():\n    return time.time()\n")
        text = str(lint_file(path)[0])
        assert text.startswith(f"{path}:4:")
        assert "wallclock-time" in text

    def test_lint_paths_recurses_directories(self, tmp_path):
        _module(tmp_path, "sim",
                "import time\n\ndef f():\n    return time.time()\n")
        _module(tmp_path, "hw", "import os\n", name="other.py")
        findings = lint_paths([tmp_path])
        assert _rules(findings) == {"wallclock-time", "unused-import"}

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = _module(tmp_path, "util", "def f():\n    return 1\n")
        assert main([str(clean)]) == 0
        bad = _module(tmp_path, "sim",
                      "import time\n\ndef f():\n    return time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr()
        assert "wallclock-time" in out.out
        assert main([str(tmp_path / "nope.py")]) == 2

    def test_default_root_is_the_package_tree(self):
        root = default_root()
        assert root.name == "repro"
        assert (root / "analysis" / "lint.py").is_file()
