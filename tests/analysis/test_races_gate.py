"""CI gates for the race detector + interleaving explorer.

Mirrors the sanitizer's two-sided gate at the happens-before layer:

* **Clean gate** — the shipped collective stacks produce zero race
  candidates (every kind at 2/47/48 cores on the lightweight stack,
  every stack for Allreduce at full chip, plus synthesized winners from
  the committed selection table).  Because detection is exhaustive over
  *all* legal orderings — not just the observed one — a clean run here
  is a much stronger statement than the sanitizer's.
* **Detector gate** — every known-racy fixture triggers exactly its
  documented rule, and the adversarial explorer *confirms* the
  confirmable ones by actually reproducing a reordered execution under
  a bounded timing perturbation (the two deliberately unconfirmable
  fixtures exercise the benign verdict).

The explorer itself is deterministic: exploring the same scenario twice
must yield identical verdicts.
"""

import hashlib

import pytest

from repro.analysis.fixtures import (
    RACE_FIXTURES,
    race_fixture,
    race_fixture_scenario,
    run_race_fixture,
)
from repro.analysis.races import (
    collective_scenario,
    explore,
    run_detected,
    synth_winner_scenarios,
)
from repro.bench.runner import KINDS
from repro.core.registry import STACKS

pytestmark = pytest.mark.race

GATE_CORES = (2, 47, 48)


class TestCleanGate:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cores", GATE_CORES)
    def test_every_kind_is_race_free(self, kind, cores):
        detector, failure = run_detected(
            collective_scenario(kind, "lightweight", cores, 96))
        assert failure is None
        detector.assert_clean()

    @pytest.mark.parametrize("stack", STACKS)
    def test_every_stack_is_race_free_at_full_chip(self, stack):
        detector, failure = run_detected(
            collective_scenario("allreduce", stack, 48, 96))
        assert failure is None
        detector.assert_clean()

    @pytest.mark.parametrize("stack", ["blocking", "ircce", "mpb"])
    def test_short_protocol_paths_are_race_free(self, stack):
        # size 8 stays under the long-message threshold: the one-line
        # eager paths and their flag handshakes.
        detector, failure = run_detected(
            collective_scenario("allreduce", stack, 47, 8))
        assert failure is None
        detector.assert_clean()

    @pytest.mark.parametrize("stack", ["blocking", "lightweight"])
    @pytest.mark.parametrize("kind", ["scan", "exscan"])
    def test_prefix_kinds_are_race_free(self, kind, stack):
        # Regression: the scenario used to hand algo= to
        # Communicator.exscan, which takes none (TypeError).
        detector, failure = run_detected(
            collective_scenario(kind, stack, 4, 96))
        assert failure is None
        detector.assert_clean()

    def test_synth_winners_are_race_free(self):
        # Two winners keep the default run fast; `python -m repro race
        # --gate` covers the full repertoire.
        for scenario in synth_winner_scenarios(limit=2):
            detector, failure = run_detected(scenario)
            assert failure is None, scenario.name
            detector.assert_clean()


class TestDetectorGate:
    @pytest.mark.parametrize("fixture", RACE_FIXTURES, ids=lambda f: f.name)
    def test_known_racy_schedule_is_flagged(self, fixture):
        detector = run_race_fixture(fixture)
        rules = {d.rule for d in detector.diagnostics}
        assert set(fixture.rules) <= rules, (
            f"fixture {fixture.name!r} should trigger {fixture.rules}; "
            f"got {sorted(rules)}")

    def test_fixture_diagnostics_carry_context(self):
        detector = run_race_fixture(race_fixture("flag-before-payload"))
        diag = detector.diagnostics[0]
        assert diag.time_ps > 0
        assert diag.owner == 1
        assert {diag.first.core, diag.second.core} == {0, 1}
        assert diag.first.time_ps <= diag.second.time_ps

    def test_fixture_diagnostic_texts_are_pinned(self):
        """Every word of every candidate the racy fixtures produce, as
        recorded on the numpy-scalar clock arithmetic."""
        texts = [str(d) for fx in RACE_FIXTURES
                 for d in run_race_fixture(fx).diagnostics]
        assert len(texts) == 8
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "ac4ea310fcf70f21e2bfa6040137f4c7810c6ca2a0e65f37ca74bf802219d685")


class TestExplorer:
    def test_confirms_a_real_reordered_execution(self):
        """The acceptance-criterion witness: a perturbed re-execution of
        the write/write fixture actually lands the two writes in the
        opposite order, same race key, flipped orientation."""
        fixture = race_fixture("unordered-write-write")
        report = explore(race_fixture_scenario(fixture))
        assert len(report.verdicts) == 1
        verdict = report.verdicts[0]
        assert verdict.confirmed
        assert verdict.witness is not None
        assert verdict.witness.key() == verdict.baseline.key()
        assert (verdict.witness.orientation()
                != verdict.baseline.orientation())

    @pytest.mark.parametrize("name", ["flag-before-payload",
                                      "flag-race-set-clear"])
    def test_confirms_flag_protocol_fixtures(self, name):
        report = explore(race_fixture_scenario(race_fixture(name)))
        assert report.confirmed, name

    def test_classifies_unflippable_candidate_benign(self):
        """A reversed alloc-vs-write replay produces no conflicting
        access at all, so the candidate must survive the whole budget
        and come back benign."""
        report = explore(
            race_fixture_scenario(race_fixture("alloc-without-ack")))
        assert len(report.verdicts) == 1
        assert not report.verdicts[0].confirmed
        assert report.runs == 9      # the full 3-level x 3-seed budget

    def test_exploration_is_deterministic(self):
        scenario = race_fixture_scenario(
            race_fixture("unordered-write-write"))
        first = explore(scenario)
        second = explore(scenario)
        assert [(v.key, v.confirmed, v.perturbation)
                for v in first.verdicts] == \
               [(v.key, v.confirmed, v.perturbation)
                for v in second.verdicts]
        assert first.runs == second.runs
