"""Chaos: deterministic injection + the kill/tear/resume recovery drill."""

import json
import os

import pytest

from repro.farm.chaos import (
    ChaosMonkey,
    parity_fields,
    pick_poison_digest,
    run_chaos_harness,
    render_chaos_report,
)
from repro.farm.manifest import JobSpec, Manifest

SEED = 20260808

CORPUS = Manifest(jobs=[
    JobSpec(id="scenario:ephone", kind="scenario", target="ephone"),
    JobSpec(id="scenario:case1", kind="scenario", target="case1"),
    JobSpec(id="scenario:case2", kind="scenario", target="case2"),
    JobSpec(id="scenario:qqphonebook", kind="scenario",
            target="qqphonebook"),
    JobSpec(id="scenario:benign", kind="scenario", target="benign"),
])


class TestDeterminism:
    def test_same_seed_same_decisions_everywhere(self):
        digest = CORPUS.jobs[0].digest()
        first = ChaosMonkey(SEED)
        second = ChaosMonkey(SEED)
        decisions = [(first.wants_kill(digest, a),
                      first.wants_stop(digest, a),
                      first.wants_truncate(digest, a)) for a in (1, 2, 3)]
        assert decisions == [(second.wants_kill(digest, a),
                              second.wants_stop(digest, a),
                              second.wants_truncate(digest, a))
                             for a in (1, 2, 3)]

    def test_poison_target_is_killed_on_every_attempt(self):
        digest = CORPUS.jobs[0].digest()
        monkey = ChaosMonkey(SEED, poison_digest=digest)
        assert all(monkey.wants_kill(digest, a) for a in (1, 2, 3, 4))
        # A kill decision pre-empts a stop; the poison file is never torn
        # (its job never commits a result to tear).
        assert not any(monkey.wants_stop(digest, a) for a in (1, 2))
        assert not monkey.wants_truncate(digest, 1)

    def test_non_poison_jobs_molested_on_first_attempt_only(self):
        monkey = ChaosMonkey(SEED, poison_digest="ff" * 32,
                             kill_pct=100, stop_pct=100, truncate_pct=100)
        digest = CORPUS.jobs[1].digest()
        assert monkey.wants_kill(digest, 1)
        assert not monkey.wants_kill(digest, 2)
        assert monkey.wants_truncate(digest, 1)
        assert not monkey.wants_truncate(digest, 2)

    def test_poison_election_is_stable_per_seed(self):
        chosen = pick_poison_digest(CORPUS, SEED)
        assert chosen == pick_poison_digest(CORPUS, SEED)
        assert chosen in {spec.digest() for spec in CORPUS}
        others = {pick_poison_digest(CORPUS, seed)
                  for seed in range(20)}
        assert len(others) > 1    # the seed genuinely moves the election

    def test_empty_manifest_has_no_poison_candidate(self):
        with pytest.raises(ValueError):
            pick_poison_digest(Manifest(jobs=[]), SEED)


class TestRecoveryDrill:
    """Satellite proof: SIGKILL the scheduler mid-run, resume, compare
    field-for-field against an uninterrupted serial run."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("chaos"))
        return run_chaos_harness(CORPUS, seed=SEED, out_dir=out,
                                 workers=2), out

    def test_all_recovery_invariants_hold(self, report):
        chaos_report, __ = report
        assert chaos_report.invariants.get("scheduler_was_killed"), \
            "the drill must actually SIGKILL the scheduler mid-run"
        assert chaos_report.invariants.get("torn_file_injected")
        assert chaos_report.failures == []
        assert chaos_report.ok

    def test_resumed_report_matches_serial_baseline_field_for_field(
            self, report):
        chaos_report, __ = report
        final = chaos_report.final_report
        # Re-run the clean serial baseline and compare every
        # deterministic field of every non-poison row.
        from repro.farm.scheduler import FarmScheduler
        serial = FarmScheduler(CORPUS, workers=1).run().results
        baseline = {row["digest"]: parity_fields(row) for row in serial}
        recovered = {row["digest"]: parity_fields(row)
                     for row in final.results}
        for digest, fields in baseline.items():
            if digest == chaos_report.poison_digest:
                continue
            assert recovered[digest] == fields
        assert set(recovered) == set(baseline)

    def test_poison_is_the_elected_target_quarantined_once(self, report):
        chaos_report, __ = report
        poison_rows = [row for row in chaos_report.final_report.results
                       if row["status"] == "poison"]
        assert len(poison_rows) == 1
        assert poison_rows[0]["digest"] == chaos_report.poison_digest
        assert poison_rows[0]["tombstone"]["error_type"] == "PoisonJob"

    def test_artifact_written_and_renders(self, report):
        chaos_report, out = report
        with open(os.path.join(out, "chaos.json")) as handle:
            persisted = json.load(handle)
        assert persisted["ok"] is True
        assert persisted["seed"] == SEED
        assert persisted["invariants"] == chaos_report.invariants
        assert persisted["stats"]["journal_events"]["run_start"] >= 2
        text = render_chaos_report(chaos_report)
        assert "verdict: RECOVERED" in text
        assert "[ok] parity_with_serial_baseline" in text
        assert "scheduler SIGKILL" in text
