"""The write-ahead run journal: append, replay, torn tails, legality."""

import json
import os
import time

from repro.farm.journal import (
    RunJournal,
    journal_counts,
    replay,
    verify_journal,
)
from repro.observability.flight import read_jsonl

D1 = "aa" * 32
D2 = "bb" * 32


def write_events(path, events):
    with RunJournal(path) as journal:
        for event in events:
            kind = event.pop("event")
            journal.record(kind, **event)


class TestAppend:
    def test_records_round_trip_in_order(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [
            {"event": "run_start", "workers": 2},
            {"event": "dispatched", "digest": D1, "attempt": 1},
            {"event": "done", "digest": D1, "attempt": 1, "status": "ok"},
        ])
        events = list(read_jsonl(path, "event"))
        assert [e["event"] for e in events] == \
            ["run_start", "dispatched", "done"]
        assert events[1]["digest"] == D1

    def test_records_carry_wall_clock_timestamps(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        before = time.time() * 1e6
        write_events(path, [{"event": "run_start"},
                            {"event": "dispatched", "digest": D1}])
        stamps = [e["ts"] for e in read_jsonl(path, "event")]
        assert before <= stamps[0] <= stamps[1] <= time.time() * 1e6
        assert journal_counts(path) == {"run_start": 1, "dispatched": 1}

    def test_append_only_across_reopens(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [{"event": "run_start"}])
        write_events(path, [{"event": "run_start"}])
        assert replay(path).run_starts == 2

    def test_missing_file_reads_empty(self, tmp_path):
        assert list(read_jsonl(str(tmp_path / "nope.jsonl"), "event")) == []
        assert replay(str(tmp_path / "nope.jsonl")).jobs == {}


class TestTornTail:
    def test_half_written_final_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [
            {"event": "run_start"},
            {"event": "dispatched", "digest": D1, "attempt": 1},
        ])
        with open(path, "a") as handle:
            handle.write('{"event": "done", "digest": "' + D1[:7])
        events = list(read_jsonl(path, "event"))
        assert [e["event"] for e in events] == ["run_start", "dispatched"]
        # The torn "done" never happened: the job is still in flight.
        assert replay(path).in_flight_digests() == [D1]

    def test_non_event_json_lines_are_ignored(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(["not", "a", "dict"]) + "\n")
            handle.write(json.dumps({"no_event_key": 1}) + "\n")
            handle.write(json.dumps({"event": "run_start"}) + "\n")
        assert [e["event"] for e in read_jsonl(path, "event")] == \
            ["run_start"]


class TestReplay:
    def test_attempts_and_strikes_accumulate(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [
            {"event": "run_start"},
            {"event": "dispatched", "digest": D1, "attempt": 1},
            {"event": "strike", "digest": D1, "reason": "worker died"},
            {"event": "retry", "digest": D1, "next_attempt": 2},
            {"event": "dispatched", "digest": D1, "attempt": 2},
            {"event": "done", "digest": D1, "status": "ok"},
        ])
        state = replay(path)
        ledger = state.jobs[D1]
        assert ledger.attempts == 2
        assert ledger.strikes == 1
        assert ledger.terminal == "done"
        assert not ledger.in_flight

    def test_strikes_survive_scheduler_death(self, tmp_path):
        """The poison-quarantine guarantee: K strikes *total*, not per
        scheduler lifetime."""
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [
            {"event": "run_start"},
            {"event": "dispatched", "digest": D1, "attempt": 1},
            {"event": "strike", "digest": D1, "reason": "worker died"},
            {"event": "dispatched", "digest": D1, "attempt": 2},
            {"event": "strike", "digest": D1, "reason": "worker died"},
            # scheduler SIGKILLed here; a new segment begins
            {"event": "run_start", "resume": True},
        ])
        state = replay(path)
        assert state.strikes(D1) == 2
        assert state.run_starts == 2
        assert state.clean_run_ends == 0

    def test_new_segment_clears_in_flight(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [
            {"event": "run_start"},
            {"event": "dispatched", "digest": D1, "attempt": 1},
            {"event": "dispatched", "digest": D2, "attempt": 1},
            {"event": "done", "digest": D2, "status": "ok"},
            {"event": "run_start", "resume": True},
        ])
        # D1's worker died with the old scheduler: not in flight anymore.
        assert replay(path).in_flight_digests() == []
        assert replay(path).jobs[D2].terminal == "done"

    def test_interrupted_resolves_in_flight_without_terminal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [
            {"event": "run_start"},
            {"event": "dispatched", "digest": D1, "attempt": 1},
            {"event": "interrupted", "digest": D1, "attempt": 1},
        ])
        ledger = replay(path).jobs[D1]
        assert not ledger.in_flight
        assert ledger.terminal is None  # the job must still re-run


class TestVerify:
    def legal(self):
        return [
            {"event": "run_start"},
            {"event": "dispatched", "digest": D1, "attempt": 1},
            {"event": "done", "digest": D1, "status": "ok"},
            {"event": "run_end"},
        ]

    def test_legal_history_has_no_violations(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_events(path, self.legal())
        assert verify_journal(path) == []

    def test_double_terminal_in_one_segment_flagged(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [
            {"event": "run_start"},
            {"event": "dispatched", "digest": D1, "attempt": 1},
            {"event": "done", "digest": D1, "status": "ok"},
            {"event": "done", "digest": D1, "status": "ok"},
        ])
        violations = verify_journal(path)
        assert len(violations) == 1
        assert "double terminal" in violations[0]

    def test_terminal_again_after_resume_is_legal(self, tmp_path):
        # A cached replay of a done job in the next segment is fine.
        path = str(tmp_path / "journal.jsonl")
        write_events(path, self.legal() + [
            {"event": "run_start", "resume": True},
            {"event": "cached", "digest": D1, "status": "ok"},
            {"event": "run_end"},
        ])
        assert verify_journal(path) == []

    def test_done_without_dispatch_flagged(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [
            {"event": "run_start"},
            {"event": "done", "digest": D1, "status": "ok"},
        ])
        violations = verify_journal(path)
        assert violations and "without a dispatch" in violations[0]

    def test_double_poison_flagged_across_segments(self, tmp_path):
        # Quarantine is a one-time fleet-wide classification: a second
        # poison record for the same digest is illegal even after resume.
        path = str(tmp_path / "journal.jsonl")
        write_events(path, [
            {"event": "run_start"},
            {"event": "dispatched", "digest": D1, "attempt": 1},
            {"event": "poison", "digest": D1, "strikes": 3},
            {"event": "run_start", "resume": True},
            {"event": "dispatched", "digest": D1, "attempt": 4},
            {"event": "poison", "digest": D1, "strikes": 4},
        ])
        violations = verify_journal(path)
        assert any("poisoned 2 times" in v for v in violations)
