"""Flight spool + fleet timeline aggregator tests.

The properties under test are the crash-facing ones: a SIGKILL-torn
spool replays cleanly, an unmatched begin becomes an explicit open-span
marker, and the Chrome export passes its own schema validator.
"""

import json
import os

from repro.observability.flight import (
    build_timeline,
    collect_spools,
    journal_track,
    merge_spans,
    read_jsonl,
    render_timeline,
    to_chrome_trace,
    validate_chrome_trace,
    write_scheduler_track,
    write_trace_artifacts,
)
from repro.observability.spans import SpanTracer


def _traced_spool(path, trace_id="job1"):
    tracer = SpanTracer(path, trace_id=trace_id)
    with tracer.span("job", cat="worker"):
        with tracer.span("scenario_run", cat="worker"):
            tracer.complete("tb_translate", tracer.now(), cat="engine")
        tracer.event("committed", cat="worker")
        tracer.counter("tb.hits", 3)
    tracer.close()
    return tracer


def _write_lines(path, records):
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestSpoolRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        _traced_spool(path)
        records = list(read_jsonl(path, "ph"))
        assert [r["ph"] for r in records] == \
            ["B", "B", "X", "E", "i", "C", "E"]

    def test_missing_spool_yields_nothing(self, tmp_path):
        assert list(read_jsonl(str(tmp_path / "absent.jsonl"), "ph")) == []

    def test_torn_tail_is_skipped_not_raised(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        _traced_spool(path)
        whole = list(read_jsonl(path, "ph"))
        with open(path, "a") as fh:
            fh.write('{"ph":"E","ts":12345.0,"pi')  # SIGKILL mid-write
        assert list(read_jsonl(path, "ph")) == whole

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "noisy.jsonl")
        with open(path, "w") as fh:
            fh.write("not json at all\n")
            fh.write("\n")
            fh.write('["a","list","not","a","record"]\n')
            fh.write('{"no_ph_or_ts": true}\n')
            fh.write('{"ph":"i","ts":5.0,"pid":1,"name":"ok"}\n')
        records = list(read_jsonl(path, "ph"))
        assert [r["name"] for r in records] == ["ok"]

    def test_tail_window_drops_its_partial_first_line(self, tmp_path):
        path = str(tmp_path / "long.jsonl")
        _write_lines(path, [{"ph": "i", "ts": float(n), "name": f"e{n}"}
                            for n in range(100)])
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        window = sum(len(line) for line in lines[-3:])
        assert [r["name"] for r in read_jsonl(path, "ph", window)] == \
            ["e97", "e98", "e99"]
        assert [r["name"] for r in read_jsonl(path, "ph", window + 5)] == \
            ["e97", "e98", "e99"]
        assert len(list(read_jsonl(path, "ph", 10 ** 6))) == 100

    def test_collect_spools_merges_time_sorted(self, tmp_path):
        for pid, base in ((1, 100.0), (2, 50.0)):
            _write_lines(str(tmp_path / f"p{pid}.jsonl"),
                         [{"ph": "i", "ts": base, "pid": pid, "name": "x"}])
        (tmp_path / "README.txt").write_text("not a spool")
        records = collect_spools(str(tmp_path))
        assert [r["pid"] for r in records] == [2, 1]
        assert collect_spools(str(tmp_path / "missing")) == []


class TestJournalTrack:
    """The scheduler's timeline is derived from its journal."""

    JOURNAL = [
        {"event": "run_start", "ts": 0.0, "pid": 10, "workers": 2},
        {"event": "dispatched", "ts": 1.0, "digest": "a" * 64,
         "attempt": 1, "id": "job-a", "pid": 11},
        {"event": "dispatched", "ts": 2.0, "digest": "b" * 64,
         "attempt": 1, "id": "job-b", "pid": 12},
        {"event": "strike", "ts": 3.0, "digest": "b" * 64, "attempt": 1,
         "reason": "worker died"},
        {"event": "retry", "ts": 3.5, "digest": "b" * 64,
         "next_attempt": 2},
        {"event": "done", "ts": 5.0, "digest": "a" * 64, "attempt": 1,
         "status": "ok"},
        {"event": "dispatched", "ts": 6.0, "digest": "b" * 64,
         "attempt": 2, "id": "job-b", "pid": 13},
        # The scheduler is SIGKILLed here; a resume run takes over.
        {"event": "run_start", "ts": 9.0, "pid": 20, "workers": 2},
        {"event": "dispatched", "ts": 10.0, "digest": "b" * 64,
         "attempt": 1, "id": "job-b", "pid": 21},
        {"event": "done", "ts": 14.0, "digest": "b" * 64, "attempt": 1,
         "status": "ok"},
        {"event": "run_end", "ts": 15.0},
    ]

    def _track(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        _write_lines(path, self.JOURNAL)
        return path, journal_track(path)

    def test_dispatch_pairs_become_job_spans(self, tmp_path):
        __, records = self._track(tmp_path)
        spans = [r for r in records if r["ph"] == "X"]
        assert [(s["trace"], s["ts"], s["dur"], s["args"]["status"])
                for s in spans] == [("a" * 12, 1.0, 4.0, "ok"),
                                    ("b" * 12, 2.0, 1.0, "strike"),
                                    ("b" * 12, 10.0, 4.0, "ok")]
        assert all(s["name"] == "job" and s["cat"] == "scheduler"
                   for s in spans)
        assert spans[1]["args"]["reason"] == "worker died"
        # Each segment is drawn on the pid of the scheduler that ran it.
        assert [s["pid"] for s in spans] == [10, 10, 20]

    def test_other_events_are_instants(self, tmp_path):
        __, records = self._track(tmp_path)
        assert [r["name"] for r in records if r["ph"] == "i"] == \
            ["run_start", "retry", "run_start", "run_end"]

    def test_unresolved_dispatch_of_a_killed_segment_stays_open(
            self, tmp_path):
        path, __ = self._track(tmp_path)
        trace_dir = str(tmp_path / "flight")
        written = write_scheduler_track(path, trace_dir)
        assert os.path.basename(written) == "scheduler.jsonl"
        timeline = merge_spans(trace_dir)
        (open_span,) = [s for s in timeline["spans"] if s.get("open")]
        assert open_span["args"]["attempt"] == 2
        assert open_span["pid"] == 10
        assert timeline["open_spans"] == 1
        assert validate_chrome_trace(to_chrome_trace(timeline)) == []

    def test_rewriting_replaces_the_earlier_track(self, tmp_path):
        path, records = self._track(tmp_path)
        trace_dir = str(tmp_path / "flight")
        write_scheduler_track(path, trace_dir)
        written = write_scheduler_track(path, trace_dir)
        assert len(list(read_jsonl(written, "ph"))) == len(records)


class TestBuildTimeline:
    def test_pairs_begins_with_ends(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        _traced_spool(path)
        timeline = build_timeline(read_jsonl(path, "ph"))
        names = {s["name"] for s in timeline["spans"]}
        assert names == {"job", "scenario_run", "tb_translate"}
        assert timeline["open_spans"] == 0
        assert all(s.get("dur", -1) >= 0 for s in timeline["spans"])
        assert [e["name"] for e in timeline["events"]] == ["committed"]
        assert [c["value"] for c in timeline["counters"]] == [3]
        # Timestamps are rebased: the earliest record sits at t=0.
        assert min(s["ts"] for s in timeline["spans"]) == 0.0

    def test_unmatched_begin_becomes_open_span_marker(self):
        records = [
            {"ph": "B", "ts": 10.0, "pid": 7, "span": 1, "name": "job",
             "cat": "worker", "trace": "dead"},
            {"ph": "i", "ts": 40.0, "pid": 7, "name": "last_gasp",
             "cat": "worker"},
        ]
        timeline = build_timeline(records)
        (span,) = timeline["spans"]
        assert span["open"] is True
        assert timeline["open_spans"] == 1
        # Duration runs to the last ts that pid wrote, not to infinity.
        assert span["dur"] == 30.0

    def test_span_ids_scoped_per_pid(self):
        # Two processes both mint span id 1; the pairing must not
        # cross wires.
        records = [
            {"ph": "B", "ts": 0.0, "pid": 1, "span": 1, "name": "a"},
            {"ph": "B", "ts": 1.0, "pid": 2, "span": 1, "name": "b"},
            {"ph": "E", "ts": 5.0, "pid": 2, "span": 1},
        ]
        timeline = build_timeline(records)
        by_name = {s["name"]: s for s in timeline["spans"]}
        assert by_name["b"]["dur"] == 4.0
        assert by_name["a"].get("open") is True

    def test_end_without_begin_is_dropped(self):
        timeline = build_timeline([{"ph": "E", "ts": 1.0, "pid": 1,
                                    "span": 9}])
        assert timeline["spans"] == []

    def test_empty_input(self):
        timeline = build_timeline([])
        assert timeline["spans"] == []
        assert timeline["open_spans"] == 0


class TestChromeExport:
    def test_export_validates_and_labels_processes(self, tmp_path):
        sched = SpanTracer(str(tmp_path / "s.jsonl"), trace_id="job1")
        sched.pid = 100
        with sched.span("job", cat="scheduler"):
            pass
        sched.close()
        worker_path = str(tmp_path / "w.jsonl")
        worker = _traced_spool(worker_path)
        timeline = merge_spans(str(tmp_path))
        chrome = to_chrome_trace(timeline)
        assert validate_chrome_trace(chrome) == []
        metadata = {e["pid"]: e["args"]["name"]
                    for e in chrome["traceEvents"] if e["ph"] == "M"}
        assert metadata[100] == "scheduler [100]"
        assert metadata[worker.pid] == f"worker [{worker.pid}]"
        # Trace ids survive into args for Perfetto queries.
        traced = [e for e in chrome["traceEvents"]
                  if e.get("args", {}).get("trace") == "job1"]
        assert traced

    def test_open_span_exported_as_flagged_complete_event(self):
        timeline = build_timeline([
            {"ph": "B", "ts": 0.0, "pid": 1, "span": 1, "name": "job",
             "cat": "worker"},
            {"ph": "i", "ts": 9.0, "pid": 1, "name": "tick"},
        ])
        chrome = to_chrome_trace(timeline)
        assert validate_chrome_trace(chrome) == []
        (span_event,) = [e for e in chrome["traceEvents"]
                         if e["ph"] == "X"]
        assert span_event["args"]["open"] is True
        assert span_event["dur"] == 9.0

    def test_validator_catches_malformed_traces(self):
        assert validate_chrome_trace([]) == ["trace is not an object"]
        assert validate_chrome_trace({}) == ["traceEvents is not a list"]
        errors = validate_chrome_trace({"traceEvents": [
            "not a dict",
            {"ph": "Z", "name": "bad-phase", "pid": 1, "ts": 0},
            {"ph": "X", "name": "", "pid": 1, "ts": 0, "dur": 1},
            {"ph": "X", "name": "negative", "pid": 1, "ts": -5, "dur": 1},
            {"ph": "X", "name": "no-dur", "pid": 1, "ts": 0},
            {"ph": "C", "name": "no-value", "pid": 1, "ts": 0, "args": {}},
        ]})
        assert len(errors) == 6


class TestArtifacts:
    def test_render_timeline_marks_open_spans(self):
        timeline = build_timeline([
            {"ph": "B", "ts": 0.0, "pid": 1, "span": 1, "name": "job",
             "cat": "worker", "trace": "t1"},
            {"ph": "i", "ts": 1000.0, "pid": 1, "name": "tick"},
        ])
        text = render_timeline(timeline)
        assert "OPEN" in text
        assert "worker:job" in text
        assert "[t1]" in text

    def test_render_timeline_empty(self):
        assert "(no spans recorded)" in render_timeline(build_timeline([]))

    def test_write_trace_artifacts(self, tmp_path):
        _traced_spool(str(tmp_path / "w.jsonl"))
        paths = write_trace_artifacts(str(tmp_path))
        with open(paths["trace"]) as fh:
            chrome = json.load(fh)
        assert validate_chrome_trace(chrome) == []
        assert os.path.exists(paths["timeline"])
        with open(paths["timeline"]) as fh:
            assert "fleet timeline" in fh.read()
