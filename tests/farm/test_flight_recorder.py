"""The farm's flight recorder: spools, merge semantics, crash replay,
console, and the engine-identical-when-traced guarantee."""

import json
import os
import signal

import pytest

from repro.farm import FarmScheduler, JobSpec, Manifest, merge_spans
from repro.farm import worker as worker_module
from repro.farm.chaos import ChaosMonkey
from repro.farm.console import (
    TAIL_BYTES,
    FarmConsole,
    cache_hit_rates,
    spool_live_state,
)
from repro.farm.health import stamp_heartbeat
from repro.farm.journal import RunJournal, journal_counts
from repro.farm.merge import merge_metrics
from repro.farm.scheduler import FarmInterrupted
from repro.farm.worker import execute_job
from repro.observability.flight import (read_jsonl, validate_chrome_trace,
                                        write_trace_artifacts)
from repro.observability.spans import SpanTracer

TWO_JOBS = Manifest(jobs=[
    JobSpec(id="scenario:ephone", kind="scenario", target="ephone"),
    JobSpec(id="scenario:benign", kind="scenario", target="benign"),
])


class TestTypeAwareMerge:
    """Pin for the gauges-were-summed bug: 'cached blocks right now'
    across eight workers is not eight times the cache."""

    ROWS = [
        {"metrics": {"core.sink_checks": 2, "tbc.cached_blocks": 10},
         "metrics_gauges": ["tbc.cached_blocks"]},
        {"metrics": {"core.sink_checks": 3, "tbc.cached_blocks": 4},
         "metrics_gauges": ["tbc.cached_blocks"]},
    ]

    def test_counters_sum(self):
        assert merge_metrics(self.ROWS)["core.sink_checks"] == 5

    def test_gauges_take_max_not_sum(self):
        assert merge_metrics(self.ROWS)["tbc.cached_blocks"] == 10

    def test_rows_without_gauge_declarations_still_merge(self):
        merged = merge_metrics([{"metrics": {"a": 1}},
                                {"metrics": {"a": 2}}])
        assert merged["a"] == 3

    def test_non_numeric_values_are_skipped(self):
        merged = merge_metrics([{"metrics": {"a": 1, "note": "text"}}])
        assert "note" not in merged


class TestCrashConsistency:
    """SIGKILL mid-span must replay as an open-span marker, never an
    exception."""

    def test_sigkilled_worker_leaves_a_replayable_open_span(self, tmp_path):
        spool_path = str(tmp_path / "worker-dead.jsonl")
        pid = os.fork()
        if pid == 0:
            try:
                tracer = SpanTracer(spool_path, trace_id="deadbeef")
                tracer.begin("job", cat="worker", id="scenario:doomed")
                tracer.event("last_gasp", cat="worker")
                os.kill(os.getpid(), signal.SIGKILL)
            finally:
                os._exit(1)  # pragma: no cover - SIGKILL got there first
        __, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)

        timeline = merge_spans(str(tmp_path))
        (span,) = timeline["spans"]
        assert span["open"] is True
        assert span["name"] == "job"
        assert span["trace"] == "deadbeef"
        assert span["args"]["id"] == "scenario:doomed"
        # And the Chrome export of the torn run still validates.
        paths = write_trace_artifacts(str(tmp_path))
        with open(paths["trace"]) as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_manually_torn_spool_tail_never_raises(self, tmp_path):
        tracer = SpanTracer(str(tmp_path / "w.jsonl"))
        with tracer.span("job"):
            pass
        tracer.close()
        with open(str(tmp_path / "w.jsonl"), "a") as fh:
            fh.write('{"ph":"B","ts":99.0,"pid":1,"sp')
        timeline = merge_spans(str(tmp_path))
        assert len(timeline["spans"]) == 1
        assert timeline["open_spans"] == 0

    def test_chaos_poisoned_farm_still_aggregates_a_valid_trace(
            self, tmp_path):
        poison = TWO_JOBS.jobs[0].digest()
        monkey = ChaosMonkey(seed=7, poison_digest=poison,
                             kill_pct=0, stop_pct=0, truncate_pct=0)
        trace_dir = str(tmp_path / "flight")
        scheduler = FarmScheduler(TWO_JOBS, workers=2, chaos=monkey,
                                  run_dir=str(tmp_path / "run"),
                                  trace_dir=trace_dir)
        results = scheduler.run().results
        by_id = {r["job"]["id"]: r for r in results}
        assert by_id["scenario:ephone"]["status"] == "poison"
        assert by_id["scenario:benign"]["status"] == "ok"

        timeline = merge_spans(trace_dir)  # must not raise on torn spools
        paths = write_trace_artifacts(trace_dir)
        with open(paths["trace"]) as fh:
            assert validate_chrome_trace(json.load(fh)) == []
        # The scheduler's track (its journal) records the quarantine
        # decision, correlated to the poison job's trace id.
        quarantines = [e for e in timeline["events"]
                       if e["name"] == "poison"]
        assert quarantines
        assert all(e["trace"] == poison[:12] for e in quarantines)


class TestFarmTraceEndToEnd:
    def test_forked_farm_produces_correlated_spools(self, tmp_path):
        trace_dir = str(tmp_path / "flight")
        scheduler = FarmScheduler(TWO_JOBS, workers=2,
                                  run_dir=str(tmp_path / "run"),
                                  trace_dir=trace_dir)
        results = scheduler.run().results
        assert all(r["status"] == "ok" for r in results)

        timeline = merge_spans(trace_dir)
        cats = {s["cat"] for s in timeline["spans"]}
        assert {"scheduler", "worker", "engine"} <= cats
        names = {s["name"] for s in timeline["spans"]}
        assert {"job", "platform_boot", "scenario_run",
                "store_commit"} <= names
        # Every job's trace id appears on both sides of the fork.
        for spec in TWO_JOBS:
            trace_id = spec.digest()[:12]
            sides = {s["cat"] for s in timeline["spans"]
                     if s["trace"] == trace_id}
            assert "scheduler" in sides
            assert sides & {"worker", "engine"}
        # Cache counters were sampled into the stream.
        counter_names = {c["name"] for c in timeline["counters"]}
        assert {"tbc.hits", "jni.trampoline.hits", "tb.hits"} <= \
            counter_names
        # The scheduler's track is its journal: one job span per
        # dispatch, one instant per other transition.
        journal = journal_counts(str(tmp_path / "run" / "journal.jsonl"))
        jobs = [s for s in timeline["spans"]
                if s["cat"] == "scheduler" and s["name"] == "job"]
        assert len(jobs) == journal["dispatched"] == 2
        assert {e["name"] for e in timeline["events"]
                if e["cat"] == "scheduler"} == {"run_start", "run_end"}

    def test_inline_scheduler_traces_without_forking(self, tmp_path):
        trace_dir = str(tmp_path / "flight")
        scheduler = FarmScheduler(TWO_JOBS, workers=1,
                                  run_dir=str(tmp_path / "run"),
                                  trace_dir=trace_dir)
        scheduler.run()
        timeline = merge_spans(trace_dir)
        assert {s["cat"] for s in timeline["spans"]} >= \
            {"scheduler", "worker", "engine"}
        assert timeline["open_spans"] == 0


    def test_drained_run_still_writes_its_track(self, tmp_path,
                                                monkeypatch):
        def interrupted_job(spec, budget=None, tracer=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(worker_module, "execute_job", interrupted_job)
        trace_dir = str(tmp_path / "flight")
        scheduler = FarmScheduler(TWO_JOBS, workers=1,
                                  run_dir=str(tmp_path / "run"),
                                  trace_dir=trace_dir)
        with pytest.raises(FarmInterrupted):
            scheduler.run()
        (job,) = [s for s in merge_spans(trace_dir)["spans"]
                  if s["cat"] == "scheduler"]
        assert job["args"]["status"] == "interrupted"

    def test_killed_scheduler_track_appears_when_resume_ends(
            self, tmp_path):
        run_dir = tmp_path / "run"
        ephone = TWO_JOBS.jobs[0]
        # What a scheduler SIGKILLed mid-dispatch leaves in its journal.
        with RunJournal(str(run_dir / "journal.jsonl")) as journal:
            journal.record("run_start", resume=False, workers=2, jobs=2,
                           pid=1)
            journal.record("dispatched", digest=ephone.digest(),
                           id=ephone.id, attempt=1, jobs=1, pid=2)
        trace_dir = str(tmp_path / "flight")
        FarmScheduler(TWO_JOBS, workers=1, resume=True,
                      run_dir=str(run_dir), trace_dir=trace_dir).run()
        jobs = [s for s in merge_spans(trace_dir)["spans"]
                if s["cat"] == "scheduler"]
        killed = [s for s in jobs if s["pid"] == 1]
        resumed = [s for s in jobs if s["pid"] == os.getpid()]
        assert [s.get("open") for s in killed] == [True]
        assert killed[0]["trace"] == ephone.digest()[:12]
        assert sorted(s["args"]["id"] for s in resumed) == \
            ["scenario:benign", "scenario:ephone"]


class TestDifferential:
    """Tracing must observe the engines, not steer them."""

    def test_traced_job_is_engine_identical(self, tmp_path):
        spec = TWO_JOBS.jobs[0].to_dict()
        plain = execute_job(dict(spec))
        tracer = SpanTracer(str(tmp_path / "w.jsonl"))
        traced = execute_job(dict(spec), tracer=tracer)
        tracer.close()

        # Every metric, instruction counts included, matches to the
        # digit: spans time the crossings without adding a metric.
        assert plain["metrics"] == traced["metrics"]
        assert plain["leaks"] == traced["leaks"]
        assert plain["status"] == traced["status"]
        assert any(record["ph"] == "B"
                   for record in read_jsonl(tracer.path, "ph"))


class TestConsole:
    def _seed_run(self, tmp_path):
        run_dir = str(tmp_path / "run")
        trace_dir = str(tmp_path / "flight")
        os.makedirs(os.path.join(run_dir, "hb"))
        stamp_heartbeat(os.path.join(run_dir, "hb", "a" * 64),
                        digest="a" * 64, instructions=1234)
        # A worker whose pid no longer exists: verdict must be "dead".
        dead_pid = 2 ** 22 - 1
        with open(os.path.join(run_dir, "hb", "b" * 64), "w") as fh:
            fh.write(f"{dead_pid} 1.0 {'b' * 64} 7\n")
        with open(os.path.join(run_dir, "journal.jsonl"), "w") as fh:
            fh.write(json.dumps({"event": "dispatched", "digest": "x"}))
            fh.write("\n")
            fh.write(json.dumps({"event": "done", "digest": "x"}) + "\n")
        tracer = SpanTracer(os.path.join(trace_dir, "worker-live.jsonl"))
        tracer.begin("scenario_run", cat="worker")
        tracer.counter("tbc.hits", 9)
        tracer.counter("tbc.misses", 1)
        tracer.close()
        return run_dir, trace_dir

    def test_render_frame_without_a_tty(self, tmp_path):
        run_dir, trace_dir = self._seed_run(tmp_path)
        console = FarmConsole(run_dir, trace_dir=trace_dir)
        frame = console.render_frame()
        assert "farm watch" in frame
        assert "dispatched=1 done=1" in frame
        assert "busy" in frame      # our own pid is alive and stamping
        assert "dead" in frame      # the fabricated pid is not
        assert "insns=1234" in frame
        assert "scenario_run" in frame
        assert "tbc=90%" in frame
        assert console.frames_rendered == 1

    def test_render_frame_on_empty_run_dir(self, tmp_path):
        console = FarmConsole(str(tmp_path))
        frame = console.render_frame()
        assert "(no worker heartbeats)" in frame
        assert "(no events yet)" in frame

    def test_tail_spool_skips_torn_lines(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ph":"B","ts":1.0,"pid":4,"span":1,"name":"job"}\n')
            fh.write('{"ph":"C","ts":2.0,"pid":4,"name":"tb.hits","va')
        records = list(read_jsonl(path, "ph", TAIL_BYTES))
        assert [r["ph"] for r in records] == ["B"]
        state = spool_live_state(records)
        assert [s["name"] for s in state["open_spans"]] == ["job"]

    def test_cache_hit_rates(self):
        rates = cache_hit_rates({"tb.hits": 3, "tb.misses": 1,
                                 "jni.trampoline.hits": 0,
                                 "jni.trampoline.misses": 0})
        assert rates == {"tb": 0.75}   # 0/0 caches report nothing

    def test_start_stop_appends_frames_to_non_tty(self, tmp_path):
        import io
        run_dir, trace_dir = self._seed_run(tmp_path)
        out = io.StringIO()
        console = FarmConsole(run_dir, trace_dir=trace_dir,
                              interval=0.01, out=out)
        console.start()
        import time
        deadline = time.monotonic() + 2.0
        while console.frames_rendered == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        console.stop()
        assert "farm watch" in out.getvalue()
        assert "\x1b[" not in out.getvalue()   # no ANSI off-TTY
