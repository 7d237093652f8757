"""End-to-end farm behavior: parity, resume, containment, merge."""

import json
import os

from repro.farm import (
    FarmScheduler,
    JobSpec,
    Manifest,
    ResultStore,
    merge_results,
    render_farm_report,
    sink_counts,
    write_farm_artifacts,
)
from repro.farm.scheduler import CACHEABLE, _lost_result, _poison_result
from repro.farm.worker import execute_job
from repro.resilience import Supervisor

SMALL_CORPUS = Manifest(jobs=[
    JobSpec(id="scenario:ephone", kind="scenario", target="ephone"),
    JobSpec(id="scenario:case2", kind="scenario", target="case2"),
    JobSpec(id="market:com.market.ephone", kind="market",
            target="com.market.ephone"),
    JobSpec(id="market:com.market.smsbackup", kind="market",
            target="com.market.smsbackup"),
])


def _run(manifest, workers=1, store=None, resume=False):
    scheduler = FarmScheduler(manifest, workers=workers, store=store,
                              resume=resume)
    results = scheduler.run().results
    return scheduler, results


def _parity_view(results):
    return [(r["job"]["id"], r["status"], len(r["leaks"]),
             sink_counts(r["metrics"])) for r in results]


class TestParity:
    def test_parallel_run_matches_serial_per_app_counts(self):
        __, serial = _run(SMALL_CORPUS, workers=1)
        __, parallel = _run(SMALL_CORPUS, workers=2)
        assert _parity_view(serial) == _parity_view(parallel)
        # The parallel run genuinely crossed the process boundary.
        pids = {r["worker_pid"] for r in parallel}
        assert os.getpid() not in pids

    def test_results_come_back_in_manifest_order(self):
        __, results = _run(SMALL_CORPUS, workers=2)
        assert [r["job"]["id"] for r in results] == \
            [job.id for job in SMALL_CORPUS]


class TestResume:
    def test_second_run_replays_from_cache(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first_scheduler, first = _run(SMALL_CORPUS, store=store, resume=True)
        assert first_scheduler.cached_jobs == 0
        assert len(store) == len(SMALL_CORPUS)
        second_scheduler, second = _run(SMALL_CORPUS, store=store,
                                        resume=True)
        assert second_scheduler.cached_jobs == len(SMALL_CORPUS)
        assert all(r["cached"] for r in second)
        assert _parity_view(first) == _parity_view(second)
        assert store.hits == len(SMALL_CORPUS)

    def test_changed_spec_misses_the_cache(self, tmp_path):
        store = ResultStore(str(tmp_path))
        manifest = Manifest(jobs=[JobSpec(id="scenario:ephone",
                                          kind="scenario",
                                          target="ephone")])
        _run(manifest, store=store, resume=True)
        changed = Manifest(jobs=[JobSpec(id="scenario:ephone",
                                         kind="scenario", target="ephone",
                                         seed=99)])
        scheduler, results = _run(changed, store=store, resume=True)
        assert scheduler.cached_jobs == 0
        assert not results[0]["cached"]


class TestCrashContainment:
    def test_crashing_job_yields_tombstone_while_siblings_complete(self):
        # The worker-crash analog: an injected decode fault kills one
        # job's emulation the way hostile native code would.
        manifest = Manifest(jobs=[
            JobSpec(id="scenario:ephone", kind="scenario", target="ephone"),
            JobSpec(id="scenario:crashy", kind="scenario", target="ephone",
                    faults="decode@1"),
            JobSpec(id="market:com.market.smsbackup", kind="market",
                    target="com.market.smsbackup"),
        ])
        scheduler, results = _run(manifest, workers=2)
        report = merge_results(results, workers=2,
                               wall_seconds=scheduler.wall_seconds)
        by_id = {r["job"]["id"]: r for r in results}
        crashed = by_id["scenario:crashy"]
        assert crashed["status"] == "crashed"
        assert crashed["tombstone"] is not None
        assert crashed["tombstone"]["error_type"] == "DecodeError"
        assert by_id["scenario:ephone"]["status"] == "ok"
        assert by_id["market:com.market.smsbackup"]["status"] == "ok"
        assert report.outcomes == {"ok": 2, "crashed": 1}
        assert [job_id for job_id, __ in report.tombstones] == \
            ["scenario:crashy"]
        text = render_farm_report(report)
        assert "== tombstones ==" in text
        assert "scenario:crashy: DecodeError" in text

    def test_lost_worker_result_is_synthesized_and_never_cached(self):
        spec = JobSpec(id="scenario:ephone", kind="scenario",
                       target="ephone")
        lost = _lost_result(spec, spec.digest(), RuntimeError("pool broke"),
                            1.0)
        assert lost["status"] == "lost"
        assert lost["status"] not in CACHEABLE
        assert "pool broke" in lost["error"]
        assert lost["digest"] == spec.digest()


class TestResultRows:
    """One function builds every row; each status keeps its keys, in order."""

    HEAD = ["job", "digest", "status", "attempts", "degraded_events",
            "quarantined_hooks", "injected_faults", "error", "tombstone",
            "elapsed_seconds"]
    SPEC = JobSpec(id="scenario:ephone", kind="scenario", target="ephone")

    def test_scheduler_rows_name_no_worker(self):
        lost = _lost_result(self.SPEC, self.SPEC.digest(), "hung", 1.0,
                            attempts=3)
        poison = _poison_result(self.SPEC, self.SPEC.digest(), 3,
                                ["a", "b", "c"], 1.0, 3)
        for row in (lost, poison):
            assert list(row) == self.HEAD + ["metrics", "leaks"]
            assert (row["metrics"], row["leaks"]) == ({}, [])
        assert poison["tombstone"]["strikes"] == 3

    def test_escaped_crash_row(self, monkeypatch):
        def escape(self, label, analysis, plan=None):
            raise RuntimeError("escaped")

        monkeypatch.setattr(Supervisor, "run", escape)
        row = execute_job(self.SPEC.to_dict())
        assert list(row) == self.HEAD + ["worker_pid", "metrics", "leaks"]
        assert row["status"] == "crashed"
        assert row["error"] == "RuntimeError: escaped"
        assert row["digest"] == self.SPEC.digest()

    def test_analysed_rows_carry_their_payload_extras(self):
        scenario = execute_job(self.SPEC.to_dict())
        assert list(scenario) == self.HEAD + [
            "worker_pid", "metrics", "leaks", "detected", "expected_taint",
            "expected_destination", "metrics_gauges"]
        corpus = execute_job(JobSpec(id="corpus:0", kind="corpus",
                                     target="0", chunk=4).to_dict())
        assert list(corpus) == self.HEAD + [
            "worker_pid", "metrics", "leaks", "detected"]


class TestMergedReport:
    def test_report_renders_and_artifacts_round_trip(self, tmp_path):
        scheduler, results = _run(SMALL_CORPUS, workers=1)
        report = merge_results(results, workers=1,
                               wall_seconds=scheduler.wall_seconds)
        text = render_farm_report(report)
        assert "== farm ==" in text
        assert "scenario:ephone" in text
        assert "== analysis work" in text
        # The leaker's destination surfaces in the table.
        assert "softphone.comwave.net:5060" in text

        out = str(tmp_path / "farm-out")
        write_farm_artifacts(report, out)
        with open(os.path.join(out, "farm.json")) as handle:
            farm = json.load(handle)
        assert farm["jobs"] == len(SMALL_CORPUS)
        assert farm["outcomes"] == {"ok": len(SMALL_CORPUS)}
        assert os.path.exists(os.path.join(out, "merged", "metrics.json"))
        assert os.path.exists(os.path.join(out, "report.txt"))
        job_files = os.listdir(os.path.join(out, "jobs"))
        assert len(job_files) == len(SMALL_CORPUS)

    def test_merged_metrics_equal_sum_of_job_metrics(self):
        __, results = _run(SMALL_CORPUS, workers=1)
        report = merge_results(results)
        name = "core.sink_checks"
        expected = sum(r["metrics"].get(name, 0) for r in results)
        assert report.merged_metrics[name] == expected
        assert expected > 0

    def test_traced_jobs_merge_a_job_tagged_trace(self, tmp_path):
        manifest = Manifest(jobs=[
            JobSpec(id="scenario:ephone", kind="scenario", target="ephone",
                    trace=True)])
        scheduler, results = _run(manifest)
        assert results[0]["trace"]
        report = merge_results(results, wall_seconds=scheduler.wall_seconds)
        out = str(tmp_path / "traced")
        write_farm_artifacts(report, out)
        trace_path = os.path.join(out, "merged", "trace.jsonl")
        with open(trace_path) as handle:
            edges = [json.loads(line) for line in handle if line.strip()]
        assert edges
        assert all(edge["job"] == "scenario:ephone" for edge in edges)
