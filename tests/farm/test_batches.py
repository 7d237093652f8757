"""One scheduler for list and sharded manifests: batches, bisection, resume."""

import json
import os

from repro.cli import main
from repro.farm import (ChaosMonkey, FarmScheduler, JobSpec, Manifest,
                        merge_spans)
from repro.farm.chaos import parity_fields, run_chaos_harness
from repro.farm.journal import iter_events, replay, verify_journal
from repro.farm.manifest import ShardedManifest, iter_corpus_jobs
from repro.farm.store import ResultStore
from repro.observability.flight import validate_chrome_trace

SCALE = 0.004
SEED = 2014


def _sharded(tmp_path, chunk=16, shard_size=8, name="manifest"):
    return ShardedManifest.write(
        str(tmp_path / name),
        iter_corpus_jobs(scale=SCALE, seed=SEED, chunk=chunk),
        shard_size=shard_size)


def _journal(run_dir):
    return os.path.join(str(run_dir), "journal.jsonl")


class TestBisection:
    def test_poison_record_is_quarantined_alone(self, tmp_path):
        manifest = _sharded(tmp_path)
        specs = list(manifest)
        target = specs[11].digest()          # inside the second shard
        monkey = ChaosMonkey(seed=1, poison_digest=target, kill_pct=0,
                             stop_pct=0, truncate_pct=0)
        store = ResultStore(str(tmp_path / "cache"))
        run_dir = tmp_path / "run"
        scheduler = FarmScheduler(manifest, workers=2, store=store,
                                  chaos=monkey, run_dir=str(run_dir))
        report = scheduler.run()
        assert report.outcomes == {"ok": len(manifest) - 1, "poison": 1}
        # 8 -> 4 -> 2 -> 1, then the one-job rule: three strikes.
        assert scheduler.health.splits == 3
        assert scheduler.health.worker_deaths == 6
        assert scheduler.health.poison_quarantined == 1
        rows = list(scheduler.iter_results())
        assert [row["digest"] for row in rows] == \
            [spec.digest() for spec in specs]
        poison = [row for row in rows if row["status"] == "poison"]
        assert [row["digest"] for row in poison] == [target]
        assert store.get(target)["status"] == "poison"
        assert verify_journal(_journal(run_dir)) == []

        # Resume replays every committed batch — whole shards and the
        # halves the splits left — and dispatches nothing.
        resumed = FarmScheduler(manifest, workers=2, store=store,
                                resume=True, chaos=monkey,
                                run_dir=str(run_dir))
        again = resumed.run()
        assert resumed.cached_jobs == len(manifest)
        assert again.outcomes == report.outcomes
        assert again.merged_metrics == report.merged_metrics
        events = list(iter_events(_journal(run_dir)))
        last_start = max(i for i, e in enumerate(events)
                         if e["event"] == "run_start")
        assert not [e for e in events[last_start:]
                    if e["event"] == "dispatched"]

    def test_per_job_and_sharded_runs_are_row_identical(self, tmp_path):
        specs = [JobSpec(id=f"scenario:{name}", kind="scenario",
                         target=name)
                 for name in ("ephone", "case2", "benign")]
        specs += list(iter_corpus_jobs(scale=SCALE, seed=SEED, chunk=64))
        per_job = FarmScheduler(Manifest(jobs=specs)).run()
        sharded = FarmScheduler(
            ShardedManifest.write(str(tmp_path / "mixed"), specs,
                                  shard_size=4),
            workers=2, run_dir=str(tmp_path / "run"))
        report = sharded.run()
        assert report.streamed and report.results == []
        assert [parity_fields(row) for row in sharded.iter_results()] == \
            [parity_fields(row) for row in per_job.results]
        assert report.merged_metrics["corpus.records"] == \
            per_job.merged_metrics["corpus.records"]


class TestInlineIO:
    def test_one_commit_and_two_journal_records_per_shard(
            self, tmp_path, monkeypatch):
        manifest = _sharded(tmp_path)
        synced, replaced = [], []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd),
                                                     real_fsync(fd))[1])
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            replaced.append(dst), real_replace(src, dst))[1])
        report = FarmScheduler(manifest, workers=1,
                               run_dir=str(tmp_path / "run")).run()
        assert report.outcomes == {"ok": len(manifest)}
        shards = manifest.shard_count
        # Per shard: one rename; fsyncs for the spool file, its
        # directory, and the dispatched/done records; plus run_start
        # and run_end.  Nothing per job.
        assert len(replaced) == shards
        assert len(synced) == 4 * shards + 2


class TestShardedJournal:
    def test_sharded_journal_replays_and_verifies(self, tmp_path):
        manifest = _sharded(tmp_path)
        run_dir = tmp_path / "run"
        FarmScheduler(manifest, workers=2, run_dir=str(run_dir)).run()
        path = _journal(run_dir)
        state = replay(path)
        assert len(state.jobs) == manifest.shard_count
        assert all(ledger.terminal == "done"
                   for ledger in state.jobs.values())
        assert verify_journal(path) == []

        # Plant a second terminal for a committed batch: it is flagged.
        done = next(e for e in iter_events(path) if e["event"] == "done")
        with open(path, "a") as handle:
            handle.write(json.dumps(done) + "\n")
        violations = verify_journal(path)
        assert any("double terminal" in v and done["digest"][:12] in v
                   for v in violations)


class TestShardedCli:
    def test_trace_dir_correlates_scheduler_and_worker_spans(
            self, tmp_path, capsys):
        manifest = _sharded(tmp_path)
        trace_dir = str(tmp_path / "flight")
        assert main(["farm", manifest.directory, "-j", "2", "--out",
                     str(tmp_path / "out"), "--trace-dir", trace_dir]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(os.path.join(trace_dir, "trace.json")) as handle:
            assert validate_chrome_trace(json.load(handle)) == []
        timeline = merge_spans(trace_dir)
        scheduler_traces = {s["trace"] for s in timeline["spans"]
                            if s["cat"] == "scheduler" and s["trace"]}
        worker_traces = {s["trace"] for s in timeline["spans"]
                         if s["cat"] == "worker"}
        assert len(scheduler_traces) == manifest.shard_count
        assert scheduler_traces <= worker_traces
        assert timeline["open_spans"] == 0

    def test_tiny_deadline_kills_instead_of_committing(self, tmp_path):
        manifest = _sharded(tmp_path)
        out = tmp_path / "out"
        code = main(["farm", manifest.directory, "-j", "2", "--out",
                     str(out), "--deadline", "0.001", "--max-retries", "0"])
        with open(out / "farm.json") as handle:
            farm = json.load(handle)
        assert farm["health"]["deadline_kills"] > 0
        assert farm["outcomes"] != {"ok": len(manifest)}
        assert code == (1 if farm["outcomes"].get("lost") else 0)
        strikes = [e for e in iter_events(_journal(out / "runstate"))
                   if e["event"] == "strike"]
        assert strikes and all("deadline" in e["reason"] for e in strikes)


class TestShardedChaosDrill:
    def test_drill_recovers_with_poison_alone(self, tmp_path):
        manifest = _sharded(tmp_path, chunk=32)
        report = run_chaos_harness(manifest, seed=20260808,
                                   out_dir=str(tmp_path / "drill"),
                                   workers=2)
        assert report.ok, report.failures
        assert len(report.invariants) == 11
        assert all(report.invariants.values())
        final = report.final_report
        assert final.outcomes.get("poison") == 1
        assert final.outcomes["ok"] == len(manifest) - 1
        assert report.stats["health"]["splits"] >= 1
