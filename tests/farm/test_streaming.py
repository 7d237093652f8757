"""Sharded manifests on the farm scheduler: resume and the bounded merge."""

import json
import os
from collections import Counter

from repro.corpus import analyze_corpus
from repro.corpus.generator import CorpusGenerator
from repro.farm import worker
from repro.observability.flight import read_jsonl
from repro.farm.manifest import ShardedManifest, iter_corpus_jobs
from repro.farm.merge import (MergeFold, merge_results,
                              render_farm_report, write_farm_artifacts)
from repro.farm.scheduler import StreamFarm, run_farm

SCALE = 0.004
SEED = 2014


def _manifest(tmp_path, chunk=16, shard_size=8):
    return ShardedManifest.write(
        str(tmp_path / "manifest"),
        iter_corpus_jobs(scale=SCALE, seed=SEED, chunk=chunk),
        shard_size=shard_size)


def _corpus_metrics(report):
    return {name: value for name, value in report.merged_metrics.items()
            if name.startswith("corpus.")}


def _fresh_chunk_counts(job):
    """A chunk's ``corpus.*`` counters off a newly built generator."""
    start = int(job.target)
    records = list(CorpusGenerator(seed=job.seed, scale=job.scale)
                   .stream(start, start + job.chunk))
    report = analyze_corpus(records)
    counts = {"corpus.records": report.total_apps,
              "corpus.type1": len(report.type1),
              "corpus.type2": len(report.type2),
              "corpus.type3": len(report.type3),
              "corpus.plain": report.total_apps - report.jni_app_count,
              "corpus.type1_without_libs": report.type1_without_libs,
              "corpus.type1_admob": report.type1_without_libs_admob,
              "corpus.type2_loadable": report.type2_loadable,
              "corpus.type3_games": report.type3_games}
    for name, count in Counter(r.category for r in report.type1).items():
        counts[f"corpus.category.{name}"] = count
    return counts


def test_worker_generator_follows_each_jobs_corpus():
    # Chunk jobs of three corpora, interleaved, in one process: a
    # generator cached for the wrong (seed, scale) would miscount.
    corpora = [list(iter_corpus_jobs(scale=scale, seed=seed, chunk=53))
               for seed, scale in ((SEED, SCALE), (7, 0.005), (SEED, 0.005))]
    interleaved = [job for batch in zip(*corpora) for job in batch]
    assert len({(job.seed, job.scale) for job in interleaved}) == 3
    for job in interleaved:
        row = worker.execute_job(job.to_dict())
        assert row["status"] == "ok"
        assert row["metrics"] == _fresh_chunk_counts(job), job.id


def test_worker_plans_each_corpus_once():
    worker._corpus_generator.cache_clear()
    jobs = list(iter_corpus_jobs(scale=SCALE, seed=SEED, chunk=64))
    assert len(jobs) > 1
    for job in jobs:
        worker.execute_job(job.to_dict())
    assert worker._corpus_generator.cache_info().misses == 1


def test_serial_stream_counts_the_whole_corpus(tmp_path):
    manifest = _manifest(tmp_path)
    report = StreamFarm(manifest, workers=1).run()
    assert report.jobs == len(manifest)
    assert report.outcomes == {"ok": len(manifest)}
    plan = CorpusGenerator(seed=SEED, scale=SCALE).plan
    metrics = _corpus_metrics(report)
    assert metrics["corpus.records"] == plan.total
    assert metrics["corpus.type1"] == plan.type1
    assert metrics["corpus.type2"] == plan.type2
    assert metrics["corpus.type3"] == plan.type3
    assert metrics["corpus.plain"] == plan.plain


def test_pool_run_matches_serial(tmp_path):
    manifest = _manifest(tmp_path)
    serial = StreamFarm(manifest, workers=1).run()
    pooled = StreamFarm(manifest, workers=2).run()
    assert pooled.jobs == serial.jobs
    assert _corpus_metrics(pooled) == _corpus_metrics(serial)
    assert pooled.outcomes == serial.outcomes


def test_resume_replays_committed_shards(tmp_path):
    manifest = _manifest(tmp_path)
    run_dir = str(tmp_path / "run")
    first = run_farm(manifest, workers=1, run_dir=run_dir)
    assert first.cached_jobs == 0
    resumed = run_farm(manifest, workers=1, run_dir=run_dir, resume=True)
    assert resumed.cached_jobs == len(manifest)
    assert _corpus_metrics(resumed) == _corpus_metrics(first)
    events = [e["event"] for e in read_jsonl(
        os.path.join(run_dir, "journal.jsonl"), "event")]
    assert events.count("run_start") == 2
    # One batch per shard: each replays as one digest-keyed record.
    assert events.count("cached") == manifest.shard_count


def test_resume_reruns_a_missing_shard(tmp_path):
    manifest = _manifest(tmp_path)
    run_dir = str(tmp_path / "run")
    farm = StreamFarm(manifest, workers=1, run_dir=run_dir)
    farm.run()
    results_dir = os.path.join(run_dir, "results")
    victim = sorted(os.listdir(results_dir))[0]
    os.unlink(os.path.join(results_dir, victim))
    resumed = StreamFarm(manifest, workers=1, run_dir=run_dir,
                         resume=True).run()
    assert resumed.jobs == len(manifest)
    assert resumed.cached_jobs == len(manifest) - manifest.shards[0].jobs


def test_rows_stream_from_the_spool(tmp_path):
    manifest = _manifest(tmp_path)
    run_dir = str(tmp_path / "run")
    report = StreamFarm(manifest, workers=1, run_dir=run_dir).run()
    assert report.streamed
    assert report.results == []
    assert report.rows_path is not None
    rows = list(report.rows())
    assert len(rows) == len(manifest)
    assert {row["kind"] for row in rows} == {"corpus"}
    assert {row["status"] for row in rows} == {"ok"}
    # The artifact payload points at the spool instead of inlining rows.
    payload = report.to_dict()
    assert payload["rows"] is None
    assert payload["rows_path"] == report.rows_path
    write_farm_artifacts(report, str(tmp_path / "artifacts"))
    with open(tmp_path / "artifacts" / "farm.json") as handle:
        assert json.load(handle)["jobs"] == len(manifest)


def test_render_caps_the_row_table(tmp_path):
    manifest = _manifest(tmp_path, chunk=2, shard_size=16)
    assert len(manifest) > 48
    report = StreamFarm(manifest, workers=1,
                        run_dir=str(tmp_path / "run")).run()
    text = render_farm_report(report)
    assert "more jobs" in text
    assert f"jobs:    {len(manifest)}" in text


def test_merge_fold_matches_materialized_merge():
    def result(index, status="ok"):
        return {"job": {"id": f"corpus:{index}", "kind": "corpus"},
                "status": status, "cached": False,
                "metrics": {"corpus.records": 10, "corpus.type1": index,
                            "queue.depth": index},
                "metrics_gauges": ["queue.depth"],
                "leaks": [], "degraded_events": 0,
                "elapsed_seconds": 0.01}

    results = [result(i) for i in range(20)]
    results.append({**result(20), "status": "crashed",
                    "tombstone": {"error_type": "X", "error_message": "y"}})

    materialized = merge_results(results, workers=2, wall_seconds=1.0)
    fold = MergeFold()
    for row in results:
        fold.add(row)
    streamed = fold.finish(workers=2, wall_seconds=1.0)

    assert streamed.merged_metrics == materialized.merged_metrics
    assert streamed.outcomes == materialized.outcomes
    assert streamed.jobs == materialized.jobs
    assert streamed.completed == materialized.completed
    assert streamed.tombstones == materialized.tombstones
    # Gauges folded by max, counters by sum — incrementally.
    assert streamed.merged_metrics["queue.depth"] == 20
    assert streamed.merged_metrics["corpus.records"] == 210
