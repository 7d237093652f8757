"""Sharded parallel analysis farm (corpus-scale runs).

The paper's Section III study covers hundreds of thousands of apps; one
in-process loop does not scale past a demo.  The farm splits a corpus
manifest into content-digest-keyed jobs, groups them into batches — one
job each for a list manifest, one shard each for a sharded one — and
dispatches every batch to a directly-forked worker (each job supervised,
so a hostile app is a recorded outcome, not a dead farm).  Results are
cached by digest so an unchanged corpus re-runs near-free, and the
per-worker artifacts — metrics snapshots, provenance traces, crash
tombstones — merge into one farm-level report.

At fleet scale the failures are the workload, so the farm is built to be
killed: workers heartbeat (hung != dead != busy), a struck batch of
several jobs is bisected and a struck job retries with jittered
backoff, a job that keeps killing workers is quarantined as ``poison``
exactly once, every state transition is fsync'd to a write-ahead
journal before it takes effect, and results commit with power-loss-safe
writes — SIGKILL the scheduler itself and ``--resume`` completes the
run with no lost jobs, no duplicates, no corrupt store.
``repro farm --chaos SEED`` proves all of that on demand.

Paper-scale corpus runs stream instead of materializing: a
:class:`ShardedManifest` spools chunk-classification jobs into
digest-stable JSONL shards, the same :class:`FarmScheduler` runs each
shard as one batch with one committed file, and
:class:`~repro.farm.merge.MergeFold` folds the results in bounded memory
(see DESIGN.md "Paper-scale pipeline").

Layers::

    Manifest (manifest.py)   what to run, digest-keyed JobSpecs
    ShardedManifest (manifest.py) streamed JSONL shards + index
    FarmScheduler (scheduler.py)  batch -> dispatch -> split/retry/
                             quarantine -> commit -> merge
    execute_batch (worker.py)  a batch of supervised jobs, one file
    WorkerPool (health.py)   fork, heartbeat, hung-vs-dead, reclaim
    RunJournal (journal.py)  crash-consistent WAL of batch transitions
    ResultStore (store.py)   digest-addressed fsync'd batch files
    ChaosMonkey (chaos.py)   deterministic fault injection + harness
    merge_results (merge.py) type-aware metric merge, tombstones, report
    FarmConsole (console.py) live TTY view over heartbeats + span spools
"""

from repro.farm.chaos import ChaosMonkey, ChaosReport, run_chaos_harness
from repro.farm.console import FarmConsole
from repro.farm.health import HealthStats, WorkerPool, parse_heartbeat
from repro.farm.journal import RunJournal, replay, verify_journal
from repro.farm.manifest import (
    FARM_SCHEMA_VERSION,
    JobSpec,
    Manifest,
    ShardedManifest,
    iter_corpus_jobs,
)
from repro.farm.merge import (
    FarmReport,
    MergeFold,
    merge_results,
    merge_spans,
    render_farm_report,
    sink_counts,
    write_farm_artifacts,
    write_trace_artifacts,
)
from repro.farm.scheduler import (
    FarmInterrupted,
    FarmScheduler,
    run_farm,
)
from repro.farm.store import ResultStore
from repro.farm.worker import execute_job

__all__ = [
    "FARM_SCHEMA_VERSION",
    "ChaosMonkey",
    "ChaosReport",
    "FarmConsole",
    "FarmInterrupted",
    "FarmReport",
    "FarmScheduler",
    "HealthStats",
    "JobSpec",
    "Manifest",
    "MergeFold",
    "ResultStore",
    "RunJournal",
    "ShardedManifest",
    "WorkerPool",
    "execute_job",
    "iter_corpus_jobs",
    "merge_results",
    "merge_spans",
    "parse_heartbeat",
    "render_farm_report",
    "replay",
    "run_chaos_harness",
    "run_farm",
    "sink_counts",
    "verify_journal",
    "write_farm_artifacts",
    "write_trace_artifacts",
]
