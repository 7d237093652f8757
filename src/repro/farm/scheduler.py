"""The farm scheduler: shard, dispatch, supervise, journal — never lose a job.

``workers=1`` executes inline in this process — that *is* the serial
baseline the parity tests and the bench compare against, not a special
case bolted on.  ``workers>1`` dispatches to a pool of directly-forked
workers (:mod:`repro.farm.health`) under full fleet discipline:

* **heartbeats** — each worker stamps a per-job heartbeat file; the
  scheduler distinguishes *hung* (alive, silent — SIGKILL + reclaim)
  from *dead* (reaped) from *busy* (stamping — leave it alone), and
  enforces an optional per-job wall-clock ``deadline`` on top of the
  Supervisor's in-worker instruction budget;
* **bounded retry with backoff + jitter** — a job whose worker died,
  hung, or tore its result is requeued up to ``max_retries`` times with
  exponentially growing, deterministically jittered delays (shared
  policy: :func:`repro.resilience.backoff.backoff_delay`);
* **poison quarantine** — a job that kills ``poison_threshold`` workers
  (counted across scheduler restarts, via the journal) is classified
  ``poison`` with a tombstone, cached, and never dispatched again: one
  hostile app costs one classified outcome fleet-wide;
* **write-ahead journal** — every transition is fsync'd to
  ``run_dir/journal.jsonl`` *before* it takes effect, and workers commit
  results with crash-consistent store writes, so SIGKILLing the
  scheduler itself mid-run and re-running with ``resume=True`` completes
  exactly: no lost jobs, no duplicate records, no corrupt store;
* **clean drain** — SIGTERM/``KeyboardInterrupt`` journals in-flight
  jobs as ``interrupted``, SIGKILLs the pool (no leaked forks), and
  raises :class:`FarmInterrupted` for the CLI to exit nonzero.

Every job ends in exactly one of ``cached`` / a worker-classified result
(``ok``/``degraded``/``crashed``/``timeout``) / ``poison`` / ``lost``
(retries exhausted below the poison threshold; never cached).
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.farm import worker as worker_module
from repro.farm.health import (
    HEARTBEAT_INTERVAL,
    HealthStats,
    WorkerHandle,
    WorkerPool,
    stamp_heartbeat,
)
from repro.farm.journal import RunJournal, replay
from repro.farm.manifest import JobSpec, Manifest, ShardedManifest
from repro.farm.store import ResultStore, atomic_write_json, read_verified_json
from repro.farm.worker import DEFAULT_BUDGET
from repro.resilience.backoff import backoff_delay, jitter_rng

STATUS_LOST = "lost"
STATUS_POISON = "poison"
STATUS_INTERRUPTED = "interrupted"

# Statuses worth replaying from cache on --resume.  Crashes/timeouts are
# deterministic under a fixed spec, so they cache too, and a poison
# verdict is the whole point of quarantine (classified exactly once);
# only a lost worker (environmental) must re-run.
CACHEABLE = ("ok", "degraded", "crashed", "timeout", "poison")

DEFAULT_MAX_RETRIES = 2
DEFAULT_POISON_THRESHOLD = 3
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_JITTER = 0.5


class FarmInterrupted(RuntimeError):
    """A clean drain: the run was interrupted, in-flight jobs journaled."""

    def __init__(self, in_flight: List[str]) -> None:
        jobs = ", ".join(in_flight) if in_flight else "none in flight"
        super().__init__(f"farm run interrupted ({jobs})")
        self.in_flight = in_flight


def _base_row(spec: JobSpec, status: str, error: str, elapsed: float,
              attempts: int, tombstone: Optional[Dict]) -> Dict:
    return {
        "job": spec.to_dict(),
        "digest": spec.digest(),
        "status": status,
        "attempts": attempts,
        "degraded_events": 0,
        "quarantined_hooks": [],
        "injected_faults": [],
        "error": error,
        "tombstone": tombstone,
        "elapsed_seconds": elapsed,
        "metrics": {},
        "leaks": [],
    }


def _lost_result(spec: JobSpec, error, elapsed: float,
                 attempts: int = 1) -> Dict:
    if isinstance(error, BaseException):
        message = f"worker lost: {type(error).__name__}: {error}"
    else:
        message = f"worker lost: {error}"
    return _base_row(spec, STATUS_LOST, message, elapsed, attempts,
                     tombstone=None)


def _poison_result(spec: JobSpec, strikes: int, reasons: List[str],
                   elapsed: float, attempts: int) -> Dict:
    message = (f"poison job: killed {strikes} workers "
               f"({', '.join(reasons)})")
    tombstone = {
        "error_type": "PoisonJob",
        "error_message": message,
        "strikes": strikes,
        "strike_reasons": list(reasons),
    }
    return _base_row(spec, STATUS_POISON, message, elapsed, attempts,
                     tombstone=tombstone)


def _interrupted_result(spec: JobSpec, elapsed: float,
                        attempts: int) -> Dict:
    return _base_row(spec, STATUS_INTERRUPTED,
                     "run interrupted while job was in flight",
                     elapsed, attempts, tombstone=None)


class FarmScheduler:
    """Runs a manifest to one result row per job, in manifest order."""

    def __init__(self, manifest: Manifest, workers: int = 1,
                 store: Optional[ResultStore] = None, resume: bool = False,
                 budget: Optional[int] = DEFAULT_BUDGET,
                 deadline: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 poison_threshold: int = DEFAULT_POISON_THRESHOLD,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 run_dir: Optional[str] = None, chaos=None,
                 metrics=None, trace_dir: Optional[str] = None,
                 warm: bool = False) -> None:
        self.manifest = manifest
        self.workers = max(1, workers)
        self.warm = warm
        self.store = store
        self.resume = resume and store is not None
        self.budget = budget
        self.deadline = deadline
        self.max_retries = max(0, max_retries)
        self.poison_threshold = max(1, poison_threshold)
        self.heartbeat_interval = heartbeat_interval
        self.run_dir = run_dir
        self.chaos = chaos
        self.trace_dir = trace_dir
        self.health = HealthStats()
        if metrics is not None:
            self.health.register_metrics(metrics)
        self.cached_jobs = 0
        self.wall_seconds = 0.0
        self._strikes: Dict[str, int] = {}
        self._strike_reasons: Dict[str, List[str]] = {}
        # The scheduler's own span tracer (None when trace_dir is unset)
        # and the open job spans it correlates, keyed (digest, attempt).
        self._tracer = None
        self._job_spans: Dict[Tuple[str, int], int] = {}

    # -- dispatch -------------------------------------------------------------

    def run(self) -> List[Dict]:
        start = time.perf_counter()
        # Warm policy is process-wide: inline workers read it directly,
        # forked workers inherit it (and the booted templates) via COW.
        worker_module.configure_warm(self.warm)
        results: List[Optional[Dict]] = [None] * len(self.manifest)
        pending: List[int] = []
        self.cached_jobs = 0

        run_dir = self.run_dir or tempfile.mkdtemp(prefix="repro-farm-run-")
        os.makedirs(run_dir, exist_ok=True)
        if self.trace_dir is not None:
            from repro.observability.flight import FlightSpool
            from repro.observability.spans import SpanTracer
            os.makedirs(self.trace_dir, exist_ok=True)
            self._tracer = SpanTracer(spool=FlightSpool(os.path.join(
                self.trace_dir, f"scheduler-{os.getpid()}.jsonl")))
        journal = RunJournal(os.path.join(run_dir, "journal.jsonl"))
        if self.resume:
            # Strike counts survive scheduler death: a poison job that
            # killed two workers before the scheduler was SIGKILLed is
            # one strike from quarantine, not three.
            state = replay(journal.path)
            self._strikes = {digest: ledger.strikes
                            for digest, ledger in state.jobs.items()
                            if ledger.strikes}
        journal.record("run_start", resume=self.resume,
                       workers=self.workers, jobs=len(self.manifest),
                       pid=os.getpid())

        for index, spec in enumerate(self.manifest):
            cached = self._from_cache(spec)
            if cached is not None:
                cached["cached"] = True
                results[index] = cached
                self.cached_jobs += 1
                journal.record("cached", digest=spec.digest(), id=spec.id,
                               status=cached.get("status"))
                self._trace_event("cached", spec.digest(), id=spec.id)
            else:
                pending.append(index)
                self._trace_event("queued", spec.digest(), id=spec.id)

        previous_sigterm = self._install_sigterm()
        try:
            if pending:
                if self.workers == 1:
                    self._run_inline(pending, results, journal)
                else:
                    self._run_pool(pending, results, journal, run_dir)
            journal.record("run_end", jobs=len(self.manifest))
        finally:
            self._restore_sigterm(previous_sigterm)
            journal.close()
            if self._tracer is not None:
                self._tracer.close()
            if self.run_dir is None:
                shutil.rmtree(run_dir, ignore_errors=True)

        for result in results:
            result.setdefault("cached", False)
        self.wall_seconds = time.perf_counter() - start
        return results  # type: ignore[return-value]

    # -- signals --------------------------------------------------------------

    @staticmethod
    def _install_sigterm():
        """SIGTERM drains exactly like ^C (only from the main thread)."""
        if threading.current_thread() is not threading.main_thread():
            return None
        def raise_interrupt(signum, frame):
            raise KeyboardInterrupt(f"signal {signum}")
        try:
            return signal.signal(signal.SIGTERM, raise_interrupt)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            return None

    @staticmethod
    def _restore_sigterm(previous) -> None:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass

    # -- tracing --------------------------------------------------------------
    #
    # The scheduler's spans mirror the journal: every lifecycle edge
    # (queued/cached/spawned/retry/quarantined/lost/committed) becomes an
    # instant event, and each dispatch attempt gets a detached "job" span
    # correlated with the worker's own spool by trace id = digest prefix.

    def _trace_event(self, name: str, digest: str, **args) -> None:
        if self._tracer is not None:
            self._tracer.event(name, cat="scheduler", trace=digest[:12],
                               **args)

    def _trace_begin(self, digest: str, attempt: int, job_id: str) -> None:
        if self._tracer is not None:
            self._job_spans[(digest, attempt)] = self._tracer.begin(
                "job", cat="scheduler", trace=digest[:12], detached=True,
                id=job_id, attempt=attempt)

    def _trace_end(self, digest: str, attempt: int, **args) -> None:
        if self._tracer is not None:
            span = self._job_spans.pop((digest, attempt), None)
            if span is not None:
                self._tracer.end(span, **args)

    def _worker_spool(self, digest: str, attempt: int) -> Optional[str]:
        """Per-attempt spool path (attempts never interleave in one file)."""
        if self.trace_dir is None:
            return None
        return os.path.join(self.trace_dir,
                            f"worker-{digest[:12]}-a{attempt}.jsonl")

    # -- cache ----------------------------------------------------------------

    def _from_cache(self, spec: JobSpec) -> Optional[Dict]:
        if not self.resume:
            return None
        result = self.store.get(spec.digest())
        if result is None or result.get("status") not in CACHEABLE:
            return None
        return result

    def _record(self, spec: JobSpec, result: Dict) -> Dict:
        if self.store is not None and result.get("status") in CACHEABLE:
            self.store.put(spec.digest(), result)
        return result

    # -- inline (serial baseline) ---------------------------------------------

    def _run_inline(self, pending: List[int],
                    results: List[Optional[Dict]], journal: RunJournal) -> None:
        jobs = self.manifest.jobs
        tracer = self._tracer
        for index in pending:
            spec = jobs[index]
            digest = spec.digest()
            journal.record("dispatched", digest=digest, id=spec.id,
                           attempt=1, pid=os.getpid())
            self._trace_begin(digest, 1, spec.id)
            if tracer is not None:
                # Inline mode shares one process (and one tracer) across
                # scheduler and worker roles; re-point the trace id so
                # engine spans still correlate per job.
                tracer.trace_id = digest[:12]
            job_start = time.perf_counter()
            try:
                # tracer kwarg only when tracing: tests monkeypatch
                # execute_job with narrower signatures.
                if tracer is None:
                    result = worker_module.execute_job(spec.to_dict(),
                                                       budget=self.budget)
                else:
                    result = worker_module.execute_job(spec.to_dict(),
                                                       budget=self.budget,
                                                       tracer=tracer)
            except KeyboardInterrupt:
                journal.record("interrupted", digest=digest, id=spec.id,
                               attempt=1)
                self.health.interrupted_jobs += 1
                results[index] = _interrupted_result(
                    spec, time.perf_counter() - job_start, attempts=1)
                self._trace_end(digest, 1, status=STATUS_INTERRUPTED)
                raise FarmInterrupted([spec.id]) from None
            finally:
                if tracer is not None:
                    tracer.trace_id = ""
            results[index] = self._record(spec, result)
            journal.record("done", digest=digest, id=spec.id, attempt=1,
                           status=result.get("status"))
            self._trace_event("committed", digest, id=spec.id,
                              status=result.get("status"))
            self._trace_end(digest, 1, status=result.get("status"))

    # -- pool (fleet mode) ----------------------------------------------------

    def _result_sink(self, run_dir: str, digest: str
                     ) -> Tuple[str, Callable[[Dict], None]]:
        """Where a worker commits its result and how the parent reads it.

        With a store, the worker commits straight into it (the atomic
        fsync'd write *is* the transaction — scheduler death after the
        commit costs nothing).  Without one, results spool into the run
        directory with the same crash-consistent write.
        """
        if self.store is not None:
            path = os.path.join(self.store.directory, f"{digest}.json")
            return path, (lambda result: self.store.put(digest, result))
        spool = os.path.join(run_dir, "spool")
        os.makedirs(spool, exist_ok=True)
        path = os.path.join(spool, f"{digest}.json")
        return path, (lambda result: atomic_write_json(path, result))

    def _read_result(self, path: str, digest: str) -> Optional[Dict]:
        if self.store is not None:
            return self.store.get(digest)   # drops torn entries itself
        result = read_verified_json(path, digest=digest)
        if result is not None:
            try:
                os.unlink(path)
            except OSError:
                pass
        return result

    def _run_pool(self, pending: List[int], results: List[Optional[Dict]],
                  journal: RunJournal, run_dir: str) -> None:
        jobs = self.manifest.jobs
        if self.warm:
            # Boot one template per config in the parent *before* any
            # fork: every per-job child then inherits the booted
            # platform — warm TB/block/trampoline caches included —
            # copy-on-write, and pays only reset_for_job().
            worker_module.warm_boot_templates(
                jobs[index].config for index in pending)
        pool = WorkerPool(hb_dir=os.path.join(run_dir, "hb"),
                          interval=self.heartbeat_interval)
        queue = deque(pending)
        retries: List = []              # heap of (eligible_monotonic, index)
        attempts: Dict[int, int] = {}
        result_paths: Dict[str, str] = {}
        try:
            while queue or retries or pool.live:
                now = time.monotonic()
                while retries and retries[0][0] <= now:
                    __, index = heapq.heappop(retries)
                    queue.append(index)
                progressed = self._spawn_ready(queue, pool, attempts,
                                               journal, run_dir,
                                               result_paths)
                progressed |= self._collect(pool, results, journal,
                                            retries, attempts, result_paths)
                progressed |= self._reclaim_unhealthy(
                    pool, results, journal, retries, attempts)
                if not progressed:
                    time.sleep(min(self.heartbeat_interval / 4, 0.01))
        except KeyboardInterrupt:
            in_flight = sorted(handle.job_id
                               for handle in pool.live.values())
            for handle in sorted(pool.live.values(),
                                 key=lambda h: h.index):
                journal.record("interrupted", digest=handle.digest,
                               id=handle.job_id, attempt=handle.attempt)
                self.health.interrupted_jobs += 1
                results[handle.index] = _interrupted_result(
                    jobs[handle.index], handle.runtime(time.monotonic()),
                    attempts=handle.attempt)
                self._trace_end(handle.digest, handle.attempt,
                                status=STATUS_INTERRUPTED)
            raise FarmInterrupted(in_flight) from None
        finally:
            pool.kill_all()

    def _spawn_ready(self, queue, pool: WorkerPool, attempts: Dict[int, int],
                     journal: RunJournal, run_dir: str,
                     result_paths: Dict[str, str]) -> bool:
        jobs = self.manifest.jobs
        progressed = False
        while queue and len(pool.live) < self.workers:
            index = queue.popleft()
            spec = jobs[index]
            digest = spec.digest()
            attempts[index] = attempts.get(index, 0) + 1
            path, commit = self._result_sink(run_dir, digest)
            result_paths[digest] = path
            handle = pool.spawn(spec.to_dict(), self.budget, index, digest,
                                spec.id, attempts[index], commit,
                                spool_path=self._worker_spool(
                                    digest, attempts[index]),
                                trace_id=digest[:12])
            journal.record("dispatched", digest=digest, id=spec.id,
                           attempt=attempts[index], pid=handle.pid)
            self._trace_begin(digest, attempts[index], spec.id)
            self._trace_event("spawned", digest, id=spec.id,
                              attempt=attempts[index], pid=handle.pid)
            if self.chaos is not None:
                self.chaos.on_spawn(handle)
            progressed = True
        return progressed

    def _collect(self, pool: WorkerPool, results, journal: RunJournal,
                 retries, attempts, result_paths) -> bool:
        progressed = False
        for handle, status in pool.reap():
            progressed = True
            if status == 0:
                path = result_paths.get(handle.digest, "")
                if self.chaos is not None:
                    self.chaos.on_commit(handle, path)
                result = self._read_result(path, handle.digest)
                if result is None:
                    self.health.torn_results += 1
                    self._strike(handle, "torn-result", results, journal,
                                 retries, attempts)
                    continue
                results[handle.index] = result
                journal.record("done", digest=handle.digest,
                               id=handle.job_id, attempt=handle.attempt,
                               status=result.get("status"))
                self._trace_event("committed", handle.digest,
                                  id=handle.job_id,
                                  status=result.get("status"))
                self._trace_end(handle.digest, handle.attempt,
                                status=result.get("status"))
            else:
                self.health.worker_deaths += 1
                self.health.record_reclaim(
                    handle.heartbeat_age(time.time()))
                cause = (f"worker died (signal {-status})" if status < 0
                         else f"worker died (exit {status})")
                self._strike(handle, cause, results, journal, retries,
                             attempts)
        return progressed

    def _reclaim_unhealthy(self, pool: WorkerPool, results,
                           journal: RunJournal, retries,
                           attempts) -> bool:
        progressed = False
        now_wall = time.time()
        for handle in pool.overdue(self.deadline):
            progressed = True
            self.health.deadline_kills += 1
            self.health.record_reclaim(handle.heartbeat_age(now_wall))
            pool.kill(handle)
            self._strike(handle, f"deadline ({self.deadline:.1f}s) exceeded",
                         results, journal, retries, attempts)
        for handle in pool.hung(now_wall):
            progressed = True
            self.health.hung_workers += 1
            self.health.record_reclaim(handle.heartbeat_age(now_wall))
            pool.kill(handle)
            self._strike(handle, "hung (heartbeats missed)", results,
                         journal, retries, attempts)
        return progressed

    # -- failure policy -------------------------------------------------------

    def _strike(self, handle: WorkerHandle, reason: str, results,
                journal: RunJournal, retries, attempts) -> None:
        spec = self.manifest.jobs[handle.index]
        digest = handle.digest
        strikes = self._strikes.get(digest, 0) + 1
        self._strikes[digest] = strikes
        reasons = self._strike_reasons.setdefault(digest, [])
        reasons.append(reason)
        # The worker's last self-reported vitals: how far it got before
        # it died/hung, straight from the heartbeat body.
        vitals = handle.read_vitals()
        last_instructions = vitals["instructions"] if vitals else 0
        journal.record("strike", digest=digest, id=handle.job_id,
                       attempt=handle.attempt, reason=reason,
                       strikes=strikes, instructions=last_instructions)
        elapsed = handle.runtime(time.monotonic())
        if strikes >= self.poison_threshold:
            row = _poison_result(spec, strikes, reasons, elapsed,
                                 attempts=handle.attempt)
            row["tombstone"]["last_instructions"] = last_instructions
            journal.record("poison", digest=digest, id=handle.job_id,
                           strikes=strikes)
            self.health.poison_quarantined += 1
            results[handle.index] = self._record(spec, row)
            self._trace_event("quarantined", digest, id=handle.job_id,
                              strikes=strikes,
                              instructions=last_instructions)
            self._trace_end(digest, handle.attempt, status=STATUS_POISON)
        elif handle.attempt >= 1 + self.max_retries:
            row = _lost_result(spec, reason, elapsed,
                               attempts=handle.attempt)
            journal.record("lost", digest=digest, id=handle.job_id,
                           attempt=handle.attempt, reason=reason)
            self.health.lost_jobs += 1
            results[handle.index] = row       # lost is never cached
            self._trace_event("lost", digest, id=handle.job_id,
                              reason=reason)
            self._trace_end(digest, handle.attempt, status=STATUS_LOST)
        else:
            delay = backoff_delay(handle.attempt, base=RETRY_BACKOFF_BASE,
                                  jitter=RETRY_BACKOFF_JITTER,
                                  rng=jitter_rng(digest, handle.attempt))
            journal.record("retry", digest=digest, id=handle.job_id,
                           next_attempt=handle.attempt + 1, delay=delay)
            self.health.retries += 1
            heapq.heappush(retries, (time.monotonic() + delay,
                                     handle.index))
            self._trace_event("retry", digest, id=handle.job_id,
                              next_attempt=handle.attempt + 1,
                              reason=reason,
                              instructions=last_instructions)
            self._trace_end(digest, handle.attempt, status="struck")


# Streaming (sharded) farm: how often the batched journal fsyncs, and
# how often a shard worker stamps its heartbeat (in jobs).
STREAM_JOURNAL_CHECKPOINT = 64
STREAM_HEARTBEAT_JOBS = 200


class StreamFarm:
    """Runs a :class:`ShardedManifest` with long-lived shard workers.

    The per-job scheduler forks one worker per job — right for minutes-
    long emulation jobs, hopeless for a 100k-job corpus where each job
    is sub-millisecond static analysis.  The streaming farm flips the
    unit of work to the **shard**:

    * workers are forked once and pull whole shards from the manifest's
      shard iterators (static stride assignment: worker ``w`` of ``W``
      serves pending shards ``w, w+W, ...``), streaming specs from disk
      one at a time;
    * each shard's results spool to a JSONL file committed by atomic
      rename — crash anywhere and the shard either exists completely
      (digest-addressed: the file name carries the shard's content
      digest) or re-runs on ``resume``;
    * the journal batches its fsync barrier
      (``checkpoint_interval`` records) instead of paying one per job:
      all ``shard_dispatched`` records are checkpointed *before* any
      worker forks, so the write-ahead property holds at shard
      granularity;
    * a worker that dies takes only its unfinished shards with it — the
      parent re-runs exactly the shards whose result files are missing,
      inline, after the pool drains;
    * the merge never materializes the result set: rows stream straight
      from the shard files through a :class:`~repro.farm.merge.MergeFold`.
    """

    def __init__(self, manifest: ShardedManifest, workers: int = 1,
                 run_dir: Optional[str] = None, resume: bool = False,
                 budget: Optional[int] = DEFAULT_BUDGET,
                 checkpoint_interval: int = STREAM_JOURNAL_CHECKPOINT,
                 warm: bool = False) -> None:
        self.manifest = manifest
        self.workers = max(1, workers)
        self.run_dir = run_dir
        self.resume = resume
        self.budget = budget
        self.warm = warm
        self.checkpoint_interval = max(1, checkpoint_interval)
        self.health = HealthStats()
        self.cached_jobs = 0
        self.wall_seconds = 0.0

    # -- layout ---------------------------------------------------------------

    def _result_name(self, index: int) -> str:
        shard = self.manifest.shards[index]
        return f"{shard.name}.{shard.digest[:12]}.results.jsonl"

    def _result_path(self, results_dir: str, index: int) -> str:
        return os.path.join(results_dir, self._result_name(index))

    # -- run ------------------------------------------------------------------

    def run(self):
        from repro.farm.merge import MergeFold

        start = time.perf_counter()
        # Configured before the pool forks: each long-lived shard worker
        # boots its template lazily, once, and keeps it warm across
        # every job it streams.
        worker_module.configure_warm(self.warm)
        run_dir = self.run_dir or tempfile.mkdtemp(prefix="repro-stream-")
        results_dir = os.path.join(run_dir, "results")
        hb_dir = os.path.join(run_dir, "hb")
        os.makedirs(results_dir, exist_ok=True)
        os.makedirs(hb_dir, exist_ok=True)
        for stale in os.listdir(results_dir):
            if ".tmp." in stale:        # torn spool from a dead worker
                try:
                    os.unlink(os.path.join(results_dir, stale))
                except OSError:
                    pass

        journal = RunJournal(os.path.join(run_dir, "journal.jsonl"),
                             checkpoint_interval=self.checkpoint_interval)
        shard_count = self.manifest.shard_count
        journal.record("run_start", mode="stream", resume=self.resume,
                       workers=self.workers, shards=shard_count,
                       jobs=len(self.manifest), pid=os.getpid())

        pending: List[int] = []
        self.cached_jobs = 0
        for index in range(shard_count):
            if self.resume and \
                    os.path.exists(self._result_path(results_dir, index)):
                self.cached_jobs += self.manifest.shards[index].jobs
                journal.record("shard_cached",
                               shard=self.manifest.shards[index].name)
            else:
                pending.append(index)
                journal.record("shard_dispatched",
                               shard=self.manifest.shards[index].name,
                               jobs=self.manifest.shards[index].jobs)
        # Write-ahead at shard granularity: every dispatch record is
        # durable before any worker starts.
        journal.checkpoint()

        try:
            if pending:
                if self.workers == 1:
                    self._run_inline(pending, results_dir, journal)
                else:
                    self._run_pool(pending, results_dir, hb_dir, journal)
            journal.record("run_end", shards=shard_count)
        finally:
            journal.close()

        fold = MergeFold(rows_path=os.path.join(run_dir, "rows.jsonl"))
        for index in range(shard_count):
            for result in _iter_jsonl(self._result_path(results_dir, index)):
                result.setdefault("cached", False)
                fold.add(result)
        self.wall_seconds = time.perf_counter() - start
        report = fold.finish(workers=self.workers,
                             wall_seconds=self.wall_seconds,
                             cached_jobs=self.cached_jobs,
                             health=self.health.summary())
        if self.run_dir is None:
            shutil.rmtree(run_dir, ignore_errors=True)
            report.rows_path = None
        return report

    # -- serial ---------------------------------------------------------------

    def _run_inline(self, pending: List[int], results_dir: str,
                    journal: RunJournal) -> None:
        for index in pending:
            summary = worker_module.execute_shard(
                (spec.to_dict() for spec in self.manifest.iter_shard(index)),
                self._result_path(results_dir, index), budget=self.budget)
            journal.record("shard_done",
                           shard=self.manifest.shards[index].name,
                           jobs=summary["jobs"])

    # -- pool -----------------------------------------------------------------

    def _shard_worker(self, worker_index: int, pending: List[int],
                      results_dir: str, hb_dir: str) -> None:
        """Body of one long-lived forked shard worker."""
        hb_path = os.path.join(hb_dir, f"stream-worker-{worker_index}")
        for position, index in enumerate(pending):
            if position % self.workers != worker_index:
                continue
            shard = self.manifest.shards[index]
            stamp_heartbeat(hb_path, shard.name)

            def progress(jobs_done: int, name=shard.name) -> None:
                if jobs_done % STREAM_HEARTBEAT_JOBS == 0:
                    stamp_heartbeat(hb_path, name, jobs_done)

            worker_module.execute_shard(
                (spec.to_dict() for spec in self.manifest.iter_shard(index)),
                self._result_path(results_dir, index),
                budget=self.budget, progress=progress)

    def _run_pool(self, pending: List[int], results_dir: str,
                  hb_dir: str, journal: RunJournal) -> None:
        pids: List[int] = []
        try:
            for worker_index in range(self.workers):
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        self._shard_worker(worker_index, pending,
                                           results_dir, hb_dir)
                        code = 0
                    except BaseException:
                        code = 1
                    finally:
                        os._exit(code)
                pids.append(pid)
            for pid in pids:
                try:
                    __, raw = os.waitpid(pid, 0)
                except ChildProcessError:  # pragma: no cover
                    raw = 1 << 8
                if raw != 0:
                    self.health.worker_deaths += 1
        except KeyboardInterrupt:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            missing = [self.manifest.shards[i].name for i in pending
                       if not os.path.exists(
                           self._result_path(results_dir, i))]
            for name in missing:
                journal.record("interrupted", shard=name)
            raise FarmInterrupted(missing) from None
        # Reclaim: any shard whose result never committed (its worker
        # died mid-shard) re-runs inline — the atomic rename guarantees
        # nothing partial survived.
        for index in pending:
            path = self._result_path(results_dir, index)
            if os.path.exists(path):
                journal.record("shard_done",
                               shard=self.manifest.shards[index].name,
                               jobs=self.manifest.shards[index].jobs)
                continue
            self.health.retries += 1
            summary = worker_module.execute_shard(
                (spec.to_dict() for spec in self.manifest.iter_shard(index)),
                path, budget=self.budget)
            journal.record("shard_reclaimed",
                           shard=self.manifest.shards[index].name,
                           jobs=summary["jobs"])


def _iter_jsonl(path: str):
    """Yield result dicts from one shard spool, tolerating a torn line."""
    try:
        handle = open(path)
    except FileNotFoundError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:  # pragma: no cover - files commit whole
                continue
            if isinstance(row, dict):
                yield row


def run_farm(manifest, workers: int = 1,
             store: Optional[ResultStore] = None, resume: bool = False,
             budget: Optional[int] = DEFAULT_BUDGET, **scheduler_options):
    """Convenience wrapper: schedule, run, merge; returns a FarmReport.

    A :class:`ShardedManifest` routes to the streaming farm (the store
    is unused there — shard result files are the cache); a list-shaped
    :class:`Manifest` takes the per-job fault-tolerant path.
    """
    from repro.farm.merge import merge_results

    if isinstance(manifest, ShardedManifest):
        run_dir = scheduler_options.pop("run_dir", None)
        checkpoint = scheduler_options.pop("checkpoint_interval",
                                           STREAM_JOURNAL_CHECKPOINT)
        warm = scheduler_options.pop("warm", False)
        farm = StreamFarm(manifest, workers=workers, run_dir=run_dir,
                          resume=resume, budget=budget,
                          checkpoint_interval=checkpoint, warm=warm)
        return farm.run()

    scheduler = FarmScheduler(manifest, workers=workers, store=store,
                              resume=resume, budget=budget,
                              **scheduler_options)
    results = scheduler.run()
    return merge_results(results, workers=workers,
                         wall_seconds=scheduler.wall_seconds,
                         cached_jobs=scheduler.cached_jobs,
                         health=scheduler.health.summary())
