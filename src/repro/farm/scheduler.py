"""The farm scheduler: batch, dispatch, supervise, journal — never lose a job.

The unit of work is a **batch**: a run of consecutive manifest jobs that
is dispatched, committed and journaled as one.  A list
:class:`~repro.farm.manifest.Manifest` is batches of one job; a
:class:`~repro.farm.manifest.ShardedManifest` is one batch per shard, so
a paper-scale corpus pays per-shard, not per-job, scheduling costs.
Every batch goes through the same machinery.

``workers=1`` executes inline in this process — that *is* the serial
baseline the parity tests and the bench compare against, not a special
case bolted on.  ``workers>1`` forks one worker per batch
(:mod:`repro.farm.health`) under full fleet discipline:

* **heartbeats** — each worker stamps a heartbeat file; the scheduler
  distinguishes *hung* (alive, silent — SIGKILL + reclaim) from *dead*
  (reaped) from *busy* (stamping — leave it alone), and enforces an
  optional wall-clock ``deadline`` per dispatch on top of the
  Supervisor's in-worker instruction budget;
* **bisection** — a struck batch of more than one job splits in half and
  both halves re-queue, so a record that keeps killing its worker ends up
  in a batch of its own while the rest of its shard commits;
* **bounded retry with backoff + jitter** — a struck batch of one job
  (its worker died, hung, or tore its result) is requeued up to
  ``max_retries`` times with exponentially growing, deterministically
  jittered delays (shared policy:
  :func:`repro.resilience.backoff.backoff_delay`);
* **poison quarantine** — a job that kills ``poison_threshold`` workers
  (counted across scheduler restarts, via the journal) is classified
  ``poison`` with a tombstone, cached, and never dispatched again: one
  hostile app costs one classified outcome fleet-wide.

In both modes:

* **write-ahead journal** — every batch transition is fsync'd to
  ``run_dir/journal.jsonl`` *before* it takes effect, keyed by the
  batch's store key;
* **digest-verified commits** — a batch's rows commit as one file in the
  result store, named by the batch key and crash-consistent, so
  SIGKILLing the scheduler itself mid-run and re-running with
  ``resume=True`` completes exactly: any committed batch (a whole shard,
  or a half left by a split) replays from cache, only the rest re-runs,
  no job is lost or duplicated;
* **one merge** — rows fold through :class:`~repro.farm.merge.MergeFold`
  in manifest order: a list manifest's report keeps every result dict, a
  sharded manifest's spools compact rows to disk and keeps none;
* **clean drain** — SIGTERM/``KeyboardInterrupt`` journals in-flight
  batches as ``interrupted``, SIGKILLs the pool (no leaked forks), and
  raises :class:`FarmInterrupted` for the CLI to exit nonzero.

Every job ends in exactly one of ``cached`` / a worker-classified result
(``ok``/``degraded``/``crashed``/``timeout``) / ``poison`` / ``lost``
(retries exhausted below the poison threshold; never cached).
"""

from __future__ import annotations

import functools
import gc
import heapq
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from repro.farm import worker as worker_module
from repro.farm.health import (
    HEARTBEAT_INTERVAL,
    HealthStats,
    WorkerHandle,
    WorkerPool,
)
from repro.farm.journal import RunJournal, replay
from repro.farm.manifest import JobSpec, ShardedManifest
from repro.farm.merge import FarmReport, MergeFold, merge_results
from repro.farm.store import ResultStore, batch_digest, iter_rows, scan_rows
from repro.farm.worker import DEFAULT_BUDGET
from repro.resilience.backoff import backoff_delay, jitter_rng

STATUS_LOST = "lost"
STATUS_POISON = "poison"

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


def _lost_result(spec: JobSpec, digest: str, error, elapsed: float,
                 attempts: int = 1) -> Dict:
    if isinstance(error, BaseException):
        message = f"worker lost: {type(error).__name__}: {error}"
    else:
        message = f"worker lost: {error}"
    return worker_module.result_row(spec, digest, STATUS_LOST,
                                    elapsed, attempts=attempts,
                                    error=message)


def _poison_result(spec: JobSpec, digest: str, strikes: int,
                   reasons: List[str], elapsed: float, attempts: int) -> Dict:
    message = (f"poison job: killed {strikes} workers "
               f"({', '.join(reasons)})")
    tombstone = {
        "error_type": "PoisonJob",
        "error_message": message,
        "strikes": strikes,
        "strike_reasons": list(reasons),
    }
    return worker_module.result_row(spec, digest, STATUS_POISON,
                                    elapsed, attempts=attempts,
                                    error=message, tombstone=tombstone)


def _status(outcomes: Dict[str, int]) -> str:
    """A batch's journal status: its rows' one status, else ``mixed``."""
    return next(iter(outcomes)) if len(outcomes) == 1 else "mixed"


class _Batch:
    """Manifest jobs ``[start, stop)``, dispatched and committed as one.

    ``specs`` (read from the manifest once, then kept), ``digests`` (the
    member job digests, which name the batch's store key) and ``label``
    are filled in by :meth:`FarmScheduler._load`.
    """

    __slots__ = ("start", "stop", "attempt", "specs", "digests", "label")

    def __init__(self, start: int, stop: int,
                 specs: Optional[List[JobSpec]] = None,
                 digests: Optional[List[str]] = None) -> None:
        self.start = start
        self.stop = stop
        self.attempt = 0
        self.specs = specs
        self.digests = digests
        self.label = ""

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def key(self) -> str:
        return batch_digest(self.digests)

    def halves(self) -> Tuple["_Batch", "_Batch"]:
        cut = self.size // 2
        specs = self.specs
        return (_Batch(self.start, self.start + cut,
                       specs and specs[:cut], self.digests[:cut]),
                _Batch(self.start + cut, self.stop,
                       specs and specs[cut:], self.digests[cut:]))


class FarmScheduler:
    """Runs a manifest, batch by batch, to one merged :class:`FarmReport`."""

    def __init__(self, manifest, workers: int = 1,
                 store: Optional[ResultStore] = None, resume: bool = False,
                 budget: Optional[int] = DEFAULT_BUDGET,
                 deadline: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 poison_threshold: int = DEFAULT_POISON_THRESHOLD,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 run_dir: Optional[str] = None, chaos=None,
                 trace_dir: Optional[str] = None,
                 warm: bool = False) -> None:
        self.manifest = manifest
        self.workers = max(1, workers)
        self.warm = warm
        self.store = store
        self.resume = resume
        self.budget = budget
        self.deadline = deadline
        self.max_retries = max(0, max_retries)
        self.poison_threshold = max(1, poison_threshold)
        self.heartbeat_interval = heartbeat_interval
        self.run_dir = run_dir
        self.chaos = chaos
        self.trace_dir = trace_dir
        self.health = HealthStats()
        self.cached_jobs = 0
        self.wall_seconds = 0.0
        self._strikes: Dict[str, int] = {}
        self._strike_reasons: Dict[str, List[str]] = {}
        # Per-run state: the result store in use, the journal, the
        # dispatch queue, the retry heap of (eligible, start, batch), the
        # batches in flight by worker pid, and the settled segments —
        # start -> (stop, committed file or in-memory rows, cached).
        self._store: Optional[ResultStore] = None
        self._journal: Optional[RunJournal] = None
        self._queue: deque = deque()
        self._retries: List = []
        self._flight: Dict[int, _Batch] = {}
        self._segments: Dict[int, Tuple[int, object, bool]] = {}

    # -- run ------------------------------------------------------------------

    def run(self) -> FarmReport:
        start = time.perf_counter()
        # Warm policy is process-wide: inline workers read it directly,
        # forked workers inherit it (and the booted templates) via COW.
        worker_module.configure_warm(self.warm)
        self.cached_jobs = 0
        self._queue, self._retries = deque(), []
        self._flight, self._segments = {}, {}

        run_dir = self.run_dir or tempfile.mkdtemp(prefix="repro-farm-run-")
        os.makedirs(run_dir, exist_ok=True)
        try:
            self._store = self.store if self.store is not None \
                else ResultStore(os.path.join(run_dir, "results"))
            self._dispatch(run_dir)
            report = self._merge(run_dir, start)
        finally:
            if self.run_dir is None:
                shutil.rmtree(run_dir, ignore_errors=True)
        if self.run_dir is None:
            report.rows_path = None
        return report

    def _dispatch(self, run_dir: str) -> None:
        journal = self._journal = RunJournal(
            os.path.join(run_dir, "journal.jsonl"))
        if self.resume:
            # Strike counts survive scheduler death: a poison job that
            # killed two workers before the scheduler was SIGKILLed is
            # one strike from quarantine, not three — and a batch struck
            # before the restart resumes as its two halves.
            state = replay(journal.path)
            self._strikes = {digest: ledger.strikes
                             for digest, ledger in state.jobs.items()
                             if ledger.strikes}
        journal.record("run_start", resume=self.resume,
                       workers=self.workers, jobs=len(self.manifest),
                       pid=os.getpid())
        for start, stop in self.manifest.batches():
            self._plan(_Batch(start, stop))

        previous_sigterm = self._install_sigterm()
        try:
            if self._queue:
                if self.workers == 1:
                    self._run_inline()
                else:
                    self._run_pool(run_dir)
            journal.record("run_end", jobs=len(self.manifest))
        finally:
            self._restore_sigterm(previous_sigterm)
            journal.close()
            if self.trace_dir is not None:
                # The scheduler's timeline is its journal, every segment.
                from repro.observability.flight import write_scheduler_track
                write_scheduler_track(journal.path, self.trace_dir)

    def _load(self, batch: _Batch) -> List[JobSpec]:
        """The batch's specs; fills in its member digests and label.

        The specs are read from the manifest on the first call and kept
        on the batch, so planning, a warm pool's template boot and every
        dispatch share them.  The worker runs these very spec objects,
        so each digest computed here is the one its row carries.
        """
        specs = batch.specs
        if specs is None:
            specs = batch.specs = self.manifest.specs(batch.start,
                                                      batch.stop)
        if batch.digests is None:
            batch.digests = [spec.digest() for spec in specs]
        batch.label = specs[0].id if len(specs) == 1 \
            else f"{specs[0].id}..{specs[-1].id}"
        return specs

    def _plan(self, batch: _Batch) -> None:
        """Queue ``batch``, or replay what an earlier run committed of it."""
        if self.resume:
            self._load(batch)
            outcomes = self._store.scan(batch.key)
            if outcomes is not None and all(status in CACHEABLE
                                            for status in outcomes):
                self._segments[batch.start] = (
                    batch.stop, self._store.path(batch.key), True)
                self.cached_jobs += batch.size
                self._journal.record("cached", digest=batch.key,
                                     id=batch.label, jobs=batch.size,
                                     status=_status(outcomes))
                return
            if batch.size > 1 and self._strikes.get(batch.key):
                # Bisected before the restart: its halves are the units.
                for half in batch.halves():
                    self._plan(half)
                return
        self._queue.append(batch)

    def iter_results(self) -> Iterator[Dict]:
        """Every job's result row in manifest order, read back from the
        committed files (valid after :meth:`run`, while they exist)."""
        for start in sorted(self._segments):
            __, source, cached = self._segments[start]
            rows = source if isinstance(source, list) else iter_rows(source)
            for row in rows:
                row["cached"] = cached
                yield row

    def _merge(self, run_dir: str, start: float) -> FarmReport:
        health = self.health.summary()
        if isinstance(self.manifest, ShardedManifest):
            # Paper scale: never materialize the rows.
            fold = MergeFold(rows_path=os.path.join(run_dir, "rows.jsonl"))
            for row in self.iter_results():
                fold.add(row)
            self.wall_seconds = time.perf_counter() - start
            return fold.finish(workers=self.workers,
                               wall_seconds=self.wall_seconds,
                               cached_jobs=self.cached_jobs, health=health)
        results = list(self.iter_results())
        self.wall_seconds = time.perf_counter() - start
        return merge_results(results, workers=self.workers,
                             wall_seconds=self.wall_seconds,
                             cached_jobs=self.cached_jobs, health=health)

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

    # -- execute --------------------------------------------------------------

    def _execute(self, batch: _Batch, specs: List[JobSpec]) -> Dict[str, int]:
        """Run one attempt of ``batch`` in this process: the body of a
        forked worker, and the whole of inline mode.  A traced attempt
        spools its spans to its own file (attempts never interleave)."""
        key = batch.key
        spool = None if self.trace_dir is None else os.path.join(
            self.trace_dir, f"worker-{key[:12]}-a{batch.attempt}.jsonl")
        return worker_module.execute_batch(
            specs, self._store.path(key), budget=self.budget,
            spool_path=spool, trace_id=key[:12])

    # -- commit ---------------------------------------------------------------

    def _accept(self, batch: _Batch, outcomes: Dict[str, int]) -> None:
        """A worker's committed rows become the batch's settled result."""
        key = batch.key
        status = _status(outcomes)
        self._segments[batch.start] = (batch.stop, self._store.path(key),
                                       False)
        self._journal.record("done", digest=key, id=batch.label,
                             attempt=batch.attempt, jobs=batch.size,
                             status=status)

    # -- inline (serial baseline) ---------------------------------------------

    def _run_inline(self) -> None:
        while self._queue:
            batch = self._queue.popleft()
            specs = self._load(batch)
            batch.attempt = 1
            key = batch.key
            self._journal.record("dispatched", digest=key, id=batch.label,
                                 attempt=1, jobs=batch.size,
                                 pid=os.getpid())
            try:
                outcomes = self._execute(batch, specs)
            except KeyboardInterrupt:
                self._journal.record("interrupted", digest=key,
                                     id=batch.label, attempt=1)
                self.health.interrupted_jobs += batch.size
                raise FarmInterrupted([batch.label]) from None
            self._accept(batch, outcomes)

    # -- pool (fleet mode) ----------------------------------------------------

    def _run_pool(self, run_dir: str) -> None:
        if self.warm:
            # Boot one template per config in the parent *before* any
            # fork: every child then inherits the booted platform — warm
            # TB/block/trampoline caches included — copy-on-write, and
            # pays only reset_for_job().  Corpus jobs boot no platform.
            worker_module.warm_boot_templates(
                spec.config for batch in self._queue
                for spec in self._load(batch) if spec.kind != "corpus")
        pool = WorkerPool(hb_dir=os.path.join(run_dir, "hb"),
                          interval=self.heartbeat_interval)
        # A child's cycle collector would otherwise walk (and so copy on
        # write) every object this process holds, once per forked batch.
        gc.freeze()
        try:
            while self._queue or self._retries or pool.live:
                now = time.monotonic()
                while self._retries and self._retries[0][0] <= now:
                    self._queue.append(heapq.heappop(self._retries)[2])
                progressed = self._spawn_ready(pool)
                progressed |= self._collect(pool)
                progressed |= self._reclaim_unhealthy(pool)
                if not progressed:
                    time.sleep(min(self.heartbeat_interval / 4, 0.01))
        except KeyboardInterrupt:
            handles = sorted(pool.live.values(), key=lambda h: h.index)
            for handle in handles:
                self._journal.record("interrupted", digest=handle.digest,
                                     id=handle.job_id,
                                     attempt=handle.attempt)
                self.health.interrupted_jobs += \
                    self._flight[handle.pid].size
            raise FarmInterrupted(sorted(h.job_id for h in handles)) \
                from None
        finally:
            pool.kill_all()
            gc.unfreeze()

    def _spawn_ready(self, pool: WorkerPool) -> bool:
        progressed = False
        while self._queue and len(pool.live) < self.workers:
            batch = self._queue.popleft()
            specs = self._load(batch)
            batch.attempt += 1
            key = batch.key
            handle = pool.spawn(functools.partial(self._execute, batch, specs),
                                batch.start, key, batch.label, batch.attempt,
                                jobs=batch.digests)
            self._flight[handle.pid] = batch
            self._journal.record("dispatched", digest=key, id=batch.label,
                                 attempt=batch.attempt, jobs=batch.size,
                                 pid=handle.pid)
            if self.chaos is not None:
                self.chaos.on_spawn(handle)
            progressed = True
        return progressed

    def _collect(self, pool: WorkerPool) -> bool:
        progressed = False
        for handle, status in pool.reap():
            progressed = True
            batch = self._flight.pop(handle.pid)
            if status == 0:
                path = self._store.path(batch.key)
                if self.chaos is not None:
                    self.chaos.on_commit(handle, path)
                outcomes = scan_rows(path, batch.key)
                if outcomes is None:
                    self.health.torn_results += 1
                    self._strike(batch, handle, "torn-result")
                else:
                    self._accept(batch, outcomes)
            else:
                self.health.worker_deaths += 1
                self.health.record_reclaim(
                    handle.heartbeat_age(time.time()))
                cause = (f"worker died (signal {-status})" if status < 0
                         else f"worker died (exit {status})")
                self._strike(batch, handle, cause)
        return progressed

    def _reclaim_unhealthy(self, pool: WorkerPool) -> bool:
        progressed = False
        now_wall = time.time()
        for handle in pool.overdue(self.deadline):
            progressed = True
            self.health.deadline_kills += 1
            self.health.record_reclaim(handle.heartbeat_age(now_wall))
            pool.kill(handle)
            self._strike(self._flight.pop(handle.pid), handle,
                         f"deadline ({self.deadline:.1f}s) exceeded")
        for handle in pool.hung(now_wall):
            progressed = True
            self.health.hung_workers += 1
            self.health.record_reclaim(handle.heartbeat_age(now_wall))
            pool.kill(handle)
            self._strike(self._flight.pop(handle.pid), handle,
                         "hung (heartbeats missed)")
        return progressed

    # -- failure policy -------------------------------------------------------

    def _strike(self, batch: _Batch, handle: WorkerHandle,
                reason: str) -> None:
        key = batch.key
        journal = self._journal
        strikes = self._strikes.get(key, 0) + 1
        self._strikes[key] = strikes
        reasons = self._strike_reasons.setdefault(key, [])
        reasons.append(reason)
        # The worker's last self-reported vitals: how far it got before
        # it died/hung, straight from the heartbeat body.
        vitals = handle.read_vitals()
        last_instructions = vitals["instructions"] if vitals else 0
        # Whatever the struck worker committed is void: its jobs re-run.
        self._store.drop(key)
        journal.record("strike", digest=key, id=batch.label,
                       attempt=batch.attempt, reason=reason,
                       strikes=strikes, instructions=last_instructions)
        if batch.size > 1:
            halves = batch.halves()
            journal.record("split", digest=key, id=batch.label,
                           into=[half.key for half in halves])
            self.health.splits += 1
            self._queue.extend(halves)
            return
        spec = self._load(batch)[0]
        elapsed = handle.runtime(time.monotonic())
        if strikes >= self.poison_threshold:
            row = _poison_result(spec, key, strikes, reasons, elapsed,
                                 attempts=batch.attempt)
            row["tombstone"]["last_instructions"] = last_instructions
            journal.record("poison", digest=key, id=batch.label,
                           strikes=strikes)
            self.health.poison_quarantined += 1
            self._store.put(key, row)
            self._segments[batch.start] = (batch.stop,
                                           self._store.path(key), False)
        elif batch.attempt >= 1 + self.max_retries:
            row = _lost_result(spec, key, reason, elapsed,
                               attempts=batch.attempt)
            journal.record("lost", digest=key, id=batch.label,
                           attempt=batch.attempt, reason=reason)
            self.health.lost_jobs += 1
            # Lost is never cached: the row lives only in this run.
            self._segments[batch.start] = (batch.stop, [row], False)
        else:
            delay = backoff_delay(batch.attempt, base=RETRY_BACKOFF_BASE,
                                  jitter=RETRY_BACKOFF_JITTER,
                                  rng=jitter_rng(key, batch.attempt))
            journal.record("retry", digest=key, id=batch.label,
                           next_attempt=batch.attempt + 1, delay=delay)
            self.health.retries += 1
            heapq.heappush(self._retries, (time.monotonic() + delay,
                                           batch.start, batch))


# The one scheduler serves sharded manifests too.  The name survives
# because the repository benchmark's span wrappers resolve
# ``repro.farm.scheduler.StreamFarm.run``.
StreamFarm = FarmScheduler


def run_farm(manifest, workers: int = 1,
             store: Optional[ResultStore] = None, resume: bool = False,
             budget: Optional[int] = DEFAULT_BUDGET, **scheduler_options
             ) -> FarmReport:
    """Convenience wrapper: schedule, run, merge; returns a FarmReport."""
    return FarmScheduler(manifest, workers=workers, store=store,
                         resume=resume, budget=budget,
                         **scheduler_options).run()
