"""Worker health: fork, heartbeat, detect hung-vs-dead, reclaim.

The old pool (``concurrent.futures``) could only learn about a worker
*after* the fact — a dead process surfaced as a broken future, and a
hung one never surfaced at all.  At market-study scale (the paper's
Section III covers 227,911 APKs) both are the steady state, so the farm
now owns its workers directly:

* each batch of jobs runs in a **forked child** that commits its rows
  with the store's crash-consistent write and then ``_exit``\\ s — no
  interpreter teardown, no shared descriptors flushed twice;
* a **heartbeat thread** in the child stamps a per-batch heartbeat file
  every ``interval`` seconds.  A SIGSTOP'd or livelocked worker stops
  stamping, so the scheduler can tell *hung* (alive but silent — reap
  it) from merely *busy* (stamping away — leave it alone), which no
  exit-status channel can express;
* the pool reaps with ``waitpid(WNOHANG)``, SIGKILLs workers that miss
  ``miss_threshold`` consecutive heartbeats or outlive the per-dispatch
  wall-clock deadline, and reports every reclaim with the time elapsed
  since the worker's last proof of life.

:class:`HealthStats` aggregates the whole fault-tolerance story
(reclaims by cause, retries, quarantines, mean time to reclaim) for the
merged farm report and the observability metrics registry.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

HEARTBEAT_INTERVAL = 0.05
MISS_THRESHOLD = 4      # consecutive missed heartbeats before "hung"


def stamp_heartbeat(path: str, digest: str = "",
                    instructions: int = 0) -> None:
    """Record proof of life; the mtime is the signal, the body is debug.

    The body carries *what* the worker is doing, not just that it beats:
    the current job digest and the emulator's instruction count at stamp
    time, so ``--watch`` and hung-worker tombstones can show a frozen
    counter instead of a bare pid.
    """
    with open(path, "w") as handle:
        handle.write(f"{os.getpid()} {time.time():.6f} "
                     f"{digest or '-'} {instructions}\n")


def parse_heartbeat(path: str) -> Optional[Dict]:
    """Decode a heartbeat body; tolerant of the pre-enrichment format."""
    try:
        with open(path) as handle:
            fields = handle.read().split()
    except OSError:
        return None
    if len(fields) < 2:
        return None
    try:
        beat = {"pid": int(fields[0]), "stamped": float(fields[1]),
                "digest": "", "instructions": 0}
    except ValueError:
        return None
    if len(fields) >= 3 and fields[2] != "-":
        beat["digest"] = fields[2]
    if len(fields) >= 4:
        try:
            beat["instructions"] = int(fields[3])
        except ValueError:
            pass
    return beat


class _HeartbeatThread(threading.Thread):
    """Daemon thread stamping a heartbeat file until the process exits.

    ``vitals`` (optional) is polled at each stamp for the live
    ``(digest, instruction_count)`` pair; it must never raise and never
    block — ours reads two plain attributes off the worker's platform.
    """

    def __init__(self, path: str, interval: float,
                 vitals: Optional[Callable[[], Tuple[str, int]]] = None
                 ) -> None:
        super().__init__(name="farm-heartbeat", daemon=True)
        self.path = path
        self.interval = interval
        self.vitals = vitals
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            digest, instructions = "", 0
            if self.vitals is not None:
                try:
                    digest, instructions = self.vitals()
                except Exception:  # pragma: no cover - vitals must not kill
                    pass
            try:
                stamp_heartbeat(self.path, digest, instructions)
            except OSError:  # pragma: no cover - hb dir vanished
                return


def run_worker(work: Callable, hb_path: str, interval: float,
               spool_path: Optional[str] = None, trace_id: str = "",
               digest: str = "") -> None:
    """Body of a forked farm worker: heartbeat, then ``work(tracer)``;
    the caller must ``_exit`` afterwards.

    ``work`` commits its own results.  With ``spool_path`` set, the
    worker opens its own post-fork :class:`SpanTracer` spool (no shared
    descriptors) and hands it to ``work``; otherwise ``tracer`` is None.
    """
    from repro.farm import worker as worker_module

    def vitals() -> Tuple[str, int]:
        platform = worker_module.LIVE.get("platform")
        instructions = (platform.emu.instruction_count
                        if platform is not None else 0)
        return digest, instructions

    stamp_heartbeat(hb_path, digest)
    beat = _HeartbeatThread(hb_path, interval, vitals=vitals)
    beat.start()
    if spool_path is None:
        work(None)
        return
    from repro.observability.flight import FlightSpool
    from repro.observability.spans import SpanTracer
    tracer = SpanTracer(spool=FlightSpool(spool_path), trace_id=trace_id)
    work(tracer)
    tracer.close()


@dataclass
class WorkerHandle:
    """One live forked worker, as the scheduler sees it."""

    pid: int
    index: int                  # manifest position of its batch's first job
    digest: str                 # the batch's store key
    job_id: str
    attempt: int
    hb_path: str
    spawned_monotonic: float
    spawned_wall: float
    jobs: Tuple[str, ...] = ()  # member job digests, in order

    def heartbeat_age(self, now_wall: float, since: float = 0.0) -> float:
        """Seconds since the last proof of life (spawn counts as one),
        counting no earlier than ``since``."""
        try:
            last = os.stat(self.hb_path).st_mtime
        except OSError:
            last = self.spawned_wall
        return max(0.0, now_wall - max(last, since))

    def runtime(self, now_monotonic: float) -> float:
        return now_monotonic - self.spawned_monotonic

    def read_vitals(self) -> Optional[Dict]:
        """The worker's last self-reported digest + instruction count."""
        return parse_heartbeat(self.hb_path)


class WorkerPool:
    """Fork/monitor/reap for farm workers; policy stays in the scheduler."""

    def __init__(self, hb_dir: str, interval: float = HEARTBEAT_INTERVAL,
                 miss_threshold: int = MISS_THRESHOLD) -> None:
        self.hb_dir = hb_dir
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.live: Dict[int, WorkerHandle] = {}
        # Hung detection's own clock: the last hung() poll, and the start
        # of the current run of on-time polls (see hung()).
        self._last_poll: Optional[float] = None
        self._observed_since = 0.0
        os.makedirs(hb_dir, exist_ok=True)

    # -- spawn ----------------------------------------------------------------

    def spawn(self, work: Callable, index: int, digest: str, job_id: str,
              attempt: int, spool_path: Optional[str] = None,
              trace_id: str = "", jobs: Tuple[str, ...] = ()
              ) -> WorkerHandle:
        """Fork a worker that runs ``work(tracer)`` under a heartbeat."""
        hb_path = os.path.join(self.hb_dir, digest)
        # A stale heartbeat from a previous attempt must not vouch for
        # the new worker.
        stamp_heartbeat(hb_path, digest)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                run_worker(work, hb_path, self.interval,
                           spool_path=spool_path, trace_id=trace_id,
                           digest=digest)
                code = 0
            except BaseException:
                code = 1
            finally:
                # Skip every parent-inherited atexit/teardown path: the
                # child must vanish without flushing shared state.
                os._exit(code)
        handle = WorkerHandle(pid=pid, index=index, digest=digest,
                              job_id=job_id, attempt=attempt,
                              hb_path=hb_path,
                              spawned_monotonic=time.monotonic(),
                              spawned_wall=time.time(), jobs=tuple(jobs))
        self.live[pid] = handle
        return handle

    # -- observe --------------------------------------------------------------

    def reap(self) -> List[Tuple[WorkerHandle, int]]:
        """Collect exited workers; yields ``(handle, status)`` where
        status is the exit code for clean exits and ``-signum`` for
        signal deaths."""
        finished: List[Tuple[WorkerHandle, int]] = []
        for pid in list(self.live):
            try:
                reaped, raw = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - reaped elsewhere
                reaped, raw = pid, 1 << 8
            if reaped == 0:
                continue
            handle = self.live.pop(pid)
            if os.WIFSIGNALED(raw):
                status = -os.WTERMSIG(raw)
            else:
                status = os.WEXITSTATUS(raw)
            finished.append((handle, status))
        return finished

    def hung(self, now_wall: Optional[float] = None) -> List[WorkerHandle]:
        """Workers silent for longer than the limit *while observed*.

        A poll arriving more than the limit after the previous one means
        the caller itself was stalled (an overloaded host, a stopped
        scheduler), and the workers most likely were too: their silence
        over that gap proves nothing.  Silence is then counted from this
        poll, so a host stall never strikes a worker, while a worker that
        stays silent through a full limit of on-time polls still does.
        """
        now_wall = time.time() if now_wall is None else now_wall
        limit = self.interval * self.miss_threshold
        if self._last_poll is not None and now_wall - self._last_poll > limit:
            self._observed_since = now_wall
        self._last_poll = now_wall
        return [handle for handle in self.live.values()
                if handle.heartbeat_age(now_wall, self._observed_since)
                > limit]

    def overdue(self, deadline: Optional[float],
                now_monotonic: Optional[float] = None) -> List[WorkerHandle]:
        if deadline is None:
            return []
        now_monotonic = time.monotonic() if now_monotonic is None \
            else now_monotonic
        return [handle for handle in self.live.values()
                if handle.runtime(now_monotonic) > deadline]

    # -- reclaim --------------------------------------------------------------

    def kill(self, handle: WorkerHandle) -> None:
        """SIGKILL one worker and reap it synchronously.

        SIGKILL (not SIGTERM) on purpose: a hung worker by definition
        is not scheduling our code, and SIGKILL also fells SIGSTOP'd
        processes, which no catchable signal does.
        """
        self.live.pop(handle.pid, None)
        try:
            os.kill(handle.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(handle.pid, 0)
        except ChildProcessError:
            pass

    def kill_all(self) -> None:
        for handle in list(self.live.values()):
            self.kill(handle)


@dataclass
class HealthStats:
    """The farm's fault-tolerance counters, one place."""

    worker_deaths: int = 0      # exited nonzero / died to a signal
    hung_workers: int = 0       # missed heartbeats -> SIGKILLed
    deadline_kills: int = 0     # outlived the per-dispatch deadline
    torn_results: int = 0       # committed result failed verification
    retries: int = 0            # strikes requeued with backoff
    splits: int = 0             # struck multi-job batches bisected
    poison_quarantined: int = 0
    lost_jobs: int = 0
    interrupted_jobs: int = 0
    reclaim_seconds: List[float] = field(default_factory=list)

    @property
    def workers_reclaimed(self) -> int:
        return self.worker_deaths + self.hung_workers + self.deadline_kills

    def record_reclaim(self, seconds: float) -> None:
        self.reclaim_seconds.append(max(0.0, seconds))

    def mean_time_to_reclaim(self) -> float:
        if not self.reclaim_seconds:
            return 0.0
        return sum(self.reclaim_seconds) / len(self.reclaim_seconds)

    def summary(self) -> Dict[str, float]:
        return {
            "workers_reclaimed": self.workers_reclaimed,
            "worker_deaths": self.worker_deaths,
            "hung_workers": self.hung_workers,
            "deadline_kills": self.deadline_kills,
            "torn_results": self.torn_results,
            "retries": self.retries,
            "splits": self.splits,
            "poison_quarantined": self.poison_quarantined,
            "lost_jobs": self.lost_jobs,
            "interrupted_jobs": self.interrupted_jobs,
            "mean_time_to_reclaim_seconds": self.mean_time_to_reclaim(),
        }

    def register_metrics(self, registry) -> None:
        """Expose the summary as a pull source on a MetricsRegistry."""
        registry.register_source("farm.health", self.summary)
