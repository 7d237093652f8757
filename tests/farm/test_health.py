"""Worker pool health: fork/reap, heartbeats, hung-vs-dead, reclaim."""

import os
import signal
import time

from repro.farm import worker as worker_module
from repro.farm.health import (
    HealthStats,
    WorkerHandle,
    WorkerPool,
    stamp_heartbeat,
)

SPEC = {"id": "scenario:fake", "kind": "scenario", "target": "fake"}
DIGEST = "cd" * 32


def make_pool(tmp_path, **options):
    return WorkerPool(hb_dir=str(tmp_path / "hb"), **options)


def spawn(pool, commit=lambda result: None, attempt=1):
    def work():
        commit(worker_module.execute_job(SPEC, budget=None))
    return pool.spawn(work, 0, DIGEST, SPEC["id"], attempt)


def wait_reap(pool, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        finished = pool.reap()
        if finished:
            return finished
        time.sleep(0.005)
    raise AssertionError("worker never finished")


class TestSpawnReap:
    def test_clean_worker_commits_and_exits_zero(self, tmp_path, monkeypatch):
        # The fork inherits the monkeypatch: execute_job is resolved
        # through the module at call time, not frozen at import.
        out = str(tmp_path / "committed.json")

        def fake_execute(spec, budget=None, tracer=None):
            return {"digest": spec and DIGEST, "status": "ok"}

        def commit(result):
            with open(out, "w") as handle:
                handle.write(result["status"])

        monkeypatch.setattr(worker_module, "execute_job", fake_execute)
        pool = make_pool(tmp_path)
        handle = spawn(pool, commit)
        assert handle.pid != os.getpid()
        (reaped, status), = wait_reap(pool)
        assert reaped.pid == handle.pid
        assert status == 0
        assert not pool.live
        with open(out) as committed:
            assert committed.read() == "ok"

    def test_crashing_worker_reaps_nonzero(self, tmp_path, monkeypatch):
        def bad_execute(spec, budget=None, tracer=None):
            raise RuntimeError("worker-side explosion")

        monkeypatch.setattr(worker_module, "execute_job", bad_execute)
        pool = make_pool(tmp_path)
        spawn(pool)
        (__, status), = wait_reap(pool)
        assert status == 1

    def test_signal_death_reports_negative_signum(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec, budget=None, tracer=None: time.sleep(30))
        pool = make_pool(tmp_path)
        handle = spawn(pool)
        os.kill(handle.pid, signal.SIGKILL)
        (__, status), = wait_reap(pool)
        assert status == -signal.SIGKILL


class TestHeartbeats:
    def test_busy_worker_keeps_stamping(self, tmp_path, monkeypatch):
        interval = 0.02
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec, budget=None, tracer=None: time.sleep(30))
        pool = make_pool(tmp_path, interval=interval)
        handle = spawn(pool)
        try:
            time.sleep(interval * pool.miss_threshold * 2)
            # Slow but alive: stamping, never classified hung.
            assert handle.heartbeat_age(time.time()) < \
                interval * pool.miss_threshold
            assert pool.hung() == []
        finally:
            pool.kill(handle)

    def test_stopped_worker_goes_silent_and_reads_hung(self, tmp_path,
                                                       monkeypatch):
        interval = 0.02
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec, budget=None, tracer=None: time.sleep(30))
        pool = make_pool(tmp_path, interval=interval)
        handle = spawn(pool)
        try:
            os.kill(handle.pid, signal.SIGSTOP)  # livelock stand-in
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and pool.hung() == []:
                time.sleep(interval)
            assert pool.hung() == [handle]
            # Hung, not dead: WNOHANG still sees it running.
            assert pool.reap() == []
        finally:
            pool.kill(handle)

    def test_scheduler_stall_strikes_no_worker(self, tmp_path):
        # A stalled poll loop (host overload) sees every heartbeat as old;
        # silence only counts from the first on-time poll after it.
        pool = make_pool(tmp_path, interval=0.05)
        limit = pool.interval * pool.miss_threshold
        handle = WorkerHandle(pid=-1, index=0, digest=DIGEST, job_id="x",
                              attempt=1, hb_path=str(tmp_path / "hb" / "x"),
                              spawned_monotonic=0.0, spawned_wall=0.0)
        stamp_heartbeat(handle.hb_path)
        stamped = os.stat(handle.hb_path).st_mtime
        pool.live[handle.pid] = handle
        assert pool.hung(stamped) == []
        resumed = stamped + 10 * limit          # one poll, very late
        assert pool.hung(resumed) == []
        assert pool.hung(resumed + limit / 2) == []
        # Still silent after a full limit of on-time polls: hung.
        assert pool.hung(resumed + limit * 0.9) == []
        assert pool.hung(resumed + limit * 1.1) == [handle]

    def test_kill_fells_a_stopped_worker(self, tmp_path, monkeypatch):
        # SIGKILL is the one signal a SIGSTOP'd process cannot ignore;
        # kill() must reap synchronously with no zombie left behind.
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec, budget=None, tracer=None: time.sleep(30))
        pool = make_pool(tmp_path)
        handle = spawn(pool)
        os.kill(handle.pid, signal.SIGSTOP)
        pool.kill(handle)
        assert not pool.live
        with _gone(handle.pid):
            pass

    def test_stale_heartbeat_does_not_vouch_for_new_attempt(self, tmp_path):
        pool = make_pool(tmp_path)
        hb_path = os.path.join(pool.hb_dir, DIGEST)
        stamp_heartbeat(hb_path)
        old = time.time() - 100
        os.utime(hb_path, (old, old))
        handle = spawn(pool, attempt=2)
        try:
            # spawn() re-stamps before forking: age resets.
            assert handle.heartbeat_age(time.time()) < 1.0
        finally:
            pool.kill(handle)


class _gone:
    """Context manager asserting a pid no longer exists (ESRCH)."""

    def __init__(self, pid):
        self.pid = pid

    def __enter__(self):
        try:
            os.kill(self.pid, 0)
        except ProcessLookupError:
            return self
        except PermissionError:  # pragma: no cover - pid reused
            return self
        raise AssertionError(f"pid {self.pid} still exists")

    def __exit__(self, *exc):
        return False


class TestDeadline:
    def test_overdue_ignores_none_deadline(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec, budget=None, tracer=None: time.sleep(30))
        pool = make_pool(tmp_path)
        handle = spawn(pool)
        try:
            assert pool.overdue(None) == []
            assert pool.overdue(100.0) == []
            assert pool.overdue(
                0.0, now_monotonic=time.monotonic() + 1) == [handle]
        finally:
            pool.kill_all()
            assert not pool.live


class TestHealthStats:
    def test_summary_aggregates_reclaims(self):
        stats = HealthStats()
        stats.worker_deaths = 2
        stats.hung_workers = 1
        stats.deadline_kills = 1
        stats.record_reclaim(0.1)
        stats.record_reclaim(0.3)
        summary = stats.summary()
        assert summary["workers_reclaimed"] == 4
        assert summary["mean_time_to_reclaim_seconds"] == \
            (0.1 + 0.3) / 2
        assert summary["lost_jobs"] == 0

    def test_reclaim_clamps_negative_ages(self):
        stats = HealthStats()
        stats.record_reclaim(-0.5)
        assert stats.mean_time_to_reclaim() == 0.0
