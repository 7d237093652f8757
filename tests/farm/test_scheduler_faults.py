"""Scheduler fault policy: retries, quarantine, deadlines, clean drain."""

import os
import signal
import threading
import time

import pytest

from repro.farm import worker as worker_module
from repro.farm.journal import iter_events, replay, verify_journal
from repro.farm.manifest import JobSpec, Manifest
from repro.farm.scheduler import (
    CACHEABLE,
    FarmInterrupted,
    FarmScheduler,
    STATUS_LOST,
    STATUS_POISON,
)
from repro.farm.store import ResultStore

TWO_JOBS = Manifest(jobs=[
    JobSpec(id="scenario:ephone", kind="scenario", target="ephone"),
    JobSpec(id="scenario:case2", kind="scenario", target="case2"),
])


class Injector:
    """Minimal chaos stand-in: molest chosen digests on chosen attempts."""

    def __init__(self, kill=(), stop=(), truncate=()):
        self.kill = set(kill)          # (digest, attempt) or (digest, None)
        self.stop = set(stop)
        self.truncate = set(truncate)
        self.injected = []

    def _match(self, table, handle):
        return (handle.digest, handle.attempt) in table or \
            (handle.digest, None) in table

    def on_spawn(self, handle):
        if self._match(self.kill, handle):
            os.kill(handle.pid, signal.SIGKILL)
            self.injected.append(("kill", handle.attempt))
        elif self._match(self.stop, handle):
            os.kill(handle.pid, signal.SIGSTOP)
            self.injected.append(("stop", handle.attempt))

    def on_commit(self, handle, path):
        if self._match(self.truncate, handle):
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(size // 2)
            self.injected.append(("truncate", handle.attempt))


def run_dir_events(run_dir):
    return list(iter_events(os.path.join(run_dir, "journal.jsonl")))


def digest_of(job_id):
    return next(spec.digest() for spec in TWO_JOBS if spec.id == job_id)


class TestRetry:
    def test_killed_worker_is_retried_to_success(self, tmp_path):
        target = digest_of("scenario:ephone")
        injector = Injector(kill=[(target, 1)])
        scheduler = FarmScheduler(TWO_JOBS, workers=2, chaos=injector,
                                  run_dir=str(tmp_path / "run"))
        results = scheduler.run().results
        by_id = {r["job"]["id"]: r for r in results}
        assert by_id["scenario:ephone"]["status"] == "ok"
        assert by_id["scenario:case2"]["status"] == "ok"
        assert scheduler.health.worker_deaths == 1
        assert scheduler.health.retries == 1
        assert injector.injected == [("kill", 1)]
        events = [e["event"] for e in run_dir_events(str(tmp_path / "run"))]
        assert events.count("strike") == 1
        assert events.count("retry") == 1
        assert verify_journal(
            os.path.join(str(tmp_path / "run"), "journal.jsonl")) == []

    def test_torn_result_is_a_strike_then_recovers(self, tmp_path):
        target = digest_of("scenario:case2")
        injector = Injector(truncate=[(target, 1)])
        store = ResultStore(str(tmp_path / "cache"))
        scheduler = FarmScheduler(TWO_JOBS, workers=2, store=store,
                                  chaos=injector,
                                  run_dir=str(tmp_path / "run"))
        results = scheduler.run().results
        assert all(r["status"] == "ok" for r in results)
        assert scheduler.health.torn_results == 1
        assert scheduler.health.retries == 1
        # Recovery healed the store: the entry re-verifies whole.
        good, bad = store.verify()
        assert target in good and not bad

    def test_stopped_worker_reads_hung_and_is_reclaimed(self, tmp_path):
        target = digest_of("scenario:ephone")
        injector = Injector(stop=[(target, 1)])
        scheduler = FarmScheduler(TWO_JOBS, workers=2, chaos=injector,
                                  heartbeat_interval=0.02,
                                  run_dir=str(tmp_path / "run"))
        results = scheduler.run().results
        assert all(r["status"] == "ok" for r in results)
        assert scheduler.health.hung_workers == 1
        assert scheduler.health.workers_reclaimed == 1


class TestExhaustion:
    def test_retries_exhausted_is_lost_and_never_cached(self, tmp_path):
        target = digest_of("scenario:ephone")
        injector = Injector(kill=[(target, None)])   # every attempt
        store = ResultStore(str(tmp_path / "cache"))
        scheduler = FarmScheduler(TWO_JOBS, workers=2, store=store,
                                  chaos=injector, max_retries=1,
                                  poison_threshold=5,
                                  run_dir=str(tmp_path / "run"))
        results = scheduler.run().results
        by_id = {r["job"]["id"]: r for r in results}
        lost = by_id["scenario:ephone"]
        assert lost["status"] == STATUS_LOST
        assert lost["attempts"] == 2                 # initial + 1 retry
        assert STATUS_LOST not in CACHEABLE
        assert store.get(target) is None             # lost never caches
        assert scheduler.health.lost_jobs == 1

    def test_poison_job_quarantined_exactly_once_and_cached(self, tmp_path):
        target = digest_of("scenario:ephone")
        injector = Injector(kill=[(target, None)])
        store = ResultStore(str(tmp_path / "cache"))
        scheduler = FarmScheduler(TWO_JOBS, workers=2, store=store,
                                  chaos=injector, max_retries=5,
                                  poison_threshold=3,
                                  run_dir=str(tmp_path / "run"))
        results = scheduler.run().results
        by_id = {r["job"]["id"]: r for r in results}
        poison = by_id["scenario:ephone"]
        assert poison["status"] == STATUS_POISON
        assert poison["tombstone"]["error_type"] == "PoisonJob"
        assert poison["tombstone"]["strikes"] == 3
        assert scheduler.health.poison_quarantined == 1
        assert scheduler.health.worker_deaths == 3
        journal = os.path.join(str(tmp_path / "run"), "journal.jsonl")
        assert verify_journal(journal) == []
        assert sum(1 for e in iter_events(journal)
                   if e["event"] == "poison") == 1
        # The verdict is cached: a resume replays it, never re-dispatches.
        assert store.get(target)["status"] == STATUS_POISON
        resumed = FarmScheduler(TWO_JOBS, workers=2, store=store,
                                resume=True, chaos=injector,
                                run_dir=str(tmp_path / "run2"))
        second = resumed.run().results
        assert resumed.cached_jobs == 2
        assert {r["job"]["id"]: r["status"] for r in second} == \
            {"scenario:ephone": STATUS_POISON, "scenario:case2": "ok"}
        assert resumed.health.poison_quarantined == 0  # no re-classification

    def test_strike_counts_resume_across_scheduler_death(self, tmp_path):
        """Two strikes before the crash + one after = quarantine."""
        target = digest_of("scenario:ephone")
        run_dir = str(tmp_path / "run")
        store = ResultStore(str(tmp_path / "cache"))
        first = FarmScheduler(TWO_JOBS, workers=2, store=store,
                              chaos=Injector(kill=[(target, None)]),
                              max_retries=1, poison_threshold=5,
                              run_dir=run_dir)
        first.run()                                  # 2 strikes, then lost
        assert replay(os.path.join(run_dir, "journal.jsonl")) \
            .strikes(target) == 2
        second = FarmScheduler(TWO_JOBS, workers=2, store=store,
                               resume=True,
                               chaos=Injector(kill=[(target, None)]),
                               max_retries=5, poison_threshold=3,
                               run_dir=run_dir)
        results = second.run().results
        by_id = {r["job"]["id"]: r for r in results}
        # One more strike crossed the inherited threshold: 2 + 1 = 3.
        assert by_id["scenario:ephone"]["status"] == STATUS_POISON
        assert by_id["scenario:ephone"]["tombstone"]["strikes"] == 3
        assert second.health.worker_deaths == 1


class TestDeadline:
    def test_overrunning_worker_is_deadline_killed(self, tmp_path,
                                                   monkeypatch):
        # The job heartbeats forever (busy, not hung): only the
        # wall-clock deadline can reclaim it.
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: time.sleep(30))
        manifest = Manifest(jobs=[TWO_JOBS.jobs[0]])
        scheduler = FarmScheduler(manifest, workers=2, deadline=0.2,
                                  max_retries=0, heartbeat_interval=0.02,
                                  run_dir=str(tmp_path / "run"))
        results = scheduler.run().results
        assert results[0]["status"] == STATUS_LOST
        assert "deadline" in results[0]["error"]
        assert scheduler.health.deadline_kills == 1
        assert scheduler.health.hung_workers == 0


class TestDrain:
    def test_inline_interrupt_journals_and_raises(self, tmp_path,
                                                  monkeypatch):
        calls = []

        def interrupted_job(spec_dict, budget=None):
            calls.append(spec_dict["id"])
            raise KeyboardInterrupt

        monkeypatch.setattr(worker_module, "execute_job", interrupted_job)
        run_dir = str(tmp_path / "run")
        scheduler = FarmScheduler(TWO_JOBS, workers=1, run_dir=run_dir)
        with pytest.raises(FarmInterrupted) as excinfo:
            scheduler.run()
        assert excinfo.value.in_flight == ["scenario:ephone"]
        assert calls == ["scenario:ephone"]          # drain stopped the run
        events = run_dir_events(run_dir)
        assert [e["event"] for e in events][-1] == "interrupted"
        assert scheduler.health.interrupted_jobs == 1

    def test_sigterm_drains_pool_without_leaking_forks(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: time.sleep(30))
        run_dir = str(tmp_path / "run")
        scheduler = FarmScheduler(TWO_JOBS, workers=2, run_dir=run_dir)
        previous_handler = signal.getsignal(signal.SIGTERM)
        timer = threading.Timer(0.4, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            with pytest.raises(FarmInterrupted) as excinfo:
                scheduler.run()
        finally:
            timer.cancel()
        assert sorted(excinfo.value.in_flight) == \
            ["scenario:case2", "scenario:ephone"]
        events = run_dir_events(run_dir)
        dispatched = {e["digest"]: e["pid"] for e in events
                      if e["event"] == "dispatched"}
        interrupted = [e for e in events if e["event"] == "interrupted"]
        assert len(interrupted) == 2
        assert scheduler.health.interrupted_jobs == 2
        # No leaked forks: every dispatched worker pid is gone.
        for pid in dispatched.values():
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        # The previous SIGTERM disposition was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) == previous_handler
