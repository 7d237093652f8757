"""The chaos harness: prove the farm's recovery invariants, on purpose.

Fault tolerance that has never been exercised is a rumor.  This module
injects the three failure modes the fleet actually meets — worker death,
worker hang, torn result files — plus the one the scheduler itself
meets (SIGKILL mid-run), then checks that recovery holds the invariants
the rest of the system depends on.

Determinism: every injection decision is a pure function of
``(seed, kind, batch key, attempt)`` — a SHA-256 keyed coin, no RNG
state, no wall clock — so the same seed over the same manifest injects
the same faults in every process, on every host, including across the
scheduler-kill/resume boundary.  One job per manifest is elected the
**poison target**: every worker whose batch holds it is killed on
*every* attempt, which is exactly the behaviour that must end in
bisection down to the poison job alone and then quarantine, never in a
retry loop and never in more than one classified outcome.

:func:`run_chaos_harness` is the end-to-end proof (`repro farm --chaos
SEED`):

1. run the manifest serially, clean — the parity baseline (a list
   manifest or a sharded one: both go through the same scheduler);
2. run it under chaos in a **subprocess** scheduler and SIGKILL that
   scheduler mid-run (then reap the worker orphans the SIGKILL leaked,
   using the pids the journal recorded);
3. tear a committed result file in half — the power-loss case;
4. resume in-process with the same chaos seed, to completion;
5. assert the invariants: every job classified, zero lost, zero
   duplicates, store verifies, journal legal, poison quarantined
   exactly once, and every non-poison row identical to the clean
   serial baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.farm.journal import iter_events, replay, verify_journal
from repro.farm.manifest import ShardedManifest
from repro.farm.merge import FarmReport, sink_counts
from repro.farm.store import ResultStore, scan_rows

DEFAULT_KILL_PCT = 25
DEFAULT_STOP_PCT = 12
DEFAULT_TRUNCATE_PCT = 12


def _coin(seed: int, kind: str, digest: str, attempt: int) -> int:
    """A deterministic integer in [0, 100) for one injection decision."""
    key = f"{seed}:{kind}:{digest}:{attempt}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") % 100


def pick_poison_digest(manifest, seed: int) -> str:
    """Elect one job as the poison target, deterministically per seed."""
    digests = [spec.digest() for spec in manifest]
    if not digests:
        raise ValueError("empty manifest has no poison candidate")
    key = hashlib.sha256(f"{seed}:poison".encode()).digest()
    return digests[int.from_bytes(key[:8], "big") % len(digests)]


class ChaosMonkey:
    """Deterministic in-run fault injector, driven by the scheduler.

    The scheduler calls :meth:`on_spawn` right after forking a worker
    (the monkey may SIGKILL or SIGSTOP it) and :meth:`on_commit` right
    before reading a finished worker's committed result (the monkey may
    truncate the file, simulating a torn write the fsync discipline
    could not have prevented — e.g. media damage).  Batches without the
    poison job are only molested on their first attempt: a retried job
    is left alone, and a split batch's halves draw fresh coins, each
    half the size.  A batch holding the poison job is killed on every
    attempt and can only end bisected, with the poison job quarantined
    alone.
    """

    def __init__(self, seed: int, poison_digest: Optional[str] = None,
                 kill_pct: int = DEFAULT_KILL_PCT,
                 stop_pct: int = DEFAULT_STOP_PCT,
                 truncate_pct: int = DEFAULT_TRUNCATE_PCT) -> None:
        self.seed = seed
        self.poison_digest = poison_digest
        self.kill_pct = kill_pct
        self.stop_pct = stop_pct
        self.truncate_pct = truncate_pct
        self.kills = 0
        self.stops = 0
        self.truncations = 0

    @classmethod
    def for_manifest(cls, manifest, seed: int,
                     **options) -> "ChaosMonkey":
        return cls(seed, poison_digest=pick_poison_digest(manifest, seed),
                   **options)

    # -- decisions (pure) -----------------------------------------------------

    # ``digest`` is the batch key; ``jobs`` its member job digests
    # (a one-job batch's key is its job's digest).

    def _poisoned(self, digest: str, jobs: Tuple[str, ...]) -> bool:
        return self.poison_digest in (jobs or (digest,))

    def wants_kill(self, digest: str, attempt: int,
                   jobs: Tuple[str, ...] = ()) -> bool:
        if self._poisoned(digest, jobs):
            return True
        return attempt == 1 and \
            _coin(self.seed, "kill", digest, attempt) < self.kill_pct

    def wants_stop(self, digest: str, attempt: int,
                   jobs: Tuple[str, ...] = ()) -> bool:
        if self.wants_kill(digest, attempt, jobs):
            return False
        return attempt == 1 and \
            _coin(self.seed, "stop", digest, attempt) < self.stop_pct

    def wants_truncate(self, digest: str, attempt: int,
                       jobs: Tuple[str, ...] = ()) -> bool:
        return attempt == 1 and not self._poisoned(digest, jobs) and \
            _coin(self.seed, "truncate", digest, attempt) < self.truncate_pct

    # -- injections (called by the scheduler) ---------------------------------

    def on_spawn(self, handle) -> Optional[str]:
        if self.wants_kill(handle.digest, handle.attempt, handle.jobs):
            self._signal(handle.pid, signal.SIGKILL)
            self.kills += 1
            return "killed"
        if self.wants_stop(handle.digest, handle.attempt, handle.jobs):
            self._signal(handle.pid, signal.SIGSTOP)
            self.stops += 1
            return "stopped"
        return None

    def on_commit(self, handle, path: str) -> bool:
        if not self.wants_truncate(handle.digest, handle.attempt,
                                   handle.jobs):
            return False
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(size // 2)
        except OSError:
            return False
        self.truncations += 1
        return True

    @staticmethod
    def _signal(pid: int, signum: int) -> None:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass

    def summary(self) -> Dict:
        return {"seed": self.seed, "poison_digest": self.poison_digest,
                "kills": self.kills, "stops": self.stops,
                "truncations": self.truncations}


# -- the harness --------------------------------------------------------------

def parity_fields(result: Dict) -> Dict:
    """The deterministic face of a result row (what parity compares)."""
    return {
        "id": result["job"]["id"],
        "status": result["status"],
        "leaks": len(result.get("leaks", [])),
        "destinations": sorted({leak["destination"]
                                for leak in result.get("leaks", [])
                                if leak.get("destination")}),
        "sinks": sink_counts(result.get("metrics", {})),
        "degraded_events": result.get("degraded_events", 0),
        "detected": result.get("detected"),
    }


@dataclass
class ChaosReport:
    """Everything one harness run proved (or failed to)."""

    seed: int
    poison_digest: str
    invariants: Dict[str, bool] = field(default_factory=dict)
    stats: Dict = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    final_report: Optional[FarmReport] = None

    @property
    def ok(self) -> bool:
        return not self.failures and all(self.invariants.values())

    def check(self, name: str, holds: bool, detail: str = "") -> None:
        self.invariants[name] = bool(holds)
        if not holds:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "poison_digest": self.poison_digest,
                "ok": self.ok, "invariants": dict(self.invariants),
                "failures": list(self.failures), "stats": dict(self.stats)}


def _repro_env() -> Dict[str, str]:
    """Environment for a subprocess scheduler: make ``repro`` importable."""
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return env


def _journal_counts(path: str) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for event in iter_events(path):
        counts[event["event"]] = counts.get(event["event"], 0) + 1
    return counts


def _kill_leaked_workers(journal_path: str) -> int:
    """Reap worker orphans after the scheduler was SIGKILLed.

    A SIGKILLed scheduler cannot drain: its forked workers are
    reparented to init, and a SIGSTOP'd one would sleep forever.  The
    journal's ``dispatched`` pids identify them.
    """
    state = replay(journal_path)
    pids = set()
    for event in iter_events(journal_path):
        if event["event"] == "dispatched" and \
                event.get("digest") in state.in_flight_digests():
            pid = event.get("pid")
            if isinstance(pid, int):
                pids.add(pid)
    killed = 0
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            killed += 1
        except (ProcessLookupError, PermissionError):
            continue
    return killed


def run_chaos_harness(manifest, seed: int, out_dir: str,
                      workers: int = 2, budget: Optional[int] = None,
                      deadline: float = 10.0, max_retries: int = 3,
                      kill_after_done: int = 1,
                      subprocess_timeout: float = 120.0) -> ChaosReport:
    """Run the full kill/tear/resume drill; returns the proof.

    ``manifest`` is a list :class:`Manifest` or a
    :class:`ShardedManifest`; the invariants are the same for both.
    """
    from repro.farm.scheduler import (
        DEFAULT_POISON_THRESHOLD, FarmScheduler, STATUS_POISON)
    from repro.farm.worker import DEFAULT_BUDGET

    budget = DEFAULT_BUDGET if budget is None else budget
    poison = pick_poison_digest(manifest, seed)
    report = ChaosReport(seed=seed, poison_digest=poison)
    os.makedirs(out_dir, exist_ok=True)

    # 1. Clean serial baseline (no store, no chaos): the ground truth.
    baseline_scheduler = FarmScheduler(
        manifest, workers=1, budget=budget,
        run_dir=os.path.join(out_dir, "baseline"))
    baseline_scheduler.run()
    baseline = {row["digest"]: parity_fields(row)
                for row in baseline_scheduler.iter_results()}

    if isinstance(manifest, ShardedManifest):
        manifest_path = manifest.directory
    else:
        manifest_path = os.path.join(out_dir, "manifest.json")
        manifest.save(manifest_path)
    run_dir = os.path.join(out_dir, "runstate")
    journal_path = os.path.join(run_dir, "journal.jsonl")
    store = ResultStore(os.path.join(out_dir, "cache"))

    # 2. Chaos run in a subprocess scheduler, SIGKILLed mid-run.
    command = [sys.executable, "-m", "repro", "farm", manifest_path,
               "-j", str(workers), "--out", out_dir,
               "--chaos-inject", str(seed), "--deadline", str(deadline),
               "--max-retries", str(max_retries), "--budget", str(budget)]
    start = time.monotonic()
    process = subprocess.Popen(command, env=_repro_env(),
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    scheduler_killed = False
    while process.poll() is None:
        if time.monotonic() - start > subprocess_timeout:
            process.kill()
            process.wait()
            report.failures.append("chaos subprocess timed out")
            break
        counts = _journal_counts(journal_path)
        if counts.get("done", 0) >= kill_after_done:
            os.kill(process.pid, signal.SIGKILL)
            process.wait()
            scheduler_killed = True
            break
        time.sleep(0.002)
    leaked = _kill_leaked_workers(journal_path) if scheduler_killed else 0

    # 3. Tear a committed result in half (the post-fsync damage case).
    torn_digest = None
    for digest in store.digests():
        if digest != poison:
            path = store.path(digest)
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(max(1, size // 2))
            torn_digest = digest
            break

    # 4. Resume in-process, same chaos seed, run to completion.
    chaos = ChaosMonkey(seed, poison_digest=poison)
    resume_scheduler = FarmScheduler(
        manifest, workers=workers, store=store, resume=True, budget=budget,
        deadline=deadline, max_retries=max_retries, run_dir=run_dir,
        chaos=chaos)
    final = resume_scheduler.run()
    report.final_report = final
    results = list(resume_scheduler.iter_results())

    # 5. The invariants.
    digests = [row["digest"] for row in results]
    rows_by_digest = {row["digest"]: row for row in results}
    report.check("all_jobs_classified",
                 len(results) == len(manifest) and
                 all(row is not None for row in results),
                 f"{len(results)}/{len(manifest)} rows")
    report.check("no_duplicate_records", len(set(digests)) == len(digests),
                 "duplicate digests in merged results")
    report.check("no_lost_jobs", final.outcomes.get("lost", 0) == 0,
                 f"lost={final.outcomes.get('lost', 0)}")
    report.check("no_interrupted_jobs",
                 final.outcomes.get("interrupted", 0) == 0,
                 f"interrupted={final.outcomes.get('interrupted', 0)}")
    poison_rows = [row for row in results
                   if row["status"] == STATUS_POISON]
    report.check("poison_classified_exactly_once",
                 len(poison_rows) == 1 and
                 poison_rows[0]["digest"] == poison,
                 f"{len(poison_rows)} poison rows")
    journal_violations = verify_journal(journal_path)
    report.check("journal_legal", not journal_violations,
                 "; ".join(journal_violations[:4]))
    good, bad = store.verify()
    report.check("store_verifies", not bad, f"bad entries: {bad[:4]}")
    stored = sum(sum(scan_rows(store.path(key), key).values())
                 for key in good)
    report.check("store_complete", stored == len(manifest),
                 f"{stored}/{len(manifest)} jobs cached")
    mismatches = [digest for digest, fields in baseline.items()
                  if digest != poison and
                  (digest not in rows_by_digest or
                   parity_fields(rows_by_digest[digest]) != fields)]
    report.check("parity_with_serial_baseline", not mismatches,
                 f"{len(mismatches)} rows differ from clean serial run")
    report.check("scheduler_was_killed", scheduler_killed,
                 "chaos subprocess finished before the SIGKILL landed")
    report.check("torn_file_injected", torn_digest is not None,
                 "no committed result available to tear")

    report.stats = {
        "chaos": chaos.summary(),
        "journal_events": _journal_counts(journal_path),
        "health": resume_scheduler.health.summary(),
        "leaked_workers_reaped": leaked,
        "torn_digest": torn_digest,
        "resumed_from_cache": resume_scheduler.cached_jobs,
        "outcomes": dict(final.outcomes),
        "poison_threshold": DEFAULT_POISON_THRESHOLD,
    }
    with open(os.path.join(out_dir, "chaos.json"), "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def render_chaos_report(report: ChaosReport) -> str:
    lines = ["== chaos ==",
             f"  seed:   {report.seed}",
             f"  poison: {report.poison_digest[:12]}…",
             f"  verdict: {'RECOVERED' if report.ok else 'BROKEN'}"]
    for name, holds in sorted(report.invariants.items()):
        lines.append(f"  [{'ok' if holds else 'FAIL'}] {name}")
    stats = report.stats
    if stats:
        chaos = stats.get("chaos", {})
        health = stats.get("health", {})
        lines.append(
            f"  injected: kills={chaos.get('kills', 0)} "
            f"stops={chaos.get('stops', 0)} "
            f"truncations={chaos.get('truncations', 0)} "
            f"+1 scheduler SIGKILL +1 torn store file")
        lines.append(
            f"  recovered: retries={health.get('retries', 0)} "
            f"splits={health.get('splits', 0)} "
            f"reclaimed={health.get('workers_reclaimed', 0)} "
            f"quarantined={health.get('poison_quarantined', 0)} "
            f"mttr={health.get('mean_time_to_reclaim_seconds', 0):.3f}s")
    if report.failures:
        for failure in report.failures:
            lines.append(f"  !! {failure}")
    return "\n".join(lines) + "\n"
