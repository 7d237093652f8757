"""`repro farm --watch`: a live TTY console over a running farm.

The console is a *read-only observer*: it tails the artifacts the farm
already writes — per-job heartbeat files (``run_dir/hb/``), per-process
span spools (``trace_dir/*.jsonl``), and the run journal — and renders
one frame per refresh.  It never talks to the scheduler, so attaching or
killing it cannot perturb a run, and it works equally against a live
farm or a post-mortem run directory.

Per worker it shows what the heartbeat body self-reports (current job
digest, instruction count, beat age) plus the liveness verdict the
scheduler itself would reach — ``busy`` (stamping), ``hung`` (alive but
silent past the miss threshold), ``dead`` (pid gone) — and, when spools
are available, the spans currently in flight and the cache hit rates
from the worker's latest counter samples.

:meth:`FarmConsole.render_frame` is pure (state in, string out) so tests
drive it without a TTY; :meth:`start`/:meth:`stop` wrap it in a daemon
thread doing ANSI home-and-redraw for the CLI.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, TextIO

from repro.farm.health import (
    HEARTBEAT_INTERVAL,
    MISS_THRESHOLD,
    parse_heartbeat,
)
from repro.farm.journal import journal_counts
from repro.observability.flight import read_jsonl

# How much of each spool tail to parse per frame; spans/counters older
# than this window have scrolled off the live view (the full file is
# still merged post-run).
TAIL_BYTES = 65536

_CACHE_RATE_PAIRS = (
    ("tb", "tb.hits", "tb.misses"),
    ("tbc", "tbc.hits", "tbc.misses"),
    ("jni", "jni.trampoline.hits", "jni.trampoline.misses"),
)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by other user
        return True
    return True


def spool_live_state(records: List[Dict]) -> Dict:
    """Open spans + latest counter values from one spool tail."""
    open_spans: Dict[int, Dict] = {}
    counters: Dict[str, float] = {}
    for record in records:
        ph = record.get("ph")
        if ph == "B":
            open_spans[record.get("span", 0)] = record
        elif ph == "E":
            open_spans.pop(record.get("span", 0), None)
        elif ph == "C":
            counters[record.get("name", "?")] = record.get("value", 0)
    return {"open_spans": list(open_spans.values()), "counters": counters}


def cache_hit_rates(counters: Dict[str, float]) -> Dict[str, float]:
    rates: Dict[str, float] = {}
    for label, hit_key, miss_key in _CACHE_RATE_PAIRS:
        hits, misses = counters.get(hit_key), counters.get(miss_key)
        if hits is None and misses is None:
            continue
        total = (hits or 0) + (misses or 0)
        if total:
            rates[label] = (hits or 0) / total
    return rates


class FarmConsole:
    """Tail heartbeats + spools + journal into a per-worker status frame."""

    def __init__(self, run_dir: str, trace_dir: Optional[str] = None,
                 interval: float = 0.5,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 miss_threshold: int = MISS_THRESHOLD,
                 out: Optional[TextIO] = None) -> None:
        self.run_dir = run_dir
        self.trace_dir = trace_dir
        self.interval = interval
        self.hung_after = heartbeat_interval * miss_threshold
        self.out = out
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.frames_rendered = 0

    # -- data gathering ---------------------------------------------------

    def worker_rows(self, now: Optional[float] = None) -> List[Dict]:
        """One row per heartbeat file: liveness verdict + vitals."""
        now = time.time() if now is None else now
        hb_dir = os.path.join(self.run_dir, "hb")
        rows: List[Dict] = []
        try:
            names = sorted(os.listdir(hb_dir))
        except OSError:
            return rows
        for name in names:
            path = os.path.join(hb_dir, name)
            beat = parse_heartbeat(path)
            if beat is None:
                continue
            try:
                age = max(0.0, now - os.stat(path).st_mtime)
            except OSError:
                continue
            if not _pid_alive(beat["pid"]):
                state = "dead"
            elif age > self.hung_after:
                state = "hung"
            else:
                state = "busy"
            rows.append({
                "pid": beat["pid"],
                "state": state,
                "digest": beat["digest"] or name[:12],
                "instructions": beat["instructions"],
                "age": age,
            })
        return rows

    def spool_states(self) -> Dict[int, Dict]:
        """Live span/counter state per process, keyed by pid."""
        states: Dict[int, Dict] = {}
        if self.trace_dir is None:
            return states
        try:
            names = sorted(os.listdir(self.trace_dir))
        except OSError:
            return states
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            records = list(read_jsonl(os.path.join(self.trace_dir, name),
                                      "ph", tail_bytes=TAIL_BYTES))
            if not records:
                continue
            pid = records[-1].get("pid", 0)
            state = spool_live_state(records)
            previous = states.get(pid)
            if previous is not None:
                # Later attempts' spools supersede, but open spans from
                # any spool of this pid stay visible.
                previous["open_spans"].extend(state["open_spans"])
                previous["counters"].update(state["counters"])
            else:
                states[pid] = state
        return states

    # -- rendering --------------------------------------------------------

    def render_frame(self, now: Optional[float] = None) -> str:
        now = time.time() if now is None else now
        workers = self.worker_rows(now)
        spools = self.spool_states()
        counts = journal_counts(os.path.join(self.run_dir, "journal.jsonl"))
        lines = ["== farm watch =="]
        progress = " ".join(f"{name}={counts[name]}"
                            for name in ("dispatched", "done", "cached",
                                         "retry", "poison", "lost")
                            if counts.get(name))
        lines.append(f"  journal: {progress or '(no events yet)'}")
        if not workers:
            lines.append("  (no worker heartbeats)")
        for row in workers:
            spool = spools.get(row["pid"], {})
            open_names = ",".join(
                record.get("name", "?")
                for record in spool.get("open_spans", ())) or "-"
            rates = cache_hit_rates(spool.get("counters", {}))
            rate_text = " ".join(f"{label}={rate:.0%}"
                                 for label, rate in sorted(rates.items()))
            lines.append(
                f"  [{row['pid']:>7}] {row['state']:<4} "
                f"job={row['digest'][:12]:<12} "
                f"insns={row['instructions']:<10} "
                f"beat={row['age']*1000:4.0f}ms "
                f"spans={open_names}"
                + (f" cache[{rate_text}]" if rate_text else ""))
        self.frames_rendered += 1
        return "\n".join(lines)

    # -- live loop --------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="farm-watch", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    def _loop(self) -> None:
        import sys
        out = self.out if self.out is not None else sys.stderr
        while not self._stop.wait(self.interval):
            try:
                frame = self.render_frame()
            except Exception:  # pragma: no cover - observer must not crash
                continue
            # Home + clear-to-end redraw; plain appends on non-TTYs.
            if getattr(out, "isatty", lambda: False)():
                out.write("\x1b[H\x1b[2J" + frame + "\n")
            else:
                out.write(frame + "\n")
            out.flush()
