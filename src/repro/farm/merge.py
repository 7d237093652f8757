"""Merge per-worker artifacts into one farm-level report.

Workers return self-contained result rows (metrics snapshot, leak
records, provenance-trace lines, tombstones).  The merge is pure
aggregation — summed metrics, concatenated job-tagged trace lines,
collected tombstones — so a 4-worker run and a serial run of the same
manifest merge to identical per-app counts (the parity property the
scheduler tests pin).  Rendering reuses the PR 3 report machinery
(:func:`render_analysis_table`) for the merged analysis-work section.

The merge is a **bounded-memory streaming fold**: :class:`MergeFold`
accepts one result row at a time, accumulates the type-aware metric
merge and the outcome/tombstone bookkeeping incrementally, and spools
compact display rows to disk instead of retaining result dicts.  A
100k-job corpus run therefore merges in O(metric names) memory; the
list-based :func:`merge_results`/:func:`merge_metrics` API survives as
a thin wrapper over the same fold.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.observability.report import render_analysis_table

# Per-app sink activity surfaced in the farm table, pulled from the
# kernel's syscall tally in each job's metrics snapshot.
SINK_SYSCALLS = ("write", "send", "sendto")

# render_farm_report prints at most this many per-job rows; a
# paper-scale corpus summarises the remainder in one line.
MAX_RENDERED_ROWS = 48


def sink_counts(metrics: Dict) -> Dict[str, int]:
    return {name: int(metrics.get(f"kernel.syscall.{name}", 0))
            for name in SINK_SYSCALLS}


def compact_row(result: Dict) -> Dict:
    """The per-job display/parity row for one result dict."""
    job = result["job"]
    return {
        "id": job["id"],
        "kind": job["kind"],
        "status": result["status"],
        "cached": bool(result.get("cached")),
        "leaks": len(result.get("leaks", [])),
        "destinations": sorted({leak["destination"]
                                for leak in result.get("leaks", [])
                                if leak.get("destination")}),
        "sinks": sink_counts(result.get("metrics", {})),
        "degraded_events": result.get("degraded_events", 0),
        "elapsed_seconds": result.get("elapsed_seconds", 0.0),
    }


@dataclass
class FarmReport:
    """Everything a farm run produced, merged.

    Two shapes share this type: small runs keep their ``results`` list
    (every caller can still index into full result dicts), streaming
    runs carry only the folded aggregates plus ``rows_path`` — a JSONL
    spool of compact display rows — and leave ``results`` empty.
    """

    results: List[Dict] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    cached_jobs: int = 0
    merged_metrics: Dict = field(default_factory=dict)
    outcomes: Dict[str, int] = field(default_factory=dict)
    tombstones: List[Tuple[str, Dict]] = field(default_factory=list)
    # Scheduler fault-tolerance summary (HealthStats.summary()):
    # reclaims, retries, quarantines, mean time to reclaim.
    health: Dict = field(default_factory=dict)
    # Streaming-mode fields (results stays empty).
    job_count: int = 0
    completed_count: int = 0
    rows_path: Optional[str] = None

    @property
    def streamed(self) -> bool:
        return not self.results and self.job_count > 0

    @property
    def jobs(self) -> int:
        return len(self.results) if self.results else self.job_count

    @property
    def completed(self) -> int:
        if self.results:
            return sum(1 for row in self.results
                       if row["status"] in ("ok", "degraded"))
        return self.completed_count

    def rows(self) -> Iterable[Dict]:
        """The per-job display/parity rows.

        Materialized reports return a list; streamed reports return a
        generator over the on-disk row spool — callers iterate either
        way without holding 100k dicts.
        """
        if self.results or not self.rows_path:
            return [compact_row(result) for result in self.results]
        return self._iter_spooled_rows()

    def _iter_spooled_rows(self) -> Iterator[Dict]:
        try:
            handle = open(self.rows_path)
        except OSError:
            return
        with handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def to_dict(self) -> Dict:
        payload = {
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "jobs": self.jobs,
            "cached_jobs": self.cached_jobs,
            "outcomes": dict(self.outcomes),
            "merged_metrics": dict(self.merged_metrics),
            "tombstones": [{"job": job_id, **tombstone}
                           for job_id, tombstone in self.tombstones],
            "health": dict(self.health),
        }
        if self.streamed:
            # 100k rows do not belong inline in farm.json; point at
            # the spool instead.
            payload["rows"] = None
            payload["rows_path"] = self.rows_path
        else:
            payload["rows"] = list(self.rows())
        return payload


class _MetricsFold:
    """Incremental type-aware metric merge (one result at a time)."""

    def __init__(self) -> None:
        self.gauge_names: set = set()
        self.merged: Dict = {}

    def declare_gauges(self, names: Iterable[str]) -> None:
        self.gauge_names.update(names)

    def add(self, result: Dict) -> None:
        # A result's own gauge declarations land before its metrics, so
        # within one result (and for the uniform declarations workers
        # actually ship) the gauge rule always wins over the counter
        # default.
        self.declare_gauges(result.get("metrics_gauges", ()))
        metrics = result.get("metrics", {})
        merged = self.merged
        for name, value in metrics.items():
            if not isinstance(value, (int, float)):
                continue
            if name in self.gauge_names:
                merged[name] = max(merged.get(name, value), value)
            else:
                merged[name] = merged.get(name, 0) + value


class MergeFold:
    """Bounded-memory streaming merge: fold result rows one at a time.

    Holds only the aggregates — outcome counts, the metric fold, the
    (rare) tombstones — plus an open spool where each result's compact
    display row is appended, so memory stays O(metric names), not
    O(jobs).  ``finish()`` yields the same :class:`FarmReport` a
    materialized merge would, minus the retained result dicts.
    """

    def __init__(self, rows_path: Optional[str] = None) -> None:
        self.rows_path = rows_path
        self.jobs = 0
        self.cached_jobs_seen = 0
        self.completed = 0
        self.outcomes: Dict[str, int] = {}
        self.tombstones: List[Tuple[str, Dict]] = []
        self._metrics = _MetricsFold()
        self._rows_handle = None
        if rows_path is not None:
            parent = os.path.dirname(rows_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._rows_handle = open(rows_path, "w")

    def add(self, result: Dict) -> None:
        self.jobs += 1
        status = result.get("status", "lost")
        self.outcomes[status] = self.outcomes.get(status, 0) + 1
        if status in ("ok", "degraded"):
            self.completed += 1
        if result.get("cached"):
            self.cached_jobs_seen += 1
        if result.get("tombstone"):
            self.tombstones.append((result["job"]["id"],
                                    result["tombstone"]))
        self._metrics.add(result)
        if self._rows_handle is not None:
            self._rows_handle.write(json.dumps(compact_row(result)) + "\n")

    def finish(self, workers: int = 1, wall_seconds: float = 0.0,
               cached_jobs: Optional[int] = None,
               health: Optional[Dict] = None) -> FarmReport:
        if self._rows_handle is not None:
            self._rows_handle.close()
            self._rows_handle = None
        return FarmReport(
            results=[], workers=workers, wall_seconds=wall_seconds,
            cached_jobs=(self.cached_jobs_seen if cached_jobs is None
                         else cached_jobs),
            merged_metrics=self._metrics.merged,
            outcomes=self.outcomes, tombstones=self.tombstones,
            health=dict(health or {}), job_count=self.jobs,
            completed_count=self.completed, rows_path=self.rows_path)


def merge_metrics(results: List[Dict]) -> Dict:
    """Type-aware merge of the per-job metric snapshots.

    Metric semantics differ, so one rule per type:

    * **counters** (the default) sum — per-app event tallies add up
      fleet-wide;
    * **gauges** take the max — summing "cached blocks right now"
      across eight workers invents a cache none of them has.  Each
      worker ships its registry's ``gauge_keys()`` in
      ``metrics_gauges``, so the merge needs no name heuristics.

    With the whole list in hand, gauge declarations are collected in a
    pre-pass so a gauge name is never mistaken for a counter whatever
    the result order; the streaming fold gets the same guarantee from
    workers declaring their gauges on every result.
    """
    fold = _MetricsFold()
    for result in results:
        fold.declare_gauges(result.get("metrics_gauges", ()))
    for result in results:
        fold.add(result)
    return fold.merged


def merge_results(results: List[Dict], workers: int = 1,
                  wall_seconds: float = 0.0,
                  cached_jobs: int = 0,
                  health: Optional[Dict] = None) -> FarmReport:
    """Materialized merge: the list-shaped wrapper over the same fold."""
    fold = MergeFold()
    for result in results:
        fold.add(result)
    report = fold.finish(workers=workers, wall_seconds=wall_seconds,
                         cached_jobs=cached_jobs, health=health)
    report.merged_metrics = merge_metrics(results)  # order-proof gauges
    report.results = results
    report.job_count = 0
    report.completed_count = 0
    return report


def render_farm_report(report: FarmReport) -> str:
    lines = ["== farm ==",
             f"  jobs:    {report.jobs} "
             f"({report.cached_jobs} from cache)",
             f"  workers: {report.workers}",
             f"  wall:    {report.wall_seconds:.2f}s",
             f"  outcomes: " + ", ".join(
                 f"{name}={count}"
                 for name, count in sorted(report.outcomes.items()))]
    if report.health and report.health.get("workers_reclaimed"):
        lines.append(
            f"  health:  reclaimed={report.health['workers_reclaimed']} "
            f"(died={report.health.get('worker_deaths', 0)} "
            f"hung={report.health.get('hung_workers', 0)} "
            f"deadline={report.health.get('deadline_kills', 0)}) "
            f"retries={report.health.get('retries', 0)} "
            f"splits={report.health.get('splits', 0)} "
            f"poison={report.health.get('poison_quarantined', 0)} "
            f"mttr={report.health.get('mean_time_to_reclaim_seconds', 0):.3f}s")
    lines += ["",
             f"  {'job':<30} {'status':<9} {'leaks':>5} "
             f"{'write':>6} {'send':>5} {'sendto':>7} "
             f"{'degraded':>9}  destinations"]
    rendered = 0
    for row in report.rows():
        if rendered >= MAX_RENDERED_ROWS:
            lines.append(f"  ... ({report.jobs - rendered} more jobs; "
                         f"see rows spool)")
            break
        sinks = row["sinks"]
        cached = "*" if row["cached"] else ""
        destinations = ", ".join(row["destinations"]) or "-"
        lines.append(
            f"  {row['id']:<30} {row['status'] + cached:<9} "
            f"{row['leaks']:>5} {sinks['write']:>6} {sinks['send']:>5} "
            f"{sinks['sendto']:>7} {row['degraded_events']:>9}  "
            f"{destinations}")
        rendered += 1
    lines.append("")
    if report.tombstones:
        lines.append("== tombstones ==")
        for job_id, tombstone in report.tombstones:
            lines.append(f"  {job_id}: {tombstone.get('error_type')}: "
                         f"{tombstone.get('error_message')}")
        lines.append("")
    lines.append(render_analysis_table(report.merged_metrics))
    return "\n".join(lines) + "\n"


def write_farm_artifacts(report: FarmReport, directory: str) -> List[str]:
    """Persist the merged farm artifacts; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    jobs_dir = os.path.join(directory, "jobs")
    merged_dir = os.path.join(directory, "merged")
    os.makedirs(jobs_dir, exist_ok=True)
    os.makedirs(merged_dir, exist_ok=True)
    written: List[str] = []

    def emit(path: str, payload, jsonl: Optional[List[str]] = None) -> None:
        with open(path, "w") as handle:
            if jsonl is not None:
                handle.write("\n".join(jsonl) + ("\n" if jsonl else ""))
            else:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        written.append(path)

    for result in report.results:
        job_id = result["job"]["id"].replace(":", "_").replace("/", "_")
        emit(os.path.join(jobs_dir, f"{job_id}.json"), result)

    emit(os.path.join(merged_dir, "metrics.json"), report.merged_metrics)
    trace_lines: List[str] = []
    for result in report.results:
        job_id = result["job"]["id"]
        for line in result.get("trace", []) or []:
            edge = json.loads(line)
            edge["job"] = job_id
            trace_lines.append(json.dumps(edge))
    if trace_lines:
        emit(os.path.join(merged_dir, "trace.jsonl"), None,
             jsonl=trace_lines)
    emit(os.path.join(merged_dir, "tombstones.json"),
         [{"job": job_id, **tombstone}
          for job_id, tombstone in report.tombstones])
    emit(os.path.join(directory, "farm.json"), report.to_dict())
    with open(os.path.join(directory, "report.txt"), "w") as handle:
        handle.write(render_farm_report(report))
    written.append(os.path.join(directory, "report.txt"))
    return written
