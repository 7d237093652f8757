"""Reading JSONL spools, and the fleet timeline aggregator.

Every telemetry file the farm appends to is JSONL written a line at a
time: the per-process span spools
(:class:`~repro.observability.spans.SpanTracer`) and the scheduler's
run journal (``farm/journal.py``).  :func:`read_jsonl` is their one
reader.  It tolerates exactly the damage a SIGKILL causes -- a torn or
garbled final line is skipped, never raised -- and can read just a
file's tail (the live farm console).

The scheduler writes no spans of its own: its timeline *is* its
journal.  :func:`journal_track` turns a journal into scheduler records
-- each ``dispatched`` -> ``done``/``strike``/``interrupted`` pair of
one attempt becomes a ``job`` span, every other transition an instant
named after its journal event -- and a traced scheduler writes them as
``scheduler.jsonl`` beside the workers' spools when its run ends.

The aggregator stitches every spool under a trace directory into one
fleet timeline:

* :func:`build_timeline` pairs ``B``/``E`` records into finished spans
  and renders unmatched begins as **open spans** (``"open": True``) whose
  duration runs to the last timestamp that process ever wrote — the
  honest answer for a worker that died mid-span;
* :func:`to_chrome_trace` exports Chrome trace-event JSON
  (Perfetto-loadable): ``X`` complete events, ``i`` instants, ``C``
  counters, plus ``M`` process-name metadata so each farm process gets a
  labelled track;
* :func:`render_timeline` prints a text timeline for terminals and CI
  logs;
* :func:`validate_chrome_trace` is the no-dependency schema check CI
  runs against the exported file.

Timestamps are wall-clock µs from :func:`repro.observability.spans.now_us`
(the journal stamps the same clock) and are rebased so the earliest
record across the fleet sits at t=0.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

SPOOL_SUFFIX = ".jsonl"
SCHEDULER_TRACK = "scheduler" + SPOOL_SUFFIX

# Chrome trace-event phases this exporter produces / the validator admits.
CHROME_PHASES = ("X", "i", "C", "M")

# Journal events that close a dispatched attempt's ``job`` span.
_SPAN_ENDS = ("done", "strike", "interrupted")


def read_jsonl(path: str, field: str,
               tail_bytes: Optional[int] = None) -> Iterator[Dict]:
    """Yield the JSON objects holding ``field`` from a JSONL file.

    Anything else -- the torn line a SIGKILL leaves, an empty line,
    stray text -- is skipped silently.  A missing file yields nothing.
    With ``tail_bytes`` only the file's last ``tail_bytes`` are read and
    the (partial) first line of that window is dropped.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        return
    with handle:
        if tail_bytes is not None:
            size = handle.seek(0, os.SEEK_END)
            if size > tail_bytes:
                handle.seek(size - tail_bytes - 1)
                handle.readline()
            else:
                handle.seek(0)
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and field in record:
                yield record


def journal_track(path: str) -> List[Dict]:
    """A run journal as the scheduler's span records.

    Each run segment (from one ``run_start`` to the next) is drawn on the
    pid of the scheduler that wrote it.  A dispatched attempt that never
    resolved in its segment (its scheduler was SIGKILLed) stays an open
    ``B`` record.  Events written without a timestamp are skipped.
    """
    records: List[Dict] = []
    pid = 0
    pending: Dict[Tuple[str, int], Dict] = {}
    span_ids = 0

    def close_segment() -> None:
        records.extend(pending.values())
        pending.clear()

    for event in read_jsonl(path, "event"):
        ts = event.get("ts")
        if ts is None:
            continue
        fields = {key: value for key, value in event.items()
                  if key not in ("event", "ts", "digest")}
        kind, digest = event["event"], event.get("digest", "")
        if kind == "run_start":
            close_segment()
            pid = event.get("pid", 0)
        key = (digest, event.get("attempt", 0))
        if kind == "dispatched":
            span_ids += 1
            pending[key] = {"ph": "B", "ts": ts, "pid": pid,
                            "span": span_ids, "name": "job",
                            "cat": "scheduler", "trace": digest[:12],
                            "args": fields}
            continue
        begin = pending.pop(key, None) if kind in _SPAN_ENDS else None
        if begin is not None:
            fields.setdefault("status", kind)
            begin.update(ph="X", dur=max(0.0, ts - begin["ts"]))
            del begin["span"]
            begin["args"].update(fields)
            records.append(begin)
        else:
            records.append({"ph": "i", "ts": ts, "pid": pid, "name": kind,
                            "cat": "scheduler", "trace": digest[:12],
                            "args": fields})
    close_segment()
    records.sort(key=lambda record: record["ts"])
    return records


def write_scheduler_track(journal_path: str, trace_dir: str) -> str:
    """Write :func:`journal_track` as ``trace_dir/scheduler.jsonl``
    (replacing an earlier segment's), returning its path."""
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, SCHEDULER_TRACK)
    with open(path, "w", encoding="utf-8") as handle:
        for record in journal_track(journal_path):
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    return path


def collect_spools(trace_dir: str) -> List[Dict]:
    """Read every ``*.jsonl`` spool under ``trace_dir``, merged and
    time-sorted.  Missing directory -> empty list."""
    records: List[Dict] = []
    try:
        names = sorted(os.listdir(trace_dir))
    except OSError:
        return records
    for name in names:
        if not name.endswith(SPOOL_SUFFIX):
            continue
        records.extend(read_jsonl(os.path.join(trace_dir, name), "ph"))
    records.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0)))
    return records


def build_timeline(records: Iterable[Dict]) -> Dict:
    """Pair begin/end records into spans; surface instants and counters.

    Returns ``{"spans": [...], "events": [...], "counters": [...],
    "open_spans": int, "base_ts": float}``.  Span dicts carry ``name``,
    ``cat``, ``trace``, ``pid``, ``ts`` (µs, rebased), ``dur`` (µs),
    ``args``, and ``"open": True`` when the end record never arrived —
    its duration then runs to the last timestamp its process wrote, so
    a killed worker's final act is visible rather than invented.
    """
    records = list(records)
    base_ts = min((r["ts"] for r in records), default=0.0)
    last_ts_by_pid: Dict[int, float] = {}
    for record in records:
        pid = record.get("pid", 0)
        ts = record["ts"]
        if ts > last_ts_by_pid.get(pid, 0.0):
            last_ts_by_pid[pid] = ts

    spans: List[Dict] = []
    events: List[Dict] = []
    counters: List[Dict] = []
    # Begun-but-not-ended spans keyed per process: span ids are only
    # unique within the tracer (= process) that minted them.
    pending: Dict[Tuple[int, int], Dict] = {}

    for record in records:
        ph = record["ph"]
        pid = record.get("pid", 0)
        if ph == "B":
            span = {
                "name": record.get("name", "?"),
                "cat": record.get("cat", "worker"),
                "trace": record.get("trace", ""),
                "pid": pid,
                "ts": record["ts"] - base_ts,
                "args": dict(record.get("args", ())),
            }
            if "parent" in record:
                span["parent"] = record["parent"]
            pending[(pid, record.get("span", 0))] = span
            spans.append(span)
        elif ph == "E":
            span = pending.pop((pid, record.get("span", 0)), None)
            if span is None:
                continue  # end without a begin: its spool head rolled off
            span["dur"] = max(0.0, (record["ts"] - base_ts) - span["ts"])
            if record.get("args"):
                span["args"].update(record["args"])
        elif ph == "X":
            spans.append({
                "name": record.get("name", "?"),
                "cat": record.get("cat", "engine"),
                "trace": record.get("trace", ""),
                "pid": pid,
                "ts": record["ts"] - base_ts,
                "dur": record.get("dur", 0.0),
                "args": dict(record.get("args", ())),
            })
        elif ph == "i":
            events.append({
                "name": record.get("name", "?"),
                "cat": record.get("cat", "worker"),
                "trace": record.get("trace", ""),
                "pid": pid,
                "ts": record["ts"] - base_ts,
                "args": dict(record.get("args", ())),
            })
        elif ph == "C":
            counters.append({
                "name": record.get("name", "?"),
                "cat": record.get("cat", "worker"),
                "trace": record.get("trace", ""),
                "pid": pid,
                "ts": record["ts"] - base_ts,
                "value": record.get("value", 0),
            })

    open_spans = 0
    for (pid, _), span in pending.items():
        span["open"] = True
        tail = last_ts_by_pid.get(pid, base_ts) - base_ts
        span["dur"] = max(0.0, tail - span["ts"])
        open_spans += 1

    spans.sort(key=lambda s: (s["ts"], s["pid"]))
    return {
        "spans": spans,
        "events": events,
        "counters": counters,
        "open_spans": open_spans,
        "base_ts": base_ts,
    }


def _process_label(pid: int, spans: Iterable[Dict]) -> str:
    cats = {s["cat"] for s in spans if s["pid"] == pid}
    if "scheduler" in cats:
        return f"scheduler [{pid}]"
    if cats & {"worker", "engine"}:
        return f"worker [{pid}]"
    return f"process [{pid}]"


def to_chrome_trace(timeline: Dict) -> Dict:
    """Render a :func:`build_timeline` result as Chrome trace-event JSON.

    Open spans are exported as complete (``X``) events flagged with
    ``args.open`` so they stay visible in Perfetto rather than
    vanishing as unbalanced begins.
    """
    trace_events: List[Dict] = []
    pids = sorted({s["pid"] for s in timeline["spans"]}
                  | {e["pid"] for e in timeline["events"]}
                  | {c["pid"] for c in timeline["counters"]})
    for pid in pids:
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": _process_label(pid, timeline["spans"])},
        })
    for span in timeline["spans"]:
        args = dict(span["args"])
        if span.get("trace"):
            args["trace"] = span["trace"]
        if span.get("open"):
            args["open"] = True
        trace_events.append({
            "ph": "X", "name": span["name"], "cat": span["cat"],
            "pid": span["pid"], "tid": 0,
            "ts": span["ts"], "dur": span.get("dur", 0.0),
            "args": args,
        })
    for event in timeline["events"]:
        args = dict(event["args"])
        if event.get("trace"):
            args["trace"] = event["trace"]
        trace_events.append({
            "ph": "i", "name": event["name"], "cat": event["cat"],
            "pid": event["pid"], "tid": 0, "ts": event["ts"],
            "s": "p", "args": args,
        })
    for counter in timeline["counters"]:
        trace_events.append({
            "ph": "C", "name": counter["name"], "cat": counter["cat"],
            "pid": counter["pid"], "tid": 0, "ts": counter["ts"],
            "args": {"value": counter["value"]},
        })
    return {"traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": "ndroid_spans/v1"}}


def render_timeline(timeline: Dict, width: int = 72) -> str:
    """A text timeline: one bar per span, grouped by process."""
    spans = timeline["spans"]
    lines = ["== fleet timeline =="]
    if not spans:
        lines.append("(no spans recorded)")
        return "\n".join(lines)
    horizon = max(s["ts"] + s.get("dur", 0.0) for s in spans)
    horizon = max(horizon, 1.0)
    scale = width / horizon
    by_pid: Dict[int, List[Dict]] = {}
    for span in spans:
        by_pid.setdefault(span["pid"], []).append(span)
    lines.append(f"{len(spans)} spans over {horizon / 1e3:.1f} ms, "
                 f"{timeline['open_spans']} left open")
    for pid in sorted(by_pid):
        lines.append(f"-- {_process_label(pid, spans)} --")
        for span in by_pid[pid]:
            start = int(span["ts"] * scale)
            length = max(1, int(span.get("dur", 0.0) * scale))
            length = min(length, width - start) or 1
            bar = " " * start + "#" * length
            marker = " OPEN" if span.get("open") else ""
            trace = f" [{span['trace']}]" if span.get("trace") else ""
            lines.append(f"  {bar:<{width}}  {span['cat']}:{span['name']}"
                         f"{trace} {span.get('dur', 0.0) / 1e3:.2f}ms"
                         f"{marker}")
    return "\n".join(lines)


def validate_chrome_trace(trace: Dict) -> List[str]:
    """Schema check for the exported Chrome trace.  Returns problems.

    Hand-rolled on purpose (no jsonschema dependency in the image),
    mirroring ``observability/schema.validate_trace``.
    """
    errors: List[str] = []
    if not isinstance(trace, dict):
        return ["trace is not an object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in CHROME_PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where}: missing pid")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: bad dur {dur!r}")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or "value" not in args:
                errors.append(f"{where}: counter without value")
    return errors


def merge_spans(trace_dir: str) -> Dict:
    """Merge every per-process span spool under ``trace_dir`` into the
    fleet timeline (:func:`build_timeline`): scheduler, worker and
    engine spans from every process, time-sorted and correlated by
    trace id, with SIGKILL-torn spools replayed to explicit open spans."""
    return build_timeline(collect_spools(trace_dir))


def write_trace_artifacts(trace_dir: str,
                          out_dir: Optional[str] = None) -> Dict[str, str]:
    """Aggregate a trace directory into ``trace.json`` (Chrome) and
    ``timeline.txt`` (text), returning the artifact paths."""
    out_dir = out_dir or trace_dir
    os.makedirs(out_dir, exist_ok=True)
    timeline = merge_spans(trace_dir)
    chrome = to_chrome_trace(timeline)
    trace_path = os.path.join(out_dir, "trace.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(chrome, fh, indent=1, sort_keys=True)
        fh.write("\n")
    text_path = os.path.join(out_dir, "timeline.txt")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(render_timeline(timeline) + "\n")
    return {"trace": trace_path, "timeline": text_path}
