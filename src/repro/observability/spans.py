"""Structured span/event tracing: the fleet's flight recorder.

A :class:`SpanTracer` records *where time goes* — the temporal half of
the paper's evaluation that the provenance ledger (what flowed where)
cannot answer.  Three record shapes, one stream:

``B``/``E`` (span begin/end)
    A duration with a name, a category (``scheduler`` / ``worker`` /
    ``engine``), and a **trace id** correlating every record that serves
    the same farm job across process boundaries.  Begin records are
    written to the spool *at begin time*, so a SIGKILLed worker leaves
    evidence of what it was doing — the aggregator renders the
    unmatched begin as an explicit open-span marker, never an error.

``i`` (instant event)
    A point in time (a retry decision, a variant escalation, a cache
    flush).

``C`` (counter sample)
    A named value at a point in time (cache hit totals at job end),
    rendered by Chrome's trace viewer as a counter track.

One sink: the tracer's **spool**, an append-only JSONL file flushed per
record, so a SIGKILL loses at most the line being written; its reader
(:func:`repro.observability.flight.read_jsonl`) tolerates that torn
tail, exactly as the run journal's does.  Spools are diagnostics, not
the source of truth for job state, so there is no fsync.

Zero-cost discipline (PR 3): engines hold a ``span_tracer`` attribute
that stays ``None`` when tracing is off; every hot-path emit sits behind
one ``is not None`` check, and the <3% disabled-overhead CI gate covers
the layer.  Timestamps are wall-clock microseconds (``time.time()``),
the only clock comparable across forked processes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

def now_us() -> float:
    """Wall-clock microseconds — comparable across forked processes."""
    return time.time() * 1e6


class SpanTracer:
    """Writes span records to one JSONL spool at ``path``.

    One tracer per process (each forked worker, and the inline
    scheduler per batch, opens its own after the fork, so no file
    descriptor is shared).  ``trace_id`` correlates every record with
    the farm job (batch) it serves.
    """

    def __init__(self, path: str, trace_id: str = "") -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")
        self.trace_id = trace_id
        self.pid = os.getpid()
        self._seq = 0
        self._lock = threading.Lock()
        # Open-span stack per thread, for parent attribution.
        self._stacks: Dict[int, List[int]] = {}

    # -- plumbing ---------------------------------------------------------

    @staticmethod
    def now() -> float:
        return now_us()

    def _emit(self, record: Dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    def _next_id(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _stack(self) -> List[int]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, cat: str = "worker",
              trace: Optional[str] = None, **args) -> int:
        """Open a span; returns its id for :meth:`end`.

        The begin record hits the spool immediately — that is the crash
        evidence an aggregated timeline replays as an open span.
        """
        span_id = self._next_id()
        record = {
            "ph": "B", "ts": now_us(), "pid": self.pid, "span": span_id,
            "name": name, "cat": cat,
            "trace": self.trace_id if trace is None else trace,
        }
        stack = self._stack()
        if stack:
            record["parent"] = stack[-1]
        stack.append(span_id)
        if args:
            record["args"] = args
        self._emit(record)
        return span_id

    def end(self, span_id: int, **args) -> None:
        record = {"ph": "E", "ts": now_us(), "pid": self.pid,
                  "span": span_id}
        if args:
            record["args"] = args
        stack = self._stack()
        if span_id in stack:
            del stack[stack.index(span_id):]
        self._emit(record)

    @contextmanager
    def span(self, name: str, cat: str = "worker",
             trace: Optional[str] = None, **args) -> Iterator[int]:
        span_id = self.begin(name, cat=cat, trace=trace, **args)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def complete(self, name: str, start_us: float, cat: str = "engine",
                 trace: Optional[str] = None, **args) -> None:
        """One finished span as a single record (engine hot paths).

        Cheaper than begin+end — one record, no stack work — for spans
        that cannot be torn (they complete before control returns).
        """
        record = {
            "ph": "X", "ts": start_us, "dur": max(0.0, now_us() - start_us),
            "pid": self.pid, "name": name, "cat": cat,
            "trace": self.trace_id if trace is None else trace,
        }
        if args:
            record["args"] = args
        self._emit(record)

    # -- instants / counters ----------------------------------------------

    def event(self, name: str, cat: str = "worker",
              trace: Optional[str] = None, **args) -> None:
        record = {
            "ph": "i", "ts": now_us(), "pid": self.pid, "name": name,
            "cat": cat,
            "trace": self.trace_id if trace is None else trace,
        }
        if args:
            record["args"] = args
        self._emit(record)

    def counter(self, name: str, value, cat: str = "worker",
                trace: Optional[str] = None) -> None:
        record = {
            "ph": "C", "ts": now_us(), "pid": self.pid, "name": name,
            "cat": cat, "value": value,
            "trace": self.trace_id if trace is None else trace,
        }
        self._emit(record)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def attach_spans(platform, tracer: Optional[SpanTracer]) -> None:
    """Point every engine's ``span_tracer`` attribute at ``tracer``.

    Passing ``None`` detaches.  The engines only ever do one
    ``is not None`` check per emit site, so a platform without a tracer pays
    a single attribute read on the cold paths and nothing per
    instruction.
    """
    platform.emu.span_tracer = tracer
    platform.jni.span_tracer = tracer
    if platform.vm.tbc is not None:
        platform.vm.tbc.span_tracer = tracer
