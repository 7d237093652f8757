"""Unit tests for the span tracer (the flight recorder's write side)."""

import threading

import pytest

from repro.observability.flight import read_jsonl
from repro.observability.spans import SpanTracer, attach_spans, now_us


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool.jsonl")


def _records(tracer):
    """What the tracer's spool holds, read back from disk."""
    return list(read_jsonl(tracer.path, "ph"))


class TestRecordShapes:
    def test_begin_end_records(self, spool):
        tracer = SpanTracer(spool, trace_id="abc123")
        span = tracer.begin("job", cat="scheduler", attempt=1)
        tracer.end(span, status="done")
        begin, end = _records(tracer)
        assert begin["ph"] == "B" and end["ph"] == "E"
        assert begin["name"] == "job"
        assert begin["cat"] == "scheduler"
        assert begin["trace"] == "abc123"
        assert begin["args"] == {"attempt": 1}
        assert end["span"] == begin["span"] == span
        assert end["args"] == {"status": "done"}
        assert end["ts"] >= begin["ts"]

    def test_complete_is_one_record(self, spool):
        tracer = SpanTracer(spool)
        tracer.complete("tb_translate", now_us(), cat="engine", pc=0x1000)
        (record,) = _records(tracer)
        assert record["ph"] == "X"
        assert record["dur"] >= 0.0
        assert record["args"]["pc"] == 0x1000

    def test_event_and_counter(self, spool):
        tracer = SpanTracer(spool, trace_id="t1")
        tracer.event("retry", cat="scheduler", attempt=2)
        tracer.counter("tb.hits", 7)
        event, counter = _records(tracer)
        assert event["ph"] == "i" and event["args"]["attempt"] == 2
        assert counter["ph"] == "C" and counter["value"] == 7
        assert counter["trace"] == "t1"

    def test_explicit_trace_overrides_tracer_default(self, spool):
        tracer = SpanTracer(spool, trace_id="default")
        tracer.event("queued", trace="override")
        assert _records(tracer)[0]["trace"] == "override"


class TestNesting:
    def test_nested_spans_attribute_parents(self, spool):
        tracer = SpanTracer(spool)
        outer = tracer.begin("job")
        inner = tracer.begin("platform_boot")
        tracer.end(inner)
        tracer.end(outer)
        records = {r["span"]: r for r in _records(tracer) if r["ph"] == "B"}
        assert "parent" not in records[outer]
        assert records[inner]["parent"] == outer

    def test_end_prunes_abandoned_children(self, spool):
        # Ending an outer span whose inner never ended (a crashed
        # sub-phase) must not leave the inner id haunting the stack:
        # the next span has no parent.
        tracer = SpanTracer(spool)
        outer = tracer.begin("job")
        tracer.begin("scenario_run")
        tracer.end(outer)
        after = tracer.begin("job")
        (record,) = [r for r in _records(tracer)
                     if r["ph"] == "B" and r["span"] == after]
        assert "parent" not in record

    def test_span_context_manager_closes_on_error(self, spool):
        tracer = SpanTracer(spool)
        try:
            with tracer.span("scenario_run"):
                raise RuntimeError("scenario crashed")
        except RuntimeError:
            pass
        assert [r["ph"] for r in _records(tracer)] == ["B", "E"]
        after = tracer.begin("job")
        assert "parent" not in _records(tracer)[-1]
        tracer.end(after)

    def test_threads_get_independent_stacks(self, spool):
        tracer = SpanTracer(spool)
        main_span = tracer.begin("job")
        seen = {}

        def worker():
            span = tracer.begin("platform_boot")
            record = [r for r in _records(tracer)
                      if r["ph"] == "B" and r["span"] == span][0]
            seen["parent"] = record.get("parent")
            tracer.end(span)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        # The other thread's span must not claim main's span as parent.
        assert seen["parent"] is None
        tracer.end(main_span)


class TestSpoolIntegration:
    def test_begin_hits_the_spool_before_end(self, spool):
        # The crash-evidence property: a spool abandoned mid-span still
        # holds the begin record.
        tracer = SpanTracer(spool)
        tracer.begin("job", cat="worker")
        # No end, no close: simulate the state a SIGKILL would freeze.
        assert [r["ph"] for r in read_jsonl(spool, "ph")] == ["B"]
        tracer.close()

    def test_every_record_reaches_the_spool(self, spool):
        tracer = SpanTracer(spool)
        with tracer.span("a"):
            pass
        tracer.complete("b", now_us())
        tracer.event("c")
        tracer.counter("d", 1)
        tracer.close()
        assert [r["ph"] for r in read_jsonl(spool, "ph")] == \
            ["B", "E", "X", "i", "C"]

    def test_close_is_idempotent(self, spool):
        tracer = SpanTracer(spool)
        tracer.close()
        tracer.close()


class TestAttach:
    class _Engine:
        span_tracer = None

    class _VM:
        def __init__(self, tbc):
            self.tbc = tbc

    class _Platform:
        def __init__(self, tbc):
            self.emu = TestAttach._Engine()
            self.jni = TestAttach._Engine()
            self.vm = TestAttach._VM(tbc)
            self.observability = None

    def test_attach_and_detach_all_engines(self, spool):
        tbc = self._Engine()
        platform = self._Platform(tbc)
        tracer = SpanTracer(spool)
        attach_spans(platform, tracer)
        assert platform.emu.span_tracer is tracer
        assert platform.jni.span_tracer is tracer
        assert tbc.span_tracer is tracer
        attach_spans(platform, None)
        assert platform.emu.span_tracer is None
        assert tbc.span_tracer is None

    def test_attach_tolerates_absent_tbc(self, spool):
        platform = self._Platform(None)
        attach_spans(platform, SpanTracer(spool))
        assert platform.jni.span_tracer is not None
