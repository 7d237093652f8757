"""Unit tests for the provenance ledger."""

import io

from repro.observability.ledger import Loc, ProvenanceLedger


def test_loc_overlap_rules():
    assert Loc.mem(0x100, 8).overlaps(Loc.mem(0x104, 8))
    assert not Loc.mem(0x100, 4).overlaps(Loc.mem(0x104, 4))
    assert Loc.reg(3).overlaps(Loc.reg(3))
    assert not Loc.reg(3).overlaps(Loc.reg(4))
    assert Loc.java(0x6).overlaps(Loc.java(0x2))
    assert not Loc.java(0x4).overlaps(Loc.java(0x2))
    assert not Loc.mem(0x100, 4).overlaps(Loc.reg(3))
    assert Loc.api("x").overlaps(Loc.api("x"))
    assert not Loc.api("x").overlaps(Loc.api("y"))


def test_record_skips_clear_tags():
    ledger = ProvenanceLedger()
    ledger.record(0, "native:mov", Loc.reg(0), Loc.reg(1))
    assert len(ledger) == 0
    ledger.record(0x2, "native:mov", Loc.reg(0), Loc.reg(1))
    assert len(ledger) == 1


def test_bounded_ledger_drops_oldest():
    ledger = ProvenanceLedger(maxlen=4)
    for i in range(10):
        ledger.record(0x2, "native:mov", Loc.reg(i), Loc.reg(i + 1))
    assert len(ledger) == 4
    assert ledger.dropped == 6
    assert [edge.seq for edge in ledger] == [6, 7, 8, 9]


def test_reconstruct_walks_source_to_sink():
    ledger = ProvenanceLedger()
    ledger.record(0x2, "source:framework", Loc.api("getDeviceId"),
                  Loc.java(0x2))
    ledger.record(0x2, "jni:dvmCallJNIMethod", Loc.java(0x2), Loc.reg(1))
    ledger.record(0x2, "native:mov", Loc.reg(1), Loc.reg(0))
    ledger.record(0x2, "native:str", Loc.reg(0), Loc.mem(0x8000, 4))
    ledger.record(0x2, "sink:write", Loc.mem(0x8000, 4),
                  Loc.sink("/sdcard/out"), location="syscall:write")
    path = ledger.reconstruct(taint=0x2, destination="/sdcard/out")
    assert [edge.mechanism for edge in path] == [
        "source:framework", "jni:dvmCallJNIMethod", "native:mov",
        "native:str", "sink:write"]
    # The walk is cycle-safe even with repeated register reuse.
    ledger.record(0x2, "native:mov", Loc.reg(0), Loc.reg(0))
    assert ledger.reconstruct(taint=0x2, destination="/sdcard/out")


def test_reconstruct_prefers_memory_sink_edges():
    ledger = ProvenanceLedger()
    ledger.record(0x2, "sink:send", Loc.java(0x2), Loc.sink("host:80"))
    ledger.record(0x2, "native:str", Loc.reg(0), Loc.mem(0x100, 4))
    ledger.record(0x2, "sink:send", Loc.mem(0x100, 4), Loc.sink("host:80"))
    path = ledger.reconstruct(taint=0x2, destination="host:80")
    assert path[-1].src.kind == "mem"


def test_jsonl_round_trip_and_dot():
    ledger = ProvenanceLedger()
    ledger.record(0x2, "source:framework", Loc.api("getDeviceId"),
                  Loc.java(0x2))
    ledger.record(0x2, "sink:send", Loc.java(0x2), Loc.sink("host:80"),
                  location="syscall:send")
    buffer = io.StringIO()
    assert ledger.to_jsonl(buffer) == 2
    buffer.seek(0)
    loaded = ProvenanceLedger.from_jsonl(buffer.read().splitlines())
    assert len(loaded) == 2
    assert [e.mechanism for e in loaded] == [e.mechanism for e in ledger]
    dot = loaded.to_dot()
    assert dot.startswith("digraph provenance")
    assert "doubleoctagon" in dot  # the sink node shape
    assert "host:80" in dot


def test_complete_path_is_reported_complete():
    ledger = ProvenanceLedger()
    ledger.record(0x2, "source:framework", Loc.api("getDeviceId"),
                  Loc.java(0x2))
    ledger.record(0x2, "sink:send", Loc.java(0x2), Loc.sink("host:80"))
    path = ledger.reconstruct(taint=0x2, destination="host:80")
    assert path.complete
    assert not path.at_horizon
    assert not path.partial
    assert "partial" not in ledger.format_path(path)


def test_reconstruct_terminates_truthfully_at_eviction_horizon():
    # A long register-to-register chain ending in a sink, in a ring too
    # small to hold it: the source and the early hops get evicted.
    ledger = ProvenanceLedger(maxlen=8)
    ledger.record(0x2, "source:framework", Loc.api("getDeviceId"),
                  Loc.java(0x2))
    ledger.record(0x2, "jni:dvmCallJNIMethod", Loc.java(0x2), Loc.reg(0))
    for i in range(20):
        ledger.record(0x2, "native:mov", Loc.reg(i % 4),
                      Loc.reg((i + 1) % 4))
    ledger.record(0x2, "native:str", Loc.reg(1), Loc.mem(0x8000, 4))
    ledger.record(0x2, "sink:write", Loc.mem(0x8000, 4),
                  Loc.sink("/sdcard/out"), location="syscall:write")
    assert ledger.dropped > 0

    path = ledger.reconstruct(taint=0x2, destination="/sdcard/out")
    # The walk terminates cleanly with only retained edges...
    assert path
    retained = {edge.seq for edge in ledger}
    assert all(edge.seq in retained for edge in path)
    # ...and the path is truthfully partial: it never claims to reach a
    # source, and it flags the horizon.
    assert path[0].src.kind != "api"
    assert not path.complete
    assert path.partial
    assert path.at_horizon
    assert path.evicted == ledger.dropped
    assert "partial" in ledger.format_path(path)


def test_unevicted_dead_end_is_partial_but_not_at_horizon():
    # No eviction: a sink whose taint was never sourced ends the walk
    # with full knowledge — partial, but not a horizon artifact.
    ledger = ProvenanceLedger()
    ledger.record(0x2, "native:str", Loc.reg(0), Loc.mem(0x100, 4))
    ledger.record(0x2, "sink:send", Loc.mem(0x100, 4), Loc.sink("host:80"))
    path = ledger.reconstruct(taint=0x2, destination="host:80")
    assert path.partial
    assert not path.at_horizon


def test_frame_slot_without_recorded_writer_chains_through_java():
    # A slot some untraced bytecode wrote (a string concatenation) has no
    # dvreg edge into it: the walk continues from its label's Java node.
    ledger = ProvenanceLedger()
    ledger.record(0x2, "source:framework", Loc.api("getContact"),
                  Loc.java(0x2))
    ledger.record(0x2, "dalvik:invoke", Loc.dvreg(0x80), Loc.java(0x2))
    ledger.record(0x2, "sink:send", Loc.java(0x2), Loc.sink("host:80"))
    path = ledger.reconstruct(taint=0x2, destination="host:80")
    assert [edge.seq for edge in path] == [0, 1, 2]
    assert path.complete


def test_frame_slot_with_a_writer_chains_through_it():
    ledger = ProvenanceLedger()
    ledger.record(0x2, "source:framework", Loc.api("getContact"),
                  Loc.java(0x2))
    ledger.record(0x2, "dalvik:move-result", Loc.java(0x2),
                  Loc.dvreg(0x40))
    ledger.record(0x4, "source:framework", Loc.api("getSms"),
                  Loc.java(0x4))
    ledger.record(0x2, "dalvik:invoke", Loc.dvreg(0x40), Loc.java(0x2))
    ledger.record(0x2, "sink:send", Loc.java(0x2), Loc.sink("host:80"))
    path = ledger.reconstruct(taint=0x2, destination="host:80")
    assert [edge.seq for edge in path] == [0, 1, 3, 4]


def test_empty_reconstruction_is_a_path_object():
    ledger = ProvenanceLedger()
    path = ledger.reconstruct(taint=0x2, destination="nowhere")
    assert path == []
    assert not path.complete
    assert not path.partial


def test_clear_resets_counts():
    ledger = ProvenanceLedger(maxlen=2)
    for i in range(5):
        ledger.record(0x2, "native:mov", Loc.reg(0), Loc.reg(1))
    ledger.clear()
    assert len(ledger) == 0
    assert ledger.dropped == 0
