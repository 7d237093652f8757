"""Unit tests for the structured event log."""

from repro.common.events import EventLog


def test_emit_assigns_sequence_numbers():
    log = EventLog()
    first = log.emit("cpu", "step")
    second = log.emit("cpu", "step")
    assert first.seq == 0
    assert second.seq == 1
    assert len(log) == 2


def test_find_filters_by_kind_and_source():
    log = EventLog()
    log.emit("dvm_hook", "NewStringUTF.begin")
    log.emit("sink", "leak", taint=0x202)
    log.emit("dvm_hook", "NewStringUTF.end")
    assert len(log.find(source="dvm_hook")) == 2
    assert len(log.find(kind="leak")) == 1
    assert log.find(kind="leak")[0].data["taint"] == 0x202


def test_first_and_last():
    log = EventLog()
    log.emit("a", "x", "one")
    log.emit("a", "x", "two")
    assert log.first("x").detail == "one"
    assert log.last("x").detail == "two"
    assert log.first("missing") is None
    assert log.last("missing") is None


def test_kinds_preserves_order():
    log = EventLog()
    for kind in ["enter", "taint", "exit"]:
        log.emit("e", kind)
    assert log.kinds() == ["enter", "taint", "exit"]


def test_dump_and_format():
    log = EventLog()
    log.emit("sink", "leak", "send() with tainted buffer")
    text = log.dump()
    assert "sink:leak" in text
    assert "send() with tainted buffer" in text


def test_clear():
    log = EventLog()
    log.emit("x", "y")
    log.clear()
    assert len(log) == 0


def test_clear_resets_sequence():
    log = EventLog()
    for __ in range(4):
        log.emit("a", "tick")
    log.clear()
    assert len(log) == 0
    assert log.emit("a", "tick").seq == 0
