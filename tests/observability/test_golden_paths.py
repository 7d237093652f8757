"""Golden-path tests: the three PoC apps' reconstructed provenance.

For each case-study app the ledger must reproduce the complete
source→sink chain the paper walks — naming the JNI crossing the data
rode through and the syscall it finally left by.
"""

import pytest

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform


def _traced_path(name: str):
    platform = make_platform("ndroid", trace=True)
    run_scenario(ALL_SCENARIOS[name](), platform)
    leaks = platform.leaks.records
    assert leaks, f"{name}: expected a reported leak"
    leak = leaks[0]
    path = platform.observability.ledger.reconstruct(
        taint=leak.taint, destination=leak.destination)
    assert path, f"{name}: no provenance path reconstructed"
    return platform, leak, path


def _mechanisms(path):
    return [edge.mechanism for edge in path]


def test_ephone_contacts_to_sip_register():
    platform, leak, path = _traced_path("ephone")
    mechanisms = _mechanisms(path)
    # Starts at the framework source, enters native code through the
    # registration JNI method, crosses via GetStringUTFChars, and leaves
    # through the sendto syscall.
    assert mechanisms[0] == "source:framework"
    jni_entries = [e for e in path if e.mechanism == "jni:dvmCallJNIMethod"]
    assert jni_entries and "callregister" in jni_entries[0].location
    assert "jni:GetStringUTFChars" in mechanisms
    assert path[-1].mechanism == "sink:sendto"
    assert path[-1].location == "syscall:sendto"
    assert leak.destination in path[-1].dst.name


def test_poc_case2_contacts_to_sdcard_file():
    platform, leak, path = _traced_path("poc_case2")
    mechanisms = _mechanisms(path)
    assert mechanisms[0] == "source:framework"
    jni_entries = [e for e in path if e.mechanism == "jni:dvmCallJNIMethod"]
    assert jni_entries and "recordContact" in jni_entries[0].location
    assert "jni:GetStringUTFChars" in mechanisms
    assert path[-1].mechanism.startswith("sink:")
    assert path[-1].location == "syscall:write"
    assert "/sdcard/CONTACTS" in path[-1].dst.name


def test_poc_case3_newstringutf_callback_to_socket():
    platform, leak, path = _traced_path("poc_case3")
    mechanisms = _mechanisms(path)
    assert mechanisms[0] == "source:framework"
    jni_entries = [e for e in path if e.mechanism == "jni:dvmCallJNIMethod"]
    assert jni_entries and "evadeTaintDroid" in jni_entries[0].location
    # The native→Java return crossing TaintDroid alone cannot see:
    # NewStringUTF re-materialises the taint, CallVoidMethod carries it
    # back into the Java context.
    assert "jni:NewStringUTF" in mechanisms
    assert any(m.startswith("jni:dvmCallMethod") for m in mechanisms)
    # dvmInterpret writes the taint into the callback's frame slot (the
    # DVM had cleared it), and the callback hands that slot to the sink.
    frame_edges = [e for e in path if e.mechanism == "jni:dvmInterpret"]
    assert len(frame_edges) == 1
    frame_edge = frame_edges[0]
    assert frame_edge.src.kind == "java" and frame_edge.dst.kind == "dvreg"
    assert frame_edge.tag & leak.taint
    assert "nativeCallback" in frame_edge.location
    assert mechanisms.index("jni:NewStringUTF") < \
        mechanisms.index("jni:dvmInterpret")
    assert path.complete
    assert path[-1].location == "syscall:send"


def test_case4_native_pulls_the_data_through_a_java_call():
    platform, leak, path = _traced_path("case4")
    mechanisms = _mechanisms(path)
    assert path.complete
    assert mechanisms[0] == "source:framework"
    # CallStaticObjectMethod's tainted result is the native side's only
    # way in: no JNI method parameter carries it.
    assert "jni:dvmCallJNIMethod" not in mechanisms
    assert mechanisms.index("jni:CallStaticObjectMethod") < \
        mechanisms.index("jni:GetStringUTFChars")
    assert path[-1].location == "syscall:send"


@pytest.mark.parametrize("name", sorted(
    name for name, build in ALL_SCENARIOS.items()
    if build().expected_taint))
def test_every_leak_path_reaches_its_source(name):
    platform, leak, path = _traced_path(name)
    assert path.complete, platform.observability.ledger.format_path(path)
    assert path[0].mechanism == "source:framework"


@pytest.mark.parametrize("name", ["ephone", "poc_case2", "poc_case3"])
def test_paths_export_to_dot(name):
    platform, leak, path = _traced_path(name)
    dot = platform.observability.ledger.to_dot([path])
    assert dot.startswith("digraph provenance")
    assert "doubleoctagon" in dot


def test_benign_app_has_no_sink_edges():
    platform = make_platform("ndroid", trace=True)
    run_scenario(ALL_SCENARIOS["benign"](), platform)
    ledger = platform.observability.ledger
    assert not ledger.sink_edges()
    assert not platform.leaks.records
