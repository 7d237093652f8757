"""Fig. 9 — the PoC of case 3.

Device info crosses into native code, gets re-wrapped by NewStringUTF
(NDroid re-taints the new String object), and returns to Java through
CallVoidMethod → dvmCallMethodV → dvmInterpret, where NDroid writes the
taint into the callback's frame slot; the Java sink then fires.
"""

from repro.apps import poc_case3
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform


def run_once(config="ndroid"):
    scenario = poc_case3.build()
    platform = make_platform(config, trace=True)
    run_scenario(scenario, platform)
    return scenario, platform


def test_fig9_flow_and_taint():
    scenario, platform = run_once()
    hits = [r for r in platform.leaks.records
            if r.taint & scenario.expected_taint]
    assert hits, platform.leaks.summary()
    # The transmitted blob includes the Fig. 9 fields.
    sent = platform.kernel.network.transmissions_to(
        "case3.collect.example.com")
    assert sent
    payload = b"".join(t.payload for t in sent)
    assert platform.device.line1_number.encode() in payload
    assert platform.device.network_operator.encode() in payload
    # Fig. 9 sequence: NewStringUTF re-taint, the CallStaticVoidMethod
    # argument entering Java through dvmCallMethodV, then dvmInterpret's
    # frame-slot taint injection.
    ledger = platform.observability.ledger
    mechanisms = [edge.mechanism for edge in ledger]
    for expected in ("jni:NewStringUTF", "jni:dvmCallMethodV",
                     "jni:dvmInterpret"):
        assert expected in mechanisms, expected
    assert mechanisms.index("jni:dvmCallMethodV") < \
        mechanisms.index("jni:dvmInterpret")
    frame_edge = next(edge for edge in ledger
                      if edge.mechanism == "jni:dvmInterpret")
    assert frame_edge.dst.kind == "dvreg"
    assert frame_edge.tag & scenario.expected_taint
    print()
    print("Fig. 9 reproduction — the leak's path:")
    print(ledger.format_path(ledger.reconstruct(
        taint=scenario.expected_taint, destination=hits[0].destination)))


def test_taintdroid_alone_misses_it():
    scenario, platform = run_once("taintdroid")
    assert not platform.leaks.detected_by("taintdroid",
                                          scenario.expected_taint)
    # The data still left the device (the evasion works).
    assert platform.kernel.network.transmissions_to(
        "case3.collect.example.com")


def test_benchmark_poc3_under_ndroid(benchmark):
    scenario, platform = benchmark.pedantic(run_once, rounds=3,
                                            iterations=1)
    assert platform.leaks.records
