"""Fig. 7 — the ePhone case-2 leak.

Contacts flow through GetStringUTFChars → memcpy/sprintf → sendto, and
NDroid's native sink check catches the SIP REGISTER packet bound for
``softphone.comwave.net``.
"""

from repro.apps import ephone
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform


def run_once(config="ndroid"):
    scenario = ephone.build()
    platform = make_platform(config, trace=True)
    run_scenario(scenario, platform)
    return scenario, platform


def test_fig7_flow_and_taint():
    scenario, platform = run_once()
    hits = [r for r in platform.leaks.records
            if r.taint & scenario.expected_taint]
    assert hits, platform.leaks.summary()
    assert any("comwave" in r.destination for r in hits)
    assert any(r.sink == "sendto" for r in hits)
    # The packet on the wire is a SIP REGISTER carrying the contacts.
    sent = platform.kernel.network.transmissions_to("comwave")
    assert any(t.payload.startswith(b"REGISTER sip:") for t in sent)
    assert any(b"Vincent" in t.payload for t in sent)
    # Fig. 7's chain: GetStringUTFChars then the modelled calls.
    ledger = platform.observability.ledger
    assert any(edge.mechanism == "jni:GetStringUTFChars"
               and edge.tag & scenario.expected_taint for edge in ledger)
    print()
    print("Fig. 7 reproduction — native sink record:")
    print(" ", hits[0].describe())
    print(ledger.format_path(ledger.reconstruct(
        taint=scenario.expected_taint, destination=hits[0].destination)))


def test_taintdroid_alone_misses_it():
    scenario, platform = run_once("taintdroid")
    assert not platform.leaks.detected_by("taintdroid",
                                          scenario.expected_taint)


def test_benchmark_ephone_under_ndroid(benchmark):
    scenario, platform = benchmark.pedantic(run_once, rounds=3,
                                            iterations=1)
    assert platform.leaks.records
