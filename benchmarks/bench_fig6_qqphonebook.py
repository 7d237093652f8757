"""Fig. 6 — the QQPhoneBook case-1' leak.

Re-runs QQPhoneBook 3.5 under TaintDroid+NDroid, checks that the sid URL
reaching ``info.3g.qq.com`` carries taint 0x202 (SMS | CONTACTS), that
the provenance ledger holds the Fig. 6 steps, and benchmarks the
end-to-end analysis.
"""

from repro.apps import qqphonebook
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform


def run_once():
    scenario = qqphonebook.build()
    platform = make_platform("ndroid", trace=True)
    run_scenario(scenario, platform)
    return scenario, platform


def test_fig6_flow_and_taint():
    scenario, platform = run_once()
    # Detection with the exact paper taint 0x202.
    hits = [r for r in platform.leaks.records if r.taint & 0x202]
    assert hits, platform.leaks.summary()
    assert any("info.3g.qq.com" in r.destination for r in hits)
    # The wire really carried the staged sid URL.
    sent = platform.kernel.network.transmissions_to("info.3g.qq.com")
    assert any(b"xpimlogin?sid=" in t.payload for t in sent)
    # Fig. 6's steps: the SourcePolicy seeds the parameter's taint at
    # the native entry, then NewStringUTF re-taints the URL string.
    ledger = platform.observability.ledger
    mechanisms = [edge.mechanism for edge in ledger]
    assert "jni:dvmCallJNIMethod" in mechanisms
    assert [edge.tag for edge in ledger
            if edge.mechanism == "jni:NewStringUTF"] == [0x202]
    print()
    print("Fig. 6 reproduction — the leak's path:")
    print(ledger.format_path(ledger.reconstruct(taint=0x202)))


def test_taintdroid_alone_misses_it():
    scenario = qqphonebook.build()
    platform = make_platform("taintdroid")
    run_scenario(scenario, platform)
    assert not platform.leaks.detected_by("taintdroid", 0x202)


def test_benchmark_qqphonebook_under_ndroid(benchmark):
    scenario, platform = benchmark.pedantic(run_once, rounds=3,
                                            iterations=1)
    assert platform.leaks.records
