"""Fig. 8 — the PoC of case 2.

Contact id/name/email (taint 0x2) cross into native code, through three
GetStringUTFChars calls, and land in ``/sdcard/CONTACTS`` via
fopen/fprintf/fclose.  NDroid's fprintf sink handler flags the write.
"""

from repro.apps import poc_case2
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform


def run_once(config="ndroid"):
    scenario = poc_case2.build()
    platform = make_platform(config, trace=True)
    run_scenario(scenario, platform)
    return scenario, platform


def test_fig8_flow_and_taint():
    scenario, platform = run_once()
    hits = [r for r in platform.leaks.records if r.taint & 0x2]
    assert hits, platform.leaks.summary()
    assert any(r.sink == "fprintf" for r in hits)
    assert any("/sdcard/CONTACTS" in r.destination for r in hits)
    # The file contents match Fig. 8's "1 Vincent cx@gg.com".
    content = platform.kernel.filesystem.read_text("/sdcard/CONTACTS")
    assert "1 Vincent cx@gg.com" in content
    # And the file's stored byte taints carry the contact label.
    file = platform.kernel.filesystem.lookup("/sdcard/CONTACTS")
    assert file.taint_union() & 0x2
    # Fig. 8 sequence: source policy seeded, three tainted
    # GetStringUTFChars, then the sink.
    ledger = platform.observability.ledger
    chars_edges = [edge for edge in ledger
                   if edge.mechanism == "jni:GetStringUTFChars"]
    assert len(chars_edges) >= 3
    assert all(edge.tag & 0x2 for edge in chars_edges[:3])
    print()
    print("Fig. 8 reproduction — /sdcard/CONTACTS:", repr(content))
    print("  sink record:", hits[0].describe())
    print(ledger.format_path(ledger.reconstruct(
        taint=0x2, destination=hits[0].destination)))


def test_taintdroid_alone_misses_it():
    scenario, platform = run_once("taintdroid")
    assert not platform.leaks.detected_by("taintdroid", 0x2)
    # ...even though the file was really written.
    assert platform.kernel.filesystem.exists("/sdcard/CONTACTS")


def test_benchmark_poc2_under_ndroid(benchmark):
    scenario, platform = benchmark.pedantic(run_once, rounds=3,
                                            iterations=1)
    assert platform.leaks.records
