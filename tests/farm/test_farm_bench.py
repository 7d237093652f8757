"""The farm scaling benchmark harness."""

import pytest

from repro.bench.farm_bench import (BENCH_SCHEMA_VERSION, FarmBench,
                                    ScalingBench, load_results,
                                    write_results)
from repro.farm import JobSpec, Manifest

TINY = Manifest(jobs=[
    JobSpec(id="scenario:ephone", kind="scenario", target="ephone"),
    JobSpec(id="scenario:benign", kind="scenario", target="benign"),
    JobSpec(id="market:com.market.smsbackup", kind="market",
            target="com.market.smsbackup"),
])


def test_bench_runs_and_checks_parity(tmp_path):
    results = FarmBench(workers=2, manifest=TINY, chaos_seed=None).run()
    assert results["cpus"] >= 1
    runs = results["runs"]
    assert runs["serial"]["workers"] == 1
    assert runs["parallel"]["workers"] == 2
    assert runs["serial"]["jobs"] == len(TINY)
    # The resumed run replays everything the parallel run cached.
    assert runs["resumed"]["cached_jobs"] == len(TINY)
    assert results["parity"]["identical"]
    assert set(results["parity"]["apps"]) == {job.id for job in TINY}
    assert results["speedup"] > 0
    assert results["resume_speedup"] > 0

    path = str(tmp_path / "bench.json")
    write_results(results, path)
    loaded = load_results(path)
    assert loaded["parity"]["identical"]
    assert loaded["runs"]["serial"]["jobs"] == len(TINY)
    # chaos_seed=None skips the recovery drill but keeps the field.
    assert loaded["chaos"] is None


def test_bench_chaos_drill_records_recovery_verdict():
    manifest = Manifest(jobs=[
        JobSpec(id="scenario:ephone", kind="scenario", target="ephone"),
        JobSpec(id="scenario:case1", kind="scenario", target="case1"),
        JobSpec(id="scenario:case2", kind="scenario", target="case2"),
        JobSpec(id="scenario:benign", kind="scenario", target="benign"),
    ])
    results = FarmBench(workers=2, manifest=manifest,
                        chaos_seed=7).run()
    chaos = results["chaos"]
    assert chaos["seed"] == 7
    assert chaos["jobs"] == len(manifest)
    assert chaos["recovered"] is True
    assert chaos["failures"] == []
    assert chaos["invariants"]["poison_classified_exactly_once"]
    assert chaos["invariants"]["parity_with_serial_baseline"]
    assert chaos["invariants"]["no_lost_jobs"]
    assert chaos["health"]["poison_quarantined"] == 1


def test_bench_skips_drill_when_manifest_too_small():
    manifest = Manifest(jobs=[
        JobSpec(id="scenario:ephone", kind="scenario", target="ephone")])
    results = FarmBench(workers=2, manifest=manifest).run()
    assert results["chaos"] is None   # one job cannot elect a poison
                                      # target and keep a survivor


def test_schema_version_is_six():
    # v3: the streamed-corpus scaling curve rides along in "scaling".
    # v4: the warm-vs-cold drill rides along in "warm".
    # v5: the warm drill runs cold and warm only.
    # v6: the warm drill gates on mean total per-job wall time.
    assert BENCH_SCHEMA_VERSION == 6


def test_warm_drill_gates_and_parity():
    from repro.bench.farm_bench import WARM_SPEEDUP_GATE, WarmBench

    drill = WarmBench(repeats=1).run()
    for mode in ("cold", "warm"):
        assert drill[mode]["jobs"] == len(drill["parity"]["scenarios"])
        assert drill[mode]["per_job_seconds"] > 0
        assert drill[mode]["minor_faults_per_job"] > 0
    # One forked child per job: a warm child resets its template once,
    # a cold child boots and resets nothing.
    assert drill["warm"]["resets_per_job"] == 1
    assert drill["cold"]["resets_per_job"] == 0
    assert drill["parity"]["identical"]
    assert drill["gate"]["threshold"] == WARM_SPEEDUP_GATE
    # The gate is the mean total per job (fork, boot or reset, scenario
    # run) held against the 2x floor; its verdict is recorded honestly.
    assert drill["gate"]["passed"] == \
        (drill["speedup_warm_vs_cold"] >= WARM_SPEEDUP_GATE)
    assert drill["speedup_warm_vs_cold"] > 0
    # The template reset must beat a full boot by at least 2x.
    assert drill["boot_speedup"] >= 2.0
    assert set(drill) == {"repeats", "config", "cold", "warm",
                          "speedup_warm_vs_cold", "boot_speedup", "gate",
                          "parity"}


def test_scaling_bench_curve_and_marginals():
    import os

    curve = ScalingBench(jobs=60, chunk=10, worker_counts=(1, 2)).run()
    assert curve["records"] == 600
    points = curve["curve"]
    assert [point["workers"] for point in points] == [1, 2]
    for point in points:
        assert point["jobs"] == 60
        assert point["outcomes"] == {"ok": 60}
        assert point["parity_with_serial"]
        assert point["jobs_per_second"] > 0
    assert points[0]["speedup_vs_serial"] == 1.0
    marginals = curve["marginals"]
    assert marginals["exact"]
    assert marginals["measured"]["total"] == 600
    if (os.cpu_count() or 1) <= 1:
        assert curve["parallel_beats_serial"] is None
        assert "skipped" in curve["skip_notice"]
    else:
        assert curve["parallel_beats_serial"] in (True, False)
    assert curve["max_rss_kib"]["scheduler"] > 0


def test_scaling_bench_requires_serial_baseline():
    with pytest.raises(ValueError):
        ScalingBench(worker_counts=(2, 4))
