"""`repro bench --emulator`'s result blocks."""

from repro.bench.emulator_bench import OBS_PAIRS, EmulatorBench


def test_bench_results_and_metrics_snapshot_agree():
    bench = EmulatorBench(cfbench_iterations=300, jni_crossings=20,
                          tracer_calls=1, repeats=1)
    results = bench.run()
    assert set(results["calls"]["calls_per_instruction"]) == \
        set(results["workloads"])
    observability = results["observability"]
    assert "cfbench_disabled_overhead" in observability
    assert observability["limit"] == 0.03
    # The gate's median stands on at least OBS_PAIRS interleaved pairs,
    # whatever the bench's own repeat count.
    assert observability["pairs"] >= OBS_PAIRS >= 9
