"""The emulator throughput harness and its regression gate."""

import json
from pathlib import Path

from repro.bench.emulator_bench import (
    DEFAULT_TOLERANCE,
    OBS_CALL_ITERATIONS,
    EmulatorBench,
    compare_to_baseline,
    count_cfbench_calls,
    count_memory_word_calls,
    load_results,
    write_results,
)


def small_bench():
    return EmulatorBench(cfbench_iterations=300, jni_crossings=20,
                         tracer_calls=1, repeats=1)


def test_workload_measures_both_engines_with_equal_instruction_counts():
    row = small_bench().measure_workload("cfbench_native_loop")
    assert row["instructions"] > 0
    assert row["single_step_instr_per_sec"] > 0
    assert row["tb_instr_per_sec"] > 0
    assert row["speedup"] > 0


def test_taint_parity_holds_on_a_scenario_subset():
    bench = small_bench()
    for name in ("case2", "benign"):
        assert bench._leak_report(name, True) == bench._leak_report(name, False)


def test_results_roundtrip_through_json(tmp_path):
    results = {"schema": "bench_emulator/v1",
               "workloads": {"x": {"speedup": 3.0}},
               "taint_parity": {"identical": True}}
    path = tmp_path / "bench.json"
    write_results(results, str(path))
    assert load_results(str(path)) == results
    # Stable formatting: trailing newline, sorted keys.
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == results


def test_compare_to_baseline_passes_within_tolerance():
    baseline = {"workloads": {"w": {"speedup": 4.0}}}
    current = {"workloads": {"w": {"speedup": 4.0 * (1 - DEFAULT_TOLERANCE)
                                   + 0.01}},
               "taint_parity": {"identical": True}}
    assert compare_to_baseline(current, baseline) == []


def test_compare_to_baseline_flags_speedup_regression():
    baseline = {"workloads": {"w": {"speedup": 4.0}}}
    current = {"workloads": {"w": {"speedup": 2.0}},
               "taint_parity": {"identical": True}}
    failures = compare_to_baseline(current, baseline)
    assert len(failures) == 1 and "w" in failures[0]


def test_compare_to_baseline_flags_parity_break():
    current = {"workloads": {},
               "taint_parity": {"identical": False, "mismatches": ["case2"]}}
    failures = compare_to_baseline(current, {"workloads": {}})
    assert any("parity" in f for f in failures)


def test_unknown_baseline_workloads_are_ignored():
    baseline = {"workloads": {"gone": {"speedup": 10.0}}}
    current = {"workloads": {"new": {"speedup": 1.0}},
               "taint_parity": {"identical": True}}
    assert compare_to_baseline(current, baseline) == []


def test_compare_to_baseline_gates_disabled_observability_overhead():
    current = {"workloads": {},
               "taint_parity": {"identical": True},
               "observability": {"cfbench_disabled_overhead": 0.08,
                                 "limit": 0.03}}
    failures = compare_to_baseline(current, {"workloads": {}})
    assert any("observability" in f for f in failures)
    current["observability"]["cfbench_disabled_overhead"] = 0.01
    assert compare_to_baseline(current, {"workloads": {}}) == []


def test_disabled_observability_adds_no_calls():
    # The deterministic companion of the timed gate: constructed-but-
    # disabled observability makes exactly the calls its absence does.
    without = count_cfbench_calls(False, OBS_CALL_ITERATIONS)
    assert without > OBS_CALL_ITERATIONS
    assert count_cfbench_calls(True, OBS_CALL_ITERATIONS) == without


def test_old_baselines_without_observability_key_still_compare():
    # Pre-observability results lack the key on both sides: no gate.
    current = {"workloads": {}, "taint_parity": {"identical": True}}
    assert compare_to_baseline(current, {"workloads": {}}) == []


def test_memory_word_calls_repeat_exactly():
    """The count CI compares with ``BENCH_emulator.json`` is exact: two
    passes count the same calls."""
    count = count_memory_word_calls()
    assert count > 0
    assert count == count_memory_word_calls()


def test_calls_per_instruction_repeat_exactly_on_both_engines():
    """Each speedup row's exact companion: two runs count the same calls
    per guest instruction, and the translated engine makes fewer."""
    bench = small_bench()
    for name in ("cfbench_native_loop", "table5_tracer_tainted"):
        counts = bench.calls_per_instruction(name)
        assert set(counts) == {"single_step", "tb"}
        assert 0 < counts["tb"] < counts["single_step"]
        assert counts == bench.calls_per_instruction(name)


def test_committed_calls_per_instruction_cover_every_row():
    # CI compares each fresh count with this block, engine by engine.
    committed = load_results(
        str(Path(__file__).parents[2] / "BENCH_emulator.json"))
    counts = committed["calls"]["calls_per_instruction"]
    assert set(counts) == set(committed["workloads"])
    for engines in counts.values():
        assert set(engines) == {"single_step", "tb"}
