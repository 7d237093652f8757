"""The benchmark's own smoke test.

Run from the repository root::

    python3 perfbench/smoke.py [--ops 3]

For every workload and two seeds it runs the benchmark untraced and
traced with a tiny fixed op count, and asserts that:

* the result line is well formed, every op passed its check, and every
  end-to-end (untraced) or per-layer (traced) metric named in
  BENCHMARK.json is printed with its unit, and no other;
* in the traced run the layer self times plus ``unattributed_ms`` add
  up to the op wall time within 5%;
* the per-op counts repeat exactly across two traced runs with the same
  seed (a count that does not is printed with its spread, and fails);
* without the program's source next to it the benchmark exits non-zero
  and prints no result.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import shutil
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)

# Per-layer metrics that are counts (or ratios of counts) and must
# repeat exactly for one seed and op count.
COUNT_METRICS = (
    "kernel.syscalls", "dalvik.instructions", "dalvik.tbc.hit_ratio",
    "dalvik.tbc.escalations", "jni.crossings", "jni.fast_ratio",
    "emulator.instructions", "emulator.tb.hit_ratio",
    "emulator.tb.translations_per_op", "core.traced_instructions",
    "core.taint_propagations", "farm.retries", "farm.worker_deaths",
    "traced_ops",
)


def bench(workload, seed, trace, ops, cwd=ROOT):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--ops", str(ops)]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command[1:])} exited "
                             f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def check_result(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: correct={result['correct']} "
                             f"attempted={result['attempted']} "
                             f"failed={result['failed']}")
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(name for name in set(printed) & set(expected)
                       if printed[name] != expected[name])
        raise AssertionError(f"{label}: missing {missing}, extra {extra}, "
                             f"wrong units {units}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{label}: {name} = {metric['value']!r}")


def check_layers_add_up(result, layers, label):
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    total = sum(values[f"{layer}.self_ms"] for layer in layers) + \
        values["unattributed_ms"]
    wall = values["op_wall_ms"]
    if abs(total - wall) > 0.05 * wall:
        raise AssertionError(f"{label}: layers + unattributed = "
                             f"{total:.4f} ms, op wall {wall:.4f} ms")


def check_counts_repeat(first, second, label):
    spreads = []
    for name in COUNT_METRICS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            spreads.append(f"{name}: {a} vs {b}")
    if spreads:
        raise AssertionError(f"{label}: counts differ between two runs "
                             f"with one seed: {'; '.join(spreads)}")


def check_refuses_without_program():
    """In a directory with only BENCHMARK.json and perfbench/, fail."""
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "app_analysis", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        raise AssertionError("benchmark ran without the program source")


def main():
    parser = argparse.ArgumentParser(description="benchmark smoke test")
    parser.add_argument("--ops", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    from tracing import LAYERS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {metric["name"]: metric["unit"]
                  for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"]
                 for metric in spec["per_layer"]}

    for workload in (entry["name"] for entry in spec["workloads"]):
        for seed in SEEDS:
            label = f"{workload} seed {seed}"
            check_result(bench(workload, seed, 0, args.ops), end_to_end,
                         f"{label} untraced")
            traced = bench(workload, seed, 1, args.ops)
            check_result(traced, per_layer, f"{label} traced")
            check_layers_add_up(traced, LAYERS, f"{label} traced")
            if seed == SEEDS[0]:
                check_counts_repeat(traced, bench(workload, seed, 1, args.ops),
                                    label)
            print(f"ok  {label}")
    check_refuses_without_program()
    print("ok  refuses to run without the program source")


if __name__ == "__main__":
    main()
