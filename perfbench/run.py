"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload app_analysis --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see README.md).  ``--ops N`` runs
exactly N ops per timed phase instead of timing by ``--seconds`` (the
smoke test uses it).  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 before printing a result.  Every
file the run writes stays under ``.perfbench/`` in the repository root.
"""

import sys

# Importing the program must not rewrite byte-code caches in the tree.
sys.dont_write_bytecode = True

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 7
# A timed phase runs past --seconds until this many ops have finished,
# so that at least ten samples lie above p90.  peak_rss_mib is read when
# this many ops have finished, so every run reports the same work.
MIN_OPS = 100
# Host-speed calibration (see HostSpeed): the reference loop's CPU time
# at the benchmark's reference speed, and how much CPU time may pass
# between two calibration samples.
REFERENCE_LOOP_NS = 1_000_000
CALIBRATE_EVERY_NS = 50_000_000
# Reported side by side with the measured Fig. 10 rows.
PAPER_FIG10 = {"ndroid": "5.45x", "droidscope": ">=11x"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops per timed phase")
    return parser.parse_args(argv)


def _load_program():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _reference_loop():
    """Fixed pure-Python work shaped like the program's: many small
    allocations (tuples, strings, dicts) and dict inserts and lookups."""
    records = [(i, str(i), {"value": i}) for i in range(2000)]
    table = {}
    for record in records:
        table[record[1]] = record
    return sum(len(record[1]) for record in table.values())


class HostSpeed:
    """How fast the host runs a fixed reference loop right now.

    The benchmark reports CPU time scaled to a reference host speed:
    ``cpu * REFERENCE_LOOP_NS / (the loop's current CPU time)``.  On the
    shared 2-vCPU host it was tuned on, the same op's CPU time moved by
    up to 1.8x within minutes (wall time moves more: the hypervisor
    also steals 5-40% of a run), while its ratio to the reference loop
    stayed within a few percent.  The loop is benchmark code, so no
    change to the program moves it.  A phase's scale comes from the
    median of the samples taken during it, between ops, at most every
    50 ms of CPU time.
    """

    def __init__(self) -> None:
        self.samples = []
        self.last_cpu = None

    def begin_window(self) -> None:
        self.samples = []
        self.last_cpu = None

    def sample(self) -> None:
        # Best of three back-to-back runs with the collector off: the
        # first run after an op pays for the caches and allocator pools
        # the op left cold, and a collection costs more the more objects
        # the program keeps alive.  Neither is host speed.  The loop
        # makes no reference cycles, so it needs no collection.
        times = []
        gc.disable()
        try:
            for __ in range(3):
                begin = time.process_time_ns()
                _reference_loop()
                times.append(time.process_time_ns() - begin)
        finally:
            gc.enable()
        self.samples.append(min(times))
        self.last_cpu = time.process_time_ns()

    def sample_if_due(self) -> None:
        if self.last_cpu is None or \
                time.process_time_ns() - self.last_cpu >= CALIBRATE_EVERY_NS:
            self.sample()

    def scale(self) -> float:
        """Factor from this window's CPU times to reference CPU times."""
        return REFERENCE_LOOP_NS / statistics.median(self.samples)


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


class Phase:
    """Outcome of one timed phase (closed loop, one client)."""

    def __init__(self) -> None:
        self.latencies_ms = []    # normalized CPU time per op
        self.cpus_ms = []         # raw CPU time per op
        self.walls_ms = []        # wall time per op
        self.units = 0.0
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.peak_rss_mib = 0.0
        self.counts = {}          # summed over the first count_ops ops
        self.counted_ops = 0
        self.totals = {}          # summed over every op
        self.rows = []


def timed_phase(workload, host, seconds, ops, recorder=None):
    from workloads import CheckFailed

    args = workload.args()
    phase = Phase()
    gc.collect()
    host.begin_window()
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        arg = args[index % len(args)]
        host.sample_if_due()
        if recorder is not None:
            recorder.begin_op(index)
        result = error = None
        begin_cpu = time.process_time_ns()
        begin = time.perf_counter_ns()
        try:
            result = workload.run(arg)
        except Exception as caught:  # a failed op is counted, not fatal
            error = caught
        wall_ns = time.perf_counter_ns() - begin
        op_cpu_ms = (time.process_time_ns() - begin_cpu) / 1e6
        phase.cpus_ms.append(op_cpu_ms)
        phase.walls_ms.append(wall_ns / 1e6)
        if recorder is not None:
            recorder.end_op(wall_ns)
        if error is None:
            try:
                units, counts = workload.check(arg, result)
            except CheckFailed as caught:
                error = caught
        if error is not None:
            phase.failed += 1
            if phase.failed <= 3:
                print(f"op {index} failed: {type(error).__name__}: {error}",
                      file=sys.stderr)
        else:
            phase.units += units
            for key, value in counts.items():
                phase.totals[key] = phase.totals.get(key, 0) + value
                if index < workload.count_ops:
                    phase.counts[key] = phase.counts.get(key, 0) + value
            if index < workload.count_ops:
                phase.counted_ops += 1
            if recorder is not None:
                phase.rows.extend(workload.farm_rows(result))
        if result is not None:
            workload.after_op(arg, result)
        index += 1
        if index == MIN_OPS:
            phase.peak_rss_mib = peak_rss_mib()
        if ops:
            if index >= ops:
                break
        elif index >= MIN_OPS and time.perf_counter() >= deadline:
            break
    phase.wall_s = time.perf_counter() - start
    if not phase.peak_rss_mib:
        phase.peak_rss_mib = peak_rss_mib()
    phase.attempted = index
    host.sample()
    scale = host.scale()
    phase.latencies_ms = [value * scale for value in phase.cpus_ms]
    return phase


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, phase, setup_times):
    latencies = phase.latencies_ms
    p90 = _p90(latencies)
    op_s = sum(latencies) / 1e3
    print(f"{workload.name}: {len(latencies)} ops, "
          f"{sum(1 for value in latencies if value > p90)} above p90, "
          f"{phase.units:g} {workload.unit} in {op_s:.2f} reference CPU-s, "
          f"set-up {', '.join(f'{value:.3f}' for value in setup_times)} s")
    for label, values in (("raw CPU", phase.cpus_ms),
                          ("wall clock", phase.walls_ms)):
        print(f"  {label} (not gated): p50 {statistics.median(values):.4g} "
              f"ms, p90 {_p90(values):.4g} ms")
    print(f"  wall clock (not gated): {phase.units / phase.wall_s:.4g} "
          f"{workload.unit}/s")
    return {
        "throughput_per_s": (phase.units / op_s, "units/cpu-s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (phase.peak_rss_mib, "MiB"),
    }


def fig10_comparator():
    """Fig. 10 rows: suite-time slowdown vs vanilla, OverheadTable's means."""
    from repro.bench.harness import OverheadHarness
    from workloads import CFBENCH_ITERATIONS

    tables = OverheadHarness(iterations=CFBENCH_ITERATIONS,
                             repeats=3).compare_all()
    host = (f"{platform.processor() or platform.machine()}, "
            f"{os.cpu_count()} CPUs, Python {platform.python_version()}")
    print(f"Fig. 10 overhead vs vanilla on {host} (paper: NDroid "
          f"{PAPER_FIG10['ndroid']}, DroidScope {PAPER_FIG10['droidscope']})")
    metrics = {}
    for config, table in tables.items():
        scores = {"native": table.native_score, "java": table.java_score,
                  "overall": table.overall}
        print(f"  {config:<11s} " + "  ".join(
            f"{name} {value:5.2f}x" for name, value in scores.items()) +
            (f"   paper {PAPER_FIG10[config]}" if config in PAPER_FIG10
             else ""))
        for name, value in scores.items():
            metrics[f"fig10.overhead_x.{config}.{name}"] = (value, "x")
    return metrics


def corpus_layer_timing(seed):
    """Generator and classifier cost per record, in process, over the
    first corpus the corpus_stream workload runs for ``seed``."""
    from repro.corpus.generator import CorpusGenerator
    from repro.corpus.study import classify
    from workloads import CORPUS_SCALE, corpus_seeds

    generator = CorpusGenerator(seed=corpus_seeds(seed)[0],
                                scale=CORPUS_SCALE)
    start = time.perf_counter()
    records = list(generator.stream())
    generated = time.perf_counter()
    for record in records:
        classify(record)
    classified = time.perf_counter()
    count = len(records)
    return {
        "corpus.generate_us_per_record":
            ((generated - start) / count * 1e6, "us"),
        "corpus.classify_us_per_record":
            ((classified - generated) / count * 1e6, "us"),
    }


def per_layer(workload, phase, recorder, untraced_p50):
    """Per-layer metrics of the traced phase (see README.md for each)."""
    from tracing import HOOK_SPANS, LAYERS
    from workloads import CORPUS_WORKERS

    ops = max(1, recorder.ops)
    per_op = max(1, phase.counted_ops)

    def op_ms(ns):
        return ns / 1e6 / ops

    def count(key):
        return phase.counts.get(key, 0) / per_op

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "op_wall_ms": (op_ms(recorder.op_wall_ns), "ms"),
        "unattributed_ms": (op_ms(recorder.op_wall_ns -
                                  recorder.top_level_ns), "ms"),
        "tracing_overhead_ratio": (
            ratio(statistics.median(phase.latencies_ms), untraced_p50), "x"),
        "traced_ops": (recorder.ops, "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (op_ms(recorder.layer_self_ns[layer]),
                                       "ms")

    tb_hits, tb_misses = count("emulator.tb.hits"), count("emulator.tb.misses")
    tbc_hits = count("dalvik.tbc.hits")
    tbc_misses = count("dalvik.tbc.misses")
    fast, slow = count("jni.crossings_fast"), count("jni.crossings_slow")
    instructions = count("emulator.instructions")
    emulator_s = recorder.layer_self_ns["emulator"] / 1e9 / ops
    analysis_ns = recorder.inclusive_ns("framework.analyze") + \
        recorder.inclusive_ns("corpus.analyze")
    metrics.update({
        "framework.reset_for_job_ms": (
            recorder.mean_call_ns("framework.reset_for_job") / 1e6, "ms"),
        "framework.install_ms": (
            recorder.mean_call_ns("framework.install") / 1e6, "ms"),
        "framework.prepare_template_s": (recorder.mean_call_ns(
            "framework.template_boot", include_setup=True) / 1e9, "s"),
        "kernel.sync_tasks_ms": (
            recorder.mean_call_ns("kernel.sync_tasks") / 1e6, "ms"),
        "kernel.syscall_self_ms": (
            op_ms(recorder.self_ns("kernel.syscall")), "ms"),
        "kernel.syscalls": (count("kernel.traps"), "count"),
        "dalvik.instructions": (count("dalvik.instructions"), "count"),
        "dalvik.tbc.hit_ratio": (ratio(tbc_hits, tbc_hits + tbc_misses),
                                 "ratio"),
        "dalvik.tbc.escalations": (count("dalvik.tbc.escalations"), "count"),
        "jni.native_call_ms": (
            recorder.mean_call_ns("jni.native_call") / 1e6, "ms"),
        "jni.crossings": (fast + slow, "count"),
        "jni.fast_ratio": (ratio(fast, fast + slow), "ratio"),
        "emulator.instructions": (instructions, "count"),
        "emulator.instr_per_s": (ratio(instructions, emulator_s), "1/s"),
        "emulator.tb.hit_ratio": (ratio(tb_hits, tb_hits + tb_misses),
                                  "ratio"),
        "emulator.tb.translations_per_op": (
            count("emulator.tb.translations"), "count"),
        "core.hook_self_ms": (op_ms(sum(recorder.self_ns(name)
                                        for name in HOOK_SPANS)), "ms"),
        "core.traced_instructions": (count("core.traced_instructions"),
                                     "count"),
        "core.taint_propagations": (count("core.taint_propagations"),
                                    "count"),
        "libc.model_self_ms": (op_ms(recorder.self_ns("libc.host")), "ms"),
        "resilience.supervisor_overhead_ms": (op_ms(
            recorder.inclusive_ns("resilience.execute_job") - analysis_ns),
            "ms"),
    })

    elapsed = [row.get("elapsed_seconds", 0.0) for row in phase.rows]
    busy_s = sum(elapsed)
    slot_s = CORPUS_WORKERS * sum(phase.walls_ms) / 1e3
    metrics.update({
        "farm.job_elapsed_ms": (
            statistics.median(elapsed) * 1e3 if elapsed else 0.0, "ms"),
        "farm.overhead_ms_per_job": (
            ratio(slot_s - busy_s, len(elapsed)) * 1e3, "ms"),
        "farm.worker_busy_ratio": (ratio(busy_s, slot_s) if elapsed else 0.0,
                                   "ratio"),
        "farm.journal_record_ms": (
            recorder.mean_call_ns("farm.journal_record") / 1e6, "ms"),
        "farm.merge_ms": (op_ms(recorder.self_ns("farm.merge")), "ms"),
        "farm.retries": (phase.totals.get("farm.retries", 0), "count"),
        "farm.worker_deaths": (phase.totals.get("farm.worker_deaths", 0),
                               "count"),
    })
    return metrics


def run(args, workdir):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r} "
                         f"(expected one of {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    host = HostSpeed()
    setup_cpus = []
    for __ in range(SETUP_REPEATS):
        gc.collect()
        host.sample()
        start = time.process_time_ns()
        workload.setup()
        setup_cpus.append(time.process_time_ns() - start)
    host.sample()
    setup_times = [value * host.scale() / 1e9 for value in setup_cpus]

    if not args.trace:
        phase = timed_phase(workload, host, args.seconds, args.ops)
        return [phase], end_to_end(workload, phase, setup_times)

    # Traced run: an untraced half for the overhead ratio, the side
    # measurements, then the instrumented half on a fresh set-up.
    import tracing

    untraced = timed_phase(workload, host, args.seconds / 2, args.ops)
    untraced_p50 = statistics.median(untraced.latencies_ms)
    side = fig10_comparator()
    side.update(corpus_layer_timing(args.seed))

    recorder = tracing.SpanRecorder()
    tracing.instrument(recorder)
    recorder.begin_setup()
    workload.setup()
    recorder.stop()
    traced = timed_phase(workload, host, args.seconds / 2, args.ops,
                         recorder)
    spans_path = os.path.join(ROOT, ".perfbench",
                              f"spans-{args.workload}-{args.seed}.jsonl")
    recorder.write(spans_path)
    print(f"{len(recorder.spans)} spans written to "
          f"{os.path.relpath(spans_path, ROOT)} ({recorder.dropped} past "
          f"the cap counted, not kept)")
    for label, phase in (("untraced", untraced), ("traced", traced)):
        print(f"  {label}: {phase.attempted} ops, scaled CPU p50 "
              f"{statistics.median(phase.latencies_ms):.4g} ms, raw CPU "
              f"p50 {statistics.median(phase.cpus_ms):.4g} ms, wall p50 "
              f"{statistics.median(phase.walls_ms):.4g} ms")
    metrics = per_layer(workload, traced, recorder, untraced_p50)
    metrics.update(side)
    return [untraced, traced], metrics


def main(argv=None):
    args = _parse(argv)
    _load_program()
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    # Anything the program puts in a temporary directory stays inside
    # the checkout and is removed with the work directory.
    tempfile.tempdir = os.path.join(workdir, "tmp")
    os.makedirs(tempfile.tempdir)
    try:
        phases, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
