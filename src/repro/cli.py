"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — enumerate the built-in leak scenarios;
* ``scenario <name>`` — run one scenario under a configuration and print
  the leak report (and optionally the flow log);
* ``matrix`` — run every scenario under TaintDroid-only and
  TaintDroid+NDroid and print the Table I detection matrix;
* ``corpus`` — run the Section III study;
* ``bench`` — run the Fig. 10 CF-Bench overhead comparison;
* ``supervise`` — run the Section VI market study under the resilience
  supervisor, optionally with injected faults (``--faults``);
* ``farm`` — run a corpus manifest on the sharded multiprocess analysis
  farm (digest-cached results, merged farm-level report);
* ``run`` — execute one scenario, writing an artifact directory
  (metrics, leaks, and — with ``--trace`` — the provenance ledger, a
  Graphviz flow graph and a folded profile);
* ``report`` — render a ``run`` artifact directory into the paper's
  overhead/provenance tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NDroid reproduction (DSN 2014): track information "
                    "flows through JNI on a simulated Android device.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the built-in scenarios")

    scenario = subparsers.add_parser("scenario", help="run one scenario")
    scenario.add_argument("name", help="scenario name (see `repro list`)")
    scenario.add_argument("--config", default="ndroid",
                          choices=["vanilla", "taintdroid", "ndroid",
                                   "droidscope"],
                          help="analysis configuration (default: ndroid)")
    scenario.add_argument("--log", action="store_true",
                          help="print the full information-flow event log")

    subparsers.add_parser("matrix",
                          help="run the Table I detection matrix")

    corpus = subparsers.add_parser("corpus",
                                   help="run the Section III app study")
    corpus.add_argument("--scale", type=float, default=0.1,
                        help="corpus scale factor (1.0 = 227,911 apps; "
                             "default 0.1)")
    corpus.add_argument("--seed", type=int, default=2014)

    bench = subparsers.add_parser("bench",
                                  help="run the Fig. 10 overhead "
                                       "comparison")
    bench.add_argument("--iterations", type=int, default=200)
    bench.add_argument("--repeats", type=int, default=2)
    bench.add_argument("--emulator", action="store_true",
                       help="run the emulator engine benchmark "
                            "(TB vs single-step + taint parity) instead")
    bench.add_argument("--farm", action="store_true",
                       help="run the analysis-farm scaling benchmark "
                            "(serial vs -j N vs resumed) instead")
    bench.add_argument("--workers", type=int, default=4,
                       help="parallel worker count for --farm (default 4)")
    bench.add_argument("--scaling", action="store_true",
                       help="with --farm: also run the paper-scale "
                            "streamed-corpus scaling curve "
                            "(1/2/4/8 workers over a sharded manifest)")
    bench.add_argument("--scaling-jobs", type=int, default=10_000,
                       help="corpus chunk jobs in the scaling curve "
                            "(default 10000 = 100k records)")
    bench.add_argument("--json", metavar="PATH", default=None,
                       help="write emulator benchmark results to PATH")
    bench.add_argument("--baseline", metavar="PATH", default=None,
                       help="fail if speedups regress >tolerance vs this "
                            "baseline JSON")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed speedup regression vs baseline "
                            "(default 0.30)")

    shard = subparsers.add_parser(
        "shard", help="write a sharded streamed-corpus manifest directory")
    shard.add_argument("directory",
                       help="output directory (gets shard-*.jsonl + "
                            "index.json); pass it to `repro farm`")
    shard.add_argument("--scale", type=float, default=0.1,
                       help="corpus scale factor (1.0 = 227,911 apps; "
                            "default 0.1)")
    shard.add_argument("--seed", type=int, default=2014)
    shard.add_argument("--chunk", type=int, default=16,
                       help="corpus records per job (default 16)")
    shard.add_argument("--shard-size", type=int, default=1024,
                       help="jobs per shard file (default 1024)")

    supervise = subparsers.add_parser(
        "supervise",
        help="run the market study under the resilience supervisor")
    supervise.add_argument("--seed", type=int, default=0,
                           help="Monkey event seed (default 0)")
    supervise.add_argument("--events", type=int, default=12,
                           help="Monkey events per app (default 12)")
    supervise.add_argument("--faults", default=None,
                           help="fault plan, comma-joined atoms: decode@N, "
                                "memory@N, hook@N, hook:NAME, "
                                "eintr:SYSCALL, eagain:SYSCALL, "
                                "partial:N:SYSCALL (optional *K repeat)")
    supervise.add_argument("--fault-seed", type=int, default=None,
                           help="generate a random fault plan from this "
                                "seed instead of --faults")
    supervise.add_argument("--fault-target", default=None,
                           help="apply the fault plan only to this package "
                                "(default: every app)")
    supervise.add_argument("--budget", type=int, default=2_000_000,
                           help="instruction budget per app before the "
                                "watchdog fires (default 2,000,000)")
    supervise.add_argument("--report", action="store_true",
                           help="print full crash reports for failed apps")

    farm = subparsers.add_parser(
        "farm", help="run a corpus manifest on the sharded analysis farm")
    farm.add_argument("manifest", nargs="?", default="builtin",
                      help="manifest JSON path, or 'builtin' for the "
                           "full scenario+market corpus (default)")
    farm.add_argument("-j", "--workers", type=int, default=1,
                      help="worker processes (default 1 = serial)")
    farm.add_argument("--resume", action="store_true",
                      help="replay digest-cached results instead of "
                           "re-running unchanged jobs")
    farm.add_argument("--out", default="repro-farm", metavar="DIR",
                      help="artifact directory (default: repro-farm); "
                           "the result cache lives in DIR/cache")
    farm.add_argument("--trace", action="store_true",
                      help="enable the provenance ledger per job "
                           "(builtin manifest only)")
    farm.add_argument("--budget", type=int, default=2_000_000,
                      help="instruction budget per job before the "
                           "watchdog fires (default 2,000,000)")
    farm.add_argument("--deadline", type=float, default=0.0,
                      metavar="SECONDS",
                      help="wall-clock deadline per dispatch (one job, "
                           "or one shard of a sharded manifest); a "
                           "worker past it is SIGKILLed and its batch "
                           "split or retried (default 0 = no deadline)")
    farm.add_argument("--max-retries", type=int, default=2,
                      help="requeue a job whose worker died/hung up to "
                           "N times with backoff+jitter (default 2)")
    farm.add_argument("--chaos", type=int, default=None, metavar="SEED",
                      help="run the chaos harness instead of a plain "
                           "farm run: inject worker kills/SIGSTOPs, "
                           "SIGKILL the scheduler mid-run, tear a "
                           "result file, resume, and verify the "
                           "recovery invariants")
    farm.add_argument("--chaos-inject", type=int, default=None,
                      metavar="SEED", help=argparse.SUPPRESS)
    farm.add_argument("--trace-dir", default=None, metavar="DIR",
                      help="record cross-process span spools under DIR "
                           "and merge them into DIR/trace.json (Chrome "
                           "trace-event JSON, Perfetto-loadable) + "
                           "DIR/timeline.txt after the run")
    farm.add_argument("--warm", action="store_true",
                      help="warm workers: boot each analysis config once "
                           "in the scheduler, fork jobs from the booted "
                           "snapshot and pay only a per-job reset")
    farm.add_argument("--watch", action="store_true",
                      help="live farm console on stderr while the run "
                           "is in flight: per-worker busy/hung/dead, "
                           "current job + instruction count, open spans "
                           "and cache hit rates (needs --trace-dir for "
                           "the span columns)")

    run = subparsers.add_parser(
        "run", help="run one scenario and write an artifact directory")
    run.add_argument("target",
                     help="scenario name or path whose basename is one "
                          "(e.g. examples/ephone)")
    run.add_argument("--config", default="ndroid",
                     choices=["taintdroid", "ndroid", "droidscope"],
                     help="analysis configuration (default: ndroid)")
    run.add_argument("--trace", action="store_true",
                     help="enable the provenance ledger and the sampling "
                          "profiler")
    run.add_argument("--out", default="repro-trace", metavar="DIR",
                     help="artifact directory (default: repro-trace)")
    run.add_argument("--faults", default=None,
                     help="inject a fault plan into the instrumented run "
                          "(same atoms as `repro supervise --faults`)")
    run.add_argument("--profile-interval", type=int, default=16,
                     help="profiler sampling interval in instructions "
                          "(default 16; the in-process default is 128)")

    report = subparsers.add_parser(
        "report", help="render a run artifact directory")
    report.add_argument("--dir", default="repro-trace", metavar="DIR",
                        help="artifact directory (default: repro-trace)")
    return parser


def _command_list() -> int:
    from repro.apps import ALL_SCENARIOS
    print(f"{'name':<14} {'case':<7} description")
    for name, build in ALL_SCENARIOS.items():
        scenario = build()
        print(f"{name:<14} {scenario.case:<7} {scenario.description}")
    return 0


def _command_scenario(name: str, config: str, show_log: bool) -> int:
    from repro.apps import ALL_SCENARIOS
    from repro.apps.base import run_scenario
    from repro.bench.harness import make_platform
    if name not in ALL_SCENARIOS:
        print(f"unknown scenario {name!r}; try `repro list`",
              file=sys.stderr)
        return 2
    scenario = ALL_SCENARIOS[name]()
    platform = make_platform(config)
    run_scenario(scenario, platform)
    print(f"scenario:  {scenario.name} (case {scenario.case})")
    print(f"config:    {config}")
    print(f"expected:  taint 0x{scenario.expected_taint:x} -> "
          f"{scenario.expected_destination or '(no leak)'}")
    if show_log:
        print("\nflow log:")
        print(platform.event_log.dump())
    print("\ndetected leaks:")
    print(platform.leaks.summary())
    detected = (any(r.taint & scenario.expected_taint
                    for r in platform.leaks.records)
                if scenario.expected_taint else bool(platform.leaks.records))
    print(f"\ndetected: {detected}")
    return 0


def _command_matrix() -> int:
    from repro.apps import ALL_SCENARIOS
    from repro.apps.base import run_scenario
    from repro.bench.harness import make_platform
    print(f"{'scenario':<14} {'case':<6} {'TaintDroid':<12} {'+NDroid':<8}")
    for name, build in ALL_SCENARIOS.items():
        row = {}
        for config in ("taintdroid", "ndroid"):
            scenario = build()
            platform = make_platform(config)
            run_scenario(scenario, platform)
            if scenario.expected_taint:
                row[config] = any(r.taint & scenario.expected_taint
                                  for r in platform.leaks.records)
            else:
                row[config] = bool(platform.leaks.records)
        print(f"{name:<14} {scenario.case:<6} "
              f"{'detected' if row['taintdroid'] else 'missed':<12} "
              f"{'detected' if row['ndroid'] else 'missed':<8}")
    return 0


def _command_corpus(scale: float, seed: int) -> int:
    from repro.corpus import CorpusGenerator, analyze_corpus
    # Stream, never materialize: the study holds one record at a time
    # whatever the scale.
    generator = CorpusGenerator(seed=seed, scale=scale)
    report = analyze_corpus(generator.stream())
    print(report.format_summary())
    return 0


def _command_bench(iterations: int, repeats: int) -> int:
    from repro.bench import OverheadHarness
    harness = OverheadHarness(iterations=iterations, repeats=repeats)
    for table in harness.compare_all().values():
        print(table.format())
        print()
    return 0


def _command_bench_emulator(json_path, baseline_path, tolerance) -> int:
    from repro.bench.emulator_bench import (
        EmulatorBench, compare_to_baseline, load_results, write_results)
    results = EmulatorBench().run()
    for name, row in results["workloads"].items():
        print(f"{name:<22} {row['single_step_instr_per_sec']:>12,.0f} -> "
              f"{row['tb_instr_per_sec']:>12,.0f} instr/s "
              f"({row['speedup']:.2f}x)")
    parity = results["taint_parity"]
    print(f"taint parity: {'identical' if parity['identical'] else 'BROKEN'} "
          f"over {len(parity['scenarios'])} scenarios")
    if json_path:
        write_results(results, json_path)
        print(f"wrote {json_path}")
    if baseline_path:
        failures = compare_to_baseline(results, load_results(baseline_path),
                                       tolerance=tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {baseline_path} "
              f"(tolerance {tolerance:.0%})")
    return 0 if parity["identical"] else 1


def _command_bench_farm(workers: int, json_path, scaling: bool = False,
                        scaling_jobs: int = 10_000) -> int:
    from repro.bench.farm_bench import (FarmBench, ScalingBench,
                                        write_results)
    results = FarmBench(workers=workers).run()
    rows = results["runs"]
    for name in ("serial", "parallel", "resumed"):
        row = rows[name]
        print(f"{name:<10} workers={row['workers']:<3} "
              f"wall={row['wall_seconds']:.2f}s "
              f"jobs={row['jobs']} cached={row['cached_jobs']}")
    print(f"speedup (parallel vs serial):  "
          f"{results['speedup']:.2f}x on {results['cpus']} cpu(s)")
    print(f"speedup (resumed vs serial):   {results['resume_speedup']:.2f}x")
    parity = results["parity"]
    print(f"per-app count parity: "
          f"{'identical' if parity['identical'] else 'BROKEN'} "
          f"over {len(parity['apps'])} jobs")

    warm = results["warm"]
    print(f"\nwarm drill ({warm['cold']['jobs']} jobs/mode):")
    for mode in ("cold", "warm"):
        row = warm[mode]
        print(f"  {mode:<5} boot={row['boot_seconds']:.2f}s "
              f"translate={row['translate_seconds']:.2f}s "
              f"per-job total={row['per_job_seconds'] * 1000:.2f}ms")
    print(f"  boot vs reset only: {warm['boot_speedup']:.2f}x")
    print(f"  warm vs cold: {warm['speedup_warm_vs_cold']:.2f}x "
          f"(gate >= {warm['gate']['threshold']:.1f}x: "
          f"{'passed' if warm['gate']['passed'] else 'FAILED'})")
    warm_parity = warm["parity"]
    print(f"  taint parity: "
          f"{'identical' if warm_parity['identical'] else 'BROKEN'} "
          f"over {len(warm_parity['scenarios'])} scenarios x 2 modes")
    warm_ok = warm["gate"]["passed"] and warm_parity["identical"]

    scaling_ok = True
    if scaling:
        curve = ScalingBench(jobs=scaling_jobs).run()
        results["scaling"] = curve
        print(f"\nscaling curve: {curve['jobs']} corpus jobs "
              f"({curve['records']:,} records, "
              f"scale {curve['scale']:.4f})")
        for point in curve["curve"]:
            print(f"  workers={point['workers']:<3} "
                  f"wall={point['wall_seconds']:.2f}s "
                  f"{point['jobs_per_second']:>9,.0f} jobs/s "
                  f"speedup={point['speedup_vs_serial']:.2f}x "
                  f"parity={'ok' if point['parity_with_serial'] else 'BROKEN'}")
        marginals = curve["marginals"]
        print(f"  marginals vs plan: "
              f"{'exact' if marginals['exact'] else 'DRIFTED'}")
        if curve["parallel_beats_serial"] is None:
            print(f"  {curve['skip_notice']}")
        else:
            print(f"  parallel beats serial: "
                  f"{curve['parallel_beats_serial']}")
        scaling_ok = (marginals["exact"]
                      and all(p["parity_with_serial"]
                              for p in curve["curve"])
                      and curve["parallel_beats_serial"] is not False)

    if json_path:
        write_results(results, json_path)
        print(f"wrote {json_path}")
    return 0 if parity["identical"] and warm_ok and scaling_ok else 1


def _command_supervise(args) -> int:
    from repro.apps.market import run_supervised_market_study
    from repro.resilience import FaultPlan, Supervisor

    plan = None
    if args.faults and args.fault_seed is not None:
        print("use either --faults or --fault-seed, not both",
              file=sys.stderr)
        return 2
    if args.faults:
        try:
            plan = FaultPlan.parse(args.faults)
        except (ValueError, KeyError) as error:
            print(f"bad --faults spec: {error}", file=sys.stderr)
            return 2
    elif args.fault_seed is not None:
        plan = FaultPlan.random(args.fault_seed)

    supervisor = Supervisor(budget=args.budget)
    results = run_supervised_market_study(
        seed=args.seed, events=args.events, plan=plan,
        fault_target=args.fault_target, supervisor=supervisor)

    if plan is not None:
        target = args.fault_target or "every app"
        print(f"fault plan: {plan.describe()} (target: {target})")
        print()
    print(f"{'package':<26} {'outcome':<10} {'attempts':<9} "
          f"{'degraded':<9} {'leaked':<7} destinations")
    for result in results:
        observation = result.value
        leaked = "yes" if observation and observation.leaked else "no"
        destinations = ", ".join(observation.leak_destinations) \
            if observation else "-"
        print(f"{result.label:<26} {result.status:<10} "
              f"{result.attempts:<9} {result.degraded_events:<9} "
              f"{leaked:<7} {destinations or '-'}")
    failed = [r for r in results if r.crash_report is not None]
    if failed:
        print()
        for result in failed:
            if args.report:
                print(result.crash_report.format())
                print()
            else:
                print(f"{result.label}: {result.error} "
                      f"(re-run with --report for the full crash report)")
    completed = sum(1 for r in results if r.completed)
    print(f"\n{completed}/{len(results)} apps completed "
          f"({len(results) - completed} contained)")
    return 0


def _command_shard(args) -> int:
    from repro.farm.manifest import ShardedManifest, iter_corpus_jobs
    manifest = ShardedManifest.write(
        args.directory,
        iter_corpus_jobs(scale=args.scale, seed=args.seed,
                         chunk=args.chunk),
        shard_size=args.shard_size)
    print(f"wrote {args.directory}: {len(manifest):,} jobs across "
          f"{manifest.shard_count} shard(s) "
          f"(~{args.chunk} records/job, seed {args.seed}, "
          f"scale {args.scale})")
    print(f"run it with: repro farm {args.directory} -j N")
    return 0


def _command_farm(args) -> int:
    import os
    from repro.farm import (ChaosMonkey, FarmConsole, FarmInterrupted,
                            FarmScheduler, Manifest, ResultStore,
                            render_farm_report, write_farm_artifacts,
                            write_trace_artifacts)
    try:
        manifest = Manifest.load(args.manifest, trace=args.trace) \
            if args.manifest == "builtin" else Manifest.load(args.manifest)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"bad manifest {args.manifest!r}: {error}", file=sys.stderr)
        return 2
    if not len(manifest):
        print("manifest holds no jobs", file=sys.stderr)
        return 2
    if args.chaos is not None:
        return _command_farm_chaos(args, manifest)
    chaos = None
    if args.chaos_inject is not None:
        chaos = ChaosMonkey.for_manifest(manifest, args.chaos_inject)
    run_dir = os.path.join(args.out, "runstate")
    scheduler = FarmScheduler(
        manifest, workers=args.workers,
        store=ResultStore(os.path.join(args.out, "cache")),
        resume=args.resume, budget=args.budget,
        deadline=args.deadline or None, max_retries=args.max_retries,
        chaos=chaos, run_dir=run_dir, trace_dir=args.trace_dir,
        warm=args.warm)
    console = None
    if args.watch:
        console = FarmConsole(run_dir, trace_dir=args.trace_dir)
        console.start()
    try:
        report = scheduler.run()
    except FarmInterrupted as drained:
        print(f"interrupted: {drained} — journaled, workers reaped; "
              f"re-run with --resume to finish", file=sys.stderr)
        return 130
    finally:
        if console is not None:
            console.stop()
    write_farm_artifacts(report, args.out)
    if args.trace_dir is not None:
        artifacts = write_trace_artifacts(args.trace_dir)
        print(f"wrote {artifacts['trace']} (Chrome trace-event JSON) "
              f"and {artifacts['timeline']}")
    print(render_farm_report(report), end="")
    print(f"wrote {args.out}/{{farm.json, report.txt, jobs/, merged/}}")
    return 1 if report.outcomes.get("lost", 0) else 0


def _command_farm_chaos(args, manifest) -> int:
    from repro.farm.chaos import render_chaos_report, run_chaos_harness
    report = run_chaos_harness(
        manifest, seed=args.chaos, out_dir=args.out,
        workers=max(2, args.workers), budget=args.budget,
        deadline=args.deadline or 10.0, max_retries=max(3, args.max_retries))
    print(render_chaos_report(report), end="")
    print(f"wrote {args.out}/chaos.json")
    return 0 if report.ok else 1


def _command_run(args) -> int:
    import json
    import os
    from repro.apps import ALL_SCENARIOS
    from repro.apps.base import run_scenario
    from repro.bench.harness import make_platform
    from repro.observability.profiler import SymbolResolver
    from repro.resilience import FaultPlan

    name = os.path.basename(os.path.normpath(args.target))
    if name not in ALL_SCENARIOS:
        print(f"unknown scenario {name!r}; try `repro list`",
              file=sys.stderr)
        return 2
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.parse(args.faults)
        except (ValueError, KeyError) as error:
            print(f"bad --faults spec: {error}", file=sys.stderr)
            return 2
    os.makedirs(args.out, exist_ok=True)

    def execute(config: str, trace: bool, faulted: bool):
        scenario = ALL_SCENARIOS[name]()
        platform = make_platform(config, trace=trace)
        if trace:
            platform.observability.profiler.set_interval(
                args.profile_interval)
        if faulted and plan is not None:
            active = plan.activate()
            platform.emu.fault_injector = active
            platform.kernel.syscall_fault_hook = active.syscall_fault
        run_scenario(scenario, platform)
        return platform, scenario

    def artifact(filename: str) -> str:
        return os.path.join(args.out, filename)

    # The vanilla baseline of the same scenario (Table IV denominator).
    baseline_platform, __ = execute("vanilla", False, False)
    baseline_platform.observability.metrics.write_json(
        artifact("metrics_baseline.json"))

    platform, scenario = execute(args.config, args.trace, True)
    platform.observability.metrics.write_json(artifact("metrics.json"))
    leaks = [
        {
            "detector": record.detector,
            "sink": record.sink,
            "taint": record.taint,
            "destination": record.destination,
            "payload": record.payload.hex(),
            "context": record.context,
        }
        for record in platform.leaks.records
    ]
    with open(artifact("leaks.json"), "w") as handle:
        json.dump(leaks, handle, indent=2)
        handle.write("\n")
    with open(artifact("meta.json"), "w") as handle:
        json.dump({
            "scenario": scenario.name,
            "case": scenario.case,
            "config": args.config,
            "trace": args.trace,
            "faults": args.faults,
        }, handle, indent=2)
        handle.write("\n")
    written = ["metrics_baseline.json", "metrics.json", "leaks.json",
               "meta.json"]

    if args.trace:
        observability = platform.observability
        edges = observability.ledger.to_jsonl(artifact("trace.jsonl"))
        paths = []
        for leak in leaks:
            path = observability.ledger.reconstruct(
                taint=leak["taint"], destination=leak["destination"])
            if path:
                paths.append(path)
        with open(artifact("flow.dot"), "w") as handle:
            handle.write(observability.ledger.to_dot(paths or None))
        observability.profiler.write_folded(
            artifact("profile.folded"),
            SymbolResolver.from_platform(platform))
        written += ["trace.jsonl", "flow.dot", "profile.folded"]
        print(f"traced {edges} provenance edges "
              f"({observability.ledger.dropped} dropped)")
    print(f"{scenario.name}: {len(leaks)} leak(s) reported")
    print(f"wrote {args.out}/{{{', '.join(written)}}}")
    return 0


def _command_report(directory: str) -> int:
    from repro.observability.report import RunArtifacts, render_report
    import os
    if not os.path.isdir(directory):
        print(f"no artifact directory {directory!r}; "
              f"run `repro run <scenario> --out {directory}` first",
              file=sys.stderr)
        return 2
    artifacts = RunArtifacts(directory)
    text, ok = render_report(artifacts)
    print(text, end="")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to a command; returns the exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "scenario":
        return _command_scenario(args.name, args.config, args.log)
    if args.command == "matrix":
        return _command_matrix()
    if args.command == "corpus":
        return _command_corpus(args.scale, args.seed)
    if args.command == "bench":
        if args.emulator:
            return _command_bench_emulator(args.json, args.baseline,
                                           args.tolerance)
        if args.farm:
            return _command_bench_farm(args.workers, args.json,
                                       scaling=args.scaling,
                                       scaling_jobs=args.scaling_jobs)
        return _command_bench(args.iterations, args.repeats)
    if args.command == "shard":
        return _command_shard(args)
    if args.command == "supervise":
        return _command_supervise(args)
    if args.command == "farm":
        return _command_farm(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "report":
        return _command_report(args.dir)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
