"""The farm worker: run jobs to classified, JSON-able results.

:func:`execute_job` runs one job; it takes and returns plain dicts
(JSON-able) and lives at module top level.  :func:`execute_batch` runs a
scheduler batch through it and commits the rows as one file.  Every job runs inside the resilience
:class:`Supervisor`, so a crashing or runaway app becomes a recorded
``crashed``/``timeout`` outcome with a tombstone (the serialized
:class:`CrashReport`) instead of killing the worker — and anything that
somehow escapes the supervisor is caught here and tombstoned too, so the
pool never loses a worker to one hostile job.
"""

from __future__ import annotations

import io
import os
import time
from typing import Dict, Optional

from repro.farm.manifest import JobSpec

DEFAULT_BUDGET = 2_000_000

# The worker's live platform, published for the heartbeat thread's vitals
# poll (current instruction count) and torn down per job.  A module
# global on purpose: the heartbeat thread must read it without holding
# any reference into the job's call stack.
LIVE: Dict = {"platform": None, "tracer": None}

# Warm-worker state, configured once per process by the scheduler (before
# forking, so children inherit booted templates copy-on-write) via
# :func:`configure_warm`.  ``templates`` maps config name -> a booted
# platform that ``reset_for_job()`` returns to pristine between jobs.
WARM: Dict = {"enabled": False, "templates": {}}


def configure_warm(enabled: bool = False) -> None:
    """Set this process's warm-worker policy (scheduler entry point)."""
    WARM["enabled"] = bool(enabled)
    WARM["templates"] = {}


def warm_boot_templates(configs) -> None:
    """Boot one template platform per config (call before forking)."""
    if not WARM["enabled"]:
        return
    from repro.bench.harness import make_platform

    for config in sorted(set(configs)):
        if config in WARM["templates"]:
            continue
        platform = make_platform(config)
        platform.prepare_template()
        WARM["templates"][config] = platform


def _boot_platform(spec: JobSpec, ctx):
    """Build + attach the job's platform, publishing it to ``LIVE``.

    With a span tracer active the boot is wrapped in a ``platform_boot``
    span, the engines' span hooks are pointed at the tracer, and a
    µs-per-crossing histogram is registered so JNI latency percentiles
    land in the job's metrics snapshot.

    Warm mode reuses the per-config template platform instead: the job
    pays ``reset_for_job()`` (a state wipe), not a full boot, and keeps
    every warm translation cache.  Traced jobs always cold-boot — the
    ledger/profiler wiring is per-platform and jobs must not share it.
    """
    from repro.bench.harness import make_platform

    tracer = LIVE.get("tracer")
    if tracer is None and not spec.trace and WARM["enabled"]:
        platform = WARM["templates"].get(spec.config)
        if platform is None:
            # A long-lived forked worker boots its template lazily (the
            # pool scheduler pre-boots before forking; this is the
            # fallback for workers forked before configure_warm ran jobs).
            warm_boot_templates([spec.config])
            platform = WARM["templates"][spec.config]
        platform.reset_for_job()
        LIVE["platform"] = platform
        ctx.attach(platform)
        return platform
    if tracer is None:
        platform = make_platform(spec.config, trace=spec.trace)
    else:
        with tracer.span("platform_boot", cat="worker",
                         config=spec.config):
            platform = make_platform(spec.config, trace=spec.trace)
        observability = platform.observability
        if observability is not None:
            observability.attach_spans(tracer)
            platform.jni.crossing_histogram = \
                observability.metrics.histogram("jni.crossing_us")
        else:
            from repro.observability.spans import attach_spans
            attach_spans(platform, tracer)
    LIVE["platform"] = platform
    ctx.attach(platform)
    return platform


def _leak_rows(platform) -> list:
    return [
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


def _observe(platform, trace: bool) -> Dict:
    """Collect the per-job observability payload off a finished platform."""
    payload: Dict = {"leaks": _leak_rows(platform), "metrics": {}}
    observability = platform.observability
    if observability is not None:
        payload["metrics"] = observability.snapshot()
        payload["metrics_gauges"] = observability.metrics.gauge_keys()
        if trace and observability.ledger is not None:
            buffer = io.StringIO()
            observability.ledger.to_jsonl(buffer)
            payload["trace"] = [line for line in
                                buffer.getvalue().splitlines() if line]
            payload["trace_dropped"] = observability.ledger.dropped
    return payload


def _analyze_scenario(spec: JobSpec, ctx) -> Dict:
    from repro.apps import ALL_SCENARIOS
    from repro.apps.base import run_scenario

    if spec.target not in ALL_SCENARIOS:
        raise ValueError(f"unknown scenario {spec.target!r}")
    scenario = ALL_SCENARIOS[spec.target]()
    platform = _boot_platform(spec, ctx)
    tracer = LIVE.get("tracer")
    if tracer is None:
        run_scenario(scenario, platform)
    else:
        with tracer.span("scenario_run", cat="worker", target=spec.target):
            run_scenario(scenario, platform)
    payload = _observe(platform, spec.trace)
    if scenario.expected_taint:
        detected = any(r["taint"] & scenario.expected_taint
                       for r in payload["leaks"])
    else:
        detected = bool(payload["leaks"])
    payload["detected"] = detected
    payload["expected_taint"] = scenario.expected_taint
    payload["expected_destination"] = scenario.expected_destination
    return payload


def _analyze_market(spec: JobSpec, ctx) -> Dict:
    from repro.apps.market import MARKET_APPS
    from repro.framework.monkey import MonkeyRunner

    if spec.target not in MARKET_APPS:
        raise ValueError(f"unknown market app {spec.target!r}")
    apk = MARKET_APPS[spec.target]()
    platform = _boot_platform(spec, ctx)
    tracer = LIVE.get("tracer")
    if tracer is None:
        platform.install(apk)
        session = MonkeyRunner(platform, seed=spec.seed).run(
            apk, events=spec.events)
    else:
        with tracer.span("scenario_run", cat="worker", target=spec.target):
            platform.install(apk)
            session = MonkeyRunner(platform, seed=spec.seed).run(
                apk, events=spec.events)
    payload = _observe(platform, spec.trace)
    payload["coverage"] = session.coverage
    payload["detected"] = bool(payload["leaks"])
    return payload


def _analyze_corpus_chunk(spec: JobSpec, ctx) -> Dict:
    """Classify one chunk of the synthetic Section III corpus.

    Pure static analysis: the worker rebuilds the addressable generator
    from ``(seed, scale)``, streams exactly ``[target, target+chunk)``
    — never the prefix — and folds the classification into counters.
    No platform is booted, so a 100k-record corpus costs no emulator
    state; the counts merge fleet-wide as plain summed metrics.
    """
    from repro.corpus.generator import CorpusGenerator
    from repro.corpus.study import classify

    generator = CorpusGenerator(seed=spec.seed, scale=spec.scale)
    start = int(spec.target)
    counts = {"corpus.records": 0, "corpus.type1": 0, "corpus.type2": 0,
              "corpus.type3": 0, "corpus.plain": 0,
              "corpus.type1_without_libs": 0, "corpus.type1_admob": 0,
              "corpus.type2_loadable": 0, "corpus.type3_games": 0}
    categories: Dict[str, int] = {}
    for record in generator.stream(start, start + spec.chunk):
        counts["corpus.records"] += 1
        kind = classify(record)
        if kind == "I":
            counts["corpus.type1"] += 1
            categories[record.category] = \
                categories.get(record.category, 0) + 1
            if not record.has_native_libraries():
                counts["corpus.type1_without_libs"] += 1
                if record.uses_admob_native_classes():
                    counts["corpus.type1_admob"] += 1
        elif kind == "II":
            counts["corpus.type2"] += 1
            if record.has_loadable_embedded_dex():
                counts["corpus.type2_loadable"] += 1
        elif kind == "III":
            counts["corpus.type3"] += 1
            if record.category == "Game":
                counts["corpus.type3_games"] += 1
        else:
            counts["corpus.plain"] += 1
    for name, count in categories.items():
        counts[f"corpus.category.{name}"] = count
    return {"metrics": counts, "leaks": [],
            "detected": counts["corpus.type1"] + counts["corpus.type2"] +
            counts["corpus.type3"] > 0}


_ANALYSES = {"scenario": _analyze_scenario, "market": _analyze_market,
             "corpus": _analyze_corpus_chunk}


def _emit_cache_counters(tracer) -> None:
    """Sample the three hot caches into the trace as counter records."""
    platform = LIVE.get("platform")
    if platform is None:
        return
    emu, jni, tbc = platform.emu, platform.jni, platform.vm.tbc
    tracer.counter("tb.hits", emu._tb_cache.hits, cat="engine")
    tracer.counter("tb.misses", emu._tb_cache.misses, cat="engine")
    tracer.counter("jni.trampoline.hits", jni.trampoline_hits, cat="engine")
    tracer.counter("jni.trampoline.misses", jni.trampoline_misses,
                   cat="engine")
    tracer.counter("jni.crossings_fast", jni.crossings_fast, cat="engine")
    tracer.counter("jni.crossings_slow", jni.crossings_slow, cat="engine")
    if tbc is not None:
        tracer.counter("tbc.hits", tbc.hits, cat="engine")
        tracer.counter("tbc.misses", tbc.misses, cat="engine")


def execute_batch(spec_dicts, out_path: str,
                  budget: Optional[int] = DEFAULT_BUDGET,
                  tracer=None) -> Dict[str, int]:
    """Run a batch of jobs and commit their rows as one file.

    The batch is the scheduler's unit of commitment: rows spool to a
    temp file as each job finishes (one row in memory at a time) and the
    file is fsync'd and renamed into place at the end — either every
    row of the batch exists or the batch re-runs.  Returns the outcome
    counts (never the rows themselves).  Anything that escapes a job
    (the scheduler draining, the worker told to die) discards the
    spool and propagates.
    """
    from repro.farm.store import RowSpool

    spool = RowSpool(out_path)
    outcomes: Dict[str, int] = {}
    try:
        for spec_dict in spec_dicts:
            # tracer kwarg only when tracing: tests monkeypatch
            # execute_job with narrower signatures.
            if tracer is None:
                row = execute_job(spec_dict, budget=budget)
            else:
                row = execute_job(spec_dict, budget=budget, tracer=tracer)
            spool.add(row)
            status = row.get("status", "lost")
            outcomes[status] = outcomes.get(status, 0) + 1
    except BaseException:
        spool.discard()
        raise
    if tracer is None:
        spool.commit()
    else:
        with tracer.span("store_commit", cat="worker"):
            spool.commit()
    return outcomes


def execute_job(spec_dict: Dict, budget: Optional[int] = DEFAULT_BUDGET,
                tracer=None) -> Dict:
    """Run one farm job; always returns a result dict, never raises."""
    from repro.resilience import FaultPlan, Supervisor
    from repro.resilience.report import CrashReport

    spec = JobSpec.from_dict(spec_dict)
    plan = FaultPlan.parse(spec.faults) if spec.faults else None
    analyze = _ANALYSES[spec.kind]

    LIVE["platform"] = None
    LIVE["tracer"] = tracer
    job_span = None
    if tracer is not None:
        if not tracer.trace_id:
            tracer.trace_id = spec.digest()[:12]
        job_span = tracer.begin("job", cat="worker", id=spec.id,
                                kind=spec.kind, target=spec.target)

    def analysis(ctx):
        return analyze(spec, ctx)

    supervisor = Supervisor(budget=budget)
    start = time.perf_counter()
    try:
        result = supervisor.run(spec.id, analysis, plan=plan)
    except (KeyboardInterrupt, SystemExit):
        # Not this job's fault: the scheduler is draining (inline mode)
        # or the worker process is being told to die — let it unwind so
        # the job is journaled ``interrupted``, not mis-tombstoned.
        raise
    except BaseException as error:  # escaped the supervisor: tombstone it
        report = CrashReport.capture(label=spec.id, error=error)
        if tracer is not None:
            tracer.end(job_span, status="crashed")
            LIVE["platform"] = None
            LIVE["tracer"] = None
        return {
            "job": spec.to_dict(),
            "digest": spec.digest(),
            "status": "crashed",
            "attempts": 1,
            "degraded_events": 0,
            "quarantined_hooks": [],
            "injected_faults": [],
            "error": f"{type(error).__name__}: {error}",
            "tombstone": report.to_dict(),
            "elapsed_seconds": time.perf_counter() - start,
            "worker_pid": os.getpid(),
            "metrics": {},
            "leaks": [],
        }
    elapsed = time.perf_counter() - start

    payload = result.value if isinstance(result.value, dict) else {}
    row = {
        "job": spec.to_dict(),
        "digest": spec.digest(),
        "status": result.status,
        "attempts": result.attempts,
        "degraded_events": result.degraded_events,
        "quarantined_hooks": result.quarantined_hooks,
        "injected_faults": result.injected_faults,
        "error": result.error,
        "tombstone": (result.crash_report.to_dict()
                      if result.crash_report is not None else None),
        "elapsed_seconds": elapsed,
        "worker_pid": os.getpid(),
        "metrics": payload.get("metrics", {}),
        "leaks": payload.get("leaks", []),
    }
    for key in ("detected", "coverage", "expected_taint",
                "expected_destination", "trace", "trace_dropped",
                "metrics_gauges"):
        if key in payload:
            row[key] = payload[key]
    if tracer is not None:
        _emit_cache_counters(tracer)
        tracer.end(job_span, status=result.status)
        LIVE["platform"] = None
        LIVE["tracer"] = None
    return row
