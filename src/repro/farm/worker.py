"""The farm worker: run jobs to classified, JSON-able results.

:func:`execute_batch` runs a scheduler batch — the same spec objects the
scheduler loaded, in this process or in a forked worker — and commits
the rows as one file; when the attempt is traced it opens and closes the
attempt's span spool itself.  :func:`execute_job` runs one job (a
:class:`JobSpec`, or its dict form) to one JSON-able result row and
lives at module top level.  Every job runs inside the resilience
:class:`Supervisor`, so a crashing or runaway app becomes a recorded
``crashed``/``timeout`` outcome with a tombstone (the serialized
:class:`CrashReport`) instead of killing the worker — and anything that
somehow escapes the supervisor is caught here and tombstoned too, so the
pool never loses a worker to one hostile job.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import time
from typing import Dict, Iterable, Optional, Union

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


def _span(tracer, name: str, sample_caches: bool = False, **args):
    """``tracer``'s worker span ``name``, or a no-op context untraced.

    With ``sample_caches`` the span samples the three hot caches into the
    trace as counter records as it closes.
    """
    if tracer is None:
        return contextlib.nullcontext()
    if sample_caches:
        return _sampling_span(tracer, name, args)
    return tracer.span(name, cat="worker", **args)


@contextlib.contextmanager
def _sampling_span(tracer, name: str, args: Dict):
    with tracer.span(name, cat="worker", **args):
        yield
        platform = LIVE["platform"]
        if platform is None:
            return
        emu, jni, tbc = platform.emu, platform.jni, platform.vm.tbc
        tracer.counter("tb.hits", emu._tb_cache.hits, cat="engine")
        tracer.counter("tb.misses", emu._tb_cache.misses, cat="engine")
        tracer.counter("jni.trampoline.hits", jni.trampoline_hits,
                       cat="engine")
        tracer.counter("jni.trampoline.misses", jni.trampoline_misses,
                       cat="engine")
        tracer.counter("jni.crossings_fast", jni.crossings_fast,
                       cat="engine")
        tracer.counter("jni.crossings_slow", jni.crossings_slow,
                       cat="engine")
        if tbc is not None:
            tracer.counter("tbc.hits", tbc.hits, cat="engine")
            tracer.counter("tbc.misses", tbc.misses, cat="engine")


def _boot_platform(spec: JobSpec, ctx):
    """Build (or reset) + attach the job's platform, publishing it to ``LIVE``.

    The boot runs in a ``platform_boot`` span and the engines' span hooks
    are pointed at the job's tracer (``None`` detaches them); each JNI
    crossing of a traced job is then one ``jni_crossing`` span carrying
    its duration.

    Warm mode reuses the per-config template platform instead: the job
    pays ``reset_for_job()`` (a state wipe), not a full boot, and keeps
    every warm translation cache.  Jobs with a provenance ledger
    (``spec.trace``) always cold-boot — the ledger wiring is per-platform
    and jobs must not share it.
    """
    from repro.bench.harness import make_platform
    from repro.observability.spans import attach_spans

    tracer = LIVE["tracer"]
    with _span(tracer, "platform_boot", config=spec.config):
        if spec.trace or not WARM["enabled"]:
            platform = make_platform(spec.config, trace=spec.trace)
        else:
            platform = WARM["templates"].get(spec.config)
            if platform is None:
                # A long-lived forked worker boots its template lazily
                # (the pool scheduler pre-boots before forking; this is
                # the fallback for workers forked before configure_warm
                # ran jobs).
                warm_boot_templates([spec.config])
                platform = WARM["templates"][spec.config]
            platform.reset_for_job()
    attach_spans(platform, tracer)
    LIVE["platform"] = platform
    ctx.attach(platform)
    return platform


def _observe(platform, trace: bool) -> Dict:
    """Collect the per-job observability payload off a finished platform."""
    payload: Dict = {"leaks": platform.leaks.rows(), "metrics": {}}
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


@functools.lru_cache(maxsize=None)
def _app_image(kind: str, target: str):
    """The worker's one build of app ``target``: a :class:`Scenario`
    (``kind`` "scenario") or an :class:`Apk` ("market").

    An image never changes across jobs -- ``install`` restores what a
    run wrote to its classes -- so a warm platform replays the Dalvik
    blocks it compiled for it.  The set is bounded by the two registries.
    """
    if kind == "scenario":
        from repro.apps import ALL_SCENARIOS
        return ALL_SCENARIOS[target]()
    from repro.apps.market import MARKET_APPS
    return MARKET_APPS[target]()


def _analyze_scenario(spec: JobSpec, ctx) -> Dict:
    from repro.apps import ALL_SCENARIOS
    from repro.apps.base import run_scenario

    if spec.target not in ALL_SCENARIOS:
        raise ValueError(f"unknown scenario {spec.target!r}")
    scenario = _app_image("scenario", spec.target)
    platform = _boot_platform(spec, ctx)
    with _span(LIVE["tracer"], "scenario_run", target=spec.target):
        run_scenario(scenario, platform)
    payload = _observe(platform, spec.trace)
    payload["detected"] = scenario.detected(platform.leaks)
    payload["expected_taint"] = scenario.expected_taint
    payload["expected_destination"] = scenario.expected_destination
    return payload


def _analyze_market(spec: JobSpec, ctx) -> Dict:
    from repro.apps.market import MARKET_APPS
    from repro.framework.monkey import MonkeyRunner

    if spec.target not in MARKET_APPS:
        raise ValueError(f"unknown market app {spec.target!r}")
    apk = _app_image("market", spec.target)
    platform = _boot_platform(spec, ctx)
    with _span(LIVE["tracer"], "scenario_run", target=spec.target):
        platform.install(apk)
        session = MonkeyRunner(platform, seed=spec.seed).run(
            apk, events=spec.events)
    payload = _observe(platform, spec.trace)
    payload["coverage"] = session.coverage
    payload["detected"] = bool(payload["leaks"])
    return payload


@functools.lru_cache(maxsize=1)
def _corpus_generator(seed: int, scale: float):
    """The worker's generator for the last ``(seed, scale)`` it saw.

    Building one plans the strata, normalises the category table and
    draws the interleave permutation — all functions of ``(seed,
    scale)`` alone — so consecutive chunk jobs of one corpus share it
    and a job for another corpus replaces it.
    """
    from repro.corpus.generator import CorpusGenerator

    return CorpusGenerator(seed=seed, scale=scale)


def _analyze_corpus_chunk(spec: JobSpec, ctx) -> Dict:
    """Classify one chunk of the synthetic Section III corpus.

    Pure static analysis: the worker streams exactly ``[target,
    target+chunk)`` of the addressable corpus — never the prefix — and
    folds the classification into counters.  No platform is booted, so
    a 100k-record corpus costs no emulator state; the counts merge
    fleet-wide as plain summed metrics.
    """
    from repro.corpus.study import classify

    start = int(spec.target)
    records = type1 = type2 = type3 = 0
    without_libs = admob = loadable = games = 0
    categories: Dict[str, int] = {}
    for record in _corpus_generator(spec.seed, spec.scale).stream(
            start, start + spec.chunk):
        records += 1
        kind = classify(record)
        if kind == "none":
            continue
        if kind == "I":
            type1 += 1
            categories[record.category] = \
                categories.get(record.category, 0) + 1
            if not record.has_native_libraries():
                without_libs += 1
                if record.uses_admob_native_classes():
                    admob += 1
        elif kind == "II":
            type2 += 1
            if record.has_loadable_embedded_dex():
                loadable += 1
        else:
            type3 += 1
            if record.category == "Game":
                games += 1
    counts = {"corpus.records": records, "corpus.type1": type1,
              "corpus.type2": type2, "corpus.type3": type3,
              "corpus.plain": records - type1 - type2 - type3,
              "corpus.type1_without_libs": without_libs,
              "corpus.type1_admob": admob,
              "corpus.type2_loadable": loadable,
              "corpus.type3_games": games}
    for name, count in categories.items():
        counts[f"corpus.category.{name}"] = count
    return {"metrics": counts, "leaks": [],
            "detected": type1 + type2 + type3 > 0}


_ANALYSES = {"scenario": _analyze_scenario, "market": _analyze_market,
             "corpus": _analyze_corpus_chunk}


# Analysis payload keys a row carries after its metrics and leaks.
_PAYLOAD_EXTRAS = ("detected", "coverage", "expected_taint",
                   "expected_destination", "trace", "trace_dropped",
                   "metrics_gauges")


def result_row(spec: JobSpec, digest: str, status: str, elapsed: float,
               attempts: int = 1, error: Optional[str] = None,
               tombstone: Optional[Dict] = None, degraded_events: int = 0,
               quarantined_hooks: Optional[list] = None,
               injected_faults: Optional[list] = None,
               worker_pid: Optional[int] = None,
               payload: Optional[Dict] = None) -> Dict:
    """One job's result row, whatever its status.

    A row a worker wrote names its ``worker_pid``; the scheduler's rows
    for jobs no worker finished (``lost``, ``poison``) have none.
    ``payload`` is the analysis's output: its metrics and leaks, then
    any of the analysis extras it holds.
    """
    row = {
        "job": spec.to_dict(),
        "digest": digest,
        "status": status,
        "attempts": attempts,
        "degraded_events": degraded_events,
        "quarantined_hooks": quarantined_hooks or [],
        "injected_faults": injected_faults or [],
        "error": error,
        "tombstone": tombstone,
        "elapsed_seconds": elapsed,
    }
    if worker_pid is not None:
        row["worker_pid"] = worker_pid
    payload = payload or {}
    row["metrics"] = payload.get("metrics", {})
    row["leaks"] = payload.get("leaks", [])
    for key in _PAYLOAD_EXTRAS:
        if key in payload:
            row[key] = payload[key]
    return row


def execute_batch(specs: Iterable[JobSpec], out_path: str,
                  budget: Optional[int] = DEFAULT_BUDGET,
                  spool_path: Optional[str] = None,
                  trace_id: str = "") -> Dict[str, int]:
    """Run a batch of jobs and commit their rows as one file.

    The batch is the scheduler's unit of commitment: rows spool to a
    temp file as each job finishes (one row in memory at a time) and the
    file is fsync'd and renamed into place at the end — either every
    row of the batch exists or the batch re-runs.  Returns the outcome
    counts (never the rows themselves).  Anything that escapes a job
    (the scheduler draining, the worker told to die) discards the
    spool and propagates.

    With ``spool_path`` set the attempt is traced: the batch opens its
    own :class:`SpanTracer` there (in the process that runs it, so no
    descriptor crosses a fork), stamps every record with ``trace_id``,
    and closes it however the batch ends.
    """
    from repro.farm.store import RowSpool

    if spool_path is None:
        tracing = contextlib.nullcontext()
    else:
        from repro.observability.spans import SpanTracer
        tracing = contextlib.closing(SpanTracer(spool_path,
                                                trace_id=trace_id))
    with tracing as tracer:
        spool = RowSpool(out_path)
        outcomes: Dict[str, int] = {}
        try:
            for spec in specs:
                row = execute_job(spec, budget=budget, tracer=tracer)
                spool.add(row)
                status = row.get("status", "lost")
                outcomes[status] = outcomes.get(status, 0) + 1
        except BaseException:
            spool.discard()
            raise
        with _span(tracer, "store_commit"):
            spool.commit()
    return outcomes


def execute_job(spec: Union[JobSpec, Dict],
                budget: Optional[int] = DEFAULT_BUDGET,
                tracer=None) -> Dict:
    """Run one farm job; always returns a result row, never raises.

    ``spec`` is a :class:`JobSpec`, or its dict form, parsed here.
    """
    if isinstance(spec, dict):
        spec = JobSpec.from_dict(spec)
    LIVE["platform"] = None
    LIVE["tracer"] = tracer
    try:
        with _span(tracer, "job", sample_caches=True, id=spec.id,
                   kind=spec.kind, target=spec.target):
            return _supervised_row(spec, budget)
    finally:
        LIVE["platform"] = None
        LIVE["tracer"] = None


def _supervised_row(spec: JobSpec, budget: Optional[int]) -> Dict:
    """Run the job's analysis under the :class:`Supervisor` to its row."""
    from repro.resilience import FaultPlan, Supervisor
    from repro.resilience.report import CrashReport

    digest = spec.digest()
    plan = FaultPlan.parse(spec.faults) if spec.faults else None
    analyze = _ANALYSES[spec.kind]

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
        return result_row(spec, digest, "crashed",
                          time.perf_counter() - start,
                          error=f"{type(error).__name__}: {error}",
                          tombstone=report.to_dict(),
                          worker_pid=os.getpid())
    return result_row(
        spec, digest, result.status, time.perf_counter() - start,
        attempts=result.attempts, error=result.error,
        tombstone=(result.crash_report.to_dict()
                   if result.crash_report is not None else None),
        degraded_events=result.degraded_events,
        quarantined_hooks=result.quarantined_hooks,
        injected_faults=result.injected_faults, worker_pid=os.getpid(),
        payload=result.value if isinstance(result.value, dict) else None)
