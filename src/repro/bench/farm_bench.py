"""The farm scaling benchmark: serial vs parallel vs resumed.

Runs the built-in corpus three times over the same result store:

1. **serial** — ``workers=1``, cold cache: the baseline wall clock;
2. **parallel** — ``workers=N``, cold cache (fresh store): the
   multiprocess wall clock;
3. **resumed** — ``workers=N`` again over the parallel run's store:
   every digest hits, measuring the near-free re-run property.

Besides the timings it records the machine's CPU count (a 4-worker farm
cannot beat serial on a single-core host — the recorded ``cpus`` field
keeps the numbers honest) and a per-app parity check: the serial and
parallel runs must report identical per-job leak/sink counts, since the
merge is pure aggregation.

Since schema 2 the bench also runs the **chaos recovery drill**
(:func:`repro.farm.chaos.run_chaos_harness`) with a fixed seed over a
scenario slice of the manifest and records the verdict: the recovery
invariants (no lost jobs, no duplicates, store verifies, poison
quarantined exactly once, parity with the clean serial baseline) become
regression-checkable numbers alongside the speedups.

Schema 3 adds the **paper-scale scaling curve** (:class:`ScalingBench`):
a streamed synthetic corpus — 10k chunk-classification jobs covering
100k records by default — run through the farm scheduler at 1/2/4/8
workers, recording per-count wall clock, jobs/sec, and speedup vs the
serial baseline, plus the stratum-marginals check against the
apportionment plan and the peak RSS that certifies the bounded-memory
property.  On a single-core host the parallel≥serial verdict is
recorded as ``null`` with a skip notice instead of a dishonest number.

Schema 4 adds the **warm-vs-cold drill** (:class:`WarmBench`): a
repeated-library manifest (every scenario, twice) executed two ways —
cold (a full platform per job) and warm (one booted template reset per
job via ``Platform.reset_for_job()``), with taint parity identical
across both modes for every scenario.

Schema 6 gates that drill on what a farm job actually costs: each job
runs in a forked child, as the farm's pool runs it, and the statistic is
the **mean total wall time per job** — fork, boot or reset, and the
scenario run — which warm must beat cold on by :data:`WARM_SPEEDUP_GATE`
(2x).  Boot against reset alone is recorded beside it as
``boot_speedup``.  The scaling curve runs through the one farm
scheduler, one batch per shard.
"""

from __future__ import annotations

import json
import os
import resource
import tempfile
import time
from typing import Dict, Optional, Sequence

from repro.farm.manifest import Manifest
from repro.farm.merge import sink_counts
from repro.farm.scheduler import FarmScheduler
from repro.farm.store import ResultStore

# Schema 6: the warm drill gates on mean total per-job wall time.
BENCH_SCHEMA_VERSION = 6

# Fixed drill seed: the injected fault schedule is part of the recorded
# result, so two bench runs disagree only if recovery itself changed.
DEFAULT_CHAOS_SEED = 20260808
CHAOS_SLICE = 6         # scenario jobs in the drill manifest (keeps the
                        # subprocess kill/resume cycle a few seconds)


def _parity_row(result: Dict) -> Dict:
    return {"status": result["status"],
            "leaks": len(result.get("leaks", [])),
            "sinks": sink_counts(result.get("metrics", {}))}


class FarmBench:
    """Measures farm wall clocks and validates serial/parallel parity."""

    def __init__(self, workers: int = 4, manifest: Manifest = None,
                 chaos_seed: Optional[int] = DEFAULT_CHAOS_SEED) -> None:
        self.workers = max(2, workers)
        self.manifest = manifest if manifest is not None \
            else Manifest.builtin()
        self.chaos_seed = chaos_seed    # None skips the recovery drill

    def _measure(self, workers: int, store: ResultStore,
                 resume: bool) -> Dict:
        scheduler = FarmScheduler(self.manifest, workers=workers,
                                  store=store, resume=resume)
        report = scheduler.run()
        return {
            "workers": workers,
            "wall_seconds": scheduler.wall_seconds,
            "jobs": report.jobs,
            "cached_jobs": scheduler.cached_jobs,
            "outcomes": report.outcomes,
            "results": report.results,
        }

    def run(self) -> Dict:
        with tempfile.TemporaryDirectory() as scratch:
            serial = self._measure(1, ResultStore(
                os.path.join(scratch, "serial")), resume=False)
            parallel_store = ResultStore(os.path.join(scratch, "parallel"))
            parallel = self._measure(self.workers, parallel_store,
                                     resume=False)
            resumed = self._measure(self.workers, parallel_store,
                                    resume=True)

        apps = {}
        identical = True
        for row_s, row_p in zip(serial["results"], parallel["results"]):
            job_id = row_s["job"]["id"]
            serial_row = _parity_row(row_s)
            parallel_row = _parity_row(row_p)
            match = serial_row == parallel_row
            identical = identical and match
            apps[job_id] = {"serial": serial_row, "parallel": parallel_row,
                            "identical": match}

        def strip(run: Dict) -> Dict:
            return {key: value for key, value in run.items()
                    if key != "results"}

        serial_wall = serial["wall_seconds"]
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "cpus": os.cpu_count() or 1,
            "runs": {"serial": strip(serial), "parallel": strip(parallel),
                     "resumed": strip(resumed)},
            "speedup": (serial_wall / parallel["wall_seconds"]
                        if parallel["wall_seconds"] else 0.0),
            "resume_speedup": (serial_wall / resumed["wall_seconds"]
                               if resumed["wall_seconds"] else 0.0),
            "parity": {"identical": identical, "apps": apps},
            "chaos": self._chaos_drill(),
            "warm": WarmBench().run(),
        }

    def _chaos_drill(self) -> Optional[Dict]:
        """Kill/tear/resume over a scenario slice; record the verdict."""
        if self.chaos_seed is None:
            return None
        from repro.farm.chaos import run_chaos_harness

        jobs = [spec for spec in self.manifest
                if spec.kind == "scenario"][:CHAOS_SLICE]
        if len(jobs) < 2:   # need a poison target *and* a survivor
            return None
        drill = Manifest(jobs=jobs)
        with tempfile.TemporaryDirectory() as out:
            report = run_chaos_harness(drill, seed=self.chaos_seed,
                                       out_dir=out, workers=2)
        stats = report.stats
        return {
            "seed": self.chaos_seed,
            "jobs": len(drill),
            "recovered": report.ok,
            "invariants": dict(report.invariants),
            "failures": list(report.failures),
            "injected": stats.get("chaos", {}),
            "health": stats.get("health", {}),
            "outcomes": stats.get("outcomes", {}),
            "resumed_from_cache": stats.get("resumed_from_cache", 0),
        }


# Warm-drill defaults: every scenario twice makes a repeated-library
# manifest — exactly the workload the warm fork exists for — and 2x is
# the gate the mean total per-job wall time must clear against the cold
# baseline.
WARM_REPEATS = 2
WARM_SPEEDUP_GATE = 2.0


class WarmBench:
    """Cold boot vs warm template reset, one forked child per job.

    Both modes run the identical job list (each scenario, ``repeats``
    times) on the same analysis config and must produce engine-identical
    leak rows, work counters, and detection verdicts.  Each job runs in
    a child forked from this process, as the farm's pool runs it: a cold
    child boots a platform, a warm child resets the booted template it
    inherited.  The parent times every job from fork to reap — fork,
    boot or reset, and scenario run — and the child reports its boot
    and in-run translation seconds, its minor page faults (from the
    fork on) and how many resets its platform ran.  The parent boots
    one platform, untimed, before either mode, so process-wide one-time
    set-up is paid by neither mode's jobs.
    """

    def __init__(self, repeats: int = WARM_REPEATS,
                 config: str = "ndroid") -> None:
        self.repeats = max(1, repeats)
        self.config = config

    @staticmethod
    def _observe(platform, scenario) -> Dict:
        return {
            "leaks": platform.leaks.rows(),
            "counters": platform.work_counters(),
            "detected": scenario.detected(platform.leaks),
        }

    def _forked_job(self, boot, name: str):
        """Run one scenario in a forked child; returns the parent-timed
        total seconds and the child's report."""
        from repro.apps import ALL_SCENARIOS
        from repro.apps.base import run_scenario

        read_fd, write_fd = os.pipe()
        started = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                boot_started = time.perf_counter()
                platform = boot()
                booted = time.perf_counter() - boot_started
                scenario = ALL_SCENARIOS[name]()
                run_scenario(scenario, platform)
                faults = resource.getrusage(
                    resource.RUSAGE_SELF).ru_minflt - faults
                report = {"boot": booted,
                          "translate": platform.emu.translate_seconds,
                          "minor_faults": faults,
                          "resets": platform.resets,
                          "observed": self._observe(platform, scenario)}
                with os.fdopen(write_fd, "w") as pipe:
                    json.dump(report, pipe)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            payload = pipe.read()
        os.waitpid(pid, 0)
        total = time.perf_counter() - started
        return total, json.loads(payload)

    def _drive(self, boot) -> Dict:
        """Run the job list; ``boot`` returns the job's platform."""
        from repro.apps import ALL_SCENARIOS

        names = sorted(ALL_SCENARIOS)
        boot_seconds = translate_seconds = total_seconds = 0.0
        minor_faults = resets = 0
        observations: Dict[str, Dict] = {}
        consistent = True
        for __ in range(self.repeats):
            for name in names:
                total, report = self._forked_job(boot, name)
                total_seconds += total
                boot_seconds += report["boot"]
                translate_seconds += report["translate"]
                minor_faults += report["minor_faults"]
                resets += report["resets"]
                previous = observations.setdefault(name, report["observed"])
                consistent = consistent and previous == report["observed"]
        jobs = len(names) * self.repeats
        return {
            "jobs": jobs,
            "total_seconds": round(total_seconds, 4),
            "boot_seconds": round(boot_seconds, 4),
            "translate_seconds": round(translate_seconds, 4),
            # The gate statistic: what one job costs the farm, all in.
            "per_job_seconds": round(total_seconds / jobs, 6),
            # Untimed evidence of where a child's time goes: the pages
            # it copied or faulted in, and how many resets it ran.
            "minor_faults_per_job": round(minor_faults / jobs, 1),
            "resets_per_job": round(resets / jobs, 3),
            "observations": observations,
            "consistent_across_repeats": consistent,
        }

    def _cold(self) -> Dict:
        from repro.bench.harness import make_platform

        return self._drive(lambda: make_platform(self.config))

    def _warm(self) -> Dict:
        from repro.bench.harness import make_platform

        template = make_platform(self.config)
        template.prepare_template()

        def boot():
            template.reset_for_job()
            return template

        return self._drive(boot)

    def run(self) -> Dict:
        from repro.bench.harness import make_platform

        make_platform(self.config)
        cold = self._cold()
        warm = self._warm()

        parity = {}
        identical = True
        for name, observed in cold["observations"].items():
            match = observed == warm["observations"][name]
            parity[name] = match
            identical = identical and match
        identical = (identical
                     and cold["consistent_across_repeats"]
                     and warm["consistent_across_repeats"])

        def strip(mode: Dict) -> Dict:
            return {key: value for key, value in mode.items()
                    if key != "observations"}

        def ratio(key: str) -> float:
            return round(cold[key] / warm[key], 2) if warm[key] else 0.0

        speedup = ratio("per_job_seconds")
        return {
            "repeats": self.repeats,
            "config": self.config,
            "cold": strip(cold),
            "warm": strip(warm),
            "speedup_warm_vs_cold": speedup,
            "boot_speedup": ratio("boot_seconds"),
            "gate": {
                "threshold": WARM_SPEEDUP_GATE,
                "statistic": "mean total wall seconds per job "
                             "(fork, boot or reset, scenario run)",
                "passed": speedup >= WARM_SPEEDUP_GATE,
            },
            "parity": {"identical": identical, "scenarios": parity},
        }


# Scaling-curve defaults: 10k jobs x 10 records = a 100k-record streamed
# corpus, far past anything a materialized pipeline should attempt.
SCALING_WORKER_COUNTS = (1, 2, 4, 8)
DEFAULT_SCALING_JOBS = 10_000
SCALING_CHUNK = 10
SCALING_SEED = 2014
SCALING_SHARD_SIZE = 256

# Stratum marginal name -> the worker counter that measures it.
_MARGINAL_METRICS = {
    "total": "corpus.records",
    "type1": "corpus.type1",
    "type1_without_libs": "corpus.type1_without_libs",
    "type1_admob": "corpus.type1_admob",
    "type2": "corpus.type2",
    "type2_loadable": "corpus.type2_loadable",
    "type3": "corpus.type3",
    "type3_games": "corpus.type3_games",
    "plain": "corpus.plain",
}


class ScalingBench:
    """The 1/2/4/8-worker scaling curve over a streamed synthetic corpus.

    One sharded manifest is written once, then run cold at each worker
    count through the farm scheduler, one batch per shard.  Every run classifies the same
    records, so besides the timings the bench checks two invariants:

    * **parity** — each worker count merges to the identical corpus
      counters (the stream split can't change what was counted);
    * **marginals** — the merged counters equal the apportionment
      plan's stratum sizes exactly (the corpus the farm analysed *is*
      the calibrated corpus).
    """

    def __init__(self, jobs: int = DEFAULT_SCALING_JOBS,
                 chunk: int = SCALING_CHUNK, seed: int = SCALING_SEED,
                 worker_counts: Sequence[int] = SCALING_WORKER_COUNTS,
                 shard_size: int = SCALING_SHARD_SIZE) -> None:
        from repro.corpus.generator import PAPER_PARAMETERS

        self.jobs = max(1, jobs)
        self.chunk = max(1, chunk)
        self.seed = seed
        self.worker_counts = tuple(worker_counts)
        if not self.worker_counts or self.worker_counts[0] != 1:
            raise ValueError("worker_counts must start with the serial "
                             "baseline (1)")
        self.shard_size = max(1, shard_size)
        self.records = self.jobs * self.chunk
        self.scale = self.records / PAPER_PARAMETERS.total_apps

    def run(self) -> Dict:
        from repro.corpus.generator import CorpusGenerator
        from repro.farm.manifest import ShardedManifest, iter_corpus_jobs

        plan = CorpusGenerator(seed=self.seed, scale=self.scale).plan
        curve = []
        serial_wall = 0.0
        reference: Optional[Dict] = None
        with tempfile.TemporaryDirectory() as scratch:
            manifest = ShardedManifest.write(
                os.path.join(scratch, "manifest"),
                iter_corpus_jobs(scale=self.scale, seed=self.seed,
                                 chunk=self.chunk),
                shard_size=self.shard_size)
            for workers in self.worker_counts:
                report = FarmScheduler(manifest, workers=workers).run()
                wall = report.wall_seconds
                if workers == 1:
                    serial_wall = wall
                corpus_metrics = {
                    name: value
                    for name, value in report.merged_metrics.items()
                    if name.startswith("corpus.")}
                if reference is None:
                    reference = corpus_metrics
                curve.append({
                    "workers": workers,
                    "wall_seconds": round(wall, 4),
                    "jobs": report.jobs,
                    "jobs_per_second": (round(report.jobs / wall, 2)
                                        if wall else 0.0),
                    "speedup_vs_serial": (round(serial_wall / wall, 3)
                                          if wall else 0.0),
                    "outcomes": dict(report.outcomes),
                    "parity_with_serial": corpus_metrics == reference,
                })

        measured = {name: int(reference.get(metric, 0))
                    for name, metric in _MARGINAL_METRICS.items()}
        planned = plan.marginals()
        cpus = os.cpu_count() or 1
        multi = [point for point in curve if point["workers"] > 1]
        if cpus <= 1 or not multi:
            verdict = None       # recorded-as-skipped, not as a failure
            notice = (f"single-core host (cpus={cpus}): "
                      "parallel>=serial gate skipped")
        else:
            best = min(point["wall_seconds"] for point in multi)
            verdict = best <= serial_wall
            notice = None
        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_children = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "jobs": self.jobs,
            "chunk": self.chunk,
            "records": self.records,
            "scale": round(self.scale, 6),
            "seed": self.seed,
            "shard_size": self.shard_size,
            "curve": curve,
            "parallel_beats_serial": verdict,
            "skip_notice": notice,
            "marginals": {
                "planned": planned,
                "measured": measured,
                "exact": measured == planned,
            },
            "max_rss_kib": {"scheduler": rss_self,
                            "workers": rss_children},
        }


def write_results(results: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_results(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)
