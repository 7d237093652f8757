"""The benchmark's three workloads.

Each workload is a fixed op sequence made from the workload seed; the
program sees only the generated job specs, Monkey seeds, corpus seeds
and kernel order.  ``setup()`` does all one-time work and may run
several times in one process (the runner reports the median);
``run(arg)`` is the public call the client times; ``check(arg, result)``
compares the output with a reference the code under test did not
compute and returns the work units the op finished.

Why each workload exists, and which layers it puts its time in, is in
README.md.
"""

from __future__ import annotations

import os
import random
import shutil
from typing import Dict, List, Tuple

# Section VI: of the eight Monkey-driven market apps only ePhone leaks,
# and it leaks to this host.  Checked for Monkey seeds 0-24, the range
# the workloads draw from.
LEAKING_MARKET_APP = "com.market.ephone"
LEAKING_MARKET_DESTINATION = "softphone.comwave.net"
MONKEY_SEEDS = 25

CORPUS_SCALE = 0.03        # 0.02 apportions type III to zero records
# The stream farm runs inline: with forked shard workers on two busy
# vCPUs its CPU time followed neighbour load (see README.md).
CORPUS_WORKERS = 1
CORPUS_CHUNK = 64
CORPUS_SHARD_SIZE = 27     # 107 jobs -> 4 shards
CORPUS_SEEDS = 4
CFBENCH_ITERATIONS = 100


class CheckFailed(Exception):
    """An op's output disagreed with its reference."""


def corpus_seeds(seed: int):
    """The corpus seeds the corpus_stream workload runs for ``seed``."""
    rng = random.Random(f"corpus_stream:{seed}")
    return [rng.randrange(1, 1 << 30) for __ in range(CORPUS_SEEDS)]


def _app_targets() -> List[Tuple[str, str]]:
    from repro.apps import ALL_SCENARIOS
    from repro.apps.market import MARKET_APPS

    return ([("scenario", name) for name in ALL_SCENARIOS] +
            [("market", package) for package in MARKET_APPS])


def _app_cycles(rng: random.Random, cycles: int) -> List[Dict]:
    """``cycles`` seeded permutations of all 19 apps, as job dicts.

    Every cycle holds each app once, so the op mix (and with it the
    latency distribution) is the same for every seed; the seed picks
    the order and the market apps' Monkey seeds.
    """
    from repro.farm.manifest import JobSpec

    jobs = []
    for cycle in range(cycles):
        targets = _app_targets()
        rng.shuffle(targets)
        for kind, target in targets:
            monkey = rng.randrange(MONKEY_SEEDS) if kind == "market" else 0
            jobs.append(JobSpec(id=f"{kind}:{target}:{len(jobs)}",
                                kind=kind, target=target,
                                seed=monkey).to_dict())
    return jobs


def _scenario_truth() -> Dict[str, Tuple[int, str]]:
    from repro.apps import ALL_SCENARIOS

    truth = {}
    for name, build in ALL_SCENARIOS.items():
        scenario = build()
        truth[name] = (scenario.expected_taint,
                       scenario.expected_destination)
    return truth


def check_app_row(row: Dict, truth: Dict[str, Tuple[int, str]]) -> None:
    """Verdict, taint and destination of one analyzed app vs ground truth."""
    job = row["job"]
    if row.get("status") != "ok":
        raise CheckFailed(f"{job['id']}: status {row.get('status')} "
                          f"({row.get('error')})")
    leaks = row.get("leaks", [])
    if job["kind"] == "scenario":
        taint, destination = truth[job["target"]]
        if not taint:
            if leaks:
                raise CheckFailed(f"{job['id']}: benign app leaked")
            return
        if not any(leak["taint"] & taint == taint and
                   destination in leak["destination"] for leak in leaks):
            raise CheckFailed(f"{job['id']}: expected taint 0x{taint:x} "
                              f"to {destination!r}, got {leaks!r}")
        return
    if job["target"] != LEAKING_MARKET_APP:
        if leaks:
            raise CheckFailed(f"{job['id']}: clean market app leaked")
        return
    if not leaks or not all(LEAKING_MARKET_DESTINATION in leak["destination"]
                            for leak in leaks):
        raise CheckFailed(f"{job['id']}: ePhone leak missing or misrouted")


def snapshot_counts(metrics: Dict) -> Dict[str, float]:
    """The per-op counters the traced run reports, from a metrics snapshot."""
    keys = ("emulator.instructions", "emulator.tb.hits", "emulator.tb.misses",
            "emulator.tb.translations", "dalvik.instructions",
            "dalvik.tbc.hits", "dalvik.tbc.misses", "dalvik.tbc.escalations",
            "jni.crossings_fast", "jni.crossings_slow",
            "core.traced_instructions", "core.taint_propagations",
            "kernel.traps")
    return {key: metrics.get(key, 0) for key in keys}


class Workload:
    name = ""
    unit = ""
    # Counts are averaged over this many leading ops, so two traced runs
    # with one seed compare the same ops however long each ran.
    count_ops = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def args(self) -> List:
        raise NotImplementedError

    def run(self, arg):
        raise NotImplementedError

    def check(self, arg, result) -> Tuple[float, Dict[str, float]]:
        """Raise CheckFailed, or return (work units, per-op counts)."""
        raise NotImplementedError

    def after_op(self, arg, result) -> None:
        """Untimed clean-up after an op."""

    def farm_rows(self, result) -> List[Dict]:
        return []


class AppAnalysis(Workload):
    """One NDroid app analyzed on a long-lived warm worker (in process)."""

    name = "app_analysis"
    unit = "apps"
    count_ops = 38

    def setup(self) -> None:
        from repro.farm import worker

        self.rng = random.Random(f"{self.name}:{self.seed}")
        worker.configure_warm(True)
        worker.warm_boot_templates(["ndroid"])
        self.truth = _scenario_truth()
        self.jobs = _app_cycles(self.rng, 16)
        for job in self.jobs[:len(_app_targets())]:
            self.check(job, self.run(job))

    def args(self) -> List:
        return self.jobs

    def run(self, job):
        from repro.farm import worker

        return worker.execute_job(job)

    def check(self, job, row):
        check_app_row(row, self.truth)
        return 1, snapshot_counts(row.get("metrics", {}))


class CorpusStream(Workload):
    """A whole calibrated synthetic corpus through the sharded stream farm."""

    name = "corpus_stream"
    unit = "records"
    count_ops = 3

    def setup(self) -> None:
        from repro.corpus.generator import PAPER_PARAMETERS, plan_corpus
        from repro.farm import ShardedManifest, iter_corpus_jobs

        self.plan = plan_corpus(PAPER_PARAMETERS, CORPUS_SCALE).marginals()
        if min(self.plan.values()) <= 0:
            raise CheckFailed(f"empty stratum at scale {CORPUS_SCALE}")
        root = os.path.join(self.workdir, "manifests")
        shutil.rmtree(root, ignore_errors=True)
        self.manifests = [
            ShardedManifest.write(
                os.path.join(root, str(corpus_seed)),
                iter_corpus_jobs(CORPUS_SCALE, seed=corpus_seed,
                                 chunk=CORPUS_CHUNK),
                shard_size=CORPUS_SHARD_SIZE)
            for corpus_seed in corpus_seeds(self.seed)]
        self.serial = 0
        for manifest in self.manifests:
            report = self.run(manifest)
            self.check(manifest, report)
            self.after_op(manifest, report)

    def args(self) -> List:
        return self.manifests

    def run(self, manifest):
        from repro.farm import run_farm

        self.serial += 1
        return run_farm(manifest, workers=CORPUS_WORKERS,
                        run_dir=os.path.join(self.workdir,
                                             f"stream-{self.serial}"))

    def check(self, manifest, report):
        if report.outcomes != {"ok": len(manifest)}:
            raise CheckFailed(f"outcomes {report.outcomes}")
        merged = report.merged_metrics
        expected = dict(self.plan)
        expected["records"] = expected.pop("total")
        for key, value in expected.items():
            if merged.get(f"corpus.{key}") != value:
                raise CheckFailed(f"corpus.{key}={merged.get(f'corpus.{key}')}"
                                  f" but the plan has {value}")
        counts = {f"farm.{key}": report.health.get(key, 0)
                  for key in ("retries", "worker_deaths")}
        return expected["records"], counts

    def after_op(self, manifest, report) -> None:
        shutil.rmtree(os.path.join(self.workdir, f"stream-{self.serial}"),
                      ignore_errors=True)

    def farm_rows(self, report) -> List[Dict]:
        return list(report.rows())


class Fig10CFBench(Workload):
    """One full CF-Bench suite pass on a warm NDroid platform."""

    name = "fig10_cfbench"
    unit = "passes"
    count_ops = 5

    def _platform(self, config: str):
        from repro.bench.cfbench import CFBench
        from repro.bench.harness import make_platform

        platform = make_platform(config)
        bench = CFBench(platform, iterations=CFBENCH_ITERATIONS)
        return platform, [bench._SYMBOLS[name] for name in self.order]

    def _suite(self, platform, symbols) -> List[int]:
        from repro.dalvik.heap import Slot

        call_main = platform.vm.call_main
        return [call_main(symbol, [Slot(CFBENCH_ITERATIONS)]).value
                for symbol in symbols]

    def setup(self) -> None:
        from repro.bench.cfbench import WORKLOADS

        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.order = list(WORKLOADS)
        self.rng.shuffle(self.order)
        # A kernel may read what an earlier kernel wrote in the previous
        # pass (memory_read after memory_write), so the first pass and
        # later passes have different references.
        vanilla, symbols = self._platform("vanilla")
        first = self._suite(vanilla, symbols)
        self.reference = self._suite(vanilla, symbols)
        self.platform, self.symbols = self._platform("ndroid")
        if self._suite(self.platform, self.symbols) != first:
            raise CheckFailed("first NDroid pass differs from vanilla")
        self._last = snapshot_counts(
            self.platform.observability.snapshot())
        self.check(None, self.run(None))

    def args(self) -> List:
        return [None]

    def run(self, __):
        return self._suite(self.platform, self.symbols)

    def check(self, __, values):
        if values != self.reference:
            raise CheckFailed(f"kernel results {values} != vanilla "
                              f"{self.reference}")
        if self.platform.leaks.records:
            raise CheckFailed("clean CF-Bench data leaked")
        snapshot = snapshot_counts(self.platform.observability.snapshot())
        counts = {key: value - self._last[key]
                  for key, value in snapshot.items()}
        self._last = snapshot
        return 1, counts


WORKLOADS = {workload.name: workload for workload in
             (AppAnalysis, CorpusStream, Fig10CFBench)}
