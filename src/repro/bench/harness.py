"""The Fig. 10 overhead harness.

Runs the CF-Bench suite under each analysis configuration and reports
per-workload slowdown relative to the vanilla platform, plus the
aggregated Native/Java/Overall rows of Fig. 10: medians over interleaved
rounds on warmed-up platforms, with their spread, the host's CPU count
and the engines each configuration runs on.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Optional, Tuple

from repro.bench.cfbench import (
    CFBench,
    JAVA_WORKLOADS,
    NATIVE_WORKLOADS,
    WORKLOADS,
    geometric_mean,
)
from repro.core import NDroid
from repro.droidscope import DroidScopeSim
from repro.framework import AndroidPlatform
from repro.taintdroid import TaintDroid

CONFIGS = ("vanilla", "taintdroid", "ndroid", "droidscope")


def make_platform(config: str, use_tb: bool = True, trace: bool = False,
                  observe: bool = True) -> AndroidPlatform:
    """Build a platform with the named analysis configuration attached.

    ``use_tb=False`` pins the emulator to the single-step engine (the
    pre-translation baseline the emulator benchmark compares against).
    ``observe=False`` skips the observability facade entirely;
    ``trace=True`` additionally enables the provenance ledger and the
    exact profile before the analysis attaches.
    """
    platform = AndroidPlatform(use_tb=use_tb, observe=observe)
    if trace:
        if platform.observability is None:
            raise ValueError("trace=True requires observe=True")
        platform.observability.enable_tracing()
    if config == "taintdroid":
        TaintDroid.attach(platform)
    elif config == "ndroid":
        NDroid.attach(platform)
    elif config == "droidscope":
        DroidScopeSim.attach(platform)
    elif config != "vanilla":
        raise ValueError(f"unknown config {config!r}")
    return platform


def williams_order(count: int, index: int) -> List[int]:
    """Row ``index`` of a balanced (Williams) design over ``count``
    treatments: the order in which to run them in sequence ``index``.

    Over ``count`` consecutive rows (``2 * count`` when ``count`` is
    odd) every treatment runs once in each position and directly
    follows every other treatment equally often.
    """
    base = [0]
    low, high = 1, count - 1
    while len(base) < count:
        base.append(low)
        low += 1
        if len(base) < count:
            base.append(high)
            high -= 1
    row = [(treatment + index) % count for treatment in base]
    if count % 2 and (index // count) % 2:
        row.reverse()
    return row


def engine_footing(platform: AndroidPlatform) -> str:
    """Which execution engines ``platform`` runs its code on: translated
    ARM blocks or the single-step ARM interpreter, and compiled Dalvik
    blocks or the single-step Dalvik interpreter."""
    arm = "translated" if platform.emu.runs_blocks else "single-step"
    dalvik = ("compiled" if platform.vm.tbc is not None and
              platform.vm.interpreter.listener is None else "single-step")
    return f"ARM {arm}, Dalvik {dalvik}"


class OverheadTable:
    """Per-workload slowdown of one config vs vanilla.

    ``rounds`` holds one ``{workload: ratio}`` dict per interleaved
    round, each ratio taken against vanilla's time in the same round.
    ``rows`` are the per-workload medians over the rounds, ``spread``
    their ``(min, max)``; the scores are geometric means of the rows.
    """

    def __init__(self, config: str, rounds: List[Dict[str, float]],
                 engine: str, cpus: Optional[int]) -> None:
        self.config = config
        self.rounds = rounds
        self.engine = engine
        self.cpus = cpus
        names = [name for name in WORKLOADS
                 if rounds and all(name in row for row in rounds)]
        self.rows: Dict[str, float] = {
            name: statistics.median(row[name] for row in rounds)
            for name in names}
        self.spread: Dict[str, Tuple[float, float]] = {
            name: (min(row[name] for row in rounds),
                   max(row[name] for row in rounds))
            for name in names}

    @property
    def native_score(self) -> float:
        return geometric_mean([self.rows[w] for w in NATIVE_WORKLOADS
                               if w in self.rows])

    @property
    def java_score(self) -> float:
        return geometric_mean([self.rows[w] for w in JAVA_WORKLOADS
                               if w in self.rows])

    @property
    def overall(self) -> float:
        return geometric_mean(list(self.rows.values()))

    @property
    def overall_spread(self) -> Tuple[float, float]:
        """``(min, max)`` over the rounds of each round's overall score."""
        scores = [geometric_mean([row[name] for name in self.rows])
                  for row in self.rounds]
        return min(scores), max(scores)

    def format(self) -> str:
        label = {"taintdroid": "TaintDroid", "ndroid": "NDroid",
                 "droidscope": "DroidScope-sim"}.get(self.config,
                                                     self.config)
        lines = [f"== {label} slowdown vs vanilla (x): median of "
                 f"{len(self.rounds)} interleaved rounds [min-max] =="]
        for name, value in self.rows.items():
            low, high = self.spread[name]
            lines.append(f"  {name:<22s} {value:8.2f}  "
                         f"[{low:.2f}-{high:.2f}]")
        low, high = self.overall_spread
        lines.append(f"  {'Native Score':<22s} {self.native_score:8.2f}")
        lines.append(f"  {'Java Score':<22s} {self.java_score:8.2f}")
        lines.append(f"  {'Overall Score':<22s} {self.overall:8.2f}  "
                     f"[{low:.2f}-{high:.2f}]")
        lines.append(f"  engines: {self.engine}; host: {self.cpus} CPUs")
        return "\n".join(lines)


class OverheadHarness:
    """Measures wall-clock slowdown per workload per configuration.

    Each configuration gets its own platform, warmed up by one untimed
    pass of every workload (translations, compiled Dalvik blocks, JNI
    trampolines and allocator state all exist before any timing).  Then
    ``repeats`` rounds run; in each round every workload runs once per
    configuration back to back, in the orders of a balanced
    (:func:`williams_order`) design taken row by row from workload to
    workload and round to round, so machine drift, the cost of running
    first and the state the previous configuration left behind hit every
    configuration alike.  A table
    reports the median of the per-round ratios to vanilla and their
    spread.

    The configurations do not all run on the same engines (see
    :func:`engine_footing`, printed with each table): DroidScope-sim's
    per-instruction tracer and per-bytecode Dalvik listener keep it on
    the single-step ARM and Dalvik interpreters, while every other
    configuration runs translated blocks.  Its gap over NDroid therefore
    includes the engines' speed difference, not only its analysis cost.
    """

    def __init__(self, iterations: int = 300, repeats: int = 5) -> None:
        if repeats < 1:
            raise ValueError("repeats must be at least 1")
        self.iterations = iterations
        self.repeats = repeats

    def compare(self, configs: List[str],
                workloads: Optional[List[str]] = None
                ) -> Dict[str, OverheadTable]:
        """One table per config in ``configs``, each against vanilla."""
        names = list(workloads) if workloads is not None else list(WORKLOADS)
        everyone = ["vanilla"] + [config for config in configs
                                  if config != "vanilla"]
        benches = {}
        for config in everyone:
            bench = CFBench(make_platform(config), iterations=self.iterations)
            for name in names:
                bench.run_workload(name)  # warm-up, untimed
            benches[config] = bench
        rounds: Dict[str, List[Dict[str, float]]] = {
            config: [] for config in everyone}
        for index in range(self.repeats):
            for config in everyone:
                rounds[config].append({})
            for position, name in enumerate(names):
                order = williams_order(len(everyone),
                                       index * len(names) + position)
                for config in (everyone[slot] for slot in order):
                    rounds[config][-1][name] = \
                        benches[config].run_workload(name).elapsed_seconds
        cpus = os.cpu_count()
        return {
            config: OverheadTable(
                config,
                [{name: row[name] / base[name] for name in row
                  if base.get(name)}
                 for row, base in zip(rounds[config], rounds["vanilla"])],
                engine=engine_footing(benches[config].platform), cpus=cpus)
            for config in configs
        }

    def overhead_table(self, config: str,
                       workloads: Optional[List[str]] = None
                       ) -> OverheadTable:
        return self.compare([config], workloads)[config]

    def compare_all(self, workloads: Optional[List[str]] = None
                    ) -> Dict[str, OverheadTable]:
        return self.compare([config for config in CONFIGS
                             if config != "vanilla"], workloads)
