"""NDroid's counters and findings over every scenario, market app and a
warmed CF-Bench pass: the runs behind the golden-counter test and the
engine parity test.

Regenerate the golden file (only when a change is meant to move the
counters) with::

    PYTHONPATH=src python -m tests.core.ndroid_counters
"""

from __future__ import annotations

import json
import os

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.apps.market import MARKET_APPS
from repro.bench.cfbench import CFBench
from repro.bench.harness import make_platform
from repro.framework.monkey import MonkeyRunner

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "ndroid_counters_golden.json")
# The market study's Monkey settings (tests/integration).
MONKEY_SEED = 7
MONKEY_EVENTS = 12
CFBENCH_ITERATIONS = 100

TARGETS = ([f"scenario:{name}" for name in ALL_SCENARIOS] +
           [f"market:{package}" for package in MARKET_APPS] +
           ["cfbench:warm"])


def counters(platform):
    """Everything NDroid counted and found on ``platform``."""
    ndroid = platform.ndroid
    observability = platform.observability
    ledger = observability.ledger if observability is not None else None
    return {
        "statistics": ndroid.statistics(),
        "hook_invocations": dict(sorted(ndroid.hook_invocations.items())),
        "dvm_hooks": dict(ndroid.dvm_hooks.stats),
        "syslib": {"modelled_calls": ndroid.syslib_hooks.modelled_calls,
                   "sink_checks": ndroid.syslib_hooks.sink_checks},
        "leaks": [[record.detector, record.sink, record.taint,
                   record.destination, record.payload.hex(),
                   record.context] for record in platform.leaks.records],
        "edges": ([edge.to_dict() for edge in ledger]
                  if ledger is not None else []),
    }


def run_target(target, use_tb=True, trace=True):
    """Run one target on a fresh NDroid platform; returns the platform."""
    kind, name = target.split(":", 1)
    platform = make_platform("ndroid", use_tb=use_tb, trace=trace)
    if kind == "scenario":
        run_scenario(ALL_SCENARIOS[name](), platform)
    elif kind == "market":
        apk = MARKET_APPS[name]()
        platform.install(apk)
        MonkeyRunner(platform, seed=MONKEY_SEED).run(
            apk, events=MONKEY_EVENTS)
    else:
        bench = CFBench(platform, iterations=CFBENCH_ITERATIONS)
        bench.run_all()   # warm-up pass
        bench.run_all()
    return platform


def collect():
    return {target: counters(run_target(target)) for target in TARGETS}


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
