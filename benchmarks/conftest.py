"""Shared helpers for the per-table/figure benchmark harnesses."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest


def fresh_platform(config):
    from repro.bench.harness import make_platform
    return make_platform(config)


@pytest.fixture
def run_scenario_under():
    """Returns a callable running a named scenario under a config."""
    def runner(scenario_name, config):
        from repro.apps import ALL_SCENARIOS
        from repro.apps.base import run_scenario
        scenario = ALL_SCENARIOS[scenario_name]()
        platform = fresh_platform(config)
        run_scenario(scenario, platform)
        return scenario, platform
    return runner


@pytest.fixture
def count_calls():
    """Returns a callable that counts calls of one method of an object
    (the instruction tracer's handler selections), in a list it returns."""
    def install(instance, name):
        calls = []
        method = getattr(instance, name)

        def counted(*args):
            calls.append(1)
            return method(*args)
        setattr(instance, name, counted)
        return calls
    return install
