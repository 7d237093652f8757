"""Unit tests for the metrics registry."""

import json

from repro.observability.metrics import (
    MetricsRegistry,
    diff_snapshots,
    load_snapshot,
)


def test_counter_gauge_snapshot():
    registry = MetricsRegistry()
    registry.counter("kernel.traps").inc()
    registry.counter("kernel.traps").inc(2)
    registry.gauge("emulator.instructions").set(45)
    assert registry.snapshot() == {"kernel.traps": 3,
                                   "emulator.instructions": 45}


def test_create_or_get_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")


def test_pull_sources_flatten_under_prefix():
    registry = MetricsRegistry()
    state = {"instructions": 0}
    registry.register_source("emulator",
                             lambda: {"instructions":
                                      state["instructions"]})
    state["instructions"] = 99  # snapshot-time read, not registration-time
    assert registry.snapshot()["emulator.instructions"] == 99
    registry.unregister_source("emulator")
    assert "emulator.instructions" not in registry.snapshot()


def test_write_and_load_snapshot(tmp_path):
    registry = MetricsRegistry()
    registry.counter("resilience.runs").inc()
    path = tmp_path / "metrics.json"
    written = registry.write_json(str(path))
    assert load_snapshot(str(path)) == written
    assert json.loads(path.read_text())["resilience.runs"] == 1


def test_diff_snapshots_ratio():
    rows = diff_snapshots({"a": 20, "b": 5, "only_current": 1},
                          {"a": 10, "b": 0})
    by_name = {name: (base, cur, ratio) for name, base, cur, ratio in rows}
    assert by_name["a"] == (10, 20, 2.0)
    assert by_name["b"][2] is None  # zero baseline -> no ratio
    assert by_name["only_current"][0] is None


def test_gauge_keys_cover_push_gauges_and_declared_source_gauges():
    registry = MetricsRegistry()
    registry.gauge("pool.live_workers").set(3)
    registry.counter("pool.spawns").inc()
    registry.register_source("cache", lambda: {"blocks": 7, "hits": 9},
                             gauges=("blocks",))
    assert registry.gauge_keys() == ["cache.blocks", "pool.live_workers"]
    registry.unregister_source("cache")
    assert registry.gauge_keys() == ["pool.live_workers"]
