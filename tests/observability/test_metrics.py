"""Unit tests for the metrics registry."""

import json

from repro.observability.metrics import (
    MetricsRegistry,
    diff_snapshots,
    load_snapshot,
)


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
    registry.register_source("kernel", lambda: {"traps": 3})
    path = tmp_path / "metrics.json"
    written = registry.write_json(str(path))
    assert load_snapshot(str(path)) == written
    assert json.loads(path.read_text())["kernel.traps"] == 3


def test_diff_snapshots_ratio():
    rows = diff_snapshots({"a": 20, "b": 5, "only_current": 1},
                          {"a": 10, "b": 0})
    by_name = {name: (base, cur, ratio) for name, base, cur, ratio in rows}
    assert by_name["a"] == (10, 20, 2.0)
    assert by_name["b"][2] is None  # zero baseline -> no ratio
    assert by_name["only_current"][0] is None


def test_gauge_keys_cover_declared_source_gauges():
    registry = MetricsRegistry()
    registry.register_source("pool", lambda: {"live_workers": 3,
                                              "spawns": 1},
                             gauges=("live_workers",))
    registry.register_source("cache", lambda: {"blocks": 7, "hits": 9},
                             gauges=("blocks",))
    assert registry.gauge_keys() == ["cache.blocks", "pool.live_workers"]
    registry.unregister_source("cache")
    assert registry.gauge_keys() == ["pool.live_workers"]
