"""The metrics registry: pull sources only.

A module registers a closure returning a dict of name→value; the
closure runs only at ``snapshot()`` time, so modules that already keep
counters (the emulator's ``instruction_count``, the kernel's syscall
tally, NDroid's ``statistics()``) are observable at zero runtime cost.

``snapshot()`` flattens everything into ``prefix.name -> number``, the
form the ``repro report`` overhead tables consume; ``diff_snapshots``
produces the Table IV/V-style two-run comparison rows.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, IO, List, Optional, Tuple, Union

Number = Union[int, float]
Source = Callable[[], Dict[str, Number]]


class MetricsRegistry:
    """Named pull sources, flattened by ``snapshot()``."""

    def __init__(self) -> None:
        self._sources: List[Tuple[str, Source]] = []
        self._source_gauges: Dict[str, Tuple[str, ...]] = {}

    def register_source(self, prefix: str, source: Source,
                        gauges: Tuple[str, ...] = ()) -> None:
        """Attach a snapshot-time closure; its keys land under ``prefix.``.

        ``gauges`` names the source keys that are point-in-time values
        rather than monotonic counters — fleet merging must not sum
        those across workers (see ``farm/merge.merge_metrics``).
        """
        self._sources.append((prefix, source))
        if gauges:
            self._source_gauges[prefix] = tuple(gauges)

    def unregister_source(self, prefix: str) -> None:
        self._sources = [(p, s) for p, s in self._sources if p != prefix]
        self._source_gauges.pop(prefix, None)

    def gauge_keys(self) -> List[str]:
        """Fully-qualified names of every gauge-typed metric: the source
        keys declared via ``register_source(..., gauges=...)``, shipped
        with each worker's snapshot so the merge layer knows what not to
        sum."""
        return sorted(f"{prefix}.{key}"
                      for prefix, keys in self._source_gauges.items()
                      for key in keys)

    def snapshot(self) -> Dict[str, Number]:
        """Every metric as a flat ``name -> number`` dict."""
        data: Dict[str, Number] = {}
        for prefix, source in self._sources:
            for key, value in source().items():
                data[f"{prefix}.{key}"] = value
        return data

    def write_json(self, target: Union[str, IO[str]]) -> Dict[str, Number]:
        snapshot = self.snapshot()
        if isinstance(target, str):
            with open(target, "w") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
        else:
            json.dump(snapshot, target, indent=2, sort_keys=True)
        return snapshot


def load_snapshot(path: str) -> Dict[str, Number]:
    with open(path) as handle:
        return json.load(handle)


def diff_snapshots(current: Dict[str, Number],
                   baseline: Dict[str, Number]
                   ) -> List[Tuple[str, Optional[Number],
                                   Optional[Number], Optional[float]]]:
    """Rows of ``(name, baseline, current, ratio)`` over both snapshots.

    ``ratio`` is ``current / baseline`` when both sides are non-zero
    numbers, else ``None`` (rendered ``-`` by the report).
    """
    rows = []
    for name in sorted(set(current) | set(baseline)):
        base = baseline.get(name)
        cur = current.get(name)
        ratio = None
        if base and cur is not None:
            ratio = cur / base
        rows.append((name, base, cur, ratio))
    return rows
