"""Shared leak registry: what each analysis system detected.

Both TaintDroid (Java-context sinks) and NDroid (native-context sinks,
Table VII's starred calls) report here, so the Table I detection matrix is
a direct query over the records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.taint import TaintLabel, describe_taint


@dataclass
class LeakRecord:
    """One detected information leak."""

    detector: str            # "taintdroid" or "ndroid"
    sink: str                # e.g. "send", "fprintf", "HttpClient.post"
    taint: TaintLabel
    destination: str = ""    # host/path the data went to
    payload: bytes = b""
    context: str = ""        # "java" or "native"

    def describe(self) -> str:
        return (f"[{self.detector}] {self.sink} -> {self.destination or '?'} "
                f"taint={describe_taint(self.taint)} "
                f"({len(self.payload)} bytes)")


class LeakRegistry:
    """Append-only store with per-detector queries."""

    def __init__(self) -> None:
        self.records: List[LeakRecord] = []

    def report(self, record: LeakRecord) -> LeakRecord:
        self.records.append(record)
        return record

    def by_detector(self, detector: str) -> List[LeakRecord]:
        return [r for r in self.records if r.detector == detector]

    def detected_by(self, detector: str,
                    taint: Optional[TaintLabel] = None) -> bool:
        for record in self.by_detector(detector):
            if taint is None or (record.taint & taint):
                return True
        return False

    def rows(self) -> List[Dict]:
        """Every record as the JSON row the artifacts carry (payload hex)."""
        return [
            {
                "detector": record.detector,
                "sink": record.sink,
                "taint": record.taint,
                "destination": record.destination,
                "payload": record.payload.hex(),
                "context": record.context,
            }
            for record in self.records
        ]

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def summary(self) -> str:
        if not self.records:
            return "(no leaks detected)"
        return "\n".join(record.describe() for record in self.records)
