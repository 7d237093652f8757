"""TaintDroid attachment object."""

from __future__ import annotations

from repro.common.taint import TaintLabel
from repro.framework.leaks import LeakRecord


class TaintDroid:
    """Enables framework sources and Java sinks.

    The DVM propagates taint per instruction in every configuration;
    attaching TaintDroid is what lets a source hand it a nonzero taint.
    """

    def __init__(self, platform) -> None:
        self.platform = platform

    @classmethod
    def attach(cls, platform) -> "TaintDroid":
        system = cls(platform)
        platform.taintdroid = system
        return system

    def report_leak(self, sink: str, taint: TaintLabel, destination: str,
                    payload: bytes) -> None:
        self.platform.leaks.report(LeakRecord(
            detector="taintdroid", sink=sink, taint=taint,
            destination=destination, payload=payload, context="java"))
