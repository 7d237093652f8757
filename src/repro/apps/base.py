"""Common scenario plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.taint import TaintLabel
from repro.framework.apk import Apk
from repro.framework.leaks import LeakRegistry


@dataclass
class Scenario:
    """A runnable leak scenario plus its ground truth."""

    name: str
    apk: Apk
    # Which Table I case this is (or a label like "benign").
    case: str = ""
    # The taint label the leaked data carries.
    expected_taint: TaintLabel = 0
    # Substring of the destination the data flows to ("" = no leak).
    expected_destination: str = ""
    # Whether TaintDroid *alone* should catch the flow (only case 1).
    taintdroid_alone_detects: bool = False
    description: str = ""

    def detected(self, leaks: LeakRegistry) -> bool:
        """Table I's verdict over a finished run's leak registry: any
        leak carrying the expected taint, or, for a benign app, any
        leak at all."""
        if self.expected_taint:
            return any(record.taint & self.expected_taint
                       for record in leaks.records)
        return bool(leaks.records)


def run_scenario(scenario: Scenario, platform) -> None:
    """Install and execute a scenario on a platform."""
    platform.install(scenario.apk)
    platform.run_app(scenario.apk)
