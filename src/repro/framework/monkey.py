"""Monkey-style random input generation (paper Section VI).

The paper drives its 37,506 JNI apps with Monkeyrunner — random UI events
— and notes the resulting coverage limits: "simple tools like
monkeyrunner cannot enumerate all possible paths in an app and thus
NDroid may miss information leakage" (Section VII).

Apps here expose *handlers* instead of UI widgets: any public static
method named ``on<Something>`` with no parameters (``onCreate``,
``onClick``, ``onMenuOpen``…).  :class:`MonkeyRunner` fires a random
sequence of those handlers, exactly like a tap-stream would; a leak
hidden behind a handler the monkey never hits stays unobserved, which is
the coverage phenomenon the paper reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dalvik.interpreter import PendingException
from repro.framework.apk import Apk


@dataclass
class MonkeySession:
    """Record of one random-input run."""

    package: str
    events_fired: List[str] = field(default_factory=list)
    handlers_available: List[str] = field(default_factory=list)
    crashes: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of available handlers exercised at least once."""
        if not self.handlers_available:
            return 1.0
        hit = set(self.events_fired) & set(self.handlers_available)
        return len(hit) / len(self.handlers_available)


class MonkeyRunner:
    """Fires random handler events at an installed app."""

    def __init__(self, platform, seed: int = 0) -> None:
        self.platform = platform
        self.random = random.Random(seed)

    @staticmethod
    def discover_handlers(apk: Apk) -> List[str]:
        """All ``on*`` no-argument static methods (the app's event surface)."""
        handlers = []
        for class_def in apk.classes:
            for method in class_def.methods.values():
                if (method.name.startswith("on") and method.is_static
                        and not method.is_native
                        and method.ins_size == 0):
                    handlers.append(f"{class_def.name}->{method.name}")
        return sorted(handlers)

    def run(self, apk: Apk, events: int = 20,
            launch_main: bool = True) -> MonkeySession:
        """Launch the app, then fire ``events`` random handler events."""
        session = MonkeySession(package=apk.package)
        session.handlers_available = self.discover_handlers(apk)
        if launch_main:
            try:
                self.platform.run_app(apk)
            except PendingException:
                session.crashes += 1
        if not session.handlers_available:
            return session
        for __ in range(events):
            handler = self.random.choice(session.handlers_available)
            session.events_fired.append(handler)
            try:
                self.platform.vm.call_main(handler)
            except PendingException:
                session.crashes += 1
        return session
