"""Structured event log shared by all analysis engines.

The paper's figures 6-9 are annotated *logs* of the major functions on an
information flow ("NewStringUTF Begin ... add taint 514 to new string
object@0x412a3320 ...").  Rather than scattering prints, every engine in
this reproduction appends :class:`Event` records to a shared
:class:`EventLog`; tests assert on the records and the example scripts
pretty-print them, which regenerates the paper's log figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Event:
    """One log record.

    Attributes:
        source: which engine emitted it (e.g. ``"dvm_hook"``, ``"sink"``).
        kind: machine-matchable event name (e.g. ``"NewStringUTF.begin"``).
        detail: free-form human-readable message.
        data: structured payload for assertions (addresses, taints, names).
        seq: global sequence number, assigned by the log.
    """

    source: str
    kind: str
    detail: str = ""
    data: Dict[str, Any] = field(default_factory=dict)
    seq: int = -1

    def format(self) -> str:
        parts = [f"[{self.seq:06d}]", f"{self.source}:{self.kind}"]
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class EventLog:
    """Append-only event stream with simple query helpers."""

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._seq = 0
        # Hot-path callers (the per-crossing JNI emits) guard on this flag
        # before building the f-string detail and data dict; ``emit`` itself
        # still honours it so un-guarded callers behave consistently.
        self.enabled = True

    def emit(self, source: str, kind: str, detail: str = "", **data: Any) -> Event:
        if not self.enabled:
            # Detached record: not appended.
            return Event(source=source, kind=kind, detail=detail, data=data)
        event = Event(source=source, kind=kind, detail=detail, data=data,
                      seq=self._seq)
        self._seq += 1
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0

    def find(self, kind: Optional[str] = None, source: Optional[str] = None) -> List[Event]:
        """Return events matching the given kind and/or source."""
        return [
            event
            for event in self._events
            if (kind is None or event.kind == kind)
            and (source is None or event.source == source)
        ]

    def first(self, kind: str) -> Optional[Event]:
        for event in self._events:
            if event.kind == kind:
                return event
        return None

    def last(self, kind: str) -> Optional[Event]:
        for event in reversed(self._events):
            if event.kind == kind:
                return event
        return None

    def kinds(self) -> List[str]:
        """The sequence of event kinds, for order-sensitive assertions."""
        return [event.kind for event in self._events]

    def dump(self) -> str:
        """Render the whole log, one event per line (used by examples)."""
        return "\n".join(event.format() for event in self._events)
