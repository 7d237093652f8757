"""Memory-map regions: the simulated ``/proc/<pid>/maps``.

NDroid's OS-level view reconstructor needs module base addresses ("NDroid
obtains the start addresses of the system libraries from the memory map
through the OS-level view reconstructor", Section V.G).  Each mapped module
or anonymous area is a :class:`Region`; a process owns a :class:`MemoryMap`
of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from repro.common.errors import MemoryError_


@dataclass
class Region:
    """One contiguous mapping.

    Attributes:
        start: first address of the region.
        size: length in bytes.
        name: backing name, e.g. ``"libdvm.so"``, ``"[stack]"``,
            ``"libfoo.so"`` for a third-party native library.
        perms: rwx string, e.g. ``"r-x"``.
        third_party: True for app-supplied native libraries; NDroid's
            instruction tracer instruments only these regions.
    """

    start: int
    size: int
    name: str
    perms: str = "rwx"
    third_party: bool = False

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def overlaps(self, other: "Region") -> bool:
        return self.start < other.end and other.start < self.end

    @property
    def pages(self) -> range:
        """Indices of the 4 KiB pages the region touches."""
        return range(self.start >> 12, ((self.end - 1) >> 12) + 1)

    def format(self) -> str:
        flags = self.perms.ljust(3, "-")
        tag = " (3p)" if self.third_party else ""
        return f"{self.start:08x}-{self.end:08x} {flags} {self.name}{tag}"


class MemoryMap:
    """An ordered set of non-overlapping regions with lookup helpers."""

    def __init__(self) -> None:
        self._regions: List[Region] = []
        # Region-table change listeners.  Third-party decisions are cached
        # per page (and baked into translated blocks), so a library mapped
        # after tracing starts must reach the caches of its pages.
        self._listeners: List[Callable[[Region], None]] = []

    def subscribe(self, listener: Callable[[Region], None]) -> None:
        """Call ``listener`` with the region of every successful
        map/unmap."""
        self._listeners.append(listener)

    def _notify(self, region: Region) -> None:
        for listener in self._listeners:
            listener(region)

    def map_region(self, region: Region) -> Region:
        for existing in self._regions:
            if existing.overlaps(region):
                raise MemoryError_(
                    region.start,
                    f"mapping {region.name!r} overlaps {existing.name!r}",
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.start)
        self._notify(region)
        return region

    def map(self, start: int, size: int, name: str, perms: str = "rwx",
            third_party: bool = False) -> Region:
        return self.map_region(
            Region(start=start, size=size, name=name, perms=perms,
                   third_party=third_party))

    def unmap(self, start: int) -> None:
        for index, region in enumerate(self._regions):
            if region.start == start:
                del self._regions[index]
                self._notify(region)
                return
        raise MemoryError_(start, "unmap of unknown region")

    def find(self, address: int) -> Optional[Region]:
        for region in self._regions:
            if region.contains(address):
                return region
        return None

    def find_by_name(self, name: str) -> Optional[Region]:
        for region in self._regions:
            if region.name == name:
                return region
        return None

    def base_of(self, name: str) -> int:
        region = self.find_by_name(name)
        if region is None:
            raise MemoryError_(0, f"no region named {name!r}")
        return region.start

    def is_third_party(self, address: int) -> bool:
        region = self.find(address)
        return region is not None and region.third_party

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

    def format(self) -> str:
        """Render like ``cat /proc/<pid>/maps``."""
        return "\n".join(region.format() for region in self._regions)
