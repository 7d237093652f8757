"""The exact guest profile: instructions retired per guest function.

While tracing is on, the emulator keeps ``pc -> instructions retired``
(:attr:`repro.emulator.emulator.Emulator.profile`): each dispatched
translation block credits its length to its entry pc, each single step
credits one, and each host call its pc with none (a host model retires
no guest instruction, so it shows in the profile at zero without
breaking the sum).  The counts therefore add up exactly to the
instructions retired while the profile was attached.

This module folds those counts into guest frames through a
:class:`SymbolResolver` built from the loaded modules' symbol tables and
the module map.  ``Observability`` publishes the folded counts as the
``profile`` pull source of its metrics registry, so they travel in every
snapshot (and every farm row) as ``profile.<module>;<symbol>`` counters;
:func:`folded_lines` renders a snapshot's profile as flamegraph-ready
folded lines.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Tuple

# A symbol more than this far behind the pc is not credited; the pc
# falls back to its module (or an unknown bucket).
MAX_SYMBOL_DISTANCE = 0x10000

PROFILE_PREFIX = "profile."


class SymbolResolver:
    """pc → ``module;symbol`` via sorted symbol tables + module map.

    A pc no symbol claims resolves module-relative (``libx.so;+0x1a4``),
    so a frame never depends on where a library was loaded.
    """

    def __init__(self) -> None:
        self._symbols: List[Tuple[int, str, str]] = []
        self._sorted = False
        self._modules: List[Tuple[int, int, str]] = []

    def add_symbol(self, address: int, module: str, name: str) -> None:
        self._symbols.append((address & ~1, module, name))
        self._sorted = False

    def add_module(self, start: int, end: int, name: str) -> None:
        self._modules.append((start, end, name))

    def add_symbols(self, module: str, symbols: Dict[str, int]) -> None:
        for name, address in symbols.items():
            self.add_symbol(address, module, name)

    def _module_of(self, pc: int) -> Optional[Tuple[int, str]]:
        for start, end, name in self._modules:
            if start <= pc < end:
                return start, name
        return None

    def resolve(self, pc: int) -> str:
        if not self._sorted:
            self._symbols.sort(key=lambda entry: entry[0])
            self._sorted = True
        addresses = [entry[0] for entry in self._symbols]
        index = bisect_right(addresses, pc) - 1
        module = self._module_of(pc)
        if index >= 0:
            address, sym_module, name = self._symbols[index]
            if pc - address <= MAX_SYMBOL_DISTANCE and \
                    (module is None or module[1] == sym_module):
                return f"{sym_module};{name}"
        if module is not None:
            return f"{module[1]};+0x{pc - module[0]:x}"
        return f"unknown;0x{pc:08x}"

    def fold(self, counts: Mapping[int, int]) -> Dict[str, int]:
        """``pc -> count`` summed per resolved frame."""
        frames: Dict[str, int] = {}
        for pc, count in counts.items():
            frame = self.resolve(pc)
            frames[frame] = frames.get(frame, 0) + count
        return frames

    @classmethod
    def from_platform(cls, platform) -> "SymbolResolver":
        """Build from everything an :class:`AndroidPlatform` has mapped."""
        resolver = cls()
        for name, program in getattr(platform, "_loaded_libraries",
                                     {}).items():
            resolver.add_symbols(name, program.symbols)
        resolver.add_symbols("libc.so", platform.libc.symbols)
        resolver.add_symbols("libm.so", platform.libm.symbols)
        resolver.add_symbols("libdvm.so", platform.jni.symbols)
        for region in platform.emu.memory_map:
            resolver.add_module(region.start, region.end, region.name)
        return resolver


def folded_lines(snapshot: Mapping[str, object]) -> List[str]:
    """A metrics snapshot's ``profile.*`` counters as flamegraph folded
    lines (``frame count``), heaviest first."""
    frames = [(key[len(PROFILE_PREFIX):], count)
              for key, count in snapshot.items()
              if key.startswith(PROFILE_PREFIX)]
    frames.sort(key=lambda item: (-item[1], item[0]))
    return [f"{frame} {count}" for frame, count in frames]
