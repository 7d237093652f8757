"""Taint protection (the paper's Section VII extension).

"NDroid can be easily extended to protect taints and prevent evasions
through stack manipulation or trusted function modification, because it
monitors the memory, hooks major file and memory functions, and inspects
every native instruction."

This module implements that extension.  A second per-instruction monitor
watches stores issued by third-party native code and raises a tamper
alert when one targets:

* the **interpreted (DVM) stack** — where TaintDroid keeps its interleaved
  taint tags; an app without root can clear its own labels by scribbling
  there ("an app without root privileges can manipulate the taints in
  DVM"), and
* a **trusted code region** (``libdvm.so``, ``libc.so``, ``libm.so``) —
  patching a hooked function would disable the analysis.

Alerts are :class:`TamperAlert` records in ``alerts``; policies decide
whether to just report or also to veto the write by restoring the old
bytes (``mode="restore"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cpu import isa
from repro.cpu.executor import multiple_addresses, transfer_address
from repro.dalvik.stack import DVM_STACK_BASE, DVM_STACK_SIZE
from repro.emulator.emulator import Emulator

TRUSTED_MODULES = ("libdvm.so", "libc.so", "libm.so")


@dataclass
class TamperAlert:
    """One detected tampering attempt."""

    kind: str          # "dvm-stack" or "trusted-code"
    pc: int            # the offending instruction's address
    target: int        # the address being written
    region: str        # name of the attacked region
    restored: bool = False

    def describe(self) -> str:
        action = "blocked" if self.restored else "reported"
        return (f"[{self.kind}] store to 0x{self.target:08x} ({self.region}) "
                f"from native pc=0x{self.pc:08x} — {action}")


class TaintProtection:
    """Write-monitor over third-party native stores."""

    def __init__(self, platform, mode: str = "report") -> None:
        if mode not in ("report", "restore"):
            raise ValueError(f"unknown protection mode {mode!r}")
        self.platform = platform
        self.mode = mode
        self.alerts: List[TamperAlert] = []
        self._trusted_ranges = []
        # (address, original bytes) snapshots to restore before the next
        # instruction executes (the monitor runs pre-execution, so the
        # offending store lands first and is undone one step later).
        self._pending_restores: List[tuple] = []
        self._refresh_trusted_ranges()

    @classmethod
    def attach(cls, platform, mode: str = "report") -> "TaintProtection":
        if platform.ndroid is None:
            raise RuntimeError("TaintProtection extends NDroid; attach "
                               "NDroid first")
        protection = cls(platform, mode=mode)
        platform.emu.add_tracer(protection._monitor)
        return protection

    def _refresh_trusted_ranges(self) -> None:
        self._trusted_ranges = [
            (region.start, region.end, region.name)
            for region in self.platform.emu.memory_map
            if region.name in TRUSTED_MODULES
        ]

    # -- the per-instruction monitor ------------------------------------------

    def _monitor(self, ir: isa.Instruction, emu: Emulator) -> None:
        if self._pending_restores:
            for address, snapshot in self._pending_restores:
                emu.memory.write_bytes(address, snapshot)
            self._pending_restores.clear()
        if not isinstance(ir, (isa.LoadStore, isa.LoadStoreMultiple)):
            return
        if getattr(ir, "load", True):
            return
        pc = emu.cpu.pc
        ndroid = self.platform.ndroid
        if not ndroid.view_reconstructor.is_third_party(pc):
            return
        if isinstance(ir, isa.LoadStore):
            address, __ = transfer_address(emu.cpu, ir)
            self._check_store(emu, pc, address, ir.size)
        else:
            for address in multiple_addresses(emu.cpu, ir):
                self._check_store(emu, pc, address, 4)

    def _check_store(self, emu: Emulator, pc: int, address: int,
                     size: int) -> None:
        alert: Optional[TamperAlert] = None
        if DVM_STACK_BASE - DVM_STACK_SIZE <= address < DVM_STACK_BASE:
            alert = TamperAlert(kind="dvm-stack", pc=pc, target=address,
                                region="[dalvik stack]")
        else:
            for start, end, name in self._trusted_ranges:
                if start <= address < end:
                    alert = TamperAlert(kind="trusted-code", pc=pc,
                                        target=address, region=name)
                    break
        if alert is None:
            return
        if self.mode == "restore":
            # Veto: snapshot the bytes now; the monitor restores them
            # before the next instruction executes.
            self._pending_restores.append(
                (address, emu.memory.read_bytes(address, size)))
            alert.restored = True
        self.alerts.append(alert)

    # -- queries ------------------------------------------------------------------

    def stack_alerts(self) -> List[TamperAlert]:
        return [a for a in self.alerts if a.kind == "dvm-stack"]

    def code_alerts(self) -> List[TamperAlert]:
        return [a for a in self.alerts if a.kind == "trusted-code"]
