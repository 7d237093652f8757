"""The ARM register file and status flags.

This is the reproduction's ``CPUState`` — the structure NDroid's
``SourcePolicy.handler`` receives so it can read parameter registers and the
stack pointer when initialising native-side taints (Listing 1 of the paper).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cpu.bits import u32

# Register aliases used throughout the ARM procedure call standard (AAPCS):
# R0-R3 carry the first four arguments and R0 the return value; R13 is SP,
# R14 is LR and R15 is PC.
SP = 13
LR = 14
PC = 15

REGISTER_NAMES = [f"r{i}" for i in range(13)] + ["sp", "lr", "pc"]


class CpuState:
    """Sixteen general-purpose registers plus NZCV flags and the Thumb bit."""

    __slots__ = ("regs", "flag_n", "flag_z", "flag_c", "flag_v", "thumb")

    def __init__(self) -> None:
        self.regs: List[int] = [0] * 16
        self.flag_n = False
        self.flag_z = False
        self.flag_c = False
        self.flag_v = False
        self.thumb = False

    def load(self, other: "CpuState") -> None:
        """Take ``other``'s registers and flags, in place (compiled code
        and host contexts hold this object and its register list)."""
        self.regs[:] = other.regs
        self.flag_n, self.flag_z = other.flag_n, other.flag_z
        self.flag_c, self.flag_v = other.flag_c, other.flag_v
        self.thumb = other.thumb

    # -- register access ---------------------------------------------------

    def read_reg(self, index: int) -> int:
        """Read a register; PC reads include the pipeline offset.

        On ARM, reading R15 yields the current instruction's address plus 8;
        in Thumb state, plus 4.  Generated code (PC-relative loads, ADR)
        relies on this.
        """
        if index == PC:
            return u32(self.regs[PC] + (4 if self.thumb else 8))
        return self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        self.regs[index] = u32(value)

    @property
    def sp(self) -> int:
        return self.regs[SP]

    @sp.setter
    def sp(self, value: int) -> None:
        self.regs[SP] = u32(value)

    @property
    def lr(self) -> int:
        return self.regs[LR]

    @lr.setter
    def lr(self, value: int) -> None:
        self.regs[LR] = u32(value)

    @property
    def pc(self) -> int:
        """The raw PC (address of the instruction being executed)."""
        return self.regs[PC]

    @pc.setter
    def pc(self, value: int) -> None:
        self.regs[PC] = u32(value)

    # -- flags ---------------------------------------------------------------

    def set_nz(self, result: int) -> None:
        result = u32(result)
        self.flag_n = bool(result & 0x8000_0000)
        self.flag_z = result == 0

    def cpsr(self) -> int:
        """Pack the flags into a CPSR-style word (for tests and dumps)."""
        word = 0
        if self.flag_n:
            word |= 1 << 31
        if self.flag_z:
            word |= 1 << 30
        if self.flag_c:
            word |= 1 << 29
        if self.flag_v:
            word |= 1 << 28
        if self.thumb:
            word |= 1 << 5
        return word

    def snapshot(self) -> Dict[str, int]:
        """Capture registers and flags for debugging and test assertions."""
        state = {name: self.regs[i] for i, name in enumerate(REGISTER_NAMES)}
        state["cpsr"] = self.cpsr()
        return state

    def format(self) -> str:
        rows = []
        for start in range(0, 16, 4):
            cells = [
                f"{REGISTER_NAMES[i]:>3}={self.regs[i]:08x}"
                for i in range(start, start + 4)
            ]
            rows.append("  ".join(cells))
        flags = "".join(
            name if value else name.lower()
            for name, value in [("N", self.flag_n), ("Z", self.flag_z),
                                ("C", self.flag_c), ("V", self.flag_v)]
        )
        rows.append(f"flags={flags} thumb={int(self.thumb)}")
        return "\n".join(rows)
