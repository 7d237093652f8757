"""OS-level view reconstructor (Section V.F).

"Motivated by DroidScope, NDroid employs virtual machine introspection to
collect the information of processes and memory maps in Android's Linux
kernel."  The reconstructor parses raw guest memory — the task-struct /
VMA chains the simulated kernel maintains (see ``repro.kernel.process``) —
and never touches the kernel's Python objects.  From the rebuilt view it
answers the questions NDroid's engines need: where is a module loaded, is
an address inside third-party native code, what processes exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.kernel.process import (
    TASK_COMM_OFFSET,
    TASK_LIST_HEAD,
    TASK_NEXT_OFFSET,
    TASK_PID_OFFSET,
    TASK_VMA_OFFSET,
    VMA_END_OFFSET,
    VMA_FLAG_THIRD_PARTY,
    VMA_FLAGS_OFFSET,
    VMA_NAME_OFFSET,
    VMA_NEXT_OFFSET,
    VMA_START_OFFSET,
)
from repro.memory.memory import Memory


@dataclass
class VmaView:
    """One reconstructed memory mapping (a parsed vm_area_struct)."""
    start: int
    end: int
    name: str
    third_party: bool

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end


@dataclass
class ProcessView:
    """One reconstructed process: pid, comm and its VMA list."""
    pid: int
    comm: str
    vmas: List[VmaView] = field(default_factory=list)


@dataclass
class OSView:
    """The reconstructed whole-system view: every process and its maps."""
    processes: List[ProcessView] = field(default_factory=list)

    def format(self) -> str:
        lines = []
        for process in self.processes:
            lines.append(f"pid {process.pid:4d} {process.comm}")
            for vma in process.vmas:
                tag = " (3p)" if vma.third_party else ""
                lines.append(f"    {vma.start:08x}-{vma.end:08x} "
                             f"{vma.name}{tag}")
        return "\n".join(lines)


class ViewReconstructor:
    """Parses the guest task list; caches the result until invalidated."""

    _MAX_TASKS = 1024
    _MAX_VMAS = 4096

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        self._cached: Optional[OSView] = None
        self.reconstructions = 0

    def invalidate(self) -> None:
        self._cached = None

    def checkpoint(self, key) -> None:
        """Reconstruct now and keep the view, for the guest task list
        that ``key`` identifies."""
        self.invalidate()
        self._checkpoint = (key, self.reconstruct())

    def reset_for_job(self, key) -> None:
        """Zero the count and restore the checkpointed view while ``key``
        is the checkpoint's; another key reconstructs and checkpoints."""
        if key != self._checkpoint[0]:
            self.checkpoint(key)
        self._cached = self._checkpoint[1]
        self.reconstructions = 0

    def reconstruct(self) -> OSView:
        """Walk the raw task-struct chain out of guest memory."""
        self.reconstructions += 1
        view = OSView()
        task = self.memory.read_u32(TASK_LIST_HEAD)
        seen = 0
        while task and seen < self._MAX_TASKS:
            seen += 1
            pid = self.memory.read_u32(task + TASK_PID_OFFSET)
            comm = self.memory.read_cstring(task + TASK_COMM_OFFSET,
                                            limit=16).decode(
                "utf-8", errors="replace")
            process = ProcessView(pid=pid, comm=comm)
            vma = self.memory.read_u32(task + TASK_VMA_OFFSET)
            vma_count = 0
            while vma and vma_count < self._MAX_VMAS:
                vma_count += 1
                name_ptr = self.memory.read_u32(vma + VMA_NAME_OFFSET)
                name = self.memory.read_cstring(name_ptr).decode(
                    "utf-8", errors="replace") if name_ptr else "?"
                flags = self.memory.read_u32(vma + VMA_FLAGS_OFFSET)
                process.vmas.append(VmaView(
                    start=self.memory.read_u32(vma + VMA_START_OFFSET),
                    end=self.memory.read_u32(vma + VMA_END_OFFSET),
                    name=name,
                    third_party=bool(flags & VMA_FLAG_THIRD_PARTY)))
                vma = self.memory.read_u32(vma + VMA_NEXT_OFFSET)
            view.processes.append(process)
            task = self.memory.read_u32(task + TASK_NEXT_OFFSET)
        self._cached = view
        return view

    def view(self) -> OSView:
        if self._cached is None:
            return self.reconstruct()
        return self._cached

    # -- queries NDroid's engines use --------------------------------------------

    def module_base(self, name: str, comm: Optional[str] = None) -> int:
        """Start address of a named module (e.g. ``libdvm.so``)."""
        for process in self.view().processes:
            if comm is not None and process.comm != comm:
                continue
            for vma in process.vmas:
                if vma.name == name:
                    return vma.start
        raise KeyError(f"module {name!r} not found in any memory map")

    def is_third_party(self, address: int) -> bool:
        for process in self.view().processes:
            for vma in process.vmas:
                if vma.contains(address):
                    return vma.third_party
        return False
