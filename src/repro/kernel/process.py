"""Process model with task structures materialised in guest memory.

DroidScope — and NDroid's OS-level view reconstructor, which is "motivated
by DroidScope" (Section V.F) — rebuilds the process list and memory maps by
parsing the guest kernel's ``task_struct``/``vm_area_struct`` chains out of
raw memory.  To make that introspection real rather than a Python-level
shortcut, the simulated kernel serialises each process into guest memory
using the fixed layouts below; the reconstructor later parses those bytes
with no access to the Python objects.

Task struct layout (little-endian words)::

    +0x00  pid
    +0x04  comm[16]          (NUL-padded process name)
    +0x14  vma list head     (pointer, 0 if empty)
    +0x18  next task         (pointer, 0 terminates the list)

VMA struct layout::

    +0x00  vm_start
    +0x04  vm_end
    +0x08  name pointer      (NUL-terminated string elsewhere in memory)
    +0x0c  flags             (bit0: third-party module)
    +0x10  next vma          (pointer, 0 terminates)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.kernel.filesystem import RegularFile
from repro.kernel.network import Socket
from repro.memory.allocator import BumpAllocator
from repro.memory.memory import Memory
from repro.memory.regions import MemoryMap

TASK_PID_OFFSET = 0x00
TASK_COMM_OFFSET = 0x04
TASK_COMM_LENGTH = 16
TASK_VMA_OFFSET = 0x14
TASK_NEXT_OFFSET = 0x18
TASK_STRUCT_SIZE = 0x1C

VMA_START_OFFSET = 0x00
VMA_END_OFFSET = 0x04
VMA_NAME_OFFSET = 0x08
VMA_FLAGS_OFFSET = 0x0C
VMA_NEXT_OFFSET = 0x10
VMA_STRUCT_SIZE = 0x14

VMA_FLAG_THIRD_PARTY = 0x1

# The kernel keeps a pointer to the first task here (the "init_task"
# symbol a real introspection tool would resolve from System.map).
TASK_LIST_HEAD = 0xC000_0000
KERNEL_DATA_BASE = 0xC000_0010
KERNEL_DATA_SIZE = 0x0010_0000


@dataclass
class FileDescriptor:
    """One open descriptor: either a file position or a socket."""

    fd: int
    kind: str                       # "file" or "socket"
    path: Optional[str] = None
    file: Optional[RegularFile] = None
    socket: Optional[Socket] = None
    offset: int = 0
    writable: bool = True


class Process:
    """A simulated process: pid, name, memory map and descriptor table."""

    def __init__(self, pid: int, name: str) -> None:
        self.pid = pid
        self.name = name
        self.memory_map = MemoryMap()
        self.fds: Dict[int, FileDescriptor] = {}
        self._next_fd = 3  # 0-2 reserved for std streams
        self.task_struct_address = 0

    def checkpoint(self) -> None:
        """Record the descriptor table."""
        self._checkpoint = (
            {fd: replace(descriptor)
             for fd, descriptor in self.fds.items()}, self._next_fd)

    def reset_for_job(self, files: Dict[str, RegularFile]) -> None:
        """Back to the checkpointed descriptors; a file descriptor points
        at ``files[path]``, the reset filesystem's object."""
        fds, self._next_fd = self._checkpoint
        self.fds = {fd: replace(descriptor, file=files.get(descriptor.path)
                                if descriptor.path is not None
                                else descriptor.file)
                    for fd, descriptor in fds.items()}

    def allocate_fd(self) -> int:
        fd = self._next_fd
        self._next_fd += 1
        return fd

    # -- guest-memory serialisation --------------------------------------------

    def sync_to_guest(self, memory: Memory, allocator: BumpAllocator,
                      next_task: int) -> int:
        """Write this process's task struct + VMA chain into guest memory.

        Returns the task struct address.  Called by the kernel whenever the
        process table or a memory map changes, mirroring how real kernel
        structures are always current in RAM.
        """
        if self.task_struct_address == 0:
            self.task_struct_address = allocator.alloc(TASK_STRUCT_SIZE)
        base = self.task_struct_address
        memory.write_u32(base + TASK_PID_OFFSET, self.pid)
        comm = self.name.encode("utf-8")[:TASK_COMM_LENGTH - 1]
        memory.write_bytes(base + TASK_COMM_OFFSET,
                           comm + b"\x00" * (TASK_COMM_LENGTH - len(comm)))
        memory.write_u32(base + TASK_NEXT_OFFSET, next_task)

        previous_ptr = base + TASK_VMA_OFFSET
        memory.write_u32(previous_ptr, 0)
        for region in self.memory_map:
            vma = allocator.alloc(VMA_STRUCT_SIZE)
            name_address = allocator.alloc(len(region.name) + 1)
            memory.write_cstring(name_address, region.name)
            memory.write_u32(vma + VMA_START_OFFSET, region.start)
            memory.write_u32(vma + VMA_END_OFFSET, region.end)
            memory.write_u32(vma + VMA_NAME_OFFSET, name_address)
            flags = VMA_FLAG_THIRD_PARTY if region.third_party else 0
            memory.write_u32(vma + VMA_FLAGS_OFFSET, flags)
            memory.write_u32(vma + VMA_NEXT_OFFSET, 0)
            memory.write_u32(previous_ptr, vma)
            previous_ptr = vma + VMA_NEXT_OFFSET
        return base
