"""The kernel facade: processes, descriptors, and syscall dispatch.

Exposes two call paths, as a real kernel does:

* a **Python API** (``sys_open``, ``sys_write``…) used by the modelled libc
  host functions — this is the equivalent of libc's syscall wrappers, and
* a **trap path** via ``svc #0`` with the ARM EABI convention (number in
  ``r7``, arguments in ``r0``–``r5``), installed as the emulator's
  ``syscall_handler``.

Every write-like operation accepts per-byte taints; when code traps
directly without taint information, the kernel consults its pluggable
``taint_provider`` (installed by NDroid's taint engine) so raw syscalls
are sinks too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import KernelError, TransientSyscallFault
from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.kernel.filesystem import FileSystem
from repro.kernel.network import AF_INET, NetworkStack, SOCK_STREAM
from repro.kernel.process import (
    KERNEL_DATA_BASE,
    KERNEL_DATA_SIZE,
    TASK_LIST_HEAD,
    FileDescriptor,
    Process,
)
from repro.kernel.syscalls import NR
from repro.memory.allocator import BumpAllocator
from repro.memory.memory import Memory
from repro.observability.ledger import Loc

# open(2) flag bits (bionic values).
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000

TaintProvider = Callable[[int, int], List[TaintLabel]]

# A syscall fault hook inspects ``(syscall_name, requested_bytes)`` and
# returns ``None`` (no fault), ``("errno", Errno.EINTR)`` (fail the call
# with a transient error) or ``("partial", n)`` (emit only ``n`` bytes).
# The resilience fault plan installs one; production runs leave it None.
SyscallFaultHook = Callable[[str, int], Optional[Tuple[str, int]]]


class Kernel:
    """All kernel state for one emulated machine."""

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        self.filesystem = FileSystem()
        self.network = NetworkStack()
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self.current: Optional[Process] = None
        self._kernel_allocator = BumpAllocator(KERNEL_DATA_BASE,
                                               KERNEL_DATA_SIZE)
        # NDroid's taint engine installs this so raw SVC writes see taints.
        self.taint_provider: Optional[TaintProvider] = None
        # Provenance ledger for the final taint hop into a sink; installed
        # by the observability layer when tracing is enabled, else None.
        self.ledger = None
        # Bumped by every map/unmap in a checkpointed process's memory
        # map: the task list a reset restores changed only if it moved.
        self.task_changes = 0
        self._init_job_state()

    # -- warm workers: checkpoint and reset ------------------------------------

    def _init_job_state(self) -> None:
        # The resilience fault plan installs this to inject EINTR/EAGAIN
        # and short counts on write-like syscalls.
        self.syscall_fault_hook: Optional[SyscallFaultHook] = None
        self.syscall_count = 0
        # Per-name tally, exported as the kernel.syscall.<name> metrics.
        self.syscalls_by_name: Dict[str, int] = {}

    def checkpoint(self) -> None:
        """Record processes, files and network; serialise the task list
        once more, for a memory checkpoint taken next to keep."""
        self.filesystem.checkpoint()
        self.network.checkpoint()
        for process in self.processes.values():
            process.checkpoint()
            process.memory_map.subscribe(self._note_task_change)
        self._checkpoint = (dict(self.processes), self.current,
                            self._next_pid)
        tasks_base = self._kernel_allocator.cursor
        self.sync_tasks_to_guest()
        # Where the serialisation starts, the change count it holds, and
        # where it ends.
        self._tasks_checkpoint = (tasks_base, self.task_changes,
                                  self._kernel_allocator.cursor)

    def _note_task_change(self, region) -> None:
        self.task_changes += 1

    def reset_for_job(self) -> None:
        """Back to the checkpointed processes, files and network.

        Memory's reset restored the checkpointed task list.  Processes a
        job spawned go with the reset; only a memory map that changed (a
        library left resident) moves the change count, and then the list
        is serialised again and becomes the checkpoint, in memory's too.
        """
        processes, self.current, self._next_pid = self._checkpoint
        self.filesystem.reset_for_job()
        self.network.reset_for_job()
        self.processes.clear()
        self.processes.update(processes)
        for process in processes.values():
            process.reset_for_job(self.filesystem.all_files())
        self._init_job_state()
        tasks_base, changes, cursor = self._tasks_checkpoint
        if self.task_changes != changes:
            self._kernel_allocator.cursor = tasks_base
            self.sync_tasks_to_guest()
            cursor = self._kernel_allocator.cursor
            self.memory.checkpoint(range(TASK_LIST_HEAD >> 12,
                                         ((cursor - 1) >> 12) + 1))
            self._tasks_checkpoint = (tasks_base, self.task_changes, cursor)
        self._kernel_allocator.cursor = cursor

    def _count(self, name: str) -> None:
        self.syscalls_by_name[name] = self.syscalls_by_name.get(name, 0) + 1

    def _record_sink(self, name: str, taints: Optional[List[TaintLabel]],
                     destination: str, src_loc: Optional[Loc]) -> None:
        """The ledger's terminal edge: tainted bytes left the device.

        The SVC trap path passes the guest buffer as ``src_loc`` so the
        edge chains into the native segment; Python-API callers (the
        framework sinks) default to the coarse Java-context node for the
        union of labels, which chains into the Java-side flow instead.
        """
        if self.ledger is None or not taints:
            return
        tag = TAINT_CLEAR
        for taint in taints:
            tag |= taint
        if not tag:
            return
        if src_loc is None:
            src_loc = Loc.java(tag)
        self.ledger.record(tag, f"sink:{name}", src_loc,
                           Loc.sink(destination),
                           location=f"syscall:{name}")

    @staticmethod
    def _sink_view(taints: Optional[List[TaintLabel]],
                   src_loc: Optional[Loc],
                   written: int) -> Tuple[Optional[List[TaintLabel]],
                                          Optional[Loc]]:
        """Clip a sink recording to the bytes that actually left.

        After a short count (``("partial", n)`` fault or a device-level
        truncation) the sink edge must describe the emitted prefix only:
        both the taint list and a precise native ``mem`` source location
        shrink to ``written`` bytes, so the ledger never claims that the
        truncated tail reached the destination.
        """
        if taints is not None and written < len(taints):
            taints = taints[:written]
        if src_loc is not None and src_loc.kind == "mem" \
                and 0 < written < src_loc.length:
            src_loc = Loc.mem(src_loc.base, written)
        return taints, src_loc

    # -- process management ----------------------------------------------------

    def spawn_process(self, name: str) -> Process:
        process = Process(pid=self._next_pid, name=name)
        self._next_pid += 1
        self.processes[process.pid] = process
        if self.current is None:
            self.current = process
        self.sync_tasks_to_guest()
        return process

    def set_current(self, process: Process) -> None:
        if process.pid not in self.processes:
            raise KernelError(f"unknown process pid={process.pid}")
        self.current = process

    def sync_tasks_to_guest(self) -> None:
        """Re-serialise the task list into guest memory (see process.py)."""
        ordered = sorted(self.processes.values(), key=lambda p: p.pid)
        next_task = 0
        # Serialise back-to-front so each task knows its successor.
        for process in reversed(ordered):
            next_task = process.sync_to_guest(self.memory,
                                              self._kernel_allocator,
                                              next_task)
        self.memory.write_u32(TASK_LIST_HEAD, next_task)

    def _require_current(self) -> Process:
        if self.current is None:
            raise KernelError("no current process")
        return self.current

    def _descriptor(self, fd: int) -> FileDescriptor:
        process = self._require_current()
        descriptor = process.fds.get(fd)
        if descriptor is None:
            raise KernelError(f"bad fd {fd} in pid {process.pid}")
        return descriptor

    # -- files --------------------------------------------------------------------

    def sys_open(self, path: str, flags: int = O_RDONLY) -> int:
        process = self._require_current()
        self._count("open")
        file = self.filesystem.open_or_create(
            path, create=bool(flags & O_CREAT), truncate=bool(flags & O_TRUNC))
        fd = process.allocate_fd()
        offset = file.size if flags & O_APPEND else 0
        process.fds[fd] = FileDescriptor(
            fd=fd, kind="file", path=path, file=file, offset=offset,
            writable=bool(flags & (O_WRONLY | O_RDWR | O_CREAT | O_APPEND)))
        return fd

    def sys_close(self, fd: int) -> int:
        process = self._require_current()
        self._count("close")
        descriptor = self._descriptor(fd)
        if descriptor.kind == "socket":
            self.network.close(fd)
        del process.fds[fd]
        return 0

    def _apply_write_faults(
            self, name: str, payload: bytes,
            taints: Optional[List[TaintLabel]],
    ) -> Tuple[bytes, Optional[List[TaintLabel]]]:
        """Short-count/transient semantics for write-like syscalls.

        A ``("partial", n)`` decision truncates the payload *and* its
        taints together, so a short count taints only the bytes actually
        emitted at the sink; ``("errno", e)`` raises a transient fault the
        supervisor retries.
        """
        if self.syscall_fault_hook is None:
            return payload, taints
        decision = self.syscall_fault_hook(name, len(payload))
        if decision is None:
            return payload, taints
        kind, value = decision
        if kind == "errno":
            raise TransientSyscallFault(name, int(value))
        if kind == "partial":
            count = max(0, min(int(value), len(payload)))
            return payload[:count], (taints[:count] if taints is not None
                                     else None)
        raise KernelError(f"unknown syscall fault decision {kind!r}")

    def sys_write(self, fd: int, payload: bytes,
                  taints: Optional[List[TaintLabel]] = None, *,
                  src_loc: Optional[Loc] = None) -> int:
        descriptor = self._descriptor(fd)
        self._count("write")
        if taints is not None and len(taints) != len(payload):
            raise KernelError("taint list length mismatch")
        payload, taints = self._apply_write_faults("write", payload, taints)
        # The sink edge is recorded *after* the device accepted the bytes
        # (and only over the accepted prefix): a send that raises, or one
        # that writes short, must not leave a ledger edge claiming the
        # full payload reached the destination.
        if descriptor.kind == "socket":
            socket = descriptor.socket
            target = (socket.connected_to if socket is not None else None)
            written = self.network.send(fd, payload, taints)
            sink_taints, sink_loc = self._sink_view(taints, src_loc, written)
            self._record_sink("write", sink_taints, target or f"socket:{fd}",
                              sink_loc)
            return written
        if not descriptor.writable:
            raise KernelError(f"fd {fd} not writable")
        written = descriptor.file.write_at(descriptor.offset, payload, taints)
        descriptor.offset += written
        sink_taints, sink_loc = self._sink_view(taints, src_loc, written)
        self._record_sink("write", sink_taints, descriptor.path or f"fd:{fd}",
                          sink_loc)
        return written

    def sys_read(self, fd: int,
                 length: int) -> Tuple[bytes, List[TaintLabel]]:
        descriptor = self._descriptor(fd)
        self._count("read")
        if descriptor.kind == "socket":
            chunk = self.network.recv(fd, length)
            return chunk, [TAINT_CLEAR] * len(chunk)
        chunk, taints = descriptor.file.read_at(descriptor.offset, length)
        descriptor.offset += len(chunk)
        return chunk, taints

    def sys_stat(self, path: str) -> Dict[str, int]:
        self._count("stat")
        if self.filesystem.is_dir(path):
            return {"size": 0, "is_dir": 1}
        file = self.filesystem.lookup(path)
        return {"size": file.size, "is_dir": 0}

    def sys_mkdir(self, path: str) -> int:
        self._count("mkdir")
        self.filesystem.mkdir(path)
        return 0

    def sys_unlink(self, path: str) -> int:
        self._count("unlink")
        self.filesystem.remove(path)
        return 0

    def sys_rename(self, old: str, new: str) -> int:
        self._count("rename")
        self.filesystem.rename(old, new)
        return 0

    # -- sockets --------------------------------------------------------------------

    def sys_socket(self, domain: int = AF_INET,
                   type_: int = SOCK_STREAM) -> int:
        process = self._require_current()
        self._count("socket")
        fd = process.allocate_fd()
        socket = self.network.create_socket(fd, domain, type_)
        process.fds[fd] = FileDescriptor(fd=fd, kind="socket", socket=socket)
        return fd

    def sys_connect(self, fd: int, destination: str) -> int:
        self._descriptor(fd)
        self._count("connect")
        self.network.connect(fd, destination)
        return 0

    def sys_bind(self, fd: int, address: str) -> int:
        self._descriptor(fd)
        self._count("bind")
        self.network.bind(fd, address)
        return 0

    def sys_listen(self, fd: int) -> int:
        self._descriptor(fd)
        self._count("listen")
        self.network.listen(fd)
        return 0

    def sys_send(self, fd: int, payload: bytes,
                 taints: Optional[List[TaintLabel]] = None, *,
                 src_loc: Optional[Loc] = None) -> int:
        descriptor = self._descriptor(fd)
        self._count("send")
        payload, taints = self._apply_write_faults("send", payload, taints)
        socket = descriptor.socket
        target = socket.connected_to if socket is not None else None
        written = self.network.send(fd, payload, taints)
        sink_taints, sink_loc = self._sink_view(taints, src_loc, written)
        self._record_sink("send", sink_taints, target or f"socket:{fd}",
                          sink_loc)
        return written

    def sys_sendto(self, fd: int, payload: bytes, destination: str,
                   taints: Optional[List[TaintLabel]] = None, *,
                   src_loc: Optional[Loc] = None) -> int:
        descriptor = self._descriptor(fd)
        self._count("sendto")
        payload, taints = self._apply_write_faults("sendto", payload, taints)
        socket = descriptor.socket
        target = destination or (socket.connected_to
                                 if socket is not None else None)
        written = self.network.send(fd, payload, taints,
                                    destination=destination)
        sink_taints, sink_loc = self._sink_view(taints, src_loc, written)
        self._record_sink("sendto", sink_taints, target or f"socket:{fd}",
                          sink_loc)
        return written

    def sys_recv(self, fd: int, length: int) -> bytes:
        self._descriptor(fd)
        self._count("recv")
        return self.network.recv(fd, length)

    # -- the SVC trap path ---------------------------------------------------------

    def handle_svc(self, imm: int, emu) -> None:
        """Emulator syscall handler: ARM EABI convention."""
        del imm  # EABI passes the number in r7, not the SVC immediate.
        cpu, memory = emu.cpu, emu.memory
        number = cpu.regs[7]
        self.syscall_count += 1
        if not NR.has(number):
            raise KernelError(f"unknown syscall {number}")
        nr = NR(number)
        args = cpu.regs[:6]

        if nr == NR.WRITE or nr == NR.SEND:
            address, length = args[1], args[2]
            payload = memory.read_bytes(address, length)
            taints = (self.taint_provider(address, length)
                      if self.taint_provider else None)
            cpu.write_reg(0, self.sys_write(args[0], payload, taints,
                                            src_loc=Loc.mem(address,
                                                            length)))
        elif nr == NR.SENDTO:
            address, length = args[1], args[2]
            payload = memory.read_bytes(address, length)
            destination = memory.read_cstring(args[4]).decode(
                "utf-8", errors="replace") if args[4] else ""
            taints = (self.taint_provider(address, length)
                      if self.taint_provider else None)
            cpu.write_reg(0, self.sys_sendto(args[0], payload, destination,
                                             taints,
                                             src_loc=Loc.mem(address,
                                                             length)))
        elif nr == NR.READ or nr == NR.RECV:
            chunk, __ = self.sys_read(args[0], args[2])
            memory.write_bytes(args[1], chunk)
            cpu.write_reg(0, len(chunk))
        elif nr == NR.OPEN:
            path = memory.read_cstring(args[0]).decode("utf-8")
            cpu.write_reg(0, self.sys_open(path, args[1]))
        elif nr == NR.CLOSE:
            cpu.write_reg(0, self.sys_close(args[0]))
        elif nr == NR.SOCKET:
            cpu.write_reg(0, self.sys_socket(args[0], args[1]))
        elif nr == NR.CONNECT:
            destination = memory.read_cstring(args[1]).decode("utf-8")
            cpu.write_reg(0, self.sys_connect(args[0], destination))
        elif nr == NR.MKDIR:
            path = memory.read_cstring(args[0]).decode("utf-8")
            cpu.write_reg(0, self.sys_mkdir(path))
        elif nr == NR.GETPID:
            self._count("getpid")
            cpu.write_reg(0, self._require_current().pid)
        elif nr == NR.EXIT:
            self._count("exit")
            emu.stop()
        else:
            # Recognised but unmodelled syscalls return success; they are
            # hooked for observation (Table VII), not for behaviour.
            self._count(nr.name.lower())
            cpu.write_reg(0, 0)
