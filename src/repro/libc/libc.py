"""Behavioural model of bionic libc, registered as host functions.

Each function listed in the paper's Table VI (modelled taint propagation)
and Table VII (hooked standard library calls) is implemented here against
the emulated memory and the simulated kernel.  Functions are laid out at
fixed offsets inside the ``libc.so`` region, so both native code (via
``blx``) and NDroid's hook engine (via the memory map + symbol offsets,
Section V.G) address them the same way the real system does.

Behaviour and taint are deliberately separated: these implementations move
bytes; NDroid's system-library hook engine, attached to the same
addresses, moves taint.  The only taint awareness here is at the kernel
boundary — data leaving through ``write``/``send``/``fprintf``/… asks the
installed :class:`NativeTaintInterface` for the departing bytes' labels so
files and packets stay labelled.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import KernelError
from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.emulator.emulator import Emulator, HostContext
from repro.kernel.kernel import Kernel, O_APPEND, O_CREAT, O_RDONLY, O_TRUNC
from repro.observability.ledger import Loc
from repro.libc.stdio_format import format_with_taints, sscanf_parse
from repro.libc.taint_interface import NativeTaintInterface, NullTaintInterface
from repro.memory.allocator import FreeListAllocator

LIBC_BASE = 0x5000_0000
LIBC_SIZE = 0x0001_0000
LIBC_HEAP_BASE = 0x5800_0000
LIBC_HEAP_SIZE = 0x0100_0000

_SC_PAGESIZE = 39
_SC_NPROCESSORS_ONLN = 97

EOF = 0xFFFF_FFFF  # -1


class CLibrary:
    """The modelled libc: symbol table + host-function implementations."""

    def __init__(self, emu: Emulator, kernel: Kernel,
                 base: int = LIBC_BASE) -> None:
        self.emu = emu
        self.kernel = kernel
        self.base = base
        self.symbols: Dict[str, int] = {}
        self.taint_interface: NativeTaintInterface = NullTaintInterface()
        # Provenance ledger (observability); None when not tracing.
        self.ledger = None
        self.reset_for_job()
        # Installed by the framework's dynamic linker.
        self.dlopen_handler: Optional[Callable[[str], int]] = None
        self.dlsym_handler: Optional[Callable[[int, str], int]] = None
        self._next_offset = 0
        self._register_all()
        emu.memory_map.map(base, LIBC_SIZE, "libc.so", perms="r-x")
        emu.memory_map.map(LIBC_HEAP_BASE, LIBC_HEAP_SIZE, "[native heap]",
                           perms="rw-")

    def reset_for_job(self) -> None:
        """A fresh native heap and no open FILE objects."""
        self.heap = FreeListAllocator(LIBC_HEAP_BASE, LIBC_HEAP_SIZE)
        # FILE* -> fd mapping; the FILE struct itself lives in guest memory
        # so the paper's "Return FILE@0x4006fd44" style logs are real
        # addresses.
        self._file_objects: Dict[int, int] = {}

    # -- registration ------------------------------------------------------------

    def _register(self, name: str, function) -> None:
        address = self.base + self._next_offset
        self._next_offset += 16
        self.symbols[name] = address
        self.emu.register_host_function(address, name, function)

    def address_of(self, name: str) -> int:
        return self.symbols[name]

    def _register_all(self) -> None:
        for name in [
            # memory
            "malloc", "free", "calloc", "realloc", "memcpy", "memmove",
            "memset", "memcmp", "memchr",
            # strings
            "strlen", "strcmp", "strncmp", "strcasecmp", "strncasecmp",
            "strcpy", "strncpy", "strcat", "strchr", "strrchr", "strstr",
            "strdup", "atoi", "atol", "strtoul",
            "sprintf", "snprintf", "vsprintf", "vsnprintf", "sscanf",
            # stdio
            "fopen", "fclose", "fread", "fwrite", "fprintf", "vfprintf",
            "fgets", "fputc", "fputs", "getc", "fdopen",
            # unix
            "open", "close", "read", "write", "stat", "fstat", "fcntl",
            "ioctl", "mmap", "munmap", "mprotect", "mkdir", "rename",
            "remove", "kill", "fork", "execve", "chown", "ptrace",
            "sysconf", "select",
            "dlopen", "dlsym", "dlclose",
            # sockets
            "socket", "connect", "bind", "listen", "accept",
            "send", "sendto", "recv", "recvfrom",
        ]:
            self._register(name, getattr(self, "_impl_" + name))

    # -- shared helpers ------------------------------------------------------------

    def _memory(self):
        return self.emu.memory

    def _taints_of(self, address: int, length: int) -> List[TaintLabel]:
        return self.taint_interface.memory_taints(address, length)

    def _vararg_reader(self, ctx: HostContext, fixed: int):
        return lambda index: ctx.arg(fixed + index)

    def _vararg_taint(self, ctx: HostContext, fixed: int):
        def taint_of(index: int) -> TaintLabel:
            arg_index = fixed + index
            if arg_index < 4:
                return self.taint_interface.register_taint(arg_index)
            slot = ctx.cpu.sp + 4 * (arg_index - 4)
            return self.taint_interface.memory_taint_union(slot, 4)
        return taint_of

    def _capture_string_sources(self):
        """Wrap the %s taint callback to note tainted source ranges, so
        the sprintf-family ledger edges name the buffers they read."""
        sources: List[Loc] = []

        def string_taints(address: int, length: int) -> List[TaintLabel]:
            taints = self._taints_of(address, length)
            if any(taints):
                sources.append(Loc.mem(address, max(length, 1)))
            return taints

        return string_taints, sources

    def _format(self, ctx: HostContext, fmt_address: int, fixed: int):
        memory = self._memory()
        fmt = memory.read_cstring(fmt_address)
        string_taints, sources = self._capture_string_sources()
        data, taints = format_with_taints(
            memory, fmt,
            read_vararg=self._vararg_reader(ctx, fixed),
            vararg_taint=self._vararg_taint(ctx, fixed),
            string_taints=string_taints)
        return data, taints, sources

    def _fd_for_file(self, file_pointer: int) -> int:
        fd = self._file_objects.get(file_pointer)
        if fd is None:
            raise KernelError(f"bad FILE* 0x{file_pointer:08x}")
        return fd

    def _make_file_object(self, fd: int) -> int:
        pointer = self.heap.alloc(8)
        self._memory().write_u32(pointer, fd)
        self._file_objects[pointer] = fd
        return pointer

    # == memory ======================================================================

    def _impl_malloc(self, ctx: HostContext) -> int:
        size = ctx.arg(0)
        return self.heap.alloc(size) if size else 0

    def _impl_free(self, ctx: HostContext) -> int:
        self.heap.free(ctx.arg(0))
        return 0

    def _impl_calloc(self, ctx: HostContext) -> int:
        total = ctx.arg(0) * ctx.arg(1)
        if total == 0:
            return 0
        address = self.heap.alloc(total)
        self._memory().fill(address, total, 0)
        return address

    def _impl_realloc(self, ctx: HostContext) -> int:
        old, new_size = ctx.arg(0), ctx.arg(1)
        new_address, copy_length = self.heap.realloc(old, new_size)
        if copy_length:
            self._memory().copy(new_address, old, copy_length)
        return new_address

    def _impl_memcpy(self, ctx: HostContext) -> int:
        dest, src, length = ctx.arg(0), ctx.arg(1), ctx.arg(2)
        self._memory().copy(dest, src, length)
        return dest

    def _impl_memmove(self, ctx: HostContext) -> int:
        return self._impl_memcpy(ctx)

    def _impl_memset(self, ctx: HostContext) -> int:
        dest, value, length = ctx.arg(0), ctx.arg(1), ctx.arg(2)
        self._memory().fill(dest, length, value & 0xFF)
        return dest

    def _impl_memcmp(self, ctx: HostContext) -> int:
        a = self._memory().read_bytes(ctx.arg(0), ctx.arg(2))
        b = self._memory().read_bytes(ctx.arg(1), ctx.arg(2))
        return _compare(a, b)

    def _impl_memchr(self, ctx: HostContext) -> int:
        start, needle, length = ctx.arg(0), ctx.arg(1) & 0xFF, ctx.arg(2)
        data = self._memory().read_bytes(start, length)
        index = data.find(bytes([needle]))
        return 0 if index < 0 else start + index

    # == strings ======================================================================

    def _cstr(self, address: int) -> bytes:
        return self._memory().read_cstring(address)

    def _impl_strlen(self, ctx: HostContext) -> int:
        return len(self._cstr(ctx.arg(0)))

    def _impl_strcmp(self, ctx: HostContext) -> int:
        return _compare(self._cstr(ctx.arg(0)), self._cstr(ctx.arg(1)))

    def _cstrn(self, address: int, n: int) -> bytes:
        """At most ``n`` bytes of a C string, without looking past them."""
        return self._memory().read_cstring(address, n, bounded=True)

    def _impl_strncmp(self, ctx: HostContext) -> int:
        n = ctx.arg(2)
        return _compare(self._cstrn(ctx.arg(0), n), self._cstrn(ctx.arg(1), n))

    def _impl_strcasecmp(self, ctx: HostContext) -> int:
        return _compare(self._cstr(ctx.arg(0)).lower(),
                        self._cstr(ctx.arg(1)).lower())

    def _impl_strncasecmp(self, ctx: HostContext) -> int:
        n = ctx.arg(2)
        return _compare(self._cstrn(ctx.arg(0), n).lower(),
                        self._cstrn(ctx.arg(1), n).lower())

    def _impl_strcpy(self, ctx: HostContext) -> int:
        dest, src = ctx.arg(0), ctx.arg(1)
        data = self._cstr(src)
        self._memory().write_bytes(dest, data + b"\x00")
        return dest

    def _impl_strncpy(self, ctx: HostContext) -> int:
        dest, src, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
        data = self._cstrn(src, n)
        padded = data + b"\x00" * (n - len(data))
        self._memory().write_bytes(dest, padded)
        return dest

    def _impl_strcat(self, ctx: HostContext) -> int:
        dest, src = ctx.arg(0), ctx.arg(1)
        existing = self._cstr(dest)
        addition = self._cstr(src)
        self._memory().write_bytes(dest + len(existing), addition + b"\x00")
        return dest

    def _impl_strchr(self, ctx: HostContext) -> int:
        start, needle = ctx.arg(0), ctx.arg(1) & 0xFF
        data = self._cstr(start)
        index = (data + b"\x00").find(bytes([needle]))
        return 0 if index < 0 else start + index

    def _impl_strrchr(self, ctx: HostContext) -> int:
        start, needle = ctx.arg(0), ctx.arg(1) & 0xFF
        data = self._cstr(start)
        index = (data + b"\x00").rfind(bytes([needle]))
        return 0 if index < 0 else start + index

    def _impl_strstr(self, ctx: HostContext) -> int:
        haystack_address = ctx.arg(0)
        haystack = self._cstr(haystack_address)
        needle = self._cstr(ctx.arg(1))
        index = haystack.find(needle)
        return 0 if index < 0 else haystack_address + index

    def _impl_strdup(self, ctx: HostContext) -> int:
        data = self._cstr(ctx.arg(0))
        address = self.heap.alloc(len(data) + 1)
        self._memory().write_bytes(address, data + b"\x00")
        return address

    def _impl_atoi(self, ctx: HostContext) -> int:
        return parse_c_integer(self._cstr(ctx.arg(0)), 10)[0]

    def _impl_atol(self, ctx: HostContext) -> int:
        return parse_c_integer(self._cstr(ctx.arg(0)), 10)[0]

    def _impl_strtoul(self, ctx: HostContext) -> int:
        return parse_c_integer(self._cstr(ctx.arg(0)), ctx.arg(2))[0]

    # printf family --------------------------------------------------------------

    def _impl_sprintf(self, ctx: HostContext) -> int:
        dest = ctx.arg(0)
        data, taints, sources = self._format(ctx, ctx.arg(1), fixed=2)
        self._memory().write_bytes(dest, data + b"\x00")
        self._record_formatted(dest, taints, sources)
        return len(data)

    def _impl_snprintf(self, ctx: HostContext) -> int:
        dest, limit = ctx.arg(0), ctx.arg(1)
        data, taints, sources = self._format(ctx, ctx.arg(2), fixed=3)
        clipped = data[:max(limit - 1, 0)]
        if limit:
            self._memory().write_bytes(dest, clipped + b"\x00")
        self._record_formatted(dest, taints[:len(clipped)], sources)
        return len(data)

    def _impl_vsprintf(self, ctx: HostContext) -> int:
        # va_list is a pointer to the packed argument words.
        dest, fmt_address, va_list = ctx.arg(0), ctx.arg(1), ctx.arg(2)
        data, taints, sources = self._format_va(fmt_address, va_list)
        self._memory().write_bytes(dest, data + b"\x00")
        self._record_formatted(dest, taints, sources)
        return len(data)

    def _impl_vsnprintf(self, ctx: HostContext) -> int:
        dest, limit, fmt_address, va_list = (ctx.arg(i) for i in range(4))
        data, taints, sources = self._format_va(fmt_address, va_list)
        clipped = data[:max(limit - 1, 0)]
        if limit:
            self._memory().write_bytes(dest, clipped + b"\x00")
        self._record_formatted(dest, taints[:len(clipped)], sources)
        return len(data)

    def _format_va(self, fmt_address: int, va_list: int):
        memory = self._memory()
        fmt = memory.read_cstring(fmt_address)
        string_taints, sources = self._capture_string_sources()
        data, taints = format_with_taints(
            memory, fmt,
            read_vararg=lambda index: memory.read_u32(va_list + 4 * index),
            vararg_taint=lambda index: self.taint_interface.memory_taint_union(
                va_list + 4 * index, 4),
            string_taints=string_taints)
        return data, taints, sources

    def _record_formatted(self, dest: int, taints: List[TaintLabel],
                          sources: Optional[List[Loc]] = None) -> None:
        """Land formatted-output taints in the native taint map."""
        self.taint_interface.write_memory_taints(dest, taints)
        if self.ledger is not None and sources and any(taints):
            union = TAINT_CLEAR
            for taint in taints:
                union |= taint
            dst = Loc.mem(dest, max(len(taints), 1))
            for src in sources:
                tag = self.taint_interface.memory_taint_union(
                    src.base, src.length) or union
                self.ledger.record(tag, "libc:sprintf", src, dst)

    def _impl_sscanf(self, ctx: HostContext) -> int:
        memory = self._memory()
        text = memory.read_cstring(ctx.arg(0))
        fmt = memory.read_cstring(ctx.arg(1))
        conversions = fmt.count(b"%") - 2 * fmt.count(b"%%")
        pointers = [ctx.arg(2 + i) for i in range(conversions)]
        return sscanf_parse(memory, text, fmt, pointers)

    # == stdio =========================================================================

    def _impl_fopen(self, ctx: HostContext) -> int:
        path = ctx.cstring_arg(0)
        mode = ctx.cstring_arg(1)
        flags = O_RDONLY
        if "w" in mode:
            flags = O_CREAT | O_TRUNC
        elif "a" in mode:
            flags = O_CREAT | O_APPEND
        try:
            fd = self.kernel.sys_open(path, flags)
        except KernelError:
            return 0  # NULL on failure, as fopen does
        return self._make_file_object(fd)

    def _impl_fdopen(self, ctx: HostContext) -> int:
        return self._make_file_object(ctx.arg(0))

    def _impl_fclose(self, ctx: HostContext) -> int:
        pointer = ctx.arg(0)
        fd = self._fd_for_file(pointer)
        del self._file_objects[pointer]
        self.heap.free(pointer)
        self.kernel.sys_close(fd)
        return 0

    def _impl_fwrite(self, ctx: HostContext) -> int:
        address, size, count, file_pointer = (ctx.arg(i) for i in range(4))
        length = size * count
        payload = self._memory().read_bytes(address, length)
        fd = self._fd_for_file(file_pointer)
        self.kernel.sys_write(fd, payload, self._taints_of(address, length),
                              src_loc=Loc.mem(address, max(length, 1)))
        return count

    def _impl_fread(self, ctx: HostContext) -> int:
        address, size, count, file_pointer = (ctx.arg(i) for i in range(4))
        fd = self._fd_for_file(file_pointer)
        chunk, __ = self.kernel.sys_read(fd, size * count)
        self._memory().write_bytes(address, chunk)
        return len(chunk) // size if size else 0

    def _impl_fprintf(self, ctx: HostContext) -> int:
        fd = self._fd_for_file(ctx.arg(0))
        data, taints, sources = self._format(ctx, ctx.arg(1), fixed=2)
        self.kernel.sys_write(fd, data, taints,
                              src_loc=sources[0] if sources else None)
        return len(data)

    def _impl_vfprintf(self, ctx: HostContext) -> int:
        fd = self._fd_for_file(ctx.arg(0))
        data, taints, sources = self._format_va(ctx.arg(1), ctx.arg(2))
        self.kernel.sys_write(fd, data, taints,
                              src_loc=sources[0] if sources else None)
        return len(data)

    def _impl_fgets(self, ctx: HostContext) -> int:
        address, limit, file_pointer = ctx.arg(0), ctx.arg(1), ctx.arg(2)
        fd = self._fd_for_file(file_pointer)
        out = bytearray()
        while len(out) < limit - 1:
            chunk, __ = self.kernel.sys_read(fd, 1)
            if not chunk:
                break
            out.extend(chunk)
            if chunk == b"\n":
                break
        if not out:
            return 0
        self._memory().write_bytes(address, bytes(out) + b"\x00")
        return address

    def _impl_fputc(self, ctx: HostContext) -> int:
        char, file_pointer = ctx.arg(0) & 0xFF, ctx.arg(1)
        fd = self._fd_for_file(file_pointer)
        taint = self.taint_interface.register_taint(0)
        self.kernel.sys_write(fd, bytes([char]), [taint])
        return char

    def _impl_fputs(self, ctx: HostContext) -> int:
        address, file_pointer = ctx.arg(0), ctx.arg(1)
        data = self._cstr(address)
        fd = self._fd_for_file(file_pointer)
        self.kernel.sys_write(fd, data, self._taints_of(address, len(data)),
                              src_loc=Loc.mem(address, max(len(data), 1)))
        return len(data)

    def _impl_getc(self, ctx: HostContext) -> int:
        fd = self._fd_for_file(ctx.arg(0))
        chunk, __ = self.kernel.sys_read(fd, 1)
        return chunk[0] if chunk else EOF

    # == unix I/O ======================================================================

    def _impl_open(self, ctx: HostContext) -> int:
        try:
            return self.kernel.sys_open(ctx.cstring_arg(0), ctx.arg(1))
        except KernelError:
            return EOF

    def _impl_close(self, ctx: HostContext) -> int:
        self.kernel.sys_close(ctx.arg(0))
        return 0

    def _impl_read(self, ctx: HostContext) -> int:
        chunk, __ = self.kernel.sys_read(ctx.arg(0), ctx.arg(2))
        self._memory().write_bytes(ctx.arg(1), chunk)
        return len(chunk)

    def _impl_write(self, ctx: HostContext) -> int:
        address, length = ctx.arg(1), ctx.arg(2)
        payload = self._memory().read_bytes(address, length)
        return self.kernel.sys_write(ctx.arg(0), payload,
                                     self._taints_of(address, length),
                                     src_loc=Loc.mem(address,
                                                     max(length, 1)))

    def _impl_stat(self, ctx: HostContext) -> int:
        try:
            info = self.kernel.sys_stat(ctx.cstring_arg(0))
        except KernelError:
            return EOF
        self._memory().write_u32(ctx.arg(1), info["size"])
        return 0

    def _impl_fstat(self, ctx: HostContext) -> int:
        self._memory().write_u32(ctx.arg(1), 0)
        return 0

    def _impl_fcntl(self, ctx: HostContext) -> int:
        return 0

    def _impl_ioctl(self, ctx: HostContext) -> int:
        return 0

    def _impl_mmap(self, ctx: HostContext) -> int:
        length = ctx.arg(1)
        return self.heap.alloc(max(length, 1))

    def _impl_munmap(self, ctx: HostContext) -> int:
        try:
            self.heap.free(ctx.arg(0))
        except Exception:
            return EOF
        return 0

    def _impl_mprotect(self, ctx: HostContext) -> int:
        return 0

    def _impl_mkdir(self, ctx: HostContext) -> int:
        try:
            return self.kernel.sys_mkdir(ctx.cstring_arg(0))
        except KernelError:
            return EOF

    def _impl_rename(self, ctx: HostContext) -> int:
        try:
            return self.kernel.sys_rename(ctx.cstring_arg(0),
                                          ctx.cstring_arg(1))
        except KernelError:
            return EOF

    def _impl_remove(self, ctx: HostContext) -> int:
        try:
            return self.kernel.sys_unlink(ctx.cstring_arg(0))
        except KernelError:
            return EOF

    def _impl_kill(self, ctx: HostContext) -> int:
        return 0

    def _impl_fork(self, ctx: HostContext) -> int:
        return EOF  # fork is observed (Table VII) but not supported

    def _impl_execve(self, ctx: HostContext) -> int:
        return EOF

    def _impl_chown(self, ctx: HostContext) -> int:
        return 0

    def _impl_ptrace(self, ctx: HostContext) -> int:
        return 0

    def _impl_sysconf(self, ctx: HostContext) -> int:
        name = ctx.arg(0)
        if name == _SC_PAGESIZE:
            return 4096
        if name == _SC_NPROCESSORS_ONLN:
            return 2
        return EOF

    def _impl_select(self, ctx: HostContext) -> int:
        return ctx.arg(0)  # report all fds ready

    # dynamic linker ----------------------------------------------------------------

    def _impl_dlopen(self, ctx: HostContext) -> int:
        path = ctx.cstring_arg(0)
        if self.dlopen_handler is None:
            return 0
        return self.dlopen_handler(path)

    def _impl_dlsym(self, ctx: HostContext) -> int:
        if self.dlsym_handler is None:
            return 0
        return self.dlsym_handler(ctx.arg(0), ctx.cstring_arg(1))

    def _impl_dlclose(self, ctx: HostContext) -> int:
        return 0

    # == sockets =========================================================================

    def _impl_socket(self, ctx: HostContext) -> int:
        return self.kernel.sys_socket(ctx.arg(0), ctx.arg(1))

    def _impl_connect(self, ctx: HostContext) -> int:
        # The sockaddr is modelled as a NUL-terminated "host:port" string.
        return self.kernel.sys_connect(ctx.arg(0), ctx.cstring_arg(1))

    def _impl_bind(self, ctx: HostContext) -> int:
        return self.kernel.sys_bind(ctx.arg(0), ctx.cstring_arg(1))

    def _impl_listen(self, ctx: HostContext) -> int:
        return self.kernel.sys_listen(ctx.arg(0))

    def _impl_accept(self, ctx: HostContext) -> int:
        return EOF  # no inbound connections in the scenarios

    def _impl_send(self, ctx: HostContext) -> int:
        address, length = ctx.arg(1), ctx.arg(2)
        payload = self._memory().read_bytes(address, length)
        return self.kernel.sys_send(ctx.arg(0), payload,
                                    self._taints_of(address, length),
                                    src_loc=Loc.mem(address,
                                                    max(length, 1)))

    def _impl_sendto(self, ctx: HostContext) -> int:
        address, length = ctx.arg(1), ctx.arg(2)
        destination = ""
        if ctx.arg(4):
            destination = self._cstr(ctx.arg(4)).decode("utf-8",
                                                        errors="replace")
        payload = self._memory().read_bytes(address, length)
        return self.kernel.sys_sendto(ctx.arg(0), payload, destination,
                                      self._taints_of(address, length),
                                      src_loc=Loc.mem(address,
                                                      max(length, 1)))

    def _impl_recv(self, ctx: HostContext) -> int:
        chunk = self.kernel.sys_recv(ctx.arg(0), ctx.arg(2))
        self._memory().write_bytes(ctx.arg(1), chunk)
        return len(chunk)

    def _impl_recvfrom(self, ctx: HostContext) -> int:
        return self._impl_recv(ctx)


def _compare(a: bytes, b: bytes) -> int:
    if a == b:
        return 0
    return 1 if a > b else 0xFFFF_FFFF  # -1 as unsigned


def parse_c_integer(data: bytes, base: int) -> Tuple[int, int]:
    """``atoi``/``strtoul``'s parse of ``data``: the value, and how many
    bytes the parse reads -- leading space, sign, a ``0x`` prefix, the
    digits and the byte that stops it (the terminator, past the end of
    ``data``).

    Base 0 picks the base as C does: a ``0x``/``0X`` prefix means 16, a
    leading ``0`` means 8, anything else 10.  A base outside 0 and
    2..36 reads nothing: ``(0, 0)``.
    """
    if base != 0 and not 2 <= base <= 36:
        return 0, 0
    text = data.decode("ascii", errors="replace")
    start = len(text) - len(text.lstrip())
    sign = 1
    if text.startswith(("-", "+"), start):
        sign = -1 if text[start] == "-" else 1
        start += 1
    prefixed = text[start:start + 2].lower() == "0x"
    if base == 0:
        base = 16 if prefixed else 8 if text.startswith("0", start) else 10
    if base == 16 and prefixed:
        start += 2
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
    end = start
    while end < len(text) and text[end].lower() in digits:
        end += 1
    if end == start:
        return 0, end + 1
    return (sign * int(text[start:end], base)) & 0xFFFF_FFFF, end + 1
