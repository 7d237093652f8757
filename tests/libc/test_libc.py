"""Tests for the modelled libc, driven from emulated ARM code."""

import pytest

from repro.common.errors import KernelError
from repro.cpu.assembler import assemble
from repro.emulator import Emulator
from repro.kernel import Kernel
from repro.libc import CLibrary

CODE_BASE = 0x0001_0000
DATA_BASE = 0x0003_0000
STACK_TOP = 0x0800_0000


@pytest.fixture
def platform():
    emu = Emulator()
    kernel = Kernel(emu.memory)
    kernel.spawn_process("com.example.app")
    emu.syscall_handler = kernel.handle_svc
    libc = CLibrary(emu, kernel)
    emu.cpu.sp = STACK_TOP
    return emu, kernel, libc


def call_libc(platform, name, *args):
    emu, kernel, libc = platform
    return emu.call(libc.address_of(name), args=args)


class TestMemoryFunctions:
    def test_malloc_free(self, platform):
        emu, _, libc = platform
        pointer = call_libc(platform, "malloc", 64)
        assert pointer != 0
        assert libc.heap.size_of(pointer) == 64
        call_libc(platform, "free", pointer)
        assert libc.heap.size_of(pointer) is None

    def test_malloc_zero_returns_null(self, platform):
        assert call_libc(platform, "malloc", 0) == 0

    def test_calloc_zeroes(self, platform):
        emu, _, _ = platform
        emu.memory.write_bytes(0x5800_0000, b"\xff" * 64)
        pointer = call_libc(platform, "calloc", 4, 8)
        assert emu.memory.read_bytes(pointer, 32) == b"\x00" * 32

    def test_realloc_copies(self, platform):
        emu, _, _ = platform
        pointer = call_libc(platform, "malloc", 8)
        emu.memory.write_bytes(pointer, b"12345678")
        bigger = call_libc(platform, "realloc", pointer, 32)
        assert emu.memory.read_bytes(bigger, 8) == b"12345678"

    def test_memcpy_memmove_memset(self, platform):
        emu, _, _ = platform
        emu.memory.write_bytes(DATA_BASE, b"hello")
        call_libc(platform, "memcpy", DATA_BASE + 16, DATA_BASE, 5)
        assert emu.memory.read_bytes(DATA_BASE + 16, 5) == b"hello"
        call_libc(platform, "memset", DATA_BASE, 0x2A, 4)
        assert emu.memory.read_bytes(DATA_BASE, 4) == b"****"
        call_libc(platform, "memmove", DATA_BASE + 17, DATA_BASE + 16, 5)
        assert emu.memory.read_bytes(DATA_BASE + 17, 5) == b"hello"

    def test_memcmp(self, platform):
        emu, _, _ = platform
        emu.memory.write_bytes(DATA_BASE, b"abc")
        emu.memory.write_bytes(DATA_BASE + 8, b"abd")
        assert call_libc(platform, "memcmp", DATA_BASE, DATA_BASE, 3) == 0
        assert call_libc(platform, "memcmp", DATA_BASE, DATA_BASE + 8, 3) != 0

    def test_memchr(self, platform):
        emu, _, _ = platform
        emu.memory.write_bytes(DATA_BASE, b"abcdef")
        found = call_libc(platform, "memchr", DATA_BASE, ord("d"), 6)
        assert found == DATA_BASE + 3
        assert call_libc(platform, "memchr", DATA_BASE, ord("z"), 6) == 0


class TestStringFunctions:
    def _put(self, platform, address, text):
        platform[0].memory.write_cstring(address, text)

    def test_strlen_strcmp(self, platform):
        self._put(platform, DATA_BASE, "hello")
        self._put(platform, DATA_BASE + 32, "hellp")
        assert call_libc(platform, "strlen", DATA_BASE) == 5
        assert call_libc(platform, "strcmp", DATA_BASE, DATA_BASE) == 0
        assert call_libc(platform, "strcmp", DATA_BASE, DATA_BASE + 32) != 0
        assert call_libc(platform, "strncmp", DATA_BASE, DATA_BASE + 32, 4) == 0

    def test_strcasecmp(self, platform):
        self._put(platform, DATA_BASE, "Hello")
        self._put(platform, DATA_BASE + 32, "hELLO")
        assert call_libc(platform, "strcasecmp", DATA_BASE, DATA_BASE + 32) == 0

    def test_strcpy_strcat(self, platform):
        emu, _, _ = platform
        self._put(platform, DATA_BASE, "foo")
        self._put(platform, DATA_BASE + 32, "bar")
        call_libc(platform, "strcpy", DATA_BASE + 64, DATA_BASE)
        call_libc(platform, "strcat", DATA_BASE + 64, DATA_BASE + 32)
        assert emu.memory.read_cstring(DATA_BASE + 64) == b"foobar"

    def test_strncpy_pads(self, platform):
        emu, _, _ = platform
        self._put(platform, DATA_BASE, "ab")
        call_libc(platform, "strncpy", DATA_BASE + 32, DATA_BASE, 5)
        assert emu.memory.read_bytes(DATA_BASE + 32, 5) == b"ab\x00\x00\x00"

    def test_strchr_strrchr_strstr(self, platform):
        self._put(platform, DATA_BASE, "abcabc")
        assert call_libc(platform, "strchr", DATA_BASE, ord("b")) == DATA_BASE + 1
        assert call_libc(platform, "strrchr", DATA_BASE, ord("b")) == DATA_BASE + 4
        self._put(platform, DATA_BASE + 32, "cab")
        assert call_libc(platform, "strstr", DATA_BASE, DATA_BASE + 32) == \
            DATA_BASE + 2
        self._put(platform, DATA_BASE + 32, "zzz")
        assert call_libc(platform, "strstr", DATA_BASE, DATA_BASE + 32) == 0

    def test_strdup(self, platform):
        emu, _, _ = platform
        self._put(platform, DATA_BASE, "dup me")
        copy = call_libc(platform, "strdup", DATA_BASE)
        assert copy != DATA_BASE
        assert emu.memory.read_cstring(copy) == b"dup me"

    def test_atoi_strtoul(self, platform):
        self._put(platform, DATA_BASE, "  -123abc")
        assert call_libc(platform, "atoi", DATA_BASE) == (-123) & 0xFFFFFFFF
        self._put(platform, DATA_BASE, "0xff")
        assert call_libc(platform, "strtoul", DATA_BASE, 0, 16) == 255

    @pytest.mark.parametrize("text, value", [
        ("0x1f", 0x1F), ("0X1F", 0x1F), ("017", 0o17), ("  42", 42),
        ("-0x10", -0x10 & 0xFFFFFFFF), ("08", 0), ("0", 0), ("x1", 0)])
    def test_strtoul_base_zero_detects_the_base(self, platform, text,
                                                value):
        self._put(platform, DATA_BASE, text)
        assert call_libc(platform, "strtoul", DATA_BASE, 0, 0) == value

    @pytest.mark.parametrize("base", [1, 37, 0xFFFFFFFF])
    def test_strtoul_bad_base_returns_zero(self, platform, base):
        self._put(platform, DATA_BASE, "101")
        assert call_libc(platform, "strtoul", DATA_BASE, 0, base) == 0

    def test_sprintf(self, platform):
        emu, _, _ = platform
        self._put(platform, DATA_BASE, "%s=%d")
        self._put(platform, DATA_BASE + 32, "count")
        call_libc(platform, "sprintf", DATA_BASE + 64, DATA_BASE,
                  DATA_BASE + 32, 7)
        assert emu.memory.read_cstring(DATA_BASE + 64) == b"count=7"

    def test_snprintf_clips(self, platform):
        emu, _, _ = platform
        self._put(platform, DATA_BASE, "%s")
        self._put(platform, DATA_BASE + 32, "longvalue")
        result = call_libc(platform, "snprintf", DATA_BASE + 64, 5,
                           DATA_BASE, DATA_BASE + 32)
        assert result == 9  # would-be length, like C snprintf
        assert emu.memory.read_cstring(DATA_BASE + 64) == b"long"

    def test_sscanf(self, platform):
        emu, _, _ = platform
        self._put(platform, DATA_BASE, "id=42 name=bob")
        self._put(platform, DATA_BASE + 32, "id=%d name=%s")
        count = call_libc(platform, "sscanf", DATA_BASE, DATA_BASE + 32,
                          DATA_BASE + 64, DATA_BASE + 96)
        assert count == 2
        assert emu.memory.read_i32(DATA_BASE + 64) == 42
        assert emu.memory.read_cstring(DATA_BASE + 96) == b"bob"


class TestStdio:
    def test_fopen_fprintf_fclose(self, platform):
        emu, kernel, _ = platform
        emu.memory.write_cstring(DATA_BASE, "/sdcard/out.txt")
        emu.memory.write_cstring(DATA_BASE + 32, "w")
        file_pointer = call_libc(platform, "fopen", DATA_BASE, DATA_BASE + 32)
        assert file_pointer != 0
        emu.memory.write_cstring(DATA_BASE + 64, "n=%d")
        call_libc(platform, "fprintf", file_pointer, DATA_BASE + 64, 5)
        call_libc(platform, "fclose", file_pointer)
        assert kernel.filesystem.read_text("/sdcard/out.txt") == "n=5"

    def test_fopen_missing_read_returns_null(self, platform):
        emu, _, _ = platform
        emu.memory.write_cstring(DATA_BASE, "/sdcard/none.txt")
        emu.memory.write_cstring(DATA_BASE + 32, "r")
        assert call_libc(platform, "fopen", DATA_BASE, DATA_BASE + 32) == 0

    def test_fwrite_fread_roundtrip(self, platform):
        emu, _, _ = platform
        emu.memory.write_cstring(DATA_BASE, "/sdcard/blob")
        emu.memory.write_cstring(DATA_BASE + 32, "w")
        fp = call_libc(platform, "fopen", DATA_BASE, DATA_BASE + 32)
        emu.memory.write_bytes(DATA_BASE + 64, b"ABCD")
        assert call_libc(platform, "fwrite", DATA_BASE + 64, 1, 4, fp) == 4
        call_libc(platform, "fclose", fp)

        emu.memory.write_cstring(DATA_BASE + 32, "r")
        fp = call_libc(platform, "fopen", DATA_BASE, DATA_BASE + 32)
        assert call_libc(platform, "fread", DATA_BASE + 96, 1, 10, fp) == 4
        assert emu.memory.read_bytes(DATA_BASE + 96, 4) == b"ABCD"

    def test_fgets_reads_line(self, platform):
        emu, kernel, _ = platform
        kernel.filesystem.write_text("/sdcard/lines", "one\ntwo\n")
        emu.memory.write_cstring(DATA_BASE, "/sdcard/lines")
        emu.memory.write_cstring(DATA_BASE + 32, "r")
        fp = call_libc(platform, "fopen", DATA_BASE, DATA_BASE + 32)
        assert call_libc(platform, "fgets", DATA_BASE + 64, 64, fp) != 0
        assert emu.memory.read_cstring(DATA_BASE + 64) == b"one\n"

    def test_getc_and_eof(self, platform):
        emu, kernel, _ = platform
        kernel.filesystem.write_text("/sdcard/c", "Z")
        emu.memory.write_cstring(DATA_BASE, "/sdcard/c")
        emu.memory.write_cstring(DATA_BASE + 32, "r")
        fp = call_libc(platform, "fopen", DATA_BASE, DATA_BASE + 32)
        assert call_libc(platform, "getc", fp) == ord("Z")
        assert call_libc(platform, "getc", fp) == 0xFFFF_FFFF


class TestSocketsAndMisc:
    def test_socket_connect_send(self, platform):
        emu, kernel, _ = platform
        fd = call_libc(platform, "socket", 2, 1)
        emu.memory.write_cstring(DATA_BASE, "info.3g.qq.com:80")
        call_libc(platform, "connect", fd, DATA_BASE)
        emu.memory.write_bytes(DATA_BASE + 32, b"GET /")
        assert call_libc(platform, "send", fd, DATA_BASE + 32, 5, 0) == 5
        assert kernel.network.transmissions[0].payload == b"GET /"

    def test_sendto(self, platform):
        emu, kernel, _ = platform
        fd = call_libc(platform, "socket", 2, 2)
        emu.memory.write_bytes(DATA_BASE, b"SIP")
        emu.memory.write_cstring(DATA_BASE + 32, "softphone.comwave.net:5060")
        call_libc(platform, "sendto", fd, DATA_BASE, 3, 0, DATA_BASE + 32, 0)
        assert kernel.network.transmissions_to("comwave")[0].payload == b"SIP"

    def test_recv(self, platform):
        emu, kernel, _ = platform
        fd = call_libc(platform, "socket", 2, 1)
        emu.memory.write_cstring(DATA_BASE, "server:80")
        call_libc(platform, "connect", fd, DATA_BASE)
        kernel.network.queue_response("server:80", b"OK")
        assert call_libc(platform, "recv", fd, DATA_BASE + 64, 16, 0) == 2
        assert emu.memory.read_bytes(DATA_BASE + 64, 2) == b"OK"

    def test_sysconf(self, platform):
        assert call_libc(platform, "sysconf", 39) == 4096

    def test_mkdir_rename_remove(self, platform):
        emu, kernel, _ = platform
        emu.memory.write_cstring(DATA_BASE, "/sdcard/d")
        assert call_libc(platform, "mkdir", DATA_BASE, 0o777) == 0
        kernel.filesystem.write_text("/sdcard/d/f", "x")
        emu.memory.write_cstring(DATA_BASE, "/sdcard/d/f")
        emu.memory.write_cstring(DATA_BASE + 32, "/sdcard/d/g")
        assert call_libc(platform, "rename", DATA_BASE, DATA_BASE + 32) == 0
        assert call_libc(platform, "remove", DATA_BASE + 32) == 0
        assert not kernel.filesystem.exists("/sdcard/d/g")

    def test_called_from_assembled_code(self, platform):
        """Native code that strlen()s a string through the PLT-style call."""
        emu, kernel, libc = platform
        program = assemble("""
        main:
            push {lr}
            ldr r0, =message
            ldr r3, =strlen
            blx r3
            pop {pc}
        message:
            .asciz "four"
        """, base=CODE_BASE, externs=libc.symbols)
        emu.load(CODE_BASE, program.code)
        assert emu.call(program.entry("main")) == 4
