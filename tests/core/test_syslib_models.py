"""Table VI — the modelled standard-function taint handlers.

Each test drives a real libc call from assembled native code with seeded
taints and checks the system-library hook engine's propagation.
"""

import pytest

from repro.common.taint import TAINT_CONTACTS, TAINT_IMEI, TAINT_SMS
from repro.core import NDroid
from repro.cpu.assembler import assemble
from repro.framework import AndroidPlatform

CODE_BASE = 0x6100_0000
DATA = 0x0005_0000


@pytest.fixture
def env():
    platform = AndroidPlatform()
    ndroid = NDroid.attach(platform)
    return platform, ndroid


def call_libc(platform, name, *args):
    return platform.emu.call(platform.libc.address_of(name), args=args)


class TestMemoryModels:
    def test_memcpy_listing3(self, env):
        """The paper's Listing 3: per-byte source-to-dest propagation."""
        platform, ndroid = env
        engine = ndroid.taint_engine
        platform.memory.write_bytes(DATA, b"abcd")
        engine.set_memory(DATA, 2, TAINT_SMS)
        call_libc(platform, "memcpy", DATA + 64, DATA, 4)
        assert engine.memory_bytes(DATA + 64, 4) == \
            [TAINT_SMS, TAINT_SMS, 0, 0]

    def test_memset_spreads_value_taint(self, env):
        platform, ndroid = env
        ndroid.taint_engine.set_register(1, TAINT_IMEI)
        call_libc(platform, "memset", DATA, 0x41, 8)
        assert ndroid.taint_engine.get_memory(DATA, 8) == TAINT_IMEI

    def test_malloc_returns_clean_memory(self, env):
        platform, ndroid = env
        pointer = call_libc(platform, "malloc", 32)
        # Poison then free + realloc cycle: fresh allocations are clean.
        ndroid.taint_engine.set_memory(pointer, 32, TAINT_SMS)
        call_libc(platform, "free", pointer)
        assert ndroid.taint_engine.get_memory(pointer, 32) == 0
        fresh = call_libc(platform, "malloc", 32)
        assert ndroid.taint_engine.get_memory(fresh, 32) == 0

    def test_realloc_moves_taints(self, env):
        platform, ndroid = env
        pointer = call_libc(platform, "malloc", 8)
        platform.memory.write_bytes(pointer, b"secret!!")
        ndroid.taint_engine.set_memory(pointer, 8, TAINT_CONTACTS)
        bigger = call_libc(platform, "realloc", pointer, 64)
        assert ndroid.taint_engine.get_memory(bigger, 8) == TAINT_CONTACTS


class TestStringModels:
    def test_strcpy(self, env):
        platform, ndroid = env
        platform.memory.write_cstring(DATA, "imei")
        ndroid.taint_engine.set_memory(DATA, 5, TAINT_IMEI)
        call_libc(platform, "strcpy", DATA + 64, DATA)
        assert ndroid.taint_engine.get_memory(DATA + 64, 4) == TAINT_IMEI

    def test_strncpy_clears_padding(self, env):
        platform, ndroid = env
        platform.memory.write_cstring(DATA, "ab")
        ndroid.taint_engine.set_memory(DATA, 3, TAINT_SMS)
        ndroid.taint_engine.set_memory(DATA + 64, 8, TAINT_IMEI)  # stale
        call_libc(platform, "strncpy", DATA + 64, DATA, 8)
        assert ndroid.taint_engine.get_memory(DATA + 64, 3) == TAINT_SMS
        assert ndroid.taint_engine.get_memory(DATA + 67, 5) == 0

    def test_strcat_appends_source_taint(self, env):
        platform, ndroid = env
        platform.memory.write_cstring(DATA, "clean")
        platform.memory.write_cstring(DATA + 64, "dirty")
        ndroid.taint_engine.set_memory(DATA + 64, 6, TAINT_SMS)
        call_libc(platform, "strcat", DATA, DATA + 64)
        assert ndroid.taint_engine.get_memory(DATA, 5) == 0
        assert ndroid.taint_engine.get_memory(DATA + 5, 5) == TAINT_SMS

    def test_strdup_copies_taint(self, env):
        platform, ndroid = env
        platform.memory.write_cstring(DATA, "payload")
        ndroid.taint_engine.set_memory(DATA, 8, TAINT_CONTACTS)
        copy = call_libc(platform, "strdup", DATA)
        assert ndroid.taint_engine.get_memory(copy, 7) == TAINT_CONTACTS

    def test_strlen_result_derives_from_content(self, env):
        platform, ndroid = env
        platform.memory.write_cstring(DATA, "abc")
        ndroid.taint_engine.set_memory(DATA, 4, TAINT_SMS)
        call_libc(platform, "strlen", DATA)
        assert ndroid.taint_engine.get_register(0) == TAINT_SMS

    def test_atoi_result_tainted(self, env):
        platform, ndroid = env
        platform.memory.write_cstring(DATA, "1234")
        ndroid.taint_engine.set_memory(DATA, 5, TAINT_IMEI)
        result = call_libc(platform, "atoi", DATA)
        assert result == 1234
        assert ndroid.taint_engine.get_register(0) == TAINT_IMEI

    @pytest.mark.parametrize("name", ["atoi", "atol"])
    def test_atoi_reads_only_the_parsed_prefix(self, env, name):
        platform, ndroid = env
        engine = ndroid.taint_engine
        platform.memory.write_cstring(DATA, " 12abc")
        # A tainted byte past the one that stops the parse ("a") does
        # not reach the result; the stopping byte itself does.
        engine.set_memory(DATA + 5, 1, TAINT_IMEI)
        assert call_libc(platform, name, DATA) == 12
        assert engine.get_register(0) == 0
        engine.set_memory(DATA + 3, 1, TAINT_SMS)
        call_libc(platform, name, DATA)
        assert engine.get_register(0) == TAINT_SMS

    def test_strtoul_reads_only_the_parsed_prefix(self, env):
        platform, ndroid = env
        engine = ndroid.taint_engine
        platform.memory.write_cstring(DATA, "-0x1fz!")
        engine.set_memory(DATA + 6, 2, TAINT_IMEI)
        assert call_libc(platform, "strtoul", DATA, 0, 16) == \
            -0x1F & 0xFFFF_FFFF
        assert engine.get_register(0) == 0
        # Base 10 stops at the "x": the digits after it are not read.
        engine.clear_memory(DATA + 6, 2)
        engine.set_memory(DATA + 3, 1, TAINT_SMS)
        assert call_libc(platform, "strtoul", DATA, 0, 10) == 0
        assert engine.get_register(0) == 0
        engine.set_memory(DATA + 2, 1, TAINT_CONTACTS)
        call_libc(platform, "strtoul", DATA, 0, 10)
        assert engine.get_register(0) == TAINT_CONTACTS

    def test_strtoul_base_zero_reads_what_the_detected_base_parses(
            self, env):
        platform, ndroid = env
        engine = ndroid.taint_engine
        platform.memory.write_cstring(DATA, " 0x1fz!")
        # Base 0 reads "0x" as hexadecimal; "z" stops the parse and is
        # read, "!" is not.
        engine.set_memory(DATA + 6, 1, TAINT_IMEI)
        assert call_libc(platform, "strtoul", DATA, 0, 0) == 0x1F
        assert engine.get_register(0) == 0
        engine.set_memory(DATA + 5, 1, TAINT_SMS)
        call_libc(platform, "strtoul", DATA, 0, 0)
        assert engine.get_register(0) == TAINT_SMS
        # A leading "0" means octal: the "8" stops the parse.
        engine.clear_memory(DATA, 8)
        engine.set_register(0, 0)   # r0, the pointer, held the result
        platform.memory.write_cstring(DATA, "0789")
        engine.set_memory(DATA + 3, 1, TAINT_IMEI)
        assert call_libc(platform, "strtoul", DATA, 0, 0) == 0o7
        assert engine.get_register(0) == 0
        engine.set_memory(DATA + 2, 1, TAINT_CONTACTS)
        call_libc(platform, "strtoul", DATA, 0, 0)
        assert engine.get_register(0) == TAINT_CONTACTS

    @pytest.mark.parametrize("base", [1, 37, 0xFFFF_FFFF])
    def test_strtoul_bad_base_returns_zero(self, env, base):
        platform, ndroid = env
        platform.memory.write_cstring(DATA, "101")
        assert call_libc(platform, "strtoul", DATA, 0, base) == 0
        assert ndroid.degraded_events == 0

    def test_strtoul_bad_base_reads_no_byte(self, env):
        platform, ndroid = env
        engine = ndroid.taint_engine
        platform.memory.write_cstring(DATA, "7")
        engine.set_memory(DATA, 1, TAINT_IMEI)
        assert call_libc(platform, "strtoul", DATA, 0, 37) == 0
        assert engine.get_register(0) == 0
        for base in (0, 10, 36):
            assert call_libc(platform, "strtoul", DATA, 0, base) == 7
            assert engine.get_register(0) == TAINT_IMEI

    @pytest.mark.parametrize("name, first, second", [
        ("strcmp", "abcQRS", "abdXYZ"),
        ("strcasecmp", "ABcQRS", "abDXYZ"),
    ])
    def test_compare_reads_up_to_the_first_difference(self, env, name,
                                                      first, second):
        platform, ndroid = env
        engine = ndroid.taint_engine
        platform.memory.write_cstring(DATA, first)
        platform.memory.write_cstring(DATA + 64, second)
        # Bytes past the first difference (index 2) decide nothing.
        engine.set_memory(DATA + 3, 4, TAINT_IMEI)
        engine.set_memory(DATA + 64 + 3, 4, TAINT_SMS)
        assert call_libc(platform, name, DATA, DATA + 64) == 0xFFFF_FFFF
        assert engine.get_register(0) == 0
        engine.set_memory(DATA + 64 + 2, 1, TAINT_CONTACTS)
        call_libc(platform, name, DATA, DATA + 64)
        assert engine.get_register(0) == TAINT_CONTACTS

    @pytest.mark.parametrize("name", ["strcmp", "strcasecmp"])
    def test_compare_of_a_prefix_reads_through_its_terminator(self, env,
                                                              name):
        platform, ndroid = env
        engine = ndroid.taint_engine
        platform.memory.write_cstring(DATA, "ab")
        platform.memory.write_cstring(DATA + 64, "abcd")
        engine.set_memory(DATA + 64 + 3, 1, TAINT_IMEI)
        assert call_libc(platform, name, DATA, DATA + 64) == 0xFFFF_FFFF
        assert engine.get_register(0) == 0
        # Equal strings: every byte and the shared terminator decide.
        engine.set_memory(DATA + 2, 1, TAINT_SMS)
        assert call_libc(platform, name, DATA, DATA) == 0
        assert engine.get_register(0) == TAINT_SMS

    def test_memcmp_result_derives_from_exactly_n_bytes(self, env):
        # The buffers start with a NUL: a C-string read stops before the
        # tainted byte that decides the comparison.
        platform, ndroid = env
        engine = ndroid.taint_engine
        platform.memory.write_bytes(DATA, b"\0S\0")
        platform.memory.write_bytes(DATA + 64, b"\0T\0")
        engine.set_memory(DATA + 1, 1, TAINT_SMS)
        assert call_libc(platform, "memcmp", DATA, DATA + 64, 2) == \
            0xFFFF_FFFF
        assert engine.get_register(0) == TAINT_SMS
        # A tainted byte past n does not reach the result.
        engine.clear_memory(DATA + 1, 1)
        engine.clear_register(0)
        engine.set_memory(DATA + 66, 1, TAINT_IMEI)
        call_libc(platform, "memcmp", DATA, DATA + 64, 2)
        assert engine.get_register(0) == 0

    @pytest.mark.parametrize("name", ["strncmp", "strncasecmp"])
    def test_bounded_compare_reads_at_most_n_bytes(self, env, name):
        platform, ndroid = env
        engine = ndroid.taint_engine
        platform.memory.write_cstring(DATA, "abcdefg")
        platform.memory.write_cstring(DATA + 64, "abxyz")
        engine.set_memory(DATA + 5, 1, TAINT_IMEI)
        # Only "ab" of each string is compared: byte 5 is out of reach.
        assert call_libc(platform, name, DATA, DATA + 64, 2) == 0
        assert engine.get_register(0) == 0
        assert call_libc(platform, name, DATA, DATA + 64, 6) != 0
        assert engine.get_register(0) == TAINT_IMEI
        # With n past the shorter string, its terminator bounds it.
        engine.clear_register(0)
        engine.set_memory(DATA + 64 + 6, 1, TAINT_SMS)
        call_libc(platform, name, DATA + 64, DATA + 64, 100)
        assert engine.get_register(0) == 0

    @pytest.mark.parametrize("name", ["strncmp", "strncasecmp"])
    def test_bounded_compare_stops_at_n_before_an_unmapped_page(self, env,
                                                               name):
        # Two n-byte buffers with no NUL, each ending where strict memory
        # has no page: neither the call nor its model reads past n.
        platform, ndroid = env
        engine = ndroid.taint_engine
        first, second = 0x0007_0FFC, 0x0009_0FFC
        platform.memory.write_bytes(first, b"abcd")
        platform.memory.write_bytes(second, b"abcd")
        engine.set_memory(first + 3, 1, TAINT_SMS)
        platform.memory.strict = True
        assert call_libc(platform, name, first, second, 4) == 0
        assert engine.get_register(0) == TAINT_SMS
        assert not ndroid.quarantined_hooks
        assert ndroid.degraded_events == 0

    def test_strncpy_stops_at_n_before_an_unmapped_page(self, env):
        platform, ndroid = env
        engine = ndroid.taint_engine
        source = 0x0007_0FFC
        platform.memory.write_bytes(source, b"abcd")
        platform.memory.write_bytes(DATA, bytes(8))
        engine.set_memory(source + 3, 1, TAINT_SMS)
        platform.memory.strict = True
        call_libc(platform, "strncpy", DATA, source, 4)
        assert platform.memory.read_bytes(DATA, 4) == b"abcd"
        assert engine.memory_bytes(DATA, 4) == [0, 0, 0, TAINT_SMS]
        assert not ndroid.quarantined_hooks

    def test_strchr_result_pointer_taint(self, env):
        platform, ndroid = env
        platform.memory.write_cstring(DATA, "abc")
        ndroid.taint_engine.set_register(0, TAINT_SMS)
        call_libc(platform, "strchr", DATA, ord("b"))
        assert ndroid.taint_engine.get_register(0) == TAINT_SMS

    def test_sprintf_output_tainted(self, env):
        platform, ndroid = env
        platform.memory.write_cstring(DATA, "%s!")
        platform.memory.write_cstring(DATA + 64, "imei")
        ndroid.taint_engine.set_memory(DATA + 64, 5, TAINT_IMEI)
        call_libc(platform, "sprintf", DATA + 128, DATA, DATA + 64)
        assert platform.memory.read_cstring(DATA + 128) == b"imei!"
        assert ndroid.taint_engine.get_memory(DATA + 128, 4) == TAINT_IMEI
        # The literal '!' byte stays clean.
        assert ndroid.taint_engine.get_memory(DATA + 132, 1) == 0


class TestLibmModels:
    def test_result_derives_from_arguments(self, env):
        import struct
        platform, ndroid = env
        low, high = struct.unpack("<II", struct.pack("<d", 2.0))
        ndroid.taint_engine.set_register(0, TAINT_SMS)
        platform.emu.call(platform.libm.address_of("sqrt"),
                          args=(low, high))
        assert ndroid.taint_engine.get_register(0) == TAINT_SMS
        assert ndroid.taint_engine.get_register(1) == TAINT_SMS

    def test_clean_arguments_clean_result(self, env):
        import struct
        platform, ndroid = env
        low, high = struct.unpack("<II", struct.pack("<d", 2.0))
        platform.emu.call(platform.libm.address_of("sqrt"),
                          args=(low, high))
        assert ndroid.taint_engine.get_register(0) == 0


def _model_calls(full):
    """Every Table VI model and Table VII sink on clean data, in order,
    taking each model's clean variant, or with ``full`` (the engine
    flagged as maybe tainted while no label is live) the full model,
    which can only write clear labels.  Returns what each run leaves."""
    platform = AndroidPlatform()
    ndroid = NDroid.attach(platform)
    engine = ndroid.taint_engine
    memory = platform.memory
    memory.write_cstring(DATA, "123secret")
    memory.write_cstring(DATA + 64, "123sec")
    memory.write_cstring(DATA + 96, "/sdcard/models")
    memory.write_cstring(DATA + 128, "w")
    memory.write_cstring(DATA + 136, "sec")
    engine.maybe_tainted = full
    calls = [("malloc", 32), ("calloc", 4, 8), ("realloc", 0, 16),
             ("memcpy", DATA + 256, DATA, 9), ("memmove", DATA + 256, DATA, 4),
             ("memset", DATA + 256, 0x41, 8), ("strcpy", DATA + 256, DATA),
             ("strncpy", DATA + 256, DATA, 12), ("strcat", DATA + 256, DATA),
             ("strlen", DATA), ("strcmp", DATA, DATA + 64),
             ("strncmp", DATA, DATA + 64, 4), ("strcasecmp", DATA, DATA + 64),
             ("strncasecmp", DATA, DATA + 64, 4), ("memcmp", DATA, DATA + 64, 6),
             ("atoi", DATA), ("atol", DATA), ("strtoul", DATA, 0, 10),
             ("strchr", DATA, ord("s")), ("strrchr", DATA, ord("e")),
             ("strstr", DATA, DATA + 136), ("memchr", DATA, ord("c"), 9),
             ("strdup", DATA), ("sqrt", 0, 0x4000_0000)]
    results = []
    for name, *args in calls:
        library = platform.libm if name == "sqrt" else platform.libc
        results.append(platform.emu.call(library.address_of(name), args=args))
    results.append(call_libc(platform, "free", results[0]))
    stream = call_libc(platform, "fopen", DATA + 96, DATA + 128)
    fd = call_libc(platform, "open", DATA + 96, 1)
    results += [call_libc(platform, "fwrite", DATA, 1, 9, stream),
                call_libc(platform, "fputs", DATA, stream),
                call_libc(platform, "fputc", ord("x"), stream),
                call_libc(platform, "write", fd, DATA, 9)]
    return {"results": results, "statistics": ndroid.statistics(),
            "hook_invocations": dict(ndroid.hook_invocations),
            "shadow": list(engine.shadow_registers),
            "memory": engine.memory_snapshot(),
            "leaks": platform.leaks.records}


def test_clean_variants_count_exactly_as_the_full_models():
    clean = _model_calls(full=False)
    assert clean == _model_calls(full=True)
    assert clean["statistics"]["modelled_calls"] == 25
    assert clean["statistics"]["sink_checks"] == 4


class TestModelledCallCounter:
    def test_counts_modelled_calls(self, env):
        platform, ndroid = env
        before = ndroid.syslib_hooks.modelled_calls
        call_libc(platform, "memcpy", DATA + 64, DATA, 4)
        call_libc(platform, "memset", DATA, 0, 4)
        assert ndroid.syslib_hooks.modelled_calls == before + 2
