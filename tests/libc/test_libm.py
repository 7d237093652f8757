"""Tests for the modelled libm (soft-float calling convention)."""

import math
import struct

import pytest

from repro.emulator import Emulator
from repro.libc import MathLibrary

STACK_TOP = 0x0800_0000


@pytest.fixture
def libm_env():
    emu = Emulator()
    emu.cpu.sp = STACK_TOP
    libm = MathLibrary(emu)
    return emu, libm


def pack_double(value):
    return struct.unpack("<II", struct.pack("<d", value))


def unpack_double(low, high):
    return struct.unpack("<d", struct.pack("<II", low, high))[0]


def pack_float(value):
    return struct.unpack("<I", struct.pack("<f", value))[0]


def unpack_float(word):
    return struct.unpack("<f", struct.pack("<I", word))[0]


def call_double_unary(env, name, x):
    emu, libm = env
    low, high = pack_double(x)
    emu.call(libm.address_of(name), args=(low, high))
    return unpack_double(emu.cpu.regs[0], emu.cpu.regs[1])


def call_double_binary(env, name, x, y):
    emu, libm = env
    lx, hx = pack_double(x)
    ly, hy = pack_double(y)
    emu.call(libm.address_of(name), args=(lx, hx, ly, hy))
    return unpack_double(emu.cpu.regs[0], emu.cpu.regs[1])


@pytest.mark.parametrize("name,x", [
    ("sin", 1.0), ("cos", 0.5), ("sqrt", 2.0), ("floor", 2.7),
    ("log", 10.0), ("exp", 1.5), ("ceil", 2.1), ("tan", 0.3),
    ("acos", 0.2), ("log10", 1000.0), ("atan", 1.0), ("asin", 0.4),
    ("sinh", 0.9), ("cosh", 0.9),
])
def test_double_unary(libm_env, name, x):
    expected = getattr(math, name)(x)
    assert call_double_unary(libm_env, name, x) == pytest.approx(expected)


@pytest.mark.parametrize("name,x,y", [
    ("pow", 2.0, 10.0), ("atan2", 1.0, 2.0), ("fmod", 7.5, 2.0),
    ("ldexp", 1.5, 3.0),
])
def test_double_binary(libm_env, name, x, y):
    if name == "ldexp":
        expected = math.ldexp(x, int(y))
    else:
        expected = getattr(math, name)(x, y)
    assert call_double_binary(libm_env, name, x, y) == pytest.approx(expected)


@pytest.mark.parametrize("name,x", [
    ("sinf", 1.0), ("cosf", 0.5), ("sqrtf", 2.0), ("expf", 1.0),
])
def test_float_unary(libm_env, name, x):
    emu, libm = libm_env
    result = emu.call(libm.address_of(name), args=(pack_float(x),))
    expected = getattr(math, name[:-1])(x)
    assert unpack_float(result) == pytest.approx(expected, rel=1e-6)


def test_powf(libm_env):
    emu, libm = libm_env
    result = emu.call(libm.address_of("powf"),
                      args=(pack_float(2.0), pack_float(8.0)))
    assert unpack_float(result) == pytest.approx(256.0)


def test_domain_error_yields_nan(libm_env):
    result = call_double_unary(libm_env, "sqrt", -1.0)
    assert math.isnan(result)


def test_strtod(libm_env):
    emu, libm = libm_env
    emu.memory.write_cstring(0x2000, "3.25xyz")
    emu.call(libm.address_of("strtod"), args=(0x2000,))
    assert unpack_double(emu.cpu.regs[0], emu.cpu.regs[1]) == 3.25


def test_strtol(libm_env):
    emu, libm = libm_env
    emu.memory.write_cstring(0x2000, "1234")
    assert emu.call(libm.address_of("strtol"),
                    args=(0x2000, 0, 10)) == 1234


@pytest.mark.parametrize("base, value", [(0, 0x1F), (16, 0x1F), (10, 0),
                                         (37, 0), (1, 0)])
def test_strtol_base(libm_env, base, value):
    emu, libm = libm_env
    emu.memory.write_cstring(0x2000, "0x1f")
    assert emu.call(libm.address_of("strtol"),
                    args=(0x2000, 0, base)) == value
