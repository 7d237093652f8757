"""Behavioural model of libm (Table VI's second row of modelled functions).

The emulated CPU has no FPU, so — as on soft-float Android ABIs — floats
and doubles travel in core registers as IEEE-754 bit patterns: a float in
one register, a double in a low/high register pair.  Each function unpacks
its arguments, computes with Python's ``math``, and repacks the result into
R0 (float) or R0:R1 (double).
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict

from repro.emulator.emulator import Emulator, HostContext

LIBM_BASE = 0x5100_0000
LIBM_SIZE = 0x0001_0000


def _unpack_double(low: int, high: int) -> float:
    return struct.unpack("<d", struct.pack("<II", low, high))[0]


def _pack_double(value: float):
    try:
        low, high = struct.unpack("<II", struct.pack("<d", value))
    except (OverflowError, ValueError):
        low, high = struct.unpack("<II", struct.pack("<d", math.inf))
    return low, high


def _unpack_float(word: int) -> float:
    return struct.unpack("<f", struct.pack("<I", word))[0]


def _pack_float(value: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except (OverflowError, ValueError):
        return struct.unpack("<I", struct.pack("<f", math.inf))[0]


def _safe(function: Callable[..., float], *args: float) -> float:
    try:
        return function(*args)
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.nan


class MathLibrary:
    """The modelled libm: unary/binary double and float entry points."""

    _DOUBLE_UNARY = {
        "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
        "floor": math.floor, "log": math.log, "exp": math.exp,
        "ceil": math.ceil, "tan": math.tan, "acos": math.acos,
        "log10": math.log10, "atan": math.atan, "asin": math.asin,
        "sinh": math.sinh, "cosh": math.cosh,
    }
    _DOUBLE_BINARY = {
        "pow": math.pow, "atan2": math.atan2, "fmod": math.fmod,
        "ldexp": lambda x, i: math.ldexp(x, int(i)),
    }
    _FLOAT_UNARY = {
        "sinf": math.sin, "cosf": math.cos, "sqrtf": math.sqrt,
        "expf": math.exp,
    }
    _FLOAT_BINARY = {
        "powf": math.pow, "atan2f": math.atan2,
    }

    def __init__(self, emu: Emulator, base: int = LIBM_BASE) -> None:
        self.emu = emu
        self.base = base
        self.symbols: Dict[str, int] = {}
        offset = 0

        def register(name: str, function) -> None:
            nonlocal offset
            address = base + offset
            offset += 16
            self.symbols[name] = address
            emu.register_host_function(address, name, function)

        for name, function in self._DOUBLE_UNARY.items():
            register(name, self._double_unary(function))
        for name, function in self._DOUBLE_BINARY.items():
            register(name, self._double_binary(function))
        for name, function in self._FLOAT_UNARY.items():
            register(name, self._float_unary(function))
        for name, function in self._FLOAT_BINARY.items():
            register(name, self._float_binary(function))
        # strtod/strtol live in libm per the paper's Table VI grouping.
        register("strtod", self._strtod)
        register("strtol", self._strtol)
        emu.memory_map.map(base, LIBM_SIZE, "libm.so", perms="r-x")

    def address_of(self, name: str) -> int:
        return self.symbols[name]

    def _double_unary(self, function):
        def implementation(ctx: HostContext):
            value = _unpack_double(ctx.arg(0), ctx.arg(1))
            low, high = _pack_double(_safe(function, value))
            ctx.set_result(low, high)
            return None
        return implementation

    def _double_binary(self, function):
        def implementation(ctx: HostContext):
            a = _unpack_double(ctx.arg(0), ctx.arg(1))
            b = _unpack_double(ctx.arg(2), ctx.arg(3))
            low, high = _pack_double(_safe(function, a, b))
            ctx.set_result(low, high)
            return None
        return implementation

    def _float_unary(self, function):
        def implementation(ctx: HostContext):
            value = _unpack_float(ctx.arg(0))
            return _pack_float(_safe(function, value))
        return implementation

    def _float_binary(self, function):
        def implementation(ctx: HostContext):
            a = _unpack_float(ctx.arg(0))
            b = _unpack_float(ctx.arg(1))
            return _pack_float(_safe(function, a, b))
        return implementation

    def _strtod(self, ctx: HostContext):
        import re

        text = ctx.cstring_arg(0).lstrip()
        match = re.match(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", text)
        value = float(match.group(0)) if match else 0.0
        low, high = _pack_double(value)
        ctx.set_result(low, high)
        return None

    def _strtol(self, ctx: HostContext):
        from repro.libc.libc import parse_c_integer
        data = ctx.emu.memory.read_cstring(ctx.arg(0))
        return parse_c_integer(data, ctx.arg(2))[0]
