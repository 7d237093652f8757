"""A two-pass ARM/Thumb assembler.

The scenario apps in this reproduction carry real native code; this
assembler turns their assembly sources into the machine words the CPU
decoders consume, exactly as a cross-compiler toolchain would for the
paper's test APKs.

Supported syntax (one statement per line, ``;``/``@``/``//`` comments):

* labels (``name:``), ``.arm``/``.thumb`` mode switches
* data directives: ``.word``, ``.half``, ``.byte``, ``.asciz``, ``.space``,
  ``.align``, ``.pool`` (flush the literal pool)
* ARM: all data-processing ops with immediate/shifted-register operand2,
  ``movw/movt``, ``mul/mla/umull/smull/umlal/smlal``, ``clz``,
  ``ldr/str[b|h|sb|sh]`` with immediate/register offsets and pre/post
  indexing, ``ldm/stm`` variants and ``push/pop``, ``b/bl`` (+conditions),
  ``bx/blx``, ``svc``, ``nop``
* Thumb: the classic 16-bit subset (format 1-18) plus the fused ``bl`` pair
* pseudo-ops: ``ldr rd, =value_or_label`` (literal pool), ``adr rd, label``

Condition suffixes (``beq``, ``movne``…) and the ``s`` flag suffix
(``adds``) are accepted in either order (``addseq``/``addeqs``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import AssemblerError
from repro.cpu.bits import encode_arm_immediate, u32
from repro.cpu.isa import Cond, Op, ShiftType

_REGISTER_ALIASES = {
    "sp": 13, "lr": 14, "pc": 15, "ip": 12, "fp": 11, "sl": 10,
}
_CONDS = {c.name.lower(): c for c in Cond}
_DP_OPS = {
    "and": Op.AND, "eor": Op.EOR, "sub": Op.SUB, "rsb": Op.RSB,
    "add": Op.ADD, "adc": Op.ADC, "sbc": Op.SBC, "rsc": Op.RSC,
    "tst": Op.TST, "teq": Op.TEQ, "cmp": Op.CMP, "cmn": Op.CMN,
    "orr": Op.ORR, "mov": Op.MOV, "bic": Op.BIC, "mvn": Op.MVN,
}
_SHIFT_NAMES = {"lsl": ShiftType.LSL, "lsr": ShiftType.LSR,
                "asr": ShiftType.ASR, "ror": ShiftType.ROR}

# Base mnemonics, longest first so suffix stripping is unambiguous.
_BASES = sorted(
    list(_DP_OPS) + list(_SHIFT_NAMES) + [
        "ldrsb", "ldrsh", "ldrb", "ldrh", "strb", "strh", "ldr", "str",
        "ldmia", "ldmib", "ldmda", "ldmdb", "stmia", "stmib", "stmda",
        "stmdb", "ldm", "stm", "push", "pop",
        "movw", "movt", "mul", "mla", "umull", "smull", "umlal", "smlal",
        "clz", "blx", "bx", "bl", "b", "svc", "swi", "nop", "adr", "neg",
    ],
    key=len, reverse=True)
# Branches take a condition but never an S suffix: ``bls`` is B + LS,
# not BL + S.
_BRANCH_BASES = frozenset(("b", "bl", "bx", "blx"))


@dataclass
class _Statement:
    """One parsed source line, sized in pass 1 and encoded in pass 2."""

    kind: str                     # "insn", "word", "bytes", "align", "pool"
    mnemonic: str = ""
    cond: Cond = Cond.AL
    set_flags: bool = False
    operands: str = ""
    data: bytes = b""
    align: int = 0
    address: int = 0
    size: int = 0
    thumb: bool = False
    line: str = ""
    lineno: int = 0
    pool_symbol: Optional[str] = None   # for "ldr rd, =x"


@dataclass
class Program:
    """Assembled output: bytes plus the symbol table."""

    base: int
    code: bytes
    symbols: Dict[str, int] = field(default_factory=dict)
    thumb_symbols: Dict[str, bool] = field(default_factory=dict)

    def address_of(self, symbol: str) -> int:
        if symbol not in self.symbols:
            raise AssemblerError(f"unknown symbol {symbol!r}")
        return self.symbols[symbol]

    def entry(self, symbol: str) -> int:
        """Address of a symbol with the Thumb bit set when appropriate."""
        address = self.address_of(symbol)
        if self.thumb_symbols.get(symbol):
            address |= 1
        return address


def assemble(source: str, base: int = 0,
             externs: Optional[Dict[str, int]] = None) -> Program:
    """Assemble ``source`` at ``base``; ``externs`` adds outside symbols."""
    return Assembler(externs=externs).assemble(source, base)


class Assembler:
    """Two-pass assembler; see the module docstring for the syntax."""
    def __init__(self, externs: Optional[Dict[str, int]] = None) -> None:
        self.externs = dict(externs or {})

    # -- top level ---------------------------------------------------------

    def assemble(self, source: str, base: int = 0) -> Program:
        statements, labels, thumb_labels, pool = self._pass1(source, base)
        symbols = dict(self.externs)
        symbols.update(labels)
        code = bytearray()
        end = base
        for statement in statements:
            encoded = self._encode(statement, symbols, pool)
            expected = statement.address - base
            if len(code) < expected:
                code.extend(b"\x00" * (expected - len(code)))
            code.extend(encoded)
            end = max(end, statement.address + len(encoded))
        return Program(base=base, code=bytes(code), symbols=labels,
                       thumb_symbols=thumb_labels)

    # -- pass 1: sizing and label resolution ---------------------------------

    def _pass1(self, source: str, base: int):
        statements: List[_Statement] = []
        labels: Dict[str, int] = {}
        thumb_labels: Dict[str, bool] = {}
        pool: Dict[str, int] = {}          # literal symbol -> address
        pool_pending: List[Tuple[str, _Statement]] = []
        address = base
        thumb = False

        def flush_pool() -> None:
            nonlocal address
            seen: Dict[str, int] = {}
            for symbol, __ in pool_pending:
                if symbol in seen:
                    pool[symbol] = seen[symbol]
                    continue
                address = (address + 3) & ~3
                statement = _Statement(kind="word", operands=symbol[4:],
                                       address=address, size=4)
                statements.append(statement)
                pool[symbol] = address
                seen[symbol] = address
                address += 4
            pool_pending.clear()

        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            while True:
                match = re.match(r"^([A-Za-z_.$][\w.$]*):\s*", line)
                if not match:
                    break
                label = match.group(1)
                if label in labels:
                    raise AssemblerError(f"line {lineno}: duplicate label {label!r}")
                labels[label] = address
                thumb_labels[label] = thumb
                line = line[match.end():]
            if not line:
                continue

            if line.startswith("."):
                directive, _, rest = line.partition(" ")
                rest = rest.strip()
                if directive == ".arm":
                    address = (address + 3) & ~3
                    thumb = False
                    continue
                if directive == ".thumb":
                    address = (address + 1) & ~1
                    thumb = True
                    continue
                if directive in (".pool", ".ltorg"):
                    flush_pool()
                    continue
                if directive in (".global", ".globl", ".text", ".data",
                                 ".func", ".endfunc"):
                    continue
                statement = self._parse_directive(directive, rest, lineno)
                if statement.kind == "align":
                    alignment = statement.align
                    address = (address + alignment - 1) & ~(alignment - 1)
                    continue
                statement.address = address
                statement.thumb = thumb
                statements.append(statement)
                address += statement.size
                continue

            statement = self._parse_instruction(line, lineno, thumb)
            statement.address = address
            if statement.pool_symbol is not None:
                pool_pending.append((statement.pool_symbol, statement))
            statements.append(statement)
            address += statement.size

        flush_pool()
        return statements, labels, thumb_labels, pool

    def _parse_directive(self, directive: str, rest: str,
                         lineno: int) -> _Statement:
        if directive == ".word":
            values = [part.strip() for part in rest.split(",") if part.strip()]
            return _Statement(kind="words", operands=",".join(values),
                              size=4 * len(values), lineno=lineno)
        if directive in (".half", ".hword", ".short"):
            values = [part.strip() for part in rest.split(",") if part.strip()]
            return _Statement(kind="halves", operands=",".join(values),
                              size=2 * len(values), lineno=lineno)
        if directive == ".byte":
            values = [part.strip() for part in rest.split(",") if part.strip()]
            return _Statement(kind="bytes8", operands=",".join(values),
                              size=len(values), lineno=lineno)
        if directive in (".asciz", ".string"):
            text = _parse_string_literal(rest, lineno)
            data = text.encode("utf-8") + b"\x00"
            return _Statement(kind="bytes", data=data, size=len(data),
                              lineno=lineno)
        if directive == ".ascii":
            text = _parse_string_literal(rest, lineno)
            data = text.encode("utf-8")
            return _Statement(kind="bytes", data=data, size=len(data),
                              lineno=lineno)
        if directive in (".space", ".skip", ".zero"):
            count = _parse_int(rest, lineno)
            return _Statement(kind="bytes", data=b"\x00" * count, size=count,
                              lineno=lineno)
        if directive in (".align", ".balign"):
            alignment = _parse_int(rest or "4", lineno)
            if directive == ".align":
                alignment = 1 << alignment if alignment < 16 else alignment
            return _Statement(kind="align", align=alignment, lineno=lineno)
        raise AssemblerError(f"line {lineno}: unknown directive {directive!r}")

    def _parse_instruction(self, line: str, lineno: int,
                           thumb: bool) -> _Statement:
        match = re.match(r"^(\S+)\s*(.*)$", line)
        word, operands = match.group(1).lower(), match.group(2).strip()
        base, cond, set_flags = _split_mnemonic(word, lineno)
        statement = _Statement(kind="insn", mnemonic=base, cond=cond,
                               set_flags=set_flags, operands=operands,
                               thumb=thumb, line=line, lineno=lineno)
        # Pseudo: ldr rd, =imm_or_label → pc-relative load from the pool.
        if base == "ldr" and "=" in operands:
            rd_text, _, value = operands.partition(",")
            value = value.strip()
            if not value.startswith("="):
                raise AssemblerError(f"line {lineno}: bad ldr= syntax")
            statement.pool_symbol = "lit:" + value[1:].strip()
            statement.operands = rd_text.strip()
        statement.size = 2 if thumb else 4
        if thumb and base == "bl":
            statement.size = 4
        # ARM MOV with an unencodable literal immediate auto-expands to
        # MOVW (16-bit values) or a MOVW/MOVT pair (wider values), exactly
        # as GNU as does for "mov rd, #imm" on ARMv7.
        if not thumb and base == "mov" and not set_flags:
            ops = _split_operands(operands)
            if len(ops) == 2 and ops[1].startswith("#"):
                try:
                    value = _parse_int(ops[1][1:], lineno) & 0xFFFF_FFFF
                except AssemblerError:
                    value = None
                if value is not None:
                    if not _arm_immediate_encodable(value) and \
                            not _arm_immediate_encodable(~value & 0xFFFF_FFFF):
                        statement.mnemonic = "mov32"
                        statement.size = 4 if value <= 0xFFFF else 8
        return statement

    # -- pass 2: encoding -------------------------------------------------------

    def _encode(self, statement: _Statement, symbols: Dict[str, int],
                pool: Dict[str, int]) -> bytes:
        if statement.kind == "bytes":
            return statement.data
        if statement.kind == "word":
            value = self._resolve(statement.operands, symbols,
                                  statement.lineno)
            return u32(value).to_bytes(4, "little")
        if statement.kind == "words":
            out = bytearray()
            for part in statement.operands.split(","):
                value = self._resolve(part, symbols, statement.lineno)
                out += u32(value).to_bytes(4, "little")
            return bytes(out)
        if statement.kind == "halves":
            out = bytearray()
            for part in statement.operands.split(","):
                value = self._resolve(part, symbols, statement.lineno)
                out += (value & 0xFFFF).to_bytes(2, "little")
            return bytes(out)
        if statement.kind == "bytes8":
            return bytes(
                self._resolve(part, symbols, statement.lineno) & 0xFF
                for part in statement.operands.split(","))
        if statement.kind == "insn":
            if statement.mnemonic == "mov32":
                return self._encode_mov32(statement)
            if statement.thumb:
                encoded = self._encode_thumb(statement, symbols, pool)
            else:
                encoded = self._encode_arm(statement, symbols, pool)
            return encoded
        raise AssemblerError(f"line {statement.lineno}: bad statement")

    def _resolve(self, text: str, symbols: Dict[str, int], lineno: int) -> int:
        text = text.strip()
        try:
            return _parse_int(text, lineno)
        except AssemblerError:
            pass
        # Simple symbol+offset arithmetic: name, name+4, name-8.
        match = re.match(r"^([A-Za-z_.$][\w.$]*)\s*([+-]\s*\d+)?$", text)
        if match and match.group(1) in symbols:
            offset = int(match.group(2).replace(" ", "")) if match.group(2) else 0
            return symbols[match.group(1)] + offset
        raise AssemblerError(f"line {lineno}: cannot resolve {text!r}")

    def _encode_mov32(self, st: _Statement) -> bytes:
        """Encode the auto-expanded MOVW(/MOVT) form of ``mov rd, #imm``."""
        ops = _split_operands(st.operands)
        rd = _parse_reg(ops[0], st.lineno)
        value = _parse_int(ops[1][1:], st.lineno) & 0xFFFF_FFFF
        cond = int(st.cond) << 28
        low = value & 0xFFFF
        movw = cond | 0x03000000 | ((low >> 12) << 16) | (rd << 12) | \
            (low & 0xFFF)
        out = u32(movw).to_bytes(4, "little")
        if st.size == 8:
            high = value >> 16
            movt = cond | 0x03400000 | ((high >> 12) << 16) | (rd << 12) | \
                (high & 0xFFF)
            out += u32(movt).to_bytes(4, "little")
        return out

    # -- ARM encoding ----------------------------------------------------------

    def _encode_arm(self, st: _Statement, symbols: Dict[str, int],
                    pool: Dict[str, int]) -> bytes:
        word = self._arm_word(st, symbols, pool)
        return u32(word).to_bytes(4, "little")

    def _arm_word(self, st: _Statement, symbols: Dict[str, int],
                  pool: Dict[str, int]) -> int:
        cond = int(st.cond) << 28
        name = st.mnemonic
        ops = _split_operands(st.operands)
        lineno = st.lineno

        if name == "nop":
            return cond | 0x01A00000  # mov r0, r0

        if name == "mov32":
            raise AssemblerError(
                f"line {lineno}: mov32 must be encoded via _encode")

        if name in _DP_OPS:
            return cond | self._arm_data_processing(st, ops)

        if name in _SHIFT_NAMES:  # lsl rd, rm, #imm|rs → mov with shift
            if len(ops) == 2:
                ops = [ops[0], ops[0], ops[1]]
            rd = _parse_reg(ops[0], lineno)
            rm = _parse_reg(ops[1], lineno)
            shift = ops[2]
            s_bit = (1 << 20) if st.set_flags else 0
            base = 0x01A00000 | s_bit | (rd << 12)
            if shift.startswith("#"):
                amount = _parse_int(shift[1:], lineno)
                return cond | base | ((amount & 31) << 7) | \
                    (int(_SHIFT_NAMES[name]) << 5) | rm
            rs = _parse_reg(shift, lineno)
            return cond | base | (rs << 8) | \
                (int(_SHIFT_NAMES[name]) << 5) | 0x10 | rm

        if name == "neg":  # rsb rd, rm, #0
            rd = _parse_reg(ops[0], lineno)
            rm = _parse_reg(ops[1], lineno) if len(ops) > 1 else rd
            s_bit = (1 << 20) if st.set_flags else 0
            return cond | 0x02600000 | s_bit | (rm << 16) | (rd << 12)

        if name in ("movw", "movt"):
            rd = _parse_reg(ops[0], lineno)
            imm = self._resolve(ops[1].lstrip("#"), symbols, lineno) & 0xFFFF
            opcode = 0x03400000 if name == "movt" else 0x03000000
            return cond | opcode | ((imm >> 12) << 16) | (rd << 12) | \
                (imm & 0xFFF)

        if name == "mul":
            rd, rm, rs = (_parse_reg(op, lineno) for op in ops[:3])
            s_bit = (1 << 20) if st.set_flags else 0
            return cond | s_bit | (rd << 16) | (rs << 8) | 0x90 | rm
        if name == "mla":
            rd, rm, rs, rn = (_parse_reg(op, lineno) for op in ops[:4])
            s_bit = (1 << 20) if st.set_flags else 0
            return cond | 0x00200000 | s_bit | (rd << 16) | (rn << 12) | \
                (rs << 8) | 0x90 | rm
        if name in ("umull", "smull", "umlal", "smlal"):
            rd_lo, rd_hi, rm, rs = (_parse_reg(op, lineno) for op in ops[:4])
            signed = (1 << 22) if name.startswith("s") else 0
            accumulate = (1 << 21) if name.endswith("lal") else 0
            s_bit = (1 << 20) if st.set_flags else 0
            return cond | 0x00800000 | signed | accumulate | s_bit | \
                (rd_hi << 16) | (rd_lo << 12) | (rs << 8) | 0x90 | rm

        if name == "clz":
            rd = _parse_reg(ops[0], lineno)
            rm = _parse_reg(ops[1], lineno)
            return cond | 0x016F0F10 | (rd << 12) | rm

        if name in ("ldr", "str", "ldrb", "strb", "ldrh", "strh",
                    "ldrsb", "ldrsh"):
            return cond | self._arm_load_store(st, ops, symbols, pool)

        if name in ("push", "pop"):
            reglist = _parse_reglist(st.operands, lineno)
            if name == "push":  # STMDB sp!, {...}
                return cond | 0x092D0000 | reglist
            return cond | 0x08BD0000 | reglist  # LDMIA sp!, {...}

        if name in ("ldm", "stm", "ldmia", "ldmib", "ldmda", "ldmdb",
                    "stmia", "stmib", "stmda", "stmdb"):
            mode = name[3:] or "ia"
            load = name.startswith("ldm")
            base_text = ops[0]
            writeback = base_text.endswith("!")
            rn = _parse_reg(base_text.rstrip("!"), lineno)
            reglist = _parse_reglist(st.operands.partition(",")[2], lineno)
            p = 1 if mode in ("ib", "db") else 0
            u = 1 if mode in ("ia", "ib") else 0
            word = 0x08000000 | (p << 24) | (u << 23) | \
                ((1 if writeback else 0) << 21) | \
                ((1 if load else 0) << 20) | (rn << 16) | reglist
            return cond | word

        if name in ("b", "bl"):
            target = self._resolve(ops[0], symbols, lineno)
            offset = (target - (st.address + 8)) >> 2
            if not -(1 << 23) <= offset < (1 << 23):
                raise AssemblerError(f"line {lineno}: branch out of range")
            link = (1 << 24) if name == "bl" else 0
            return cond | 0x0A000000 | link | (offset & 0xFFFFFF)

        if name in ("bx", "blx"):
            rm = _parse_reg(ops[0], lineno)
            low = 0x30 if name == "blx" else 0x10
            return cond | 0x012FFF00 | low | rm

        if name in ("svc", "swi"):
            imm = _parse_int(ops[0].lstrip("#"), lineno)
            return cond | 0x0F000000 | (imm & 0xFFFFFF)

        if name == "adr":
            rd = _parse_reg(ops[0], lineno)
            target = self._resolve(ops[1], symbols, lineno)
            delta = target - (st.address + 8)
            try:
                if delta >= 0:
                    rotate, imm8 = encode_arm_immediate(delta)
                    return cond | 0x028F0000 | (rd << 12) | (rotate << 8) | imm8
                rotate, imm8 = encode_arm_immediate(-delta)
                return cond | 0x024F0000 | (rd << 12) | (rotate << 8) | imm8
            except ValueError:
                raise AssemblerError(
                    f"line {lineno}: adr target too far") from None

        raise AssemblerError(f"line {lineno}: unknown mnemonic {name!r}")

    def _arm_data_processing(self, st: _Statement, ops: List[str]) -> int:
        lineno = st.lineno
        op = _DP_OPS[st.mnemonic]
        compare = op in (Op.TST, Op.TEQ, Op.CMP, Op.CMN)
        unary = op in (Op.MOV, Op.MVN)
        set_flags = st.set_flags or compare

        if compare:
            rd, rn = 0, _parse_reg(ops[0], lineno)
            operand2_ops = ops[1:]
        elif unary:
            rd, rn = _parse_reg(ops[0], lineno), 0
            operand2_ops = ops[1:]
        else:
            rd = _parse_reg(ops[0], lineno)
            if len(ops) == 2:  # two-operand form: add r0, r1 == add r0,r0,r1
                rn = rd
                operand2_ops = ops[1:]
            else:
                rn = _parse_reg(ops[1], lineno)
                operand2_ops = ops[2:]

        word = (int(op) << 21) | ((1 if set_flags else 0) << 20) | \
            (rn << 16) | (rd << 12)

        first = operand2_ops[0]
        if first.startswith("#"):
            value = _parse_int(first[1:], lineno)
            try:
                rotate, imm8 = encode_arm_immediate(value)
            except ValueError:
                # Try the complementary opcode (MOV<->MVN, ADD<->SUB, ...).
                flipped = _flip_for_immediate(op, value)
                if flipped is None:
                    raise AssemblerError(
                        f"line {lineno}: immediate 0x{value & 0xFFFFFFFF:x} "
                        "not encodable; use ldr rd, =imm") from None
                new_op, new_value = flipped
                rotate, imm8 = encode_arm_immediate(new_value)
                word = (word & ~(0xF << 21)) | (int(new_op) << 21)
            return word | (1 << 25) | (rotate << 8) | imm8

        rm = _parse_reg(first, lineno)
        if len(operand2_ops) == 1:
            return word | rm
        shift_text = operand2_ops[1].lower()
        if shift_text == "rrx":
            return word | (int(ShiftType.ROR) << 5) | rm
        parts = shift_text.split()
        if len(parts) != 2 or parts[0] not in _SHIFT_NAMES:
            raise AssemblerError(f"line {lineno}: bad shift {shift_text!r}")
        shift_type = _SHIFT_NAMES[parts[0]]
        if parts[1].startswith("#"):
            amount = _parse_int(parts[1][1:], lineno)
            return word | ((amount & 31) << 7) | (int(shift_type) << 5) | rm
        rs = _parse_reg(parts[1], lineno)
        return word | (rs << 8) | (int(shift_type) << 5) | 0x10 | rm

    def _arm_load_store(self, st: _Statement, ops: List[str],
                        symbols: Dict[str, int], pool: Dict[str, int]) -> int:
        lineno = st.lineno
        name = st.mnemonic
        load = name.startswith("ldr")
        suffix = name[3:]
        rd = _parse_reg(ops[0], lineno)

        if st.pool_symbol is not None:  # ldr rd, =value
            pool_address = pool[st.pool_symbol]
            delta = pool_address - (st.address + 8)
            u_bit = 1 if delta >= 0 else 0
            return 0x05100000 | (u_bit << 23) | (15 << 16) | (rd << 12) | \
                (abs(delta) & 0xFFF)

        address_text = st.operands.partition(",")[2].strip()
        pre, rn, offset_text, writeback, post_offset = _parse_address(
            address_text, lineno)

        if suffix in ("h", "sb", "sh"):
            sh = {"h": 0b01 if not load else 0b01, "sb": 0b10, "sh": 0b11}[suffix]
            if not load:
                sh = 0b01
            word = 0x00000090 | (sh << 5) | ((1 if load else 0) << 20) | \
                (rn << 16) | (rd << 12)
            offset = offset_text if pre else post_offset
            word |= (1 if pre else 0) << 24
            if pre and writeback:
                word |= 1 << 21
            if offset is None or offset == "":
                return word | (1 << 23) | (1 << 22)
            if offset.startswith("#"):
                value = _parse_int(offset[1:], lineno)
                u_bit = 1 if value >= 0 else 0
                value = abs(value)
                return word | (u_bit << 23) | (1 << 22) | \
                    ((value >> 4) << 8) | (value & 0xF)
            sign = 1
            if offset.startswith("-"):
                sign, offset = 0, offset[1:]
            rm = _parse_reg(offset, lineno)
            return word | (sign << 23) | rm

        byte = suffix == "b"
        word = 0x04000000 | ((1 if load else 0) << 20) | \
            ((1 if byte else 0) << 22) | (rn << 16) | (rd << 12)
        word |= (1 if pre else 0) << 24
        if pre and writeback:
            word |= 1 << 21
        offset = offset_text if pre else post_offset
        if offset is None or offset == "":
            return word | (1 << 23)
        if offset.startswith("#"):
            value = _parse_int(offset[1:], lineno)
            u_bit = 1 if value >= 0 else 0
            return word | (u_bit << 23) | (abs(value) & 0xFFF)
        sign = 1
        if offset.startswith("-"):
            sign, offset = 0, offset[1:]
        parts = offset.split(None, 2)
        rm = _parse_reg(parts[0].rstrip(","), lineno)
        word |= (1 << 25) | (sign << 23) | rm
        if len(parts) >= 2:
            shift_name = parts[1].rstrip(",")
            if shift_name not in _SHIFT_NAMES or len(parts) < 3:
                raise AssemblerError(f"line {lineno}: bad index shift")
            amount = _parse_int(parts[2].lstrip("#"), lineno)
            word |= ((amount & 31) << 7) | (int(_SHIFT_NAMES[shift_name]) << 5)
        return word

    # -- Thumb encoding -----------------------------------------------------------

    def _encode_thumb(self, st: _Statement, symbols: Dict[str, int],
                      pool: Dict[str, int]) -> bytes:
        lineno = st.lineno
        name = st.mnemonic
        ops = _split_operands(st.operands)
        if st.cond != Cond.AL and name != "b":
            raise AssemblerError(
                f"line {lineno}: Thumb-1 supports conditions only on b")

        def enc16(halfword: int) -> bytes:
            return (halfword & 0xFFFF).to_bytes(2, "little")

        if name == "nop":
            return enc16(0xBF00)

        if name == "bl":
            target = self._resolve(ops[0], symbols, lineno)
            offset = target - (st.address + 4)
            high = (offset >> 12) & 0x7FF
            low = (offset >> 1) & 0x7FF
            return enc16(0xF000 | high) + enc16(0xF800 | low)

        if name == "b":
            target = self._resolve(ops[0], symbols, lineno)
            offset = target - (st.address + 4)
            if st.cond == Cond.AL:
                if not -2048 <= offset < 2048:
                    raise AssemblerError(f"line {lineno}: branch out of range")
                return enc16(0xE000 | ((offset >> 1) & 0x7FF))
            if not -256 <= offset < 256:
                raise AssemblerError(f"line {lineno}: cond branch out of range")
            return enc16(0xD000 | (int(st.cond) << 8) | ((offset >> 1) & 0xFF))

        if name in ("bx", "blx"):
            rm = _parse_reg(ops[0], lineno)
            h2 = 0x80 if name == "blx" else 0
            return enc16(0x4700 | h2 | (rm << 3))

        if name in ("svc", "swi"):
            return enc16(0xDF00 | (_parse_int(ops[0].lstrip("#"), lineno) & 0xFF))

        if name in ("lsl", "lsr", "asr") and len(ops) == 3 and \
                ops[2].startswith("#"):
            rd = _parse_reg(ops[0], lineno)
            rm = _parse_reg(ops[1], lineno)
            imm5 = _parse_int(ops[2][1:], lineno) & 31
            op_bits = {"lsl": 0, "lsr": 1, "asr": 2}[name]
            return enc16((op_bits << 11) | (imm5 << 6) | (rm << 3) | rd)

        if name in ("push", "pop"):
            registers = _parse_reglist(st.operands, lineno)
            low = registers & 0xFF
            if name == "push":
                extra = 0x100 if registers & (1 << 14) else 0
                if registers & ~(0xFF | (1 << 14)):
                    raise AssemblerError(f"line {lineno}: bad PUSH registers")
                return enc16(0xB400 | extra | low)
            extra = 0x100 if registers & (1 << 15) else 0
            if registers & ~(0xFF | (1 << 15)):
                raise AssemblerError(f"line {lineno}: bad POP registers")
            return enc16(0xBC00 | extra | low)

        if name in ("ldmia", "stmia", "ldm", "stm"):
            rn = _parse_reg(ops[0].rstrip("!"), lineno)
            registers = _parse_reglist(st.operands.partition(",")[2], lineno)
            load = 0x0800 if name.startswith("ldm") else 0
            return enc16(0xC000 | load | (rn << 8) | (registers & 0xFF))

        if name == "ldr" and st.pool_symbol is not None:
            rd = _parse_reg(st.operands, lineno)
            pool_address = pool[st.pool_symbol]
            base = (st.address + 4) & ~3
            delta = pool_address - base
            if delta < 0 or delta > 1020 or delta % 4:
                raise AssemblerError(f"line {lineno}: literal out of range")
            return enc16(0x4800 | (rd << 8) | (delta >> 2))

        if name in ("ldr", "str", "ldrb", "strb", "ldrh", "strh",
                    "ldrsb", "ldrsh"):
            return enc16(self._thumb_load_store(st, ops, lineno))

        if name in ("add", "sub") and ops and \
                _parse_reg_or_none(ops[0]) == 13 and \
                ops[-1].startswith("#"):
            # add/sub sp, #imm or add/sub sp, sp, #imm.
            imm = _parse_int(ops[-1][1:], lineno)
            s_bit = 0x80 if name == "sub" else 0
            return enc16(0xB000 | s_bit | ((imm >> 2) & 0x7F))

        if name in _DP_OPS or name in ("lsl", "lsr", "asr", "ror", "neg",
                                       "mul"):
            return enc16(self._thumb_alu(st, ops, lineno))

        raise AssemblerError(f"line {lineno}: unknown Thumb mnemonic {name!r}")

    def _thumb_load_store(self, st: _Statement, ops: List[str],
                          lineno: int) -> int:
        name = st.mnemonic
        rd = _parse_reg(ops[0], lineno)
        address_text = st.operands.partition(",")[2].strip()
        pre, rn, offset_text, writeback, __ = _parse_address(address_text,
                                                             lineno)
        if not pre or writeback:
            raise AssemblerError(f"line {lineno}: Thumb has no writeback forms")
        load = name.startswith("ldr")
        if offset_text and not offset_text.startswith("#"):
            rm = _parse_reg(offset_text, lineno)
            selector = {"str": 0b000, "strh": 0b001, "strb": 0b010,
                        "ldrsb": 0b011, "ldr": 0b100, "ldrh": 0b101,
                        "ldrb": 0b110, "ldrsh": 0b111}[name]
            return 0x5000 | (selector << 9) | (rm << 6) | (rn << 3) | rd
        offset = _parse_int(offset_text[1:], lineno) if offset_text else 0
        if rn == 13:
            if name not in ("ldr", "str"):
                raise AssemblerError(f"line {lineno}: only word SP-relative")
            return 0x9000 | ((0x800 if load else 0)) | (rd << 8) | \
                ((offset >> 2) & 0xFF)
        if name in ("ldr", "str"):
            return 0x6000 | ((0x800 if load else 0)) | \
                (((offset >> 2) & 31) << 6) | (rn << 3) | rd
        if name in ("ldrb", "strb"):
            return 0x7000 | ((0x800 if load else 0)) | \
                ((offset & 31) << 6) | (rn << 3) | rd
        if name in ("ldrh", "strh"):
            return 0x8000 | ((0x800 if load else 0)) | \
                (((offset >> 1) & 31) << 6) | (rn << 3) | rd
        raise AssemblerError(f"line {lineno}: unsupported Thumb load/store")

    def _thumb_alu(self, st: _Statement, ops: List[str], lineno: int) -> int:
        name = st.mnemonic
        alu_codes = {"and": 0, "eor": 1, "lsl": 2, "lsr": 3, "asr": 4,
                     "adc": 5, "sbc": 6, "ror": 7, "tst": 8, "neg": 9,
                     "cmp": 10, "cmn": 11, "orr": 12, "mul": 13, "bic": 14,
                     "mvn": 15}
        rd = _parse_reg(ops[0], lineno)

        if name in ("mov", "cmp", "add", "sub") and len(ops) == 2 and \
                ops[1].startswith("#"):
            imm = _parse_int(ops[1][1:], lineno)
            if 0 <= imm <= 255 and rd < 8:
                op_bits = {"mov": 0, "cmp": 1, "add": 2, "sub": 3}[name]
                return 0x2000 | (op_bits << 11) | (rd << 8) | (imm & 0xFF)
            raise AssemblerError(f"line {lineno}: Thumb imm8 out of range")

        if name in ("add", "sub") and len(ops) == 3:
            rn = _parse_reg(ops[1], lineno)
            third = ops[2]
            sub = 1 if name == "sub" else 0
            if third.startswith("#"):
                imm3 = _parse_int(third[1:], lineno)
                if not 0 <= imm3 <= 7:
                    raise AssemblerError(f"line {lineno}: imm3 out of range")
                return 0x1C00 | (sub << 9) | (imm3 << 6) | (rn << 3) | rd
            rm = _parse_reg(third, lineno)
            return 0x1800 | (sub << 9) | (rm << 6) | (rn << 3) | rd

        if name in ("mov", "add", "cmp") and len(ops) == 2 and \
                (rd > 7 or _parse_reg(ops[1], lineno) > 7):
            rm = _parse_reg(ops[1], lineno)
            op_bits = {"add": 0, "cmp": 1, "mov": 2}[name]
            h1 = 0x80 if rd > 7 else 0
            return 0x4400 | (op_bits << 8) | h1 | (rm << 3) | (rd & 7)

        if name == "mov" and len(ops) == 2:  # low-reg MOV == LSLS rd, rm, #0
            rm = _parse_reg(ops[1], lineno)
            return (rm << 3) | rd

        if name in alu_codes and len(ops) == 2:
            rm = _parse_reg(ops[1], lineno)
            return 0x4000 | (alu_codes[name] << 6) | (rm << 3) | rd

        if name == "mul" and len(ops) == 3:
            rm = _parse_reg(ops[2], lineno)
            if _parse_reg(ops[1], lineno) != rd:
                raise AssemblerError(f"line {lineno}: Thumb MUL needs rd==rn")
            return 0x4000 | (13 << 6) | (rm << 3) | rd

        raise AssemblerError(f"line {lineno}: unsupported Thumb ALU form")


# -- parsing helpers ------------------------------------------------------------


def _arm_immediate_encodable(value: int) -> bool:
    try:
        encode_arm_immediate(value)
        return True
    except ValueError:
        return False


def _parse_string_literal(text: str, lineno: int) -> str:
    text = text.strip()
    if len(text) < 2 or not (text.startswith('"') and text.endswith('"')):
        raise AssemblerError(f"line {lineno}: expected string literal")
    body = text[1:-1]
    return (body.replace("\\n", "\n").replace("\\t", "\t")
            .replace("\\0", "\x00").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _strip_comment(line: str) -> str:
    for marker in (";", "@", "//"):
        index = _find_outside_quotes(line, marker)
        if index >= 0:
            line = line[:index]
    return line


def _find_outside_quotes(line: str, marker: str) -> int:
    in_quotes = False
    for index in range(len(line) - len(marker) + 1):
        char = line[index]
        if char == '"':
            in_quotes = not in_quotes
        if not in_quotes and line.startswith(marker, index):
            return index
    return -1


def _split_mnemonic(word: str, lineno: int) -> Tuple[str, Cond, bool]:
    for base in _BASES:
        if not word.startswith(base):
            continue
        suffix = word[len(base):]
        if suffix == "":
            return base, Cond.AL, False
        if base in _BRANCH_BASES:
            if suffix in _CONDS:
                return base, _CONDS[suffix], False
            continue
        if suffix == "s":
            return base, Cond.AL, True
        if suffix in _CONDS:
            return base, _CONDS[suffix], False
        if suffix.endswith("s") and suffix[:-1] in _CONDS:
            return base, _CONDS[suffix[:-1]], True
        if suffix.startswith("s") and suffix[1:] in _CONDS:
            return base, _CONDS[suffix[1:]], True
    raise AssemblerError(f"line {lineno}: unknown mnemonic {word!r}")


def _split_operands(text: str) -> List[str]:
    """Split on commas, keeping bracketed addresses and reglists intact."""
    parts: List[str] = []
    depth = 0
    current = ""
    for char in text:
        if char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current.strip())
    # Re-join shift specifications: "r1, lsl #2" arrives as two parts.
    merged: List[str] = []
    for part in parts:
        lowered = part.lower()
        if merged and (lowered.startswith(tuple(_SHIFT_NAMES)) or
                       lowered == "rrx") and \
                re.match(r"^(lsl|lsr|asr|ror|rrx)\b", lowered):
            merged[-1] = merged[-1]  # keep register part
            merged.append(part)
        else:
            merged.append(part)
    return merged


def _parse_reg(text: str, lineno: int) -> int:
    value = _parse_reg_or_none(text)
    if value is None:
        raise AssemblerError(f"line {lineno}: bad register {text!r}")
    return value


def _parse_reg_or_none(text: str) -> Optional[int]:
    text = text.strip().lower().rstrip("!")
    if text in _REGISTER_ALIASES:
        return _REGISTER_ALIASES[text]
    match = re.match(r"^r(\d+)$", text)
    if match and 0 <= int(match.group(1)) <= 15:
        return int(match.group(1))
    return None


def _parse_int(text: str, lineno: int) -> int:
    text = text.strip().lower().lstrip("#")
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    try:
        if text.startswith("0x"):
            value = int(text, 16)
        elif text.startswith("0b"):
            value = int(text, 2)
        elif text.startswith("'") and text.endswith("'") and len(text) == 3:
            value = ord(text[1])
        else:
            value = int(text, 10)
    except ValueError:
        raise AssemblerError(f"line {lineno}: bad integer {text!r}") from None
    return -value if negative else value


def _parse_reglist(text: str, lineno: int) -> int:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise AssemblerError(f"line {lineno}: expected register list, got {text!r}")
    registers = 0
    for part in text[1:-1].split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo_text, __, hi_text = part.partition("-")
            lo = _parse_reg(lo_text, lineno)
            hi = _parse_reg(hi_text, lineno)
            for reg in range(lo, hi + 1):
                registers |= 1 << reg
        else:
            registers |= 1 << _parse_reg(part, lineno)
    if registers == 0:
        raise AssemblerError(f"line {lineno}: empty register list")
    return registers


def _parse_address(text: str, lineno: int):
    """Parse an addressing mode.

    Returns (pre_indexed, rn, offset_text, writeback, post_offset_text).
    """
    text = text.strip()
    if not text.startswith("["):
        raise AssemblerError(f"line {lineno}: expected address, got {text!r}")
    close = text.find("]")
    if close < 0:
        raise AssemblerError(f"line {lineno}: missing ']' in {text!r}")
    inner = text[1:close]
    after = text[close + 1:].strip()
    parts = [part.strip() for part in inner.split(",", 1)]
    rn = _parse_reg(parts[0], lineno)
    offset_text = parts[1] if len(parts) > 1 else ""
    if after == "!":
        return True, rn, offset_text, True, None
    if after.startswith(","):
        return False, rn, "", False, after[1:].strip()
    if after:
        raise AssemblerError(f"line {lineno}: trailing junk {after!r}")
    return True, rn, offset_text, False, None


def _flip_for_immediate(op: Op, value: int) -> Optional[Tuple[Op, int]]:
    """Re-express an unencodable immediate via the complementary opcode."""
    complements = {
        Op.MOV: (Op.MVN, ~value),
        Op.MVN: (Op.MOV, ~value),
        Op.ADD: (Op.SUB, -value),
        Op.SUB: (Op.ADD, -value),
        Op.CMP: (Op.CMN, -value),
        Op.CMN: (Op.CMP, -value),
        Op.AND: (Op.BIC, ~value),
        Op.BIC: (Op.AND, ~value),
    }
    if op not in complements:
        return None
    new_op, new_value = complements[op]
    try:
        encode_arm_immediate(new_value)
    except ValueError:
        return None
    return new_op, u32(new_value)
