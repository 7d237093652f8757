"""Class, field and method models plus the method-builder authoring API.

Class names use JVM descriptor syntax (``Lcom/tencent/tccsync/LoginUtil;``)
and method *shorties* follow Dalvik: the first character is the return
type, the rest are parameter types, with ``L`` for any reference — e.g. the
paper's ``makeLoginRequestPackageMd5`` has shorty ``IILLLLLLLLII``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import DalvikError
from repro.dalvik.instructions import Ins, Op

ACC_PUBLIC = 0x0001
ACC_STATIC = 0x0008
ACC_NATIVE = 0x0100


@dataclass
class Field:
    """A field definition: ``type_char`` is a shorty char (I, L, ...)."""

    name: str
    type_char: str = "I"

    @property
    def is_reference(self) -> bool:
        return self.type_char == "L"


class Method:
    """A Dalvik method: interpreted bytecode or a native stub."""

    def __init__(self, class_name: str, name: str, shorty: str,
                 access_flags: int = ACC_PUBLIC,
                 code: Optional[List[Ins]] = None,
                 registers_size: int = 0) -> None:
        self.class_name = class_name
        self.name = name
        self.shorty = shorty
        self.access_flags = access_flags
        self.code = code or []
        # ins = declared params (+1 for "this" on non-static methods).
        self.ins_size = len(shorty) - 1 + (0 if self.is_static else 1)
        self.registers_size = max(registers_size, self.ins_size)
        self.native_address = 0
        # try/catch: (start_index, end_index_exclusive, handler_index).
        self.catch_ranges: List[Tuple[int, int, int]] = []

    @property
    def is_static(self) -> bool:
        return bool(self.access_flags & ACC_STATIC)

    @property
    def is_native(self) -> bool:
        return bool(self.access_flags & ACC_NATIVE)

    @property
    def return_type(self) -> str:
        return self.shorty[0]

    @property
    def full_name(self) -> str:
        return f"{self.class_name}->{self.name}"

    def param_types(self) -> str:
        """Parameter shorty chars, with 'L' prefixed for ``this``."""
        params = self.shorty[1:]
        return params if self.is_static else "L" + params

    def jni_symbol(self) -> str:
        """The ``Java_pkg_Class_method`` symbol the JNI loader binds."""
        cls = self.class_name.strip("L;").replace("/", "_")
        return f"Java_{cls}_{self.name}"

    def __repr__(self) -> str:
        kind = "native " if self.is_native else ""
        return f"<{kind}method {self.full_name} {self.shorty}>"


class ClassDef:
    """A loaded class: fields, methods, static storage."""

    def __init__(self, name: str, superclass: Optional[str] = None) -> None:
        if not (name.startswith("L") and name.endswith(";")):
            raise DalvikError(f"bad class descriptor {name!r}")
        self.name = name
        self.superclass = superclass
        self.instance_fields: Dict[str, Field] = {}
        self.static_fields: Dict[str, Field] = {}
        # Static storage is (value, taint) like TaintDroid's interleaved
        # static field area.
        self.static_values: Dict[str, List[int]] = {}
        self.static_ref_flags: Dict[str, bool] = {}
        self.methods: Dict[str, Method] = {}
        # What :meth:`restore` returns to; None until the first record.
        self._checkpoint: Optional[Tuple] = None

    def checkpoint(self) -> None:
        """Record what a run can change: statics and native bindings."""
        self._checkpoint = (
            {name: tuple(value) for name, value in self.static_values.items()},
            dict(self.static_ref_flags),
            tuple((method, method.native_address)
                  for method in self.methods.values() if method.is_native))

    def restore(self) -> None:
        """Back to the last :meth:`checkpoint`; the first call, with none
        taken, records one instead (the class as it was built)."""
        if self._checkpoint is None:
            self.checkpoint()
            return
        values, flags, natives = self._checkpoint
        self.static_values = {name: list(value)
                              for name, value in values.items()}
        self.static_ref_flags = dict(flags)
        for method, address in natives:
            method.native_address = address

    def add_instance_field(self, name: str, type_char: str = "I") -> Field:
        field_def = Field(name, type_char)
        self.instance_fields[name] = field_def
        return field_def

    def add_static_field(self, name: str, type_char: str = "I") -> Field:
        field_def = Field(name, type_char)
        self.static_fields[name] = field_def
        self.static_values[name] = [0, 0]
        self.static_ref_flags[name] = field_def.is_reference
        return field_def

    def add_method(self, method: Method) -> Method:
        self.methods[method.name] = method
        return method

    def method(self, name: str) -> Method:
        found = self.methods.get(name)
        if found is None:
            raise DalvikError(f"no method {name!r} in {self.name}")
        return found


class MethodBuilder:
    """Fluent builder for authoring method bytecode with labels.

    >>> builder = MethodBuilder("LFoo;", "answer", "I", static=True)
    >>> builder.const(0, 42).ret(0)          # doctest: +ELLIPSIS
    <repro.dalvik.classes.MethodBuilder object at ...>
    >>> method = builder.build()
    >>> method.registers_size >= 1
    True
    """

    def __init__(self, class_name: str, name: str, shorty: str,
                 static: bool = False, native: bool = False,
                 registers: int = 0) -> None:
        flags = ACC_PUBLIC
        if static:
            flags |= ACC_STATIC
        if native:
            flags |= ACC_NATIVE
        self._method = Method(class_name, name, shorty, flags,
                              registers_size=registers)
        self._code: List[Ins] = []
        self._labels: Dict[str, int] = {}
        self._catches: List[Tuple[str, str, str]] = []
        self._max_register = -1

    # -- low-level ------------------------------------------------------------

    def emit(self, ins: Ins) -> "MethodBuilder":
        for register in (ins.a, ins.b, ins.c, *ins.args):
            self._max_register = max(self._max_register, register)
        self._code.append(ins)
        return self

    def label(self, name: str) -> "MethodBuilder":
        if name in self._labels:
            raise DalvikError(f"duplicate label {name!r}")
        self._labels[name] = len(self._code)
        return self

    def catch_range(self, start: str, end: str,
                    handler: str) -> "MethodBuilder":
        self._catches.append((start, end, handler))
        return self

    # -- instruction shorthands --------------------------------------------------

    def nop(self):
        return self.emit(Ins(Op.NOP))

    def const(self, a: int, value: int):
        return self.emit(Ins(Op.CONST, a=a, literal=value))

    def const_string(self, a: int, text: str):
        return self.emit(Ins(Op.CONST_STRING, a=a, literal=text))

    def move(self, a: int, b: int):
        return self.emit(Ins(Op.MOVE, a=a, b=b))

    def move_object(self, a: int, b: int):
        return self.emit(Ins(Op.MOVE_OBJECT, a=a, b=b))

    def move_result(self, a: int):
        return self.emit(Ins(Op.MOVE_RESULT, a=a))

    def move_result_object(self, a: int):
        return self.emit(Ins(Op.MOVE_RESULT_OBJECT, a=a))

    def move_exception(self, a: int):
        return self.emit(Ins(Op.MOVE_EXCEPTION, a=a))

    def ret_void(self):
        return self.emit(Ins(Op.RETURN_VOID))

    def ret(self, a: int):
        return self.emit(Ins(Op.RETURN, a=a))

    def ret_object(self, a: int):
        return self.emit(Ins(Op.RETURN_OBJECT, a=a))

    def binop(self, op: Op, a: int, b: int, c: int):
        return self.emit(Ins(op, a=a, b=b, c=c))

    def add_lit(self, a: int, b: int, literal: int):
        return self.emit(Ins(Op.ADD_INT_LIT, a=a, b=b, literal=literal))

    def neg(self, a: int, b: int):
        return self.emit(Ins(Op.NEG_INT, a=a, b=b))

    def new_instance(self, a: int, class_name: str):
        return self.emit(Ins(Op.NEW_INSTANCE, a=a, symbol=class_name))

    def new_array(self, a: int, size_reg: int, element_type: str = "I"):
        return self.emit(Ins(Op.NEW_ARRAY, a=a, b=size_reg,
                             symbol=element_type))

    def array_length(self, a: int, b: int):
        return self.emit(Ins(Op.ARRAY_LENGTH, a=a, b=b))

    def aget(self, a: int, array: int, index: int, obj: bool = False):
        return self.emit(Ins(Op.AGET_OBJECT if obj else Op.AGET,
                             a=a, b=array, c=index))

    def aput(self, a: int, array: int, index: int, obj: bool = False):
        return self.emit(Ins(Op.APUT_OBJECT if obj else Op.APUT,
                             a=a, b=array, c=index))

    def iget(self, a: int, obj: int, field_name: str, ref: bool = False):
        return self.emit(Ins(Op.IGET_OBJECT if ref else Op.IGET,
                             a=a, b=obj, symbol=field_name))

    def iput(self, a: int, obj: int, field_name: str, ref: bool = False):
        return self.emit(Ins(Op.IPUT_OBJECT if ref else Op.IPUT,
                             a=a, b=obj, symbol=field_name))

    def sget(self, a: int, symbol: str, ref: bool = False):
        return self.emit(Ins(Op.SGET_OBJECT if ref else Op.SGET,
                             a=a, symbol=symbol))

    def sput(self, a: int, symbol: str, ref: bool = False):
        return self.emit(Ins(Op.SPUT_OBJECT if ref else Op.SPUT,
                             a=a, symbol=symbol))

    def invoke_virtual(self, symbol: str, *args: int):
        return self.emit(Ins(Op.INVOKE_VIRTUAL, symbol=symbol,
                             args=tuple(args)))

    def invoke_static(self, symbol: str, *args: int):
        return self.emit(Ins(Op.INVOKE_STATIC, symbol=symbol,
                             args=tuple(args)))

    def invoke_direct(self, symbol: str, *args: int):
        return self.emit(Ins(Op.INVOKE_DIRECT, symbol=symbol,
                             args=tuple(args)))

    def goto(self, target: str):
        return self.emit(Ins(Op.GOTO, target=target))

    def if_cmp(self, op: Op, a: int, b: int, target: str):
        return self.emit(Ins(op, a=a, b=b, target=target))

    def if_z(self, op: Op, a: int, target: str):
        return self.emit(Ins(op, a=a, target=target))

    def throw(self, a: int):
        return self.emit(Ins(Op.THROW, a=a))

    def string_concat(self, a: int, b: int, c: int):
        return self.emit(Ins(Op.STRING_CONCAT, a=a, b=b, c=c))

    def int_to_string(self, a: int, b: int):
        return self.emit(Ins(Op.INT_TO_STRING, a=a, b=b))

    # -- finalisation ---------------------------------------------------------------

    def build(self) -> Method:
        method = self._method
        if method.is_native:
            if self._code:
                raise DalvikError("native methods must not carry bytecode")
            return method
        for ins in self._code:
            if ins.target is not None:
                if ins.target not in self._labels:
                    raise DalvikError(f"undefined label {ins.target!r}")
                ins.target_index = self._labels[ins.target]
        for start, end, handler in self._catches:
            try:
                method.catch_ranges.append(
                    (self._labels[start], self._labels[end],
                     self._labels[handler]))
            except KeyError as missing:
                raise DalvikError(f"undefined catch label {missing}") from None
        method.code = list(self._code)
        needed = max(self._max_register + 1, method.ins_size)
        method.registers_size = max(method.registers_size, needed)
        return method
