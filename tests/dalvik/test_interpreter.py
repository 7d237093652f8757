"""Interpreter tests: bytecode semantics and TaintDroid propagation."""

import pytest

from repro.common.errors import DalvikError
from repro.common.taint import TAINT_CONTACTS, TAINT_IMEI, TAINT_SMS
from repro.dalvik import ClassDef, DalvikVM, MethodBuilder, Op
from repro.dalvik.heap import Slot
from repro.dalvik.interpreter import PendingException
from repro.memory import Memory


@pytest.fixture
def vm():
    return DalvikVM(Memory())


def build_class(vm, name="LTest;"):
    class_def = ClassDef(name)
    vm.register_class(class_def)
    return class_def


class TestBasics:
    def test_const_and_return(self, vm):
        cls = build_class(vm)
        cls.add_method(MethodBuilder("LTest;", "answer", "I", static=True)
                       .const(0, 42).ret(0).build())
        result = vm.call_main("LTest;->answer")
        assert result.value == 42
        assert result.taint == 0

    def test_arguments_land_in_high_registers(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "addmul", "III", static=True,
                                registers=5)
        # ins (2) land in v3, v4.
        builder.binop(Op.ADD_INT, 0, 3, 4)
        builder.binop(Op.MUL_INT, 0, 0, 4)
        builder.ret(0)
        cls.add_method(builder.build())
        result = vm.call_main("LTest;->addmul", [Slot(3), Slot(4)])
        assert result.value == 28

    def test_all_binops(self, vm):
        cases = [
            (Op.ADD_INT, 7, 3, 10), (Op.SUB_INT, 7, 3, 4),
            (Op.MUL_INT, 7, 3, 21), (Op.DIV_INT, 7, 3, 2),
            (Op.REM_INT, 7, 3, 1), (Op.AND_INT, 0b1100, 0b1010, 0b1000),
            (Op.OR_INT, 0b1100, 0b1010, 0b1110),
            (Op.XOR_INT, 0b1100, 0b1010, 0b0110),
            (Op.SHL_INT, 1, 4, 16), (Op.SHR_INT, 16, 2, 4),
            (Op.USHR_INT, -16, 28, 15),
        ]
        cls = build_class(vm)
        for index, (op, a, b, expected) in enumerate(cases):
            name = f"op{index}"
            builder = MethodBuilder("LTest;", name, "III", static=True,
                                    registers=5)
            builder.binop(op, 0, 3, 4).ret(0)
            cls.add_method(builder.build())
            result = vm.call_main(f"LTest;->{name}",
                                  [Slot(a & 0xFFFFFFFF), Slot(b & 0xFFFFFFFF)])
            assert result.value == expected & 0xFFFFFFFF, op

    def test_c_style_division_truncates_toward_zero(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "div", "III", static=True,
                                registers=5)
        builder.binop(Op.DIV_INT, 0, 3, 4).ret(0)
        cls.add_method(builder.build())
        result = vm.call_main("LTest;->div",
                              [Slot((-7) & 0xFFFFFFFF), Slot(2)])
        assert result.value == (-3) & 0xFFFFFFFF

    def test_control_flow_loop(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "sum_to", "II", static=True,
                                registers=4)
        # v0 = acc, v1 = i, v3 = n (in)
        builder.const(0, 0).const(1, 0)
        builder.label("loop")
        builder.if_cmp(Op.IF_GE, 1, 3, "done")
        builder.binop(Op.ADD_INT, 0, 0, 1)
        builder.add_lit(1, 1, 1)
        builder.goto("loop")
        builder.label("done")
        builder.ret(0)
        cls.add_method(builder.build())
        assert vm.call_main("LTest;->sum_to", [Slot(5)]).value == 10

    def test_nested_invoke_static(self, vm):
        cls = build_class(vm)
        cls.add_method(MethodBuilder("LTest;", "double_", "II", static=True,
                                     registers=3)
                       .binop(Op.ADD_INT, 0, 2, 2).ret(0).build())
        builder = MethodBuilder("LTest;", "quad", "II", static=True,
                                registers=3)
        builder.invoke_static("LTest;->double_", 2)
        builder.move_result(0)
        builder.invoke_static("LTest;->double_", 0)
        builder.move_result(0)
        builder.ret(0)
        cls.add_method(builder.build())
        assert vm.call_main("LTest;->quad", [Slot(3)]).value == 12

    def test_virtual_dispatch_on_runtime_class(self, vm):
        base = build_class(vm, "LBase;")
        base.add_method(MethodBuilder("LBase;", "id", "I")
                        .const(0, 1).ret(0).build())
        derived = ClassDef("LDerived;", superclass="LBase;")
        derived.add_method(MethodBuilder("LDerived;", "id", "I")
                           .const(0, 2).ret(0).build())
        vm.register_class(derived)
        obj = vm.new_instance("LDerived;")
        result = vm.invoke_symbol("LBase;->id",
                                  [Slot(obj.address, 0, True)], virtual=True)
        assert result.value == 2

    def test_fields_roundtrip(self, vm):
        cls = build_class(vm)
        cls.add_instance_field("count", "I")
        builder = MethodBuilder("LTest;", "bump", "IL", registers=4)
        # this in v2 (reg 2), arg none... shorty "IL": return I, one L param
        # non-static: ins = this + 1 -> v2=this, v3=param
        builder.iget(0, 3, "count")
        builder.add_lit(0, 0, 1)
        builder.iput(0, 3, "count")
        builder.ret(0)
        cls.add_method(builder.build())
        obj = vm.new_instance("LTest;")
        this = vm.new_instance("LTest;")
        result = vm.invoke_symbol(
            "LTest;->bump",
            [Slot(this.address, 0, True), Slot(obj.address, 0, True)])
        assert result.value == 1
        assert obj.fields["count"].value == 1

    def test_static_fields(self, vm):
        cls = build_class(vm)
        cls.add_static_field("counter", "I")
        builder = MethodBuilder("LTest;", "incr", "I", static=True)
        builder.sget(0, "LTest;->counter")
        builder.add_lit(0, 0, 1)
        builder.sput(0, "LTest;->counter")
        builder.ret(0)
        cls.add_method(builder.build())
        assert vm.call_main("LTest;->incr").value == 1
        assert vm.call_main("LTest;->incr").value == 2

    def test_arrays(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "arr", "I", static=True,
                                registers=5)
        builder.const(1, 3)
        builder.new_array(0, 1, "I")
        builder.const(2, 0).const(3, 11)
        builder.aput(3, 0, 2)
        builder.aget(4, 0, 2)
        builder.array_length(1, 0)
        builder.binop(Op.ADD_INT, 0, 4, 1)
        builder.ret(0)
        cls.add_method(builder.build())
        assert vm.call_main("LTest;->arr").value == 14

    def test_strings(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "hello", "L", static=True,
                                registers=3)
        builder.const_string(0, "hello ")
        builder.const_string(1, "world")
        builder.string_concat(2, 0, 1)
        builder.ret_object(2)
        cls.add_method(builder.build())
        result = vm.call_main("LTest;->hello")
        assert vm.string_at(result.value) == "hello world"

    def test_int_to_string(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "fmt", "LI", static=True,
                                registers=3)
        builder.int_to_string(0, 2)
        builder.ret_object(0)
        cls.add_method(builder.build())
        result = vm.call_main("LTest;->fmt", [Slot((-5) & 0xFFFFFFFF)])
        assert vm.string_at(result.value) == "-5"

    def test_intrinsic_dispatch(self, vm):
        vm.register_intrinsic("LFake;->three",
                              lambda vm_, args: Slot(3))
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "call", "I", static=True)
        builder.invoke_static("LFake;->three")
        builder.move_result(0)
        builder.ret(0)
        cls.add_method(builder.build())
        assert vm.call_main("LTest;->call").value == 3


class TestExceptions:
    def _thrower(self, vm, catch=False):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "boom", "I", static=True,
                                registers=4)
        if catch:
            builder.label("try_start")
        builder.new_instance(0, "Ljava/lang/RuntimeException;")
        builder.throw(0)
        if catch:
            builder.label("try_end")
            builder.const(1, 0)  # unreachable
            builder.label("handler")
            builder.move_exception(2)
            builder.const(1, 77)
            builder.ret(1)
            builder.catch_range("try_start", "try_end", "handler")
        cls.add_method(builder.build())

    def test_uncaught_exception_propagates(self, vm):
        vm.register_class(ClassDef("Ljava/lang/RuntimeException;"))
        self._thrower(vm, catch=False)
        with pytest.raises(PendingException):
            vm.call_main("LTest;->boom")

    def test_caught_exception_runs_handler(self, vm):
        vm.register_class(ClassDef("Ljava/lang/RuntimeException;"))
        self._thrower(vm, catch=True)
        assert vm.call_main("LTest;->boom").value == 77

    def test_divide_by_zero_throws(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "div0", "I", static=True,
                                registers=3)
        builder.const(0, 1).const(1, 0)
        builder.binop(Op.DIV_INT, 2, 0, 1).ret(2)
        cls.add_method(builder.build())
        with pytest.raises(PendingException) as exc_info:
            vm.call_main("LTest;->div0")
        assert "Arithmetic" in exc_info.value.class_name

    def test_array_bounds_throws(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "oob", "I", static=True,
                                registers=4)
        builder.const(1, 2)
        builder.new_array(0, 1, "I")
        builder.const(2, 5)
        builder.aget(3, 0, 2)
        builder.ret(3)
        cls.add_method(builder.build())
        with pytest.raises(PendingException):
            vm.call_main("LTest;->oob")

    def test_null_field_access_throws(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "npe", "I", static=True,
                                registers=3)
        builder.const(0, 0)
        builder.iget(1, 0, "anything")
        builder.ret(1)
        cls.add_method(builder.build())
        with pytest.raises(PendingException):
            vm.call_main("LTest;->npe")


class TestTaintPropagation:
    """TaintDroid's per-instruction policy (Section II.B)."""

    def test_move_copies_taint(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "mv", "II", static=True,
                                registers=3)
        builder.move(0, 2).ret(0)
        cls.add_method(builder.build())
        result = vm.call_main("LTest;->mv", [Slot(5, TAINT_IMEI)])
        assert result.taint == TAINT_IMEI

    def test_binop_unions_taint(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "mix", "III", static=True,
                                registers=5)
        builder.binop(Op.ADD_INT, 0, 3, 4).ret(0)
        cls.add_method(builder.build())
        result = vm.call_main("LTest;->mix",
                              [Slot(1, TAINT_SMS), Slot(2, TAINT_CONTACTS)])
        assert result.taint == TAINT_SMS | TAINT_CONTACTS == 0x202

    def test_const_clears_taint(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "clr", "II", static=True,
                                registers=3)
        builder.move(0, 2)
        builder.const(0, 9)
        builder.ret(0)
        cls.add_method(builder.build())
        assert vm.call_main("LTest;->clr", [Slot(5, TAINT_SMS)]).taint == 0

    def test_field_taint_roundtrip(self, vm):
        cls = build_class(vm)
        cls.add_instance_field("secret", "I")
        obj = vm.new_instance("LTest;")
        builder = MethodBuilder("LTest;", "store", "VLI", static=True,
                                registers=4)
        builder.iput(3, 2, "secret").ret_void()
        cls.add_method(builder.build())
        vm.call_main("LTest;->store",
                     [Slot(obj.address, 0, True), Slot(7, TAINT_IMEI)])
        assert obj.fields["secret"].taint == TAINT_IMEI

        builder = MethodBuilder("LTest;", "load", "IL", static=True,
                                registers=3)
        builder.iget(0, 2, "secret").ret(0)
        cls.add_method(builder.build())
        result = vm.call_main("LTest;->load", [Slot(obj.address, 0, True)])
        assert result.taint == TAINT_IMEI

    def test_array_object_carries_one_taint_label(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "arr", "II", static=True,
                                registers=6)
        builder.const(1, 2)
        builder.new_array(0, 1, "I")
        builder.const(2, 0)
        builder.aput(5, 0, 2)   # v5 = tainted in (reg 5)
        builder.const(3, 1)
        builder.const(4, 9)
        builder.aput(4, 0, 3)   # untainted element
        builder.aget(4, 0, 3)   # read the untainted element back
        builder.ret(4)
        cls.add_method(builder.build())
        result = vm.call_main("LTest;->arr", [Slot(1, TAINT_SMS)])
        # One label per array: even the "clean" element reads back tainted.
        assert result.taint == TAINT_SMS

    def test_string_concat_unions_string_taints(self, vm):
        tainted = vm.heap.alloc_string("IMEI=356938", TAINT_IMEI)
        clean = vm.heap.alloc_string("&x=1")
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "cat", "LLL", static=True,
                                registers=5)
        builder.string_concat(0, 3, 4)
        builder.ret_object(0)
        cls.add_method(builder.build())
        result = vm.call_main("LTest;->cat", [
            Slot(tainted.address, 0, True), Slot(clean.address, 0, True)])
        assert vm.heap.get(result.value).taint == TAINT_IMEI

    def test_return_taint_reaches_caller_via_interp_save_state(self, vm):
        cls = build_class(vm)
        builder = MethodBuilder("LTest;", "source", "I", static=True,
                                registers=1)
        builder.const(0, 99).ret(0)
        source = builder.build()
        # Manually taint by intrinsic instead: simpler path below.
        vm.register_intrinsic("LTest;->tainted_source",
                              lambda vm_, args: Slot(1234, TAINT_IMEI))
        caller = MethodBuilder("LTest;", "caller", "I", static=True,
                               registers=2)
        caller.invoke_static("LTest;->tainted_source")
        caller.move_result(0)
        caller.ret(0)
        cls.add_method(source)
        cls.add_method(caller.build())
        result = vm.call_main("LTest;->caller")
        assert result.value == 1234
        assert result.taint == TAINT_IMEI


class TestErrors:
    def test_unresolved_method(self, vm):
        with pytest.raises(DalvikError):
            vm.call_main("LMissing;->nope")

    def test_bad_ins_count(self, vm):
        cls = build_class(vm)
        cls.add_method(MethodBuilder("LTest;", "one", "II", static=True,
                                     registers=2)
                       .ret(1).build())
        with pytest.raises(DalvikError):
            vm.call_main("LTest;->one", [])

    def test_native_without_bridge(self, vm):
        cls = build_class(vm)
        cls.add_method(MethodBuilder("LTest;", "nat", "I", static=True,
                                     native=True).build())
        with pytest.raises(DalvikError):
            vm.call_main("LTest;->nat")

    def test_undefined_label_rejected(self, vm):
        builder = MethodBuilder("LTest;", "bad", "V", static=True)
        builder.goto("nowhere")
        with pytest.raises(DalvikError):
            builder.build()
