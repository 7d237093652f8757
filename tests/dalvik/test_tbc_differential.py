"""Differential parity: trace-compiled Dalvik blocks vs the single-step oracle.

Every program below runs twice — once on a plain VM (the single-step
interpreter) and once on a VM with the trace compiler enabled — and must
produce identical results: return value and taint, every popped frame's
taint flag, slot values, taint words and ref flags, heap/static slot
values and taints, executed-instruction counts, and byte-identical
provenance-ledger edges.  The suite also replays all 11 taint-parity
scenarios end-to-end through both engines, and exercises the mid-trace
first-taint variant switch (a clean block escalating to the tainted
variant partway through).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.emulator_bench import PARITY_SCENARIOS, EmulatorBench
from repro.common.errors import DalvikError
from repro.common.taint import (TAINT_CLEAR, TAINT_CONTACTS, TAINT_IMEI,
                                TAINT_SMS)
from repro.dalvik import ClassDef, DalvikVM, MethodBuilder, Op
from repro.dalvik.heap import Slot
from repro.dalvik.instructions import (BINARY_OPS, COMPARE_OPS,
                                       COMPARE_Z_OPS, Ins)
from repro.dalvik.interpreter import PendingException
from repro.dalvik.stack import DVM_STACK_BASE, SLOT_SIZE
from repro.memory import Memory
from repro.memory.memory import PAGE_SHIFT
from repro.observability.ledger import ProvenanceLedger


def _fresh_vms():
    """(oracle, compiled): identical VMs, separate memories, one with TBC.

    Both VMs allocate frames/objects at the same deterministic guest
    addresses, so even address-bearing ledger locations must match.
    """
    oracle = DalvikVM(Memory())
    compiled = DalvikVM(Memory())
    compiled.enable_trace_compiler()
    return oracle, compiled


def run_both(make_class, symbol, make_args=lambda: [], setup=None):
    """Run the program on both engines and assert full-state parity."""
    outcomes = []
    popped = []
    for vm in _fresh_vms():
        popped.append(watch_popped_frames(vm))
        vm.ledger = ProvenanceLedger()
        vm.register_class(make_class())
        if setup is not None:
            setup(vm)
        try:
            result = vm.call_main(symbol, make_args())
            outcome = ("ok", result.value, result.taint, result.is_ref)
        except DalvikError as error:
            outcome = ("dalvik-error", str(error))
        except PendingException as pending:
            outcome = ("uncaught", pending.class_name,
                       pending.exception_address, pending.taint)
        outcomes.append((vm, outcome))
    (oracle, oracle_out), (compiled, compiled_out) = outcomes
    assert compiled.tbc is not None and oracle.tbc is None
    assert compiled_out == oracle_out
    assert popped[1] == popped[0]
    if oracle_out[0] != "dalvik-error":
        assert compiled.dalvik_instructions == oracle.dalvik_instructions
    assert [edge.to_dict() for edge in compiled.ledger] == \
        [edge.to_dict() for edge in oracle.ledger]
    assert _heap_state(compiled) == _heap_state(oracle)
    assert _static_state(compiled) == _static_state(oracle)
    return oracle, compiled


def watch_popped_frames(vm):
    """Snapshot every frame as it is popped, in pop order: its method,
    its sticky ``maybe_tainted`` flag and, per register, the slot's
    value, taint word and ref flag (read before the pop, while the
    slots are live)."""
    popped = []
    stack = vm.stack
    pop_frame = stack.pop_frame

    def watched():
        frame = stack.frames[-1]
        popped.append((frame.method.full_name, frame.maybe_tainted, [
            (frame.get(register), frame.get_taint(register),
             frame.ref_flags[register])
            for register in range(frame.register_count)]))
        return pop_frame()

    stack.pop_frame = watched
    return popped


def _slot_state(slot):
    return slot.value, slot.taint, slot.is_ref


def _heap_state(vm):
    """Every heap object, by address: its fields, elements and taint."""
    return {
        address: (record.class_name, record.kind, record.taint, record.text,
                  {name: _slot_state(slot)
                   for name, slot in record.fields.items()},
                  [_slot_state(slot) for slot in record.elements])
        for address, record in vm.heap._objects.items()}


def _static_state(vm):
    """Every registered class's static fields: value, taint, ref flag."""
    return {
        name: {field: (tuple(values), class_def.static_ref_flags[field])
               for field, values in class_def.static_values.items()}
        for name, class_def in vm.classes.items()}


class TestStraightLineParity:
    def test_arithmetic_and_literals_clean(self):
        def make_class():
            cls = ClassDef("LT;")
            b = MethodBuilder("LT;", "main", "III", static=True, registers=8)
            b.binop(Op.ADD_INT, 0, 6, 7)
            b.binop(Op.XOR_INT, 1, 0, 6)
            b.binop(Op.MUL_INT, 2, 1, 7)
            b.add_lit(3, 2, 17)
            b.neg(4, 3)
            b.binop(Op.SUB_INT, 5, 4, 0)
            b.binop(Op.USHR_INT, 0, 5, 6)
            b.ret(0)
            cls.add_method(b.build())
            return cls
        run_both(make_class, "LT;->main",
                 lambda: [Slot(5), Slot((-3) & 0xFFFF_FFFF)])

    def test_tainted_arg_propagates_through_binops_and_moves(self):
        def make_class():
            cls = ClassDef("LT;")
            b = MethodBuilder("LT;", "main", "III", static=True, registers=6)
            b.binop(Op.ADD_INT, 0, 4, 5)
            b.move(1, 0)
            b.binop(Op.AND_INT, 2, 1, 4)
            b.int_to_string(3, 2)
            b.string_concat(3, 3, 3)
            b.ret_object(3)
            cls.add_method(b.build())
            return cls
        oracle, compiled = run_both(
            make_class, "LT;->main",
            lambda: [Slot(0x1234, TAINT_IMEI), Slot(7)])
        # The move recorded a ledger edge on both engines.
        assert any(edge.mechanism == "dalvik:move" for edge in compiled.ledger)
        assert len(compiled.ledger) == len(oracle.ledger) > 0

    def test_loop_with_invoke_and_move_result(self):
        def make_class():
            cls = ClassDef("LT;")
            cls.add_method(
                MethodBuilder("LT;", "bump", "II", static=True, registers=3)
                .add_lit(0, 2, 3).ret(0).build())
            b = MethodBuilder("LT;", "main", "II", static=True, registers=4)
            b.const(0, 0).const(1, 0)
            b.label("loop")
            b.if_cmp(Op.IF_GE, 1, 3, "done")
            b.invoke_static("LT;->bump", 0)
            b.move_result(0)
            b.add_lit(1, 1, 1)
            b.goto("loop")
            b.label("done")
            b.ret(0)
            cls.add_method(b.build())
            return cls
        run_both(make_class, "LT;->main", lambda: [Slot(25)])

    def test_tainted_invoke_result_flows_back(self):
        def make_class():
            cls = ClassDef("LT;")
            cls.add_method(
                MethodBuilder("LT;", "ident", "II", static=True, registers=3)
                .move(0, 2).ret(0).build())
            b = MethodBuilder("LT;", "main", "II", static=True, registers=3)
            b.invoke_static("LT;->ident", 2)
            b.move_result(0)
            b.add_lit(0, 0, 1)
            b.ret(0)
            cls.add_method(b.build())
            return cls
        run_both(make_class, "LT;->main", lambda: [Slot(41, TAINT_SMS)])


class TestHeapParity:
    def test_fields_roundtrip_with_taint(self):
        def make_class():
            cls = ClassDef("LT;")
            cls.add_instance_field("x")
            b = MethodBuilder("LT;", "main", "II", static=True, registers=4)
            b.new_instance(0, "LT;")
            b.iput(3, 0, "x")
            b.iget(1, 0, "x")
            b.add_lit(1, 1, 5)
            b.ret(1)
            cls.add_method(b.build())
            return cls
        oracle, compiled = run_both(
            make_class, "LT;->main", lambda: [Slot(9, TAINT_CONTACTS)])
        for vm in (oracle, compiled):
            record = next(r for r in vm.heap._objects.values()
                          if r.class_name == "LT;" and not r.is_string)
            assert record.fields["x"].value == 9
            assert record.fields["x"].taint == TAINT_CONTACTS

    def test_arrays_roundtrip_with_taint_union(self):
        def make_class():
            cls = ClassDef("LT;")
            b = MethodBuilder("LT;", "main", "II", static=True, registers=6)
            b.const(0, 4)
            b.new_array(1, 0)
            b.const(2, 1)              # index
            b.aput(5, 1, 2)            # tainted store -> array label union
            b.aget(3, 1, 2)
            b.array_length(4, 1)
            b.binop(Op.ADD_INT, 3, 3, 4)
            b.ret(3)
            cls.add_method(b.build())
            return cls
        run_both(make_class, "LT;->main", lambda: [Slot(30, TAINT_IMEI)])

    def test_statics_roundtrip(self):
        def make_class():
            cls = ClassDef("LT;")
            cls.add_static_field("acc")
            b = MethodBuilder("LT;", "main", "II", static=True, registers=3)
            b.sput(2, "LT;->acc")
            b.sget(0, "LT;->acc")
            b.add_lit(0, 0, 100)
            b.ret(0)
            cls.add_method(b.build())
            return cls
        oracle, compiled = run_both(
            make_class, "LT;->main", lambda: [Slot(11, TAINT_SMS)])
        for vm in (oracle, compiled):
            assert vm.get_static("LT;->acc") == (11, TAINT_SMS)


class TestExceptionParity:
    def test_caught_throw_and_move_exception(self):
        def make_class():
            cls = ClassDef("LBoom;")
            cls.add_instance_field("message")
            b = MethodBuilder("LBoom;", "main", "II", static=True,
                              registers=4)
            b.label("try")
            b.new_instance(0, "LBoom;")
            b.throw(0)
            b.label("end")
            b.const(1, 0)
            b.ret(1)
            b.label("catch")
            b.move_exception(2)
            b.const(1, 7)
            b.ret(1)
            b.catch_range("try", "end", "catch")
            cls.add_method(b.build())
            return cls
        run_both(make_class, "LBoom;->main", lambda: [Slot(0)])

    def test_divide_by_zero_lands_in_handler(self):
        def make_class():
            cls = ClassDef("LT;")
            b = MethodBuilder("LT;", "main", "III", static=True, registers=5)
            b.label("try")
            b.binop(Op.DIV_INT, 0, 3, 4)
            b.label("end")
            b.ret(0)
            b.label("catch")
            b.const(0, 0xDEAD)
            b.ret(0)
            b.catch_range("try", "end", "catch")
            cls.add_method(b.build())
            return cls
        run_both(make_class, "LT;->main", lambda: [Slot(10), Slot(0)])
        run_both(make_class, "LT;->main", lambda: [Slot(10), Slot(2)])

    def test_uncaught_divide_by_zero_matches(self):
        def make_class():
            cls = ClassDef("LT;")
            b = MethodBuilder("LT;", "main", "III", static=True, registers=5)
            b.binop(Op.DIV_INT, 0, 3, 4)
            b.ret(0)
            cls.add_method(b.build())
            return cls
        from repro.dalvik.interpreter import PendingException
        for vm in _fresh_vms():
            vm.register_class(make_class())
            with pytest.raises(PendingException):
                vm.call_main("LT;->main", [Slot(1), Slot(0)])


class TestVariantSwitch:
    """The mid-trace first-taint escalation (clean block -> tainted)."""

    def _escalating_class(self):
        cls = ClassDef("LT;")
        cls.add_static_field("secret")
        b = MethodBuilder("LT;", "main", "II", static=True, registers=6)
        # Straight-line run: two clean ops, then taint enters mid-block
        # via sget, then two more ops that must propagate it.
        b.const(0, 10)
        b.binop(Op.ADD_INT, 1, 0, 5)
        b.sget(2, "LT;->secret")
        b.binop(Op.ADD_INT, 3, 1, 2)
        b.move(4, 3)
        b.ret(4)
        cls.add_method(b.build())
        return cls

    def test_first_taint_mid_block_switches_variant(self):
        def setup(vm):
            vm.set_static("LT;->secret", 99, TAINT_IMEI)
        oracle, compiled = run_both(
            self._escalating_class, "LT;->main",
            lambda: [Slot(1)], setup=setup)
        assert compiled.tbc.blocks_compiled > 0
        # The sticky flag flipped on the compiled frame mid-trace and the
        # taint reached the return value on both engines.
        result = compiled.call_main("LT;->main", [Slot(1)])
        assert result.value == 10 + 1 + 99
        assert result.taint == TAINT_IMEI

    def test_same_block_serves_clean_and_tainted_frames(self):
        """One compiled block must serve clean calls after a tainted one."""
        oracle, compiled = _fresh_vms()
        for vm in (oracle, compiled):
            vm.register_class(self._escalating_class())
        for secret_taint in (TAINT_IMEI, 0, TAINT_SMS, 0):
            for vm in (oracle, compiled):
                vm.set_static("LT;->secret", 50, secret_taint)
            expected_oracle = oracle.call_main("LT;->main", [Slot(2)])
            got_compiled = compiled.call_main("LT;->main", [Slot(2)])
            assert got_compiled.value == expected_oracle.value
            assert got_compiled.taint == expected_oracle.taint == secret_taint
        # The block was compiled once, not per call.
        assert compiled.tbc.blocks_compiled == len(
            [b for m in compiled.tbc._method_blocks.values()
             for b in m.values()])


class TestCacheInvalidation:
    def test_register_class_flushes_blocks(self):
        vm = DalvikVM(Memory())
        vm.enable_trace_compiler()
        cls = ClassDef("LT;")
        cls.add_method(MethodBuilder("LT;", "main", "I", static=True)
                       .const(0, 1).ret(0).build())
        vm.register_class(cls)
        assert vm.call_main("LT;->main").value == 1
        assert vm.tbc.cached_blocks > 0
        # Redefine: same symbol, new body.  The stale block must not run.
        cls2 = ClassDef("LT;")
        cls2.add_method(MethodBuilder("LT;", "main", "I", static=True)
                        .const(0, 2).ret(0).build())
        vm.register_class(cls2)
        assert vm.tbc.cached_blocks == 0
        assert vm.call_main("LT;->main").value == 2

    def test_listener_forces_single_step(self):
        vm = DalvikVM(Memory())
        vm.enable_trace_compiler()
        cls = ClassDef("LT;")
        cls.add_method(MethodBuilder("LT;", "main", "I", static=True)
                       .const(0, 3).ret(0).build())
        vm.register_class(cls)
        seen = []
        vm.interpreter.listener = lambda frame, ins: seen.append(ins.op)
        assert vm.call_main("LT;->main").value == 3
        # The listener saw every bytecode: the compiled path was bypassed.
        assert seen == [Op.CONST, Op.RETURN]
        assert vm.tbc.blocks_compiled == 0


class TestScenarioParity:
    """All 11 Table I / Fig. 6-9 scenarios: identical leak reports."""

    @pytest.mark.parametrize("name", PARITY_SCENARIOS)
    def test_scenario_parity(self, name):
        compiled = EmulatorBench._leak_report(name, True)
        single_step = EmulatorBench._leak_report(name, False)
        assert compiled == single_step


# -- generated method bodies --------------------------------------------------
#
# ``main(III)I`` has registers v0-v11: v0-v5 are the work registers the
# generated ops write, v6 the array index scratch, v7 an int[4] made in
# the prologue, v8 the exception object, v9-v11 the (tainted) ins.  Every
# branch is forward, so every body terminates.

CLASS = "LGen;"
WORK = tuple(range(6))
READ = WORK + (9, 10, 11)
LABELS = (TAINT_CLEAR, TAINT_IMEI, TAINT_SMS, TAINT_IMEI | TAINT_CONTACTS)
# A frame pushed first with this many registers leaves the stack pointer
# where main's slot area would cross a page (see test_page_crossing_*).
FILLER_REGISTERS = 500

_work = st.sampled_from(WORK)
_read = st.sampled_from(READ)
_ops = st.one_of(
    st.tuples(st.just("binop"), st.sampled_from(tuple(BINARY_OPS)),
              _work, _read, _read),
    st.tuples(st.just("lit"), st.sampled_from((Op.ADD_INT_LIT,
                                               Op.MUL_INT_LIT)),
              _work, _read, st.integers(-7, 7)),
    st.tuples(st.just("unary"), st.sampled_from((Op.NEG_INT, Op.NOT_INT)),
              _work, _read),
    st.tuples(st.just("const"), _work,
              st.sampled_from((0, 1, -1, 3, 0x7FFF_FFFF, -0x8000_0000))),
    st.tuples(st.just("move"), _work, _read),
    st.tuples(st.just("aget"), _work, st.integers(-1, 4)),
    st.tuples(st.just("aput"), _read, st.integers(-1, 4)),
    st.tuples(st.just("alen"), _work),
    st.tuples(st.just("invoke"), st.sampled_from(("mix", "quot")),
              _work, _read, _read),
    st.tuples(st.just("sget"), _work),
    st.tuples(st.just("sput"), _read),
    st.tuples(st.just("if"), st.sampled_from(tuple(COMPARE_OPS)),
              _read, _read, st.integers(0, 4)),
    st.tuples(st.just("ifz"), st.sampled_from(tuple(COMPARE_Z_OPS)),
              _read, st.integers(0, 4)),
    st.tuples(st.just("throw")),
)
_bodies = st.lists(_ops, min_size=1, max_size=24)
# Half the calls pass clean ins, so taint can first enter mid-block.
_args = st.lists(st.tuples(st.integers(-9, 9), st.sampled_from(LABELS)),
                 min_size=3, max_size=3) | st.lists(
    st.tuples(st.integers(-9, 9), st.just(TAINT_CLEAR)),
    min_size=3, max_size=3)


def generated_class(body, ret, caught):
    """``main`` from ``body``, plus its two callees: ``mix`` (xor, +1)
    and ``quot`` (a division that throws on zero)."""
    cls = ClassDef(CLASS)
    cls.add_static_field("secret")
    cls.add_method(MethodBuilder(CLASS, "mix", "III", static=True)
                   .binop(Op.XOR_INT, 0, 1, 2).add_lit(0, 0, 1).ret(0)
                   .build())
    cls.add_method(MethodBuilder(CLASS, "quot", "III", static=True)
                   .binop(Op.DIV_INT, 0, 1, 2).ret(0).build())
    b = MethodBuilder(CLASS, "main", "IIII", static=True, registers=12)
    b.const(6, 4).new_array(7, 6)
    b.label("try")
    targets = {}
    for index, op in enumerate(body):
        for label in targets.pop(index, ()):
            b.label(label)
        kind = op[0]
        if kind == "binop":
            b.binop(*op[1:])
        elif kind == "lit":
            b.emit(Ins(op[1], a=op[2], b=op[3], literal=op[4]))
        elif kind == "unary":
            b.emit(Ins(op[1], a=op[2], b=op[3]))
        elif kind == "const":
            b.const(op[1], op[2])
        elif kind == "move":
            b.move(op[1], op[2])
        elif kind == "aget":
            b.const(6, op[2]).aget(op[1], 7, 6)
        elif kind == "aput":
            b.const(6, op[2]).aput(op[1], 7, 6)
        elif kind == "alen":
            b.array_length(op[1], 7)
        elif kind == "invoke":
            b.invoke_static(f"{CLASS}->{op[1]}", op[3], op[4])
            b.move_result(op[2])
        elif kind == "sget":
            b.sget(op[1], f"{CLASS}->secret")
        elif kind == "sput":
            b.sput(op[1], f"{CLASS}->secret")
        elif kind in ("if", "ifz"):
            label = f"skip{index}"
            end = min(index + 1 + op[-1], len(body))
            targets.setdefault(end, []).append(label)
            if kind == "if":
                b.if_cmp(op[1], op[2], op[3], label)
            else:
                b.if_z(op[1], op[2], label)
        else:
            b.new_instance(8, CLASS).throw(8)
    for label in targets.pop(len(body), ()):
        b.label(label)
    b.label("end")
    b.ret(ret)
    b.label("catch")
    b.move_exception(8)
    b.ret(ret)
    if caught:
        b.catch_range("try", "end", "catch")
    cls.add_method(b.build())
    return cls


def record_pushes(vm, pushes):
    """Note each pushed frame's (fp, register count)."""
    push_frame = vm.stack.push_frame

    def recorded(method):
        frame = push_frame(method)
        pushes.append((frame.fp, frame.register_count))
        return frame

    vm.stack.push_frame = recorded


def run_generated(body, args, ret, caught, secret, crossing=False):
    pushes = []

    def setup(vm):
        vm.set_static(f"{CLASS}->secret", *secret)
        if crossing:
            vm.stack.push_frame(
                MethodBuilder(CLASS, "filler", "V", static=True,
                              registers=FILLER_REGISTERS).ret_void().build())
        record_pushes(vm, pushes)

    run_both(lambda: generated_class(body, ret, caught), f"{CLASS}->main",
             lambda: [Slot(value & 0xFFFF_FFFF, taint)
                      for value, taint in args], setup=setup)
    for fp, registers in pushes:
        last = fp + SLOT_SIZE * registers - 1
        assert fp >> PAGE_SHIFT == last >> PAGE_SHIFT
    return pushes


class TestGeneratedBodies:
    """Hypothesis-generated method bodies through both engines.

    Derandomized, with a fixed example count and no example database, so
    every run checks the same bodies; the ``@example`` rows pin the cases
    named in the class doc of this module and a page-crossing frame."""

    @settings(max_examples=150, derandomize=True, deadline=None,
              database=None)
    @given(body=_bodies, args=_args, ret=st.sampled_from(READ),
           caught=st.booleans(),
           secret=st.tuples(st.integers(0, 5), st.sampled_from(LABELS)))
    # Division by zero, caught and uncaught.
    @example(body=[("binop", Op.DIV_INT, 0, 9, 1)],
             args=[(4, 0), (0, 0), (0, 0)], ret=0, caught=True,
             secret=(0, 0))
    @example(body=[("binop", Op.REM_INT, 0, 9, 1)],
             args=[(4, TAINT_SMS), (0, 0), (0, 0)], ret=0, caught=False,
             secret=(0, 0))
    # A thrown object, caught and uncaught, after a tainted move.
    @example(body=[("move", 0, 9), ("throw",)],
             args=[(4, TAINT_IMEI), (0, 0), (0, 0)], ret=0, caught=True,
             secret=(0, 0))
    @example(body=[("move", 0, 9), ("throw",)],
             args=[(4, TAINT_IMEI), (0, 0), (0, 0)], ret=0, caught=False,
             secret=(0, 0))
    # Clean args; the first taint enters mid-block from a static, then
    # flows through a binop, an array store and an invoke's result.
    @example(body=[("const", 0, 3), ("binop", Op.ADD_INT, 1, 0, 9),
                   ("sget", 2), ("binop", Op.MUL_INT, 3, 2, 1),
                   ("aput", 3, 1), ("aget", 4, 1),
                   ("invoke", "mix", 5, 4, 10), ("if", Op.IF_LT, 5, 0, 1),
                   ("move", 0, 5)],
             args=[(2, 0), (5, 0), (7, 0)], ret=0, caught=True,
             secret=(9, TAINT_SMS))
    # A callee's division by zero unwinds into main's handler.
    @example(body=[("invoke", "quot", 0, 9, 10), ("ifz", Op.IF_EQZ, 0, 0)],
             args=[(8, TAINT_IMEI), (0, 0), (1, 0)], ret=0, caught=True,
             secret=(0, 0))
    def test_generated_body_matches_oracle(self, body, args, ret, caught,
                                           secret):
        run_generated(body, args, ret, caught, secret)

    def test_page_crossing_frame_is_pushed_below_the_page(self):
        body = [("binop", Op.ADD_INT, 0, 9, 10), ("sget", 1),
                ("binop", Op.XOR_INT, 2, 0, 1), ("aput", 2, 3),
                ("invoke", "mix", 3, 2, 11), ("aget", 4, 3),
                ("if", Op.IF_NE, 3, 4, 1), ("move", 5, 3)]
        pushes = run_generated(body, [(1, TAINT_IMEI), (2, 0), (3, 0)],
                               4, True, (6, TAINT_SMS), crossing=True)
        # Twice (one per engine): main, then mix.
        assert [registers for __, registers in pushes] == [12, 3] * 2
        # Naively main's slots would straddle a page; pushed lower, they
        # end exactly at that page boundary, with the save area above.
        filler_fp = DVM_STACK_BASE - 12 - SLOT_SIZE * FILLER_REGISTERS
        naive_fp = filler_fp - 12 - SLOT_SIZE * 12
        naive_last = naive_fp + SLOT_SIZE * 12 - 1
        assert naive_fp >> PAGE_SHIFT != naive_last >> PAGE_SHIFT
        boundary = (naive_last >> PAGE_SHIFT) << PAGE_SHIFT
        assert pushes[0][0] == boundary - SLOT_SIZE * 12
