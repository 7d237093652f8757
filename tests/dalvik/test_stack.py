"""DVM stack tests: TaintDroid's interleaved layout in guest memory."""

import pytest

from repro.common.errors import DalvikError
from repro.common.taint import TAINT_CONTACTS, TAINT_IMEI, TAINT_SMS
from repro.dalvik.classes import MethodBuilder
from repro.dalvik.stack import (DVM_STACK_BASE, SAVE_AREA_SIZE, SLOT_SIZE,
                                DvmStack)
from repro.memory import Memory
from repro.memory.memory import PAGE_SHIFT, PAGE_SIZE


def make_method(registers=4, name="m"):
    return MethodBuilder("LT;", name, "V", static=True,
                         registers=registers).ret_void().build()


@pytest.fixture
def stack():
    return DvmStack(Memory())


class TestFrames:
    def test_push_pop(self, stack):
        frame = stack.push_frame(make_method())
        assert stack.depth == 1
        assert stack.current is frame
        stack.pop_frame()
        assert stack.depth == 0
        assert stack.current is None

    def test_slots_interleaved_value_taint(self, stack):
        frame = stack.push_frame(make_method())
        frame.set(0, 0x1234, TAINT_SMS)
        # Value word then taint word, 8 bytes apart per register.
        assert stack.memory.read_u32(frame.fp) == 0x1234
        assert stack.memory.read_u32(frame.fp + 4) == TAINT_SMS
        assert frame.taint_address(1) - frame.taint_address(0) == SLOT_SIZE

    def test_fresh_frame_slots_are_zeroed(self, stack):
        # Dirty the memory, push a frame over it: no taint leakage.
        frame = stack.push_frame(make_method())
        frame.set(0, 99, TAINT_IMEI)
        stack.pop_frame()
        frame = stack.push_frame(make_method())
        assert frame.get(0) == 0
        assert frame.get_taint(0) == 0

    def test_frames_grow_downward(self, stack):
        first = stack.push_frame(make_method())
        second = stack.push_frame(make_method())
        assert second.fp < first.fp
        assert second.prev_fp == first.fp

    def test_register_bounds_checked(self, stack):
        frame = stack.push_frame(make_method(registers=2))
        with pytest.raises(DalvikError):
            frame.get(2)
        with pytest.raises(DalvikError):
            frame.set(5, 1)

    def test_ins_land_in_highest_registers(self, stack):
        method = MethodBuilder("LT;", "f", "III", static=True,
                               registers=6).ret(0).build()
        frame = stack.push_frame(method)
        assert frame.first_in_register() == 4  # 6 regs - 2 ins

    def test_stack_overflow(self):
        stack = DvmStack(Memory(), size=0x400)
        with pytest.raises(DalvikError, match="StackOverflow"):
            for __ in range(100):
                stack.push_frame(make_method(registers=8))

    def test_pop_empty_raises(self, stack):
        with pytest.raises(DalvikError):
            stack.pop_frame()

    def test_add_taint_unions(self, stack):
        frame = stack.push_frame(make_method())
        frame.set(1, 7, TAINT_SMS)
        frame.add_taint(1, TAINT_CONTACTS)
        assert frame.get_taint(1) == TAINT_SMS | TAINT_CONTACTS
        assert frame.get(1) == 7  # value untouched


class TestSlotPlacement:
    """A frame's slot area sits on one page, read through its word view."""

    def test_slot_areas_never_cross_a_page(self, stack):
        pushed = []
        for registers in [7, 16, 3, 1, 12, 9, 16, 5, 11, 13] * 10:
            before = stack._stack_pointer
            frame = stack.push_frame(make_method(registers))
            last = frame.fp + SLOT_SIZE * registers - 1
            assert frame.fp >> PAGE_SHIFT == last >> PAGE_SHIFT
            # The save area sits right above the slots, below the caller.
            assert frame.fp + SLOT_SIZE * registers + SAVE_AREA_SIZE <= before
            pushed.append(before)
        assert any(before - stack.frames[index].fp
                   > SAVE_AREA_SIZE + SLOT_SIZE * stack.frames[index]
                   .register_count
                   for index, before in enumerate(pushed))  # some moved
        for before in reversed(pushed):
            stack.pop_frame()
            assert stack._stack_pointer == before
        assert stack._stack_pointer == DVM_STACK_BASE

    def test_a_crossing_frame_ends_at_the_page_boundary_below(self, stack):
        # 12 + 8 * 500 bytes leaves 84 bytes on the first page: a
        # 16-register frame (12 + 128 bytes) would straddle its bottom.
        stack.push_frame(make_method(500))
        frame = stack.push_frame(make_method(16))
        boundary = DVM_STACK_BASE - PAGE_SIZE
        assert frame.fp == boundary - SLOT_SIZE * 16
        assert stack.memory.read_u32(boundary) == frame.prev_fp

    def test_slot_view_and_memory_are_the_same_words(self, stack):
        frame = stack.push_frame(make_method(4))
        frame.set(2, 0xFEED, TAINT_SMS)
        assert (frame.slots[4], frame.slots[5]) == (0xFEED, TAINT_SMS)
        frame.slots[6] = 0x8000_0000
        frame.slots[7] = TAINT_IMEI
        assert frame.get(3) == 0x8000_0000
        assert frame.get_taint(3) == TAINT_IMEI
        assert frame.slots.tolist() == stack.memory.read_words(frame.fp, 8)

    def test_popped_frame_releases_its_view(self, stack):
        frame = stack.push_frame(make_method(2))
        stack.pop_frame()
        with pytest.raises(ValueError):
            frame.slots[0]

    def test_a_frame_larger_than_a_page_is_refused(self, stack):
        with pytest.raises(DalvikError, match="at most 512"):
            stack.push_frame(make_method(PAGE_SIZE // SLOT_SIZE + 1))


class TestNativeArgsProtocol:
    def test_args_and_taints_interleaved(self, stack):
        args_ptr = stack.write_native_args([10, 20], [TAINT_SMS, 0],
                                           return_taint=TAINT_IMEI)
        assert DvmStack.read_native_arg(stack.memory, args_ptr, 0) == \
            (10, TAINT_SMS)
        assert DvmStack.read_native_arg(stack.memory, args_ptr, 1) == (20, 0)
        slot = DvmStack.native_return_taint_address(args_ptr, 2)
        assert stack.memory.read_u32(slot) == TAINT_IMEI

    def test_zero_arg_call_still_has_return_slot(self, stack):
        args_ptr = stack.write_native_args([], [])
        slot = DvmStack.native_return_taint_address(args_ptr, 0)
        assert slot == args_ptr
        assert stack.memory.read_u32(slot) == 0

    def test_args_written_below_stack_pointer(self, stack):
        frame = stack.push_frame(make_method())
        args_ptr = stack.write_native_args([1], [0])
        assert args_ptr < frame.fp
