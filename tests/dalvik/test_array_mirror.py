"""Array mirroring: ``DvmHeap.sync_array_to_memory`` against a per-word oracle.

The heap mirrors an array's element values into guest memory so native
code (and NDroid's memory-level taint) sees the same words the Dalvik
side holds.  The bulk mirror is one ``Memory.write_bytes``; the oracle
below is the straightforward one ``write_u32`` per element.  Both must
leave guest memory identical byte for byte, mask slot values to 32 bits,
and — because the emulator's write watcher only tests overlap with the
decoded code extent — invalidate translated code exactly when an
element word overlaps it.  An ``APUT`` mirrors only the word it stores
(``DvmHeap.sync_array_element``): a fresh array's words start at zero,
so after any run of ``APUT``s guest memory still equals the oracle's.
"""

import pytest

from repro.cpu.assembler import assemble
from repro.dalvik import ClassDef, DalvikVM, MethodBuilder
from repro.dalvik.heap import (_HEADER_SIZE, DvmHeap, HEAP_SPACE_A,
                               HEAP_SPACE_B, ObjectRecord, Slot)
from repro.emulator import Emulator
from repro.memory import Memory

FILL = 0xA5


def per_word_mirror(memory, record):
    """The oracle: one 32-bit store per element."""
    for index, slot in enumerate(record.elements):
        memory.write_u32(record.data_address() + 4 * index,
                         slot.value & 0xFFFF_FFFF)


def array_at(data_address, values, is_ref=False):
    record = ObjectRecord(data_address - _HEADER_SIZE,
                          "[L" if is_ref else "[I", "array")
    record.elements = [Slot(value, is_ref=is_ref) for value in values]
    record.element_is_ref = is_ref
    return record


def mirrored_both_ways(data_address, values):
    """(bulk, oracle) bytes around the array plus touched-page counts."""
    window = (data_address - 16, 4 * len(values) + 32)
    results = []
    for mirror in ("bulk", "oracle"):
        memory = Memory()
        memory.fill(*window, FILL)
        record = array_at(data_address, values)
        if mirror == "bulk":
            DvmHeap(memory).sync_array_to_memory(record)
        else:
            per_word_mirror(memory, record)
        results.append((memory.read_bytes(*window), memory.touched_pages()))
    return results


@pytest.mark.parametrize("data_address,values", [
    pytest.param(0x1000_0100, [], id="empty"),
    pytest.param(0x1000_0100, [0x1234_5678], id="one-element"),
    pytest.param(0x1000_0FF0, list(range(1, 9)), id="page-straddling"),
    pytest.param(0x1000_0FFE, [0xAABB_CCDD, 0x1122_3344],
                 id="word-split-across-pages"),
    pytest.param(0x1000_0200,
                 [-1, -2, -(1 << 31), (1 << 32) + 5, (1 << 40) - 1,
                  0xFFFF_FFFF, 1 << 32, 0],
                 id="negative-and-over-32-bit"),
])
def test_bulk_mirror_matches_per_word_oracle(data_address, values):
    bulk, oracle = mirrored_both_ways(data_address, values)
    assert bulk == oracle
    memory_bytes = bulk[0][16:16 + 4 * len(values)]
    assert memory_bytes == b"".join((value & 0xFFFF_FFFF).to_bytes(4, "little")
                                    for value in values)
    # Bytes outside the array are untouched.
    assert bulk[0][:16] == bytes([FILL]) * 16
    assert bulk[0][16 + 4 * len(values):] == bytes([FILL]) * 16


CODE_BASE = 0x4000_1000
CODE_WITH_BUFFER = """
main:
    mov r0, #1
    add r0, r0, #2
    bx lr
buffer:
    .space 1024
"""


def translated_code_page():
    emu = Emulator()
    program = assemble(CODE_WITH_BUFFER, base=CODE_BASE)
    emu.load(CODE_BASE, program.code)
    emu.cpu.sp = 0x0800_0000
    assert emu.call(program.entry("main")) == 3
    page = CODE_BASE >> 12
    assert page in emu.memory._watched_pages
    return emu, program, page


def test_mirror_over_data_part_of_watched_page_keeps_translations():
    emu, program, page = translated_code_page()
    buffer = program.symbols["buffer"] + 0x100
    assert buffer >> 12 == page
    heap = DvmHeap(emu.memory)
    heap.sync_array_to_memory(array_at(buffer, [7, -7, 1 << 33]))
    assert emu.memory.read_words(buffer, 3) == [7, 0xFFFF_FFF9, 0]
    assert emu.translation_stats()["invalidations"] == 0
    translations = emu.translation_stats()["translations"]
    assert emu.call(program.entry("main")) == 3
    assert emu.translation_stats()["translations"] == translations


def test_mirror_over_decoded_code_invalidates_the_page():
    emu, program, page = translated_code_page()
    main = program.entry("main") & ~1
    # Rewrite the first two instruction words with their own values: the
    # SMC guard tests the write extent, not whether the bytes changed.
    words = emu.memory.read_words(main, 2)
    DvmHeap(emu.memory).sync_array_to_memory(array_at(main, words))
    assert emu.translation_stats()["invalidations"] == 1
    assert emu.call(program.entry("main")) == 3


def test_mirror_straddling_into_a_code_page_invalidates_it():
    emu, program, page = translated_code_page()
    main = program.entry("main") & ~1
    assert main == CODE_BASE
    # Two words on the (unwatched) previous page, two over the code.
    words = emu.memory.read_words(main - 8, 4)
    DvmHeap(emu.memory).sync_array_to_memory(array_at(main - 8, words))
    assert emu.translation_stats()["invalidations"] == 1
    assert emu.call(program.entry("main")) == 3


def build_vm_with_reference_array(oracle: bool):
    vm = DalvikVM(Memory())
    if oracle:
        vm.heap.sync_array_to_memory = \
            lambda record: per_word_mirror(vm.memory, record)
    # Garbage first, so the survivors move to new addresses.
    vm.heap.alloc_string("garbage")
    strings = [vm.heap.alloc_string(text) for text in ("a", "bc", "def")]
    array = vm.heap.alloc_array("L", 4)
    for index, record in enumerate(strings):
        array.elements[index].value = record.address
    vm.heap.sync_array_to_memory(array)
    vm.irt.add_global(array.address)
    return vm, array, strings


def test_gc_re_mirrors_reference_arrays():
    vm, array, strings = build_vm_with_reference_array(oracle=False)
    old = [record.address for record in strings]
    assert vm.gc() == 4
    new = [record.address for record in strings]
    assert all(a != b for a, b in zip(old, new))
    assert vm.memory.read_words(array.data_address(), 4) == new + [0]

    oracle_vm, __, __ = build_vm_with_reference_array(oracle=True)
    oracle_vm.gc()
    for space in (HEAP_SPACE_A, HEAP_SPACE_B):
        assert vm.memory.read_bytes(space, 0x1000) == \
            oracle_vm.memory.read_bytes(space, 0x1000)


# -- APUT mirrors one word ----------------------------------------------------

APUTS = [(0, 7), (3, -2), (5, 0x7FFF_FFFF), (3, 9), (1, -(1 << 31))]


def aput_program():
    cls = ClassDef("LT;")
    b = MethodBuilder("LT;", "main", "II", static=True, registers=5)
    b.const(0, 6).new_array(1, 0)
    for index, value in APUTS:
        b.const(2, index).const(3, value).aput(3, 1, 2)
    b.ret_object(1)
    cls.add_method(b.build())
    return cls


def run_aputs(compiled: bool, oracle: bool):
    """Run the APUT program over heap memory dirtied first (the array
    lands on stale bytes); return the heap window and the number of bulk
    mirrors made."""
    vm = DalvikVM(Memory())
    if compiled:
        vm.enable_trace_compiler()
    vm.memory.fill(HEAP_SPACE_A, 0x200, FILL)
    bulk = []
    vm.heap.sync_array_to_memory = bulk.append
    if oracle:
        vm.heap.sync_array_element = \
            lambda record, index: per_word_mirror(vm.memory, record)
    vm.register_class(aput_program())
    address = vm.call_main("LT;->main", [Slot(0)]).value
    assert [slot.value for slot in vm.heap.get(address).elements] == \
        [7 & 0xFFFF_FFFF, -(1 << 31) & 0xFFFF_FFFF, 0, 9, 0, 0x7FFF_FFFF]
    return vm.memory.read_bytes(HEAP_SPACE_A, 0x200), len(bulk)


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreter", "tbc"])
def test_aputs_mirror_one_word_and_match_the_per_word_oracle(compiled):
    memory, bulk = run_aputs(compiled, oracle=False)
    assert bulk == 0
    assert (memory, bulk) == run_aputs(compiled, oracle=True)


def test_element_mirror_over_code_invalidates_only_that_page():
    emu, program, page = translated_code_page()
    heap = DvmHeap(emu.memory)
    data = array_at(program.symbols["buffer"] + 0x100, [1, 2, 3])
    data.elements[1].value = -5
    heap.sync_array_element(data, 1)
    assert emu.memory.read_words(data.data_address(), 3) == \
        [0, 0xFFFF_FFFB, 0]
    assert emu.translation_stats()["invalidations"] == 0
    main = program.entry("main") & ~1
    code = array_at(main, emu.memory.read_words(main, 2))
    heap.sync_array_element(code, 0)
    assert emu.translation_stats()["invalidations"] == 1
    assert emu.call(program.entry("main")) == 3
