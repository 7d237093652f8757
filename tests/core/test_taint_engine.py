"""Unit tests for NDroid's taint engine."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.taint import (TAINT_CLEAR, TAINT_CONTACTS, TAINT_IMEI,
                                TAINT_SMS)
from repro.core.taint_engine import TaintEngine


def test_shadow_registers():
    engine = TaintEngine()
    engine.set_register(0, TAINT_IMEI)
    engine.add_register(0, TAINT_SMS)
    assert engine.get_register(0) == TAINT_IMEI | TAINT_SMS
    engine.clear_register(0)
    assert engine.get_register(0) == 0


def test_clear_all_registers():
    engine = TaintEngine()
    for index in range(16):
        engine.set_register(index, TAINT_SMS)
    engine.clear_all_registers()
    assert all(engine.get_register(i) == 0 for i in range(16))


def test_memory_byte_granularity():
    engine = TaintEngine()
    engine.set_memory(0x1000, 4, TAINT_SMS)
    assert engine.get_memory(0x1000) == TAINT_SMS
    assert engine.get_memory(0x1003) == TAINT_SMS
    assert engine.get_memory(0x1004) == 0
    assert engine.get_memory(0x0FFF, 2) == TAINT_SMS  # straddles the edge


def test_memory_add_is_union():
    engine = TaintEngine()
    engine.set_memory(0x1000, 2, TAINT_SMS)
    engine.add_memory(0x1001, 2, TAINT_CONTACTS)
    assert engine.get_memory(0x1000, 1) == TAINT_SMS
    assert engine.get_memory(0x1001, 1) == TAINT_SMS | TAINT_CONTACTS
    assert engine.get_memory(0x1002, 1) == TAINT_CONTACTS


def test_set_memory_zero_clears():
    engine = TaintEngine()
    engine.set_memory(0x1000, 8, TAINT_SMS)
    engine.set_memory(0x1000, 8, 0)
    assert engine.tainted_bytes == 0


def test_copy_memory_is_per_byte():
    engine = TaintEngine()
    engine.set_memory(0x1000, 1, TAINT_SMS)
    engine.set_memory(0x1002, 1, TAINT_CONTACTS)
    engine.copy_memory(0x2000, 0x1000, 4)
    assert engine.memory_bytes(0x2000, 4) == \
        [TAINT_SMS, 0, TAINT_CONTACTS, 0]


def test_copy_clears_stale_dest_taint():
    engine = TaintEngine()
    engine.set_memory(0x2000, 4, TAINT_IMEI)
    engine.copy_memory(0x2000, 0x1000, 4)  # source is clean
    assert engine.get_memory(0x2000, 4) == 0


def test_iref_shadow():
    engine = TaintEngine()
    engine.set_iref(0x5F80_0005, TAINT_SMS)
    engine.add_iref(0x5F80_0005, TAINT_IMEI)
    assert engine.get_iref(0x5F80_0005) == TAINT_SMS | TAINT_IMEI
    assert engine.get_iref(0x5F80_0009) == 0
    engine.set_iref(0, TAINT_SMS)  # NULL irefs are ignored
    assert engine.get_iref(0) == 0


def test_native_taint_interface_view():
    engine = TaintEngine()
    engine.set_memory(0x1000, 2, TAINT_SMS)
    assert engine.memory_taints(0x1000, 3) == [TAINT_SMS, TAINT_SMS, 0]
    engine.set_register(2, TAINT_IMEI)
    assert engine.register_taint(2) == TAINT_IMEI
    engine.write_memory_taints(0x3000, [TAINT_CONTACTS, 0])
    assert engine.get_memory(0x3000, 1) == TAINT_CONTACTS


def test_memory_addresses_wrap_32_bits():
    engine = TaintEngine()
    engine.set_memory(0xFFFF_FFFF, 2, TAINT_SMS)
    assert engine.get_memory(0xFFFF_FFFF) == TAINT_SMS
    assert engine.get_memory(0x0) == TAINT_SMS


@given(st.integers(0, 0xFFFF_0000), st.integers(1, 64),
       st.integers(1, 0xFFFF_FFFF))
def test_set_then_get_roundtrip(address, length, label):
    engine = TaintEngine()
    engine.set_memory(address, length, label)
    assert engine.get_memory(address, length) == label
    assert engine.get_memory(address + length, 1) == 0


@given(st.lists(st.integers(0, 0xFF), min_size=1, max_size=32))
def test_copy_preserves_byte_pattern(labels):
    engine = TaintEngine()
    engine.set_memory_bytes(0x1000, labels)
    engine.copy_memory(0x2000, 0x1000, len(labels))
    assert engine.memory_bytes(0x2000, len(labels)) == labels


# -- empty-set fast path -----------------------------------------------------

def test_maybe_tainted_starts_false_and_sticks():
    engine = TaintEngine()
    assert not engine.maybe_tainted
    engine.set_register(0, TAINT_CLEAR)
    engine.set_memory(0x1000, 4, TAINT_CLEAR)
    assert not engine.maybe_tainted  # clear labels don't flip it
    engine.set_register(1, TAINT_IMEI)
    assert engine.maybe_tainted
    engine.clear_all_registers()
    assert engine.maybe_tainted  # sticky: never flips back


def test_maybe_tainted_flips_on_every_label_entry_point():
    for setter in (
        lambda e: e.set_register(2, TAINT_IMEI),
        lambda e: e.add_register(2, TAINT_IMEI),
        lambda e: e.set_memory(0x10, 2, TAINT_IMEI),
        lambda e: e.add_memory(0x10, 2, TAINT_IMEI),
        lambda e: e.set_memory_bytes(0x10, [TAINT_IMEI]),
        lambda e: e.set_iref(7, TAINT_IMEI),
        lambda e: e.add_iref(7, TAINT_IMEI),
        lambda e: e.degrade(TAINT_IMEI),
    ):
        engine = TaintEngine()
        setter(engine)
        assert engine.maybe_tainted


def test_reset_restores_pristine_state_and_rearms():
    engine = TaintEngine()
    engine.set_register(1, TAINT_IMEI)
    engine.set_memory(0x1000, 4, TAINT_IMEI)
    engine.set_iref(3, TAINT_IMEI)
    engine.degrade(TAINT_IMEI)
    assert engine.maybe_tainted
    engine.reset_for_job()
    assert not engine.maybe_tainted
    assert engine.live_label() == TAINT_CLEAR
    assert engine.get_register(1) == TAINT_CLEAR
    assert engine.get_memory(0x1000, 4) == TAINT_CLEAR
    assert engine.get_iref(3) == TAINT_CLEAR


def test_rearm_fast_path_only_when_every_store_is_clear():
    engine = TaintEngine()
    assert engine.rearm_fast_path()  # pristine engine: already armed
    engine.set_register(1, TAINT_IMEI)
    engine.set_memory(0x10, 2, TAINT_IMEI)
    assert not engine.rearm_fast_path()  # labels still live: refuses
    assert engine.maybe_tainted
    engine.clear_all_registers()
    assert not engine.rearm_fast_path()  # memory label still live
    engine.clear_memory(0x10, 2)
    assert engine.rearm_fast_path()
    assert not engine.maybe_tainted


def test_rearm_fast_path_refuses_while_degraded():
    # A degraded engine over-taints every query; the fast path would
    # silently drop that pessimism, so re-arming must refuse.
    engine = TaintEngine()
    engine.degrade(TAINT_IMEI)
    assert not engine.rearm_fast_path()
    assert engine.maybe_tainted
    engine.reset_for_job()  # a new job drops the quarantine pessimism too
    assert engine.rearm_fast_path()


def test_empty_map_queries_short_circuit_to_conservative_label():
    engine = TaintEngine()
    assert engine.get_memory(0x4000, 64) == TAINT_CLEAR
    assert engine.memory_bytes(0x4000, 8) == [TAINT_CLEAR] * 8
    engine.degrade(TAINT_IMEI)
    assert engine.get_memory(0x4000, 64) == TAINT_IMEI
    assert engine.memory_bytes(0x4000, 2) == [TAINT_IMEI] * 2


# -- page-chunked store ------------------------------------------------------

def test_clearing_an_empty_map_allocates_nothing():
    # set_memory with a clear label over a huge range must not walk the
    # range (the old per-byte map popped each absent key one by one).
    engine = TaintEngine()
    engine.set_memory(0x10_0000, 1 << 20, TAINT_CLEAR)
    assert engine._memory_chunks == {}
    assert engine.propagation_count == 1  # the call is still accounted


def test_chunks_are_dropped_when_fully_cleared():
    engine = TaintEngine()
    engine.set_memory(0x5000, 16, TAINT_SMS)
    assert len(engine._memory_chunks) == 1
    engine.set_memory(0x5000, 16, TAINT_CLEAR)
    assert engine._memory_chunks == {}
    engine.set_memory(0x5000, 16, TAINT_SMS)
    engine.clear_memory(0x5000, 16)
    assert engine._memory_chunks == {}


def test_bulk_range_spanning_many_chunks():
    engine = TaintEngine()
    engine.set_memory(0x1800, 0x3000, TAINT_SMS)  # 3 pages, unaligned
    assert engine.tainted_bytes == 0x3000
    assert engine.get_memory(0x17FF, 1) == TAINT_CLEAR
    assert engine.get_memory(0x1800, 1) == TAINT_SMS
    assert engine.get_memory(0x47FF, 1) == TAINT_SMS
    assert engine.get_memory(0x4800, 1) == TAINT_CLEAR
    assert engine.get_memory(0x1000, 0x4000) == TAINT_SMS
    engine.copy_memory(0x2_0800, 0x1800, 0x3000)
    assert engine.get_memory(0x2_0800, 0x3000) == TAINT_SMS
    assert engine.tainted_bytes == 0x6000


def test_get_memory_saturation_early_exit_is_still_exact():
    # Once the accumulated label reaches the union of every label the map
    # ever held, the scan stops early; the answer must be unchanged.
    engine = TaintEngine()
    engine.set_memory(0x1000, 4, TAINT_SMS)
    engine.set_memory(0x9000, 4, TAINT_IMEI)
    union = TAINT_SMS | TAINT_IMEI
    assert engine._memory_union == union
    # The first bytes already saturate: the rest of the 64 KiB range
    # (mostly absent chunks) is never walked byte-by-byte.
    assert engine.get_memory(0x1000, 0x10000) == union
    # Clearing one label leaves the monotone union stale-high, which only
    # makes the early exit rarer — answers stay exact.
    engine.set_memory(0x9000, 4, TAINT_CLEAR)
    assert engine._memory_union == union
    assert engine.get_memory(0x1000, 0x10000) == TAINT_SMS


def test_memory_snapshot_lists_every_tainted_byte():
    engine = TaintEngine()
    engine.set_memory(0x1FFE, 4, TAINT_SMS)  # straddles a chunk edge
    engine.set_memory(0x2000, 1, TAINT_IMEI)
    assert engine.memory_snapshot() == {
        0x1FFE: TAINT_SMS, 0x1FFF: TAINT_SMS,
        0x2000: TAINT_IMEI, 0x2001: TAINT_SMS,
    }


def test_shadow_register_list_identity_survives_reset():
    # Compiled taint micro-ops close over the shadow-register list; reset
    # and clear_all_registers must mutate it in place, never rebind it.
    engine = TaintEngine()
    shadow = engine.shadow_registers
    engine.set_register(3, TAINT_SMS)
    engine.clear_all_registers()
    assert engine.shadow_registers is shadow
    engine.set_register(3, TAINT_SMS)
    engine.reset_for_job()
    assert engine.shadow_registers is shadow
    assert shadow == [TAINT_CLEAR] * 16
