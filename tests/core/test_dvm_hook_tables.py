"""Tables II, III and IV — DVM hook engine coverage.

Table II: every ``Call<Type>Method{,V,A}`` (+Static/Nonvirtual) exists in
the JNIEnv table and routes through the right ``dvmCallMethod*``.
Table III: every NOF→MAF object-creation pair exists and is paired.
Table IV: every Get/Set field function exists and bridges taints.
Each taint-moving field, array-region and exception hook records exactly
one provenance edge.
"""

import pytest

from repro.bench.harness import make_platform
from repro.common.taint import TAINT_IMEI, TAINT_SMS
from repro.core import NDroid
from repro.cpu.assembler import assemble
from repro.dalvik import ClassDef, MethodBuilder
from repro.dalvik.heap import Slot
from repro.framework import AndroidPlatform
from repro.jni.slots import JNI_SLOTS, jni_offset

_TYPES = ["Void", "Object", "Boolean", "Byte", "Char", "Short", "Int",
          "Long", "Float", "Double"]


class TestTableII:
    def test_all_call_method_variants_present(self):
        for type_name in _TYPES:
            for prefix in ("Call", "CallStatic", "CallNonvirtual"):
                for variant in ("", "V", "A"):
                    name = f"{prefix}{type_name}Method{variant}"
                    assert name in JNI_SLOTS, name

    def test_plain_and_v_route_through_dvm_call_method_v(self):
        platform = AndroidPlatform()
        entered = []
        for inner in ("dvmCallMethodV", "dvmCallMethodA"):
            platform.emu.add_entry_hook(
                platform.jni.symbols[inner],
                lambda emu, inner=inner: entered.append(inner))
        cls = ClassDef("LT;")
        platform.vm.register_class(cls)
        cls.add_method(MethodBuilder("LT;", "cb", "I", static=True)
                       .const(0, 1).ret(0).build())
        native = cls.add_method(MethodBuilder("LT;", "go", "V", static=True,
                                              native=True).build())
        source = f"""
        go_impl:
            push {{r4, r5, r6, lr}}
            mov r4, r0
            mov r5, r1
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetStaticMethodID')}]
            ldr r2, =name
            mov r3, #0
            blx ip
            mov r6, r0
            ; plain variant -> dvmCallMethodV
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('CallStaticIntMethod')}]
            mov r0, r4
            mov r1, r5
            mov r2, r6
            blx ip
            ; A variant -> dvmCallMethodA
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('CallStaticIntMethodA')}]
            mov r0, r4
            mov r1, r5
            mov r2, r6
            ldr r3, =jv
            blx ip
            pop {{r4, r5, r6, pc}}
        name:
            .asciz "cb"
        .align 2
        jv:
            .word 0
        """
        program = assemble(source, base=0x6000_0000,
                           externs=platform.libc.symbols)
        platform.emu.load(0x6000_0000, program.code)
        platform.emu.memory_map.map(0x6000_0000, 0x1000, "libt.so",
                                    third_party=True)
        native.native_address = program.entry("go_impl")
        platform.vm.call_main("LT;->go")
        assert entered == ["dvmCallMethodV", "dvmCallMethodA"]

    def test_long_and_double_rejected(self):
        platform = AndroidPlatform()
        from repro.common.errors import JNIError
        from repro.emulator.emulator import HostContext
        cpu = platform.emu.cpu
        cpu.lr = 0xFFFF_0000
        with pytest.raises(JNIError):
            platform.emu.call(platform.jni.symbols["CallLongMethod"])


class TestTableIII:
    """NOF -> MAF pairing."""

    PAIRS = [
        ("NewObject", "dvmAllocObject"),
        ("NewObjectV", "dvmAllocObject"),
        ("NewObjectA", "dvmAllocObject"),
        ("NewString", "dvmCreateStringFromUnicode"),
        ("NewStringUTF", "dvmCreateStringFromCstr"),
        ("NewObjectArray", "dvmAllocArrayByClass"),
        ("NewIntArray", "dvmAllocPrimitiveArray"),
        ("NewByteArray", "dvmAllocPrimitiveArray"),
    ]

    @pytest.mark.parametrize("nof,maf", PAIRS)
    def test_nof_invokes_maf(self, nof, maf):
        platform = AndroidPlatform()
        entered = []
        platform.emu.add_entry_hook(platform.jni.symbols[maf],
                                    lambda emu: entered.append(maf))
        cpu = platform.emu.cpu
        jni = platform.jni
        cls_handle = jni.class_handle("Ljava/lang/Object;")
        platform.vm.register_class(ClassDef("Ljava/lang/Object;"))
        if nof == "NewStringUTF":
            platform.memory.write_cstring(0x9000, "hi")
            args = (jni.env_pointer(), 0x9000)
        elif nof == "NewString":
            platform.memory.write_bytes(0x9000, "hi".encode("utf-16-le"))
            args = (jni.env_pointer(), 0x9000, 2)
        elif nof.startswith("NewObjectArray"):
            args = (jni.env_pointer(), 3, cls_handle, 0)
        elif nof.endswith("Array"):
            args = (jni.env_pointer(), 4)
        else:
            args = (jni.env_pointer(), cls_handle, 0)
        result = platform.emu.call(jni.symbols[nof], args=args)
        assert entered == [maf]
        assert result != 0
        # NOF returns an indirect reference, not a raw pointer.
        assert platform.vm.irt.is_indirect(result)
        # The MAF allocated a real object at the decoded address.
        address = platform.vm.irt.decode(result)
        assert platform.vm.heap.contains(address)


class TestTableIV:
    """Get/Set field functions bridging TaintDroid's field storage."""

    def _platform(self):
        platform = AndroidPlatform()
        ndroid = NDroid.attach(platform)
        cls = ClassDef("LHolder;")
        cls.add_instance_field("secret", "I")
        cls.add_static_field("shared", "I")
        platform.vm.register_class(cls)
        return platform, ndroid

    def test_all_field_functions_present(self):
        for type_name in ["Object", "Boolean", "Byte", "Char", "Short",
                          "Int", "Long", "Float", "Double"]:
            for pattern in (f"Get{type_name}Field", f"Set{type_name}Field",
                            f"GetStatic{type_name}Field",
                            f"SetStatic{type_name}Field"):
                assert pattern in JNI_SLOTS, pattern

    def test_set_int_field_bridges_shadow_taint_to_java(self):
        platform, ndroid = self._platform()
        obj = platform.vm.new_instance("LHolder;")
        iref = platform.vm.irt.add_local(obj.address)
        fid = platform.jni.field_handle("LHolder;", "secret")
        ndroid.taint_engine.set_register(3, TAINT_IMEI)
        platform.emu.call(platform.jni.symbols["SetIntField"],
                          args=(platform.jni.env_pointer(), iref, fid, 42))
        assert obj.fields["secret"].value == 42
        assert obj.fields["secret"].taint == TAINT_IMEI

    def test_get_int_field_bridges_java_taint_to_shadow(self):
        platform, ndroid = self._platform()
        obj = platform.vm.new_instance("LHolder;")
        obj.fields["secret"].value = 7
        obj.fields["secret"].taint = TAINT_SMS
        iref = platform.vm.irt.add_local(obj.address)
        fid = platform.jni.field_handle("LHolder;", "secret")
        result = platform.emu.call(
            platform.jni.symbols["GetIntField"],
            args=(platform.jni.env_pointer(), iref, fid))
        assert result == 7
        assert ndroid.taint_engine.get_register(0) == TAINT_SMS

    def test_static_field_taint_roundtrip(self, ):
        platform, ndroid = self._platform()
        cls_handle = platform.jni.class_handle("LHolder;")
        fid = platform.jni.field_handle("LHolder;", "shared")
        ndroid.taint_engine.set_register(3, TAINT_IMEI)
        platform.emu.call(platform.jni.symbols["SetStaticIntField"],
                          args=(platform.jni.env_pointer(), cls_handle,
                                fid, 9))
        value, taint = platform.vm.get_static("LHolder;->shared")
        assert value == 9
        assert taint & TAINT_IMEI
        ndroid.taint_engine.clear_all_registers()
        platform.emu.call(platform.jni.symbols["GetStaticIntField"],
                          args=(platform.jni.env_pointer(), cls_handle, fid))
        assert ndroid.taint_engine.get_register(0) & TAINT_IMEI


BUFFER = 0x9000


class TestHookEdges:
    """One ledger edge per taint-moving hook: its JNI function's name,
    the taint it moved, and where it moved it from and to."""

    def _platform(self):
        platform = make_platform("ndroid", trace=True)
        cls = ClassDef("LHolder;")
        cls.add_instance_field("secret", "I")
        cls.add_instance_field("name", "L")
        cls.add_static_field("shared", "I")
        platform.vm.register_class(cls)
        platform.vm.register_class(ClassDef("Ljava/lang/RuntimeException;"))
        return platform, platform.ndroid.taint_engine

    @staticmethod
    def _call(platform, name, *args):
        jni = platform.jni
        return platform.emu.call(jni.symbols[name],
                                 args=(jni.env_pointer(), *args))

    @staticmethod
    def _edges(platform):
        return [(edge.mechanism, edge.tag, edge.src.describe(),
                 edge.dst.describe(), edge.location)
                for edge in platform.observability.ledger]

    def _holder(self, platform):
        obj = platform.vm.new_instance("LHolder;")
        return obj, platform.vm.irt.add_local(obj.address)

    @pytest.mark.parametrize("static", [False, True])
    def test_set_int_field(self, static):
        platform, taint = self._platform()
        fid = platform.jni.field_handle(
            "LHolder;", "shared" if static else "secret")
        target = (platform.jni.class_handle("LHolder;") if static
                  else self._holder(platform)[1])
        taint.set_register(3, TAINT_IMEI)
        name = "SetStaticIntField" if static else "SetIntField"
        self._call(platform, name, target, fid, 42)
        field = "LHolder;->shared" if static else "LHolder;->secret"
        assert self._edges(platform) == [
            (f"jni:{name}", TAINT_IMEI, "reg:r3", f"java:0x{TAINT_IMEI:x}",
             field)]

    def test_set_object_field_moves_the_value_iref(self):
        platform, taint = self._platform()
        obj, iref = self._holder(platform)
        text = platform.vm.heap.alloc_string("imei")
        value = platform.vm.irt.add_local(text.address)
        taint.add_iref(value, TAINT_IMEI)
        self._call(platform, "SetObjectField", iref,
                   platform.jni.field_handle("LHolder;", "name"), value)
        assert self._edges(platform) == [
            ("jni:SetObjectField", TAINT_IMEI, f"iref:0x{value:x}",
             f"java:0x{TAINT_IMEI:x}", "LHolder;->name")]

    @pytest.mark.parametrize("static", [False, True])
    def test_get_int_field(self, static):
        platform, taint = self._platform()
        if static:
            platform.vm.set_static("LHolder;->shared", 7, TAINT_SMS)
            target = platform.jni.class_handle("LHolder;")
        else:
            obj, target = self._holder(platform)
            obj.fields["secret"].value = 7
            obj.fields["secret"].taint = TAINT_SMS
        name = "GetStaticIntField" if static else "GetIntField"
        field = "shared" if static else "secret"
        assert self._call(platform, name, target, platform.jni.field_handle(
            "LHolder;", field)) == 7
        assert self._edges(platform) == [
            (f"jni:{name}", TAINT_SMS, f"java:0x{TAINT_SMS:x}", "reg:r0",
             f"LHolder;->{field}")]

    def test_get_object_field_lands_on_the_returned_iref(self):
        platform, taint = self._platform()
        obj, iref = self._holder(platform)
        text = platform.vm.heap.alloc_string("sms", TAINT_SMS)
        obj.fields["name"].value = text.address
        obj.fields["name"].taint = TAINT_SMS
        result = self._call(platform, "GetObjectField", iref,
                            platform.jni.field_handle("LHolder;", "name"))
        assert taint.get_iref(result) == TAINT_SMS
        assert self._edges(platform) == [
            ("jni:GetObjectField", TAINT_SMS, f"java:0x{TAINT_SMS:x}",
             f"iref:0x{result:x}", "LHolder;->name")]

    @pytest.mark.parametrize("kind,size", [("Byte", 1), ("Int", 4)])
    def test_get_array_region(self, kind, size):
        platform, taint = self._platform()
        array = platform.vm.heap.alloc_array(kind[0], 4)
        array.taint = TAINT_SMS
        iref = platform.vm.irt.add_local(array.address)
        self._call(platform, f"Get{kind}ArrayRegion", iref, 0, 3, BUFFER)
        assert taint.get_memory(BUFFER, 3 * size) == TAINT_SMS
        assert self._edges(platform) == [
            (f"jni:Get{kind}ArrayRegion", TAINT_SMS, f"iref:0x{iref:x}",
             f"mem:0x{BUFFER:08x}+{3 * size}", "")]

    @pytest.mark.parametrize("kind,size", [("Byte", 1), ("Int", 4)])
    def test_set_array_region(self, kind, size):
        platform, taint = self._platform()
        array = platform.vm.heap.alloc_array(kind[0], 4)
        iref = platform.vm.irt.add_local(array.address)
        taint.set_memory(BUFFER, 2 * size, TAINT_IMEI)
        self._call(platform, f"Set{kind}ArrayRegion", iref, 0, 2, BUFFER)
        assert array.taint == TAINT_IMEI
        assert self._edges(platform) == [
            (f"jni:Set{kind}ArrayRegion", TAINT_IMEI,
             f"mem:0x{BUFFER:08x}+{2 * size}", f"iref:0x{iref:x}", "")]

    def test_throw_new_taints_the_message_then_the_exception(self):
        """Two hooks move the message's taint: initException's string
        creation (onto the message String) and ThrowNew's exit (the
        exception enters Java)."""
        platform, taint = self._platform()
        platform.memory.write_cstring(BUFFER, "imei:35693")
        taint.set_memory(BUFFER, 11, TAINT_IMEI)
        cls = "Ljava/lang/RuntimeException;"
        self._call(platform, "ThrowNew", platform.jni.class_handle(cls),
                   BUFFER)
        exception, label, __ = platform.jni.pending_exception
        assert label == TAINT_IMEI
        heap = platform.vm.heap
        message = heap.get(heap.get(exception).fields["message"].value)
        assert self._edges(platform) == [
            ("jni:ThrowNew", TAINT_IMEI, f"mem:0x{BUFFER:08x}+11",
             f"mem:0x{message.address:08x}+{message.byte_size()}", ""),
            ("jni:ThrowNew", TAINT_IMEI, f"mem:0x{BUFFER:08x}+11",
             f"java:0x{TAINT_IMEI:x}", cls)]

    @pytest.mark.parametrize("name", ["SetIntField", "GetIntField",
                                      "GetByteArrayRegion",
                                      "SetByteArrayRegion", "ThrowNew"])
    def test_clean_calls_record_nothing(self, name):
        platform, __ = self._platform()
        obj, iref = self._holder(platform)
        fid = platform.jni.field_handle("LHolder;", "secret")
        array = platform.vm.irt.add_local(
            platform.vm.heap.alloc_array("B", 4).address)
        platform.memory.write_cstring(BUFFER, "clean")
        args = {"SetIntField": (iref, fid, 1), "GetIntField": (iref, fid),
                "GetByteArrayRegion": (array, 0, 4, BUFFER),
                "SetByteArrayRegion": (array, 0, 4, BUFFER),
                "ThrowNew": (platform.jni.class_handle(
                    "Ljava/lang/RuntimeException;"), BUFFER)}[name]
        self._call(platform, name, *args)
        assert self._edges(platform) == []
