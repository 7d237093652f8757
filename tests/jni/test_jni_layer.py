"""JNI layer tests: real native ARM code crossing the boundary both ways."""

import pytest

from repro.common.taint import TAINT_CLEAR, TAINT_IMEI, TAINT_SMS
from repro.cpu.assembler import assemble
from repro.dalvik import ClassDef, DalvikVM, MethodBuilder
from repro.dalvik.heap import Slot
from repro.dalvik.interpreter import PendingException
from repro.emulator import Emulator
from repro.jni import JniLayer, jni_offset
from repro.kernel import Kernel
from repro.libc import CLibrary

NATIVE_BASE = 0x6000_0000
STACK_TOP = 0x0800_0000


class Platform:
    """Minimal platform: emulator + kernel + libc + VM + JNI."""

    def __init__(self):
        self.emu = Emulator()
        self.kernel = Kernel(self.emu.memory)
        self.kernel.spawn_process("com.example.app")
        self.emu.syscall_handler = self.kernel.handle_svc
        self.libc = CLibrary(self.emu, self.kernel)
        self.vm = DalvikVM(self.emu.memory)
        self.jni = JniLayer(self.emu, self.vm)
        self.emu.cpu.sp = STACK_TOP

    def load_native(self, source, name="libtest.so"):
        program = assemble(source, base=NATIVE_BASE, externs=self.libc.symbols)
        self.emu.load(NATIVE_BASE, program.code)
        self.emu.memory_map.map(NATIVE_BASE, max(len(program.code), 0x1000),
                                name, third_party=True)
        return program

    def bind_native(self, method, program, symbol):
        method.native_address = program.entry(symbol)


@pytest.fixture
def platform():
    return Platform()


class TestJavaToNative:
    def test_native_int_roundtrip(self, platform):
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        native = cls.add_method(
            MethodBuilder("LTest;", "addOne", "II", static=True,
                          native=True).build())
        program = platform.load_native("""
        add_one:            ; r0=env, r1=jclass, r2=x
            add r0, r2, #1
            bx lr
        """)
        platform.bind_native(native, program, "add_one")
        result = platform.vm.call_main("LTest;->addOne", [Slot(41)])
        assert result.value == 42

    def test_taintdroid_return_policy(self, platform):
        """Return value tainted iff any parameter was tainted."""
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        native = cls.add_method(
            MethodBuilder("LTest;", "pass_", "II", static=True,
                          native=True).build())
        program = platform.load_native("pass_impl: mov r0, #7\n bx lr")
        platform.bind_native(native, program, "pass_impl")
        clean = platform.vm.call_main("LTest;->pass_", [Slot(1)])
        assert clean.taint == TAINT_CLEAR
        tainted = platform.vm.call_main("LTest;->pass_",
                                        [Slot(1, TAINT_IMEI)])
        assert tainted.taint == TAINT_IMEI

    def test_param_taints_visible_at_args_area(self, platform):
        """dvmCallJNIMethod's hook surface: interleaved taints in memory."""
        seen = {}
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        native = cls.add_method(
            MethodBuilder("LTest;", "probe", "III", static=True,
                          native=True).build())
        program = platform.load_native("probe: mov r0, #0\n bx lr")
        platform.bind_native(native, program, "probe")

        def entry_hook(emu):
            args_ptr = emu.cpu.regs[0]
            from repro.dalvik.stack import DvmStack
            seen["arg0"] = DvmStack.read_native_arg(emu.memory, args_ptr, 0)
            seen["arg1"] = DvmStack.read_native_arg(emu.memory, args_ptr, 1)

        platform.emu.add_entry_hook(
            platform.jni.symbols["dvmCallJNIMethod"], entry_hook)
        platform.vm.call_main("LTest;->probe",
                              [Slot(5, TAINT_SMS), Slot(6, TAINT_CLEAR)])
        assert seen["arg0"] == (5, TAINT_SMS)
        assert seen["arg1"] == (6, TAINT_CLEAR)

    def test_string_param_via_get_string_utf_chars(self, platform):
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        native = cls.add_method(
            MethodBuilder("LTest;", "strlenNative", "IL", static=True,
                          native=True).build())
        source = f"""
        strlen_native:       ; r0=env, r1=jclass, r2=jstring
            push {{r4, r5, lr}}
            mov r4, r0
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetStringUTFChars')}]
            mov r1, r2
            mov r2, #0
            blx ip            ; r0 = char*
            ldr r5, =strlen
            blx r5
            pop {{r4, r5, pc}}
        """
        program = platform.load_native(source)
        platform.bind_native(native, program, "strlen_native")
        text = platform.vm.heap.alloc_string("hello jni")
        result = platform.vm.call_main("LTest;->strlenNative",
                                       [Slot(text.address, 0, True)])
        assert result.value == 9

    def test_native_returns_new_string(self, platform):
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        native = cls.add_method(
            MethodBuilder("LTest;", "makeString", "L", static=True,
                          native=True).build())
        source = f"""
        make_string:
            push {{r4, lr}}
            mov r4, r0
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('NewStringUTF')}]
            ldr r1, =text
            blx ip
            pop {{r4, pc}}
        text:
            .asciz "from native"
        """
        program = platform.load_native(source)
        platform.bind_native(native, program, "make_string")
        result = platform.vm.call_main("LTest;->makeString")
        assert result.is_ref
        assert platform.vm.string_at(result.value) == "from native"

    def test_unbound_native_method_raises(self, platform):
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        cls.add_method(MethodBuilder("LTest;", "missing", "V", static=True,
                                     native=True).build())
        from repro.common.errors import DalvikError
        with pytest.raises(DalvikError, match="UnsatisfiedLinkError"):
            platform.vm.call_main("LTest;->missing")


class TestNativeToJava:
    def _app_with_callback(self, platform, native_source):
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        # Java callback: int triple(int x) { return 3 * x; }
        builder = MethodBuilder("LTest;", "triple", "II", static=True,
                                registers=3)
        builder.const(0, 3)
        from repro.dalvik.instructions import Op
        builder.binop(Op.MUL_INT, 0, 0, 2)
        builder.ret(0)
        cls.add_method(builder.build())
        native = cls.add_method(
            MethodBuilder("LTest;", "entry", "I", static=True,
                          native=True).build())
        program = platform.load_native(native_source)
        platform.bind_native(native, program, "entry_impl")
        return cls

    def test_call_static_int_method(self, platform):
        source = f"""
        entry_impl:          ; r0=env, r1=jclass
            push {{r4, r5, r6, lr}}
            mov r4, r0
            mov r5, r1
            ; methodID = GetStaticMethodID(env, jclass, "triple", sig)
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetStaticMethodID')}]
            ldr r2, =name
            mov r3, #0
            blx ip
            mov r6, r0        ; methodID
            ; CallStaticIntMethod(env, jclass, mid, 14)
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('CallStaticIntMethod')}]
            mov r0, r4
            mov r1, r5
            mov r2, r6
            mov r3, #14
            blx ip
            pop {{r4, r5, r6, pc}}
        name:
            .asciz "triple"
        """
        self._app_with_callback(platform, source)
        result = platform.vm.call_main("LTest;->entry")
        assert result.value == 42

    def test_call_static_method_a_variant(self, platform):
        source = f"""
        entry_impl:
            push {{r4, r5, r6, lr}}
            mov r4, r0
            mov r5, r1
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetStaticMethodID')}]
            ldr r2, =name
            mov r3, #0
            blx ip
            mov r6, r0
            ; jvalue array with one element = 10
            ldr r3, =jvalues
            mov r2, #10
            str r2, [r3]
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('CallStaticIntMethodA')}]
            mov r0, r4
            mov r1, r5
            mov r2, r6
            blx ip
            pop {{r4, r5, r6, pc}}
        name:
            .asciz "triple"
        .align 2
        jvalues:
            .word 0
        """
        self._app_with_callback(platform, source)
        assert platform.vm.call_main("LTest;->entry").value == 30

    def test_dvm_call_chain_events(self, platform):
        """CallStaticIntMethod must route through dvmCallMethodV and
        dvmInterpret (Table II)."""
        source = f"""
        entry_impl:
            push {{r4, r5, r6, lr}}
            mov r4, r0
            mov r5, r1
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetStaticMethodID')}]
            ldr r2, =name
            mov r3, #0
            blx ip
            mov r6, r0
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('CallStaticIntMethod')}]
            mov r0, r4
            mov r1, r5
            mov r2, r6
            mov r3, #2
            blx ip
            pop {{r4, r5, r6, pc}}
        name:
            .asciz "triple"
        """
        self._app_with_callback(platform, source)
        entered = self._watch_call_chain(platform)
        platform.vm.call_main("LTest;->entry")
        assert [name for name, __ in entered] == ["dvmCallMethodV",
                                                  "dvmInterpret"]

    def test_interpret_frame_address_exposed(self, platform):
        """dvmInterpret runs on the real, freshly pushed frame (Fig. 9)."""
        source = f"""
        entry_impl:
            push {{r4, r5, r6, lr}}
            mov r4, r0
            mov r5, r1
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetStaticMethodID')}]
            ldr r2, =name
            mov r3, #0
            blx ip
            mov r6, r0
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('CallStaticIntMethod')}]
            mov r0, r4
            mov r1, r5
            mov r2, r6
            mov r3, #1
            blx ip
            pop {{r4, r5, r6, pc}}
        name:
            .asciz "triple"
        """
        self._app_with_callback(platform, source)
        entered = self._watch_call_chain(platform)
        platform.vm.call_main("LTest;->entry")
        frame_address = dict(entered)["dvmInterpret"]
        from repro.dalvik.stack import DVM_STACK_BASE, DVM_STACK_SIZE
        assert DVM_STACK_BASE - DVM_STACK_SIZE <= frame_address < DVM_STACK_BASE

    @staticmethod
    def _watch_call_chain(platform):
        """Entry hooks on the host-side dvmCallMethodV and dvmInterpret:
        each entry appends ``(name, frame address or None)``."""
        jni, entered = platform.jni, []
        platform.emu.add_entry_hook(
            jni.symbols["dvmCallMethodV"],
            lambda emu: entered.append(("dvmCallMethodV", None)))
        platform.emu.add_entry_hook(
            jni.symbols["dvmInterpret"],
            lambda emu: entered.append(
                ("dvmInterpret", jni.pending_interpret["frame"].fp)))
        return entered


class TestFieldsAndArrays:
    def test_native_field_get_set(self, platform):
        cls = ClassDef("LTest;")
        cls.add_instance_field("value", "I")
        platform.vm.register_class(cls)
        native = cls.add_method(
            MethodBuilder("LTest;", "bump", "IL", static=True,
                          native=True).build())
        source = f"""
        bump_impl:            ; r2 = obj iref
            push {{r4, r5, r6, lr}}
            mov r4, r0
            mov r5, r2
            ; fid = GetFieldID(env, GetObjectClass(env, obj), "value", 0)
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetObjectClass')}]
            mov r1, r5
            blx ip
            mov r1, r0        ; jclass
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetFieldID')}]
            mov r0, r4
            ldr r2, =fname
            mov r3, #0
            blx ip
            mov r6, r0        ; fieldID
            ; v = GetIntField(env, obj, fid)
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetIntField')}]
            mov r0, r4
            mov r1, r5
            mov r2, r6
            blx ip
            add r3, r0, #1    ; v + 1
            ; SetIntField(env, obj, fid, v+1)
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('SetIntField')}]
            mov r0, r4
            mov r1, r5
            mov r2, r6
            blx ip
            mov r0, r3
            pop {{r4, r5, r6, pc}}
        fname:
            .asciz "value"
        """
        program = platform.load_native(source)
        platform.bind_native(native, program, "bump_impl")
        obj = platform.vm.new_instance("LTest;")
        obj.fields["value"].value = 10
        result = platform.vm.call_main("LTest;->bump",
                                       [Slot(obj.address, 0, True)])
        assert result.value == 11
        assert obj.fields["value"].value == 11

    def test_byte_array_region_roundtrip(self, platform):
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        native = cls.add_method(
            MethodBuilder("LTest;", "sumBytes", "IL", static=True,
                          native=True).build())
        source = f"""
        sum_bytes:            ; r2 = byte[] iref
            push {{r4, r5, lr}}
            mov r4, r0
            mov r5, r2
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('GetByteArrayRegion')}]
            mov r1, r5
            mov r2, #0
            mov r3, #4
            ldr r0, =buffer
            str r0, [sp, #-8]!
            mov r0, r4
            blx ip
            add sp, sp, #8
            ldr r0, =buffer
            ldrb r1, [r0]
            ldrb r2, [r0, #1]
            add r1, r1, r2
            ldrb r2, [r0, #2]
            add r1, r1, r2
            ldrb r2, [r0, #3]
            add r0, r1, r2
            pop {{r4, r5, pc}}
        buffer:
            .space 8
        """
        program = platform.load_native(source)
        platform.bind_native(native, program, "sum_bytes")
        array = platform.vm.heap.alloc_array("B", 4)
        for index, value in enumerate([1, 2, 3, 4]):
            array.elements[index].value = value
        result = platform.vm.call_main("LTest;->sumBytes",
                                       [Slot(array.address, 0, True)])
        assert result.value == 10


class TestExceptionsThroughJni:
    def test_throw_new_reaches_java(self, platform):
        platform.vm.register_class(ClassDef("Ljava/lang/RuntimeException;"))
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        native = cls.add_method(
            MethodBuilder("LTest;", "boom", "V", static=True,
                          native=True).build())
        source = f"""
        boom_impl:
            push {{r4, lr}}
            mov r4, r0
            ; jclass = FindClass(env, "java/lang/RuntimeException")
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('FindClass')}]
            ldr r1, =cls_name
            blx ip
            mov r1, r0
            ; ThrowNew(env, jclass, "secret message")
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('ThrowNew')}]
            mov r0, r4
            ldr r2, =message
            blx ip
            pop {{r4, pc}}
        cls_name:
            .asciz "java/lang/RuntimeException"
        message:
            .asciz "secret message"
        """
        program = platform.load_native(source)
        platform.bind_native(native, program, "boom_impl")
        with pytest.raises(PendingException) as exc_info:
            platform.vm.call_main("LTest;->boom")
        assert "RuntimeException" in exc_info.value.class_name
        # The exception's message string exists and carries the secret.
        record = platform.vm.heap.get(exc_info.value.exception_address)
        message = platform.vm.heap.get(record.fields["message"].value)
        assert message.text == "secret message"

    def test_exception_chain_events(self, platform):
        """ThrowNew -> initException -> dvmCreateStringFromCstr (Fig. 5/V.B)."""
        platform.vm.register_class(ClassDef("Ljava/lang/RuntimeException;"))
        cls = ClassDef("LTest;")
        platform.vm.register_class(cls)
        native = cls.add_method(
            MethodBuilder("LTest;", "boom", "V", static=True,
                          native=True).build())
        source = f"""
        boom_impl:
            push {{r4, lr}}
            mov r4, r0
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('FindClass')}]
            ldr r1, =cls_name
            blx ip
            mov r1, r0
            ldr ip, [r4]
            ldr ip, [ip, #{jni_offset('ThrowNew')}]
            mov r0, r4
            ldr r2, =message
            blx ip
            pop {{r4, pc}}
        cls_name:
            .asciz "java/lang/RuntimeException"
        message:
            .asciz "imei:35693"
        """
        program = platform.load_native(source)
        platform.bind_native(native, program, "boom_impl")
        entered = []
        for name in ("ThrowNew", "initException", "dvmCreateStringFromCstr"):
            platform.emu.add_entry_hook(
                platform.jni.symbols[name],
                lambda emu, name=name: entered.append(name))
        with pytest.raises(PendingException):
            platform.vm.call_main("LTest;->boom")
        assert entered == ["ThrowNew", "initException",
                           "dvmCreateStringFromCstr"]
