"""``libdvm``'s JNI machinery, registered at emulated addresses.

See the package docstring for the architecture.  Internal call chains are
routed through :meth:`Emulator.call_host` so the branch-event sequence the
paper's multilevel hooking inspects (Fig. 5: ``CallVoidMethodA`` →
``dvmCallMethodA`` → ``dvmInterpret`` → returns) actually occurs and can be
instrumented function-by-function.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import DalvikError, JNIError
from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.dalvik.classes import Method
from repro.dalvik.heap import ObjectRecord, Slot
from repro.dalvik.interpreter import PendingException
from repro.dalvik.stack import DvmStack
from repro.dalvik.vm import DalvikVM
from repro.emulator.emulator import Emulator, HostContext
from repro.jni.slots import JNI_FUNCTION_COUNT, JNI_SLOTS
from repro.memory.allocator import FreeListAllocator

LIBDVM_BASE = 0x4000_0000
LIBDVM_SIZE = 0x0002_0000
ENV_POINTER_ADDRESS = LIBDVM_BASE + 0x1_F000
ENV_TABLE_ADDRESS = LIBDVM_BASE + 0x1_F100
JNI_CHARS_BASE = 0x2A00_0000
JNI_CHARS_SIZE = 0x0010_0000

_METHOD_HANDLE_BASE = 0x7200_0000
_CLASS_HANDLE_BASE = 0x7100_0000
_FIELD_HANDLE_BASE = 0x7300_0000

# dvm-internal functions the DVM hook engine instruments.
_INTERNAL_FUNCTIONS = [
    "dvmCallJNIMethod", "dvmInterpret", "dvmCallMethodV", "dvmCallMethodA",
    "dvmDecodeIndirectRef", "dvmAllocObject", "dvmCreateStringFromUnicode",
    "dvmCreateStringFromCstr", "dvmAllocArrayByClass",
    "dvmAllocPrimitiveArray", "initException",
]

_PRIM_TYPE_CHAR = {
    "Boolean": "Z", "Byte": "B", "Char": "C", "Short": "S", "Int": "I",
    "Long": "J", "Float": "F", "Double": "D", "Void": "V", "Object": "L",
}


class _Trampoline:
    """Per-method compiled JNI call plan (the managed→native twin of a TB).

    Everything ``dvmCallJNIMethod`` re-derives on every crossing — the
    shorty-driven iref conversion plan, the static receiver handle, the
    method handle, the return-kind — is resolved once at first call and
    cached keyed by the :class:`Method`.  ``fast`` is the full
    marshalling closure used when nothing can observe the guest-memory
    protocol; the slow path reuses ``prefix``/``arg_refs``/``handle`` so
    even instrumented crossings skip the per-call recomputation.
    """

    __slots__ = ("handle", "prefix", "arg_refs", "returns_ref", "fast")

    def __init__(self, handle: int, prefix: Tuple[int, ...],
                 arg_refs: Tuple[bool, ...], returns_ref: bool,
                 fast) -> None:
        self.handle = handle
        self.prefix = prefix
        self.arg_refs = arg_refs
        self.returns_ref = returns_ref
        self.fast = fast


class JniLayer:
    """Owns handles, the env table, and every libdvm host function."""

    def __init__(self, emu: Emulator, vm: DalvikVM) -> None:
        self.emu = emu
        self.vm = vm
        self.symbols: Dict[str, int] = {}
        self.chars_heap = FreeListAllocator(JNI_CHARS_BASE, JNI_CHARS_SIZE)
        self._methods: List[Method] = []
        self._classes: List[str] = []
        self._fields: List[Tuple[str, str]] = []
        # Exception state, visible to ExceptionOccurred and the bridge.
        self.pending_exception: Optional[Tuple[int, TaintLabel, str]] = None
        # Interpret-chain plumbing (set by dvmCallMethod*, used by
        # dvmInterpret and readable by NDroid's hooks).
        self.pending_interpret: Optional[Dict] = None
        # The args pointer of the JNI invocation in flight (dvmCallJNIMethod).
        self.current_native_call: Optional[Dict] = None
        # Per-method compiled call plans; invalidated on RegisterNatives /
        # UnregisterNatives rebinding (the closures also re-read
        # ``native_address`` per call, so a stale entry is never wrong).
        self._trampolines: Dict[Method, _Trampoline] = {}
        # Cache introspection + crossing-path counters (observability).
        self.trampoline_hits = 0
        self.trampoline_misses = 0
        self.trampoline_invalidations = 0
        self.crossings_fast = 0
        self.crossings_slow = 0
        # Optional span tracer and µs-per-crossing histogram; both stay
        # None/absent unless a farm job attaches them.
        self.span_tracer = None
        self.crossing_histogram = None

        self._register_internals()
        self._register_env_table()
        emu.memory_map.map(LIBDVM_BASE, LIBDVM_SIZE, "libdvm.so", perms="r-x")
        emu.memory_map.map(JNI_CHARS_BASE, JNI_CHARS_SIZE, "[jni chars]",
                           perms="rw-")
        vm.call_bridge = self._call_bridge

    # ------------------------------------------------------------------ setup

    def _register_internals(self) -> None:
        offset = 0
        for name in _INTERNAL_FUNCTIONS:
            address = LIBDVM_BASE + offset
            offset += 16
            self.symbols[name] = address
            self.emu.register_host_function(
                address, name, getattr(self, "_impl_" + name))

    def _register_env_table(self) -> None:
        memory = self.emu.memory
        memory.write_u32(ENV_POINTER_ADDRESS, ENV_TABLE_ADDRESS)
        base = LIBDVM_BASE + 0x8000
        for name, slot in JNI_SLOTS.items():
            address = base + slot * 16
            self.symbols[name] = address
            implementation = self._resolve_env_function(name)
            self.emu.register_host_function(address, name, implementation)
            memory.write_u32(ENV_TABLE_ADDRESS + 4 * slot, address)

    def _resolve_env_function(self, name: str):
        direct = getattr(self, "_env_" + name, None)
        if direct is not None:
            return direct
        # Generated Call* family.
        for prefix, static, nonvirtual in (("CallStatic", True, False),
                                           ("CallNonvirtual", False, True),
                                           ("Call", False, False)):
            if name.startswith(prefix):
                remainder = name[len(prefix):]
                for type_name in _PRIM_TYPE_CHAR:
                    if remainder.startswith(type_name + "Method"):
                        variant = remainder[len(type_name) + 6:]  # "", V, A
                        return self._make_call_method(type_name, variant,
                                                      static, nonvirtual)
        # Generated field accessors.
        for type_name in _PRIM_TYPE_CHAR:
            if name == f"Get{type_name}Field":
                return self._make_field_access(type_name, get=True,
                                               static=False)
            if name == f"Set{type_name}Field":
                return self._make_field_access(type_name, get=False,
                                               static=False)
            if name == f"GetStatic{type_name}Field":
                return self._make_field_access(type_name, get=True,
                                               static=True)
            if name == f"SetStatic{type_name}Field":
                return self._make_field_access(type_name, get=False,
                                               static=True)
            if name == f"New{type_name}Array":
                return self._make_new_prim_array(type_name)
        raise JNIError(f"no implementation for JNI function {name!r}")

    # ------------------------------------------------------------- handles

    def env_pointer(self) -> int:
        return ENV_POINTER_ADDRESS

    def method_handle(self, method: Method) -> int:
        try:
            index = self._methods.index(method)
        except ValueError:
            index = len(self._methods)
            self._methods.append(method)
        return _METHOD_HANDLE_BASE + 4 * index

    def method_from_handle(self, handle: int) -> Method:
        index = (handle - _METHOD_HANDLE_BASE) // 4
        if not 0 <= index < len(self._methods):
            raise JNIError(f"bad methodID 0x{handle:08x}")
        return self._methods[index]

    def class_handle(self, class_name: str) -> int:
        try:
            index = self._classes.index(class_name)
        except ValueError:
            index = len(self._classes)
            self._classes.append(class_name)
        return _CLASS_HANDLE_BASE + 4 * index

    def class_from_handle(self, handle: int) -> str:
        index = (handle - _CLASS_HANDLE_BASE) // 4
        if not 0 <= index < len(self._classes):
            raise JNIError(f"bad jclass 0x{handle:08x}")
        return self._classes[index]

    def field_handle(self, class_name: str, field_name: str) -> int:
        key = (class_name, field_name)
        try:
            index = self._fields.index(key)
        except ValueError:
            index = len(self._fields)
            self._fields.append(key)
        return _FIELD_HANDLE_BASE + 4 * index

    def field_from_handle(self, handle: int) -> Tuple[str, str]:
        index = (handle - _FIELD_HANDLE_BASE) // 4
        if not 0 <= index < len(self._fields):
            raise JNIError(f"bad fieldID 0x{handle:08x}")
        return self._fields[index]

    # -------------------------------------------------- Java -> native (entry)

    def _compile_trampoline(self, method: Method) -> _Trampoline:
        """Build and cache the per-method call plan (first crossing only)."""
        self.trampoline_misses += 1
        arg_refs = tuple(ch == "L" for ch in method.param_types())
        returns_ref = method.return_type == "L"
        if method.is_static:
            prefix = (self.env_pointer(),
                      self.class_handle(method.class_name))
        else:
            prefix = (self.env_pointer(),)
        irt = self.vm.irt
        add_local = irt.add_local
        remove = irt.remove
        decode = irt.decode
        emu_call = self.emu.call

        def fast(args: List[Slot]) -> Slot:
            # TaintDroid's JNI policy, computed host-side: the return value
            # is tainted if any parameter is tainted.
            taint = TAINT_CLEAR
            local_refs: List[int] = []
            jni_args = list(prefix)
            append = jni_args.append
            for slot, is_ref in zip(args, arg_refs):
                taint |= slot.taint
                if is_ref:
                    iref = add_local(slot.value)
                    if iref:
                        local_refs.append(iref)
                    append(iref)
                else:
                    append(slot.value)
            return_value = emu_call(method.native_address, tuple(jni_args))
            if returns_ref:
                return_value = decode(return_value)
            for iref in local_refs:
                try:
                    remove(iref)
                except JNIError:
                    pass  # native code may have deleted it already
            if self.pending_exception is not None:
                address, exc_taint, class_name = self.pending_exception
                self.pending_exception = None
                raise PendingException(address, exc_taint, class_name)
            return Slot(return_value & 0xFFFF_FFFF, taint, returns_ref)

        trampoline = _Trampoline(self.method_handle(method), prefix,
                                 arg_refs, returns_ref, fast)
        self._trampolines[method] = trampoline
        return trampoline

    def _call_bridge(self, vm: DalvikVM, method: Method,
                     args: List[Slot]) -> Slot:
        """The VM-side half of a native invocation.

        TaintDroid's interpreter stores parameters *and their taints* in the
        outs area, plus an appended return-taint slot, then transfers to the
        JNI call bridge (``dvmCallJNIMethod``).  When nothing can observe
        that protocol — no hooks, no per-step engines, event log off — the
        trampoline's fast closure performs the same marshalling host-side
        and skips the guest-memory round trip entirely; the native code
        itself still executes instruction-for-instruction identically.
        """
        if method.native_address == 0:
            raise DalvikError(
                f"UnsatisfiedLinkError: {method.full_name} "
                "(library not loaded?)")
        trampoline = self._trampolines.get(method)
        if trampoline is None:
            trampoline = self._compile_trampoline(method)
        else:
            self.trampoline_hits += 1
        emu = self.emu
        tracer = self.span_tracer
        if emu.use_tb and not vm.event_log.enabled \
                and emu.instrumentation_free():
            self.crossings_fast += 1
            if tracer is None:
                return trampoline.fast(args)
            start = tracer.now()
            result = trampoline.fast(args)
            tracer.complete("jni_crossing", start, cat="engine",
                            method=method.full_name, path="fast")
            if self.crossing_histogram is not None:
                self.crossing_histogram.record(tracer.now() - start)
            return result
        self.crossings_slow += 1
        start = tracer.now() if tracer is not None else 0.0
        values = [slot.value for slot in args]
        taints = [slot.taint for slot in args]
        args_ptr = vm.stack.write_native_args(values, taints)
        result_ptr = self.chars_heap.alloc(8)
        emu.call(self.symbols["dvmCallJNIMethod"],
                 args=(args_ptr, result_ptr, trampoline.handle, 0))
        value = emu.memory.read_u32(result_ptr)
        taint = emu.memory.read_u32(
            DvmStack.native_return_taint_address(args_ptr, len(values)))
        self.chars_heap.free(result_ptr)
        if tracer is not None:
            tracer.complete("jni_crossing", start, cat="engine",
                            method=method.full_name, path="slow")
            if self.crossing_histogram is not None:
                self.crossing_histogram.record(tracer.now() - start)
        if self.pending_exception is not None:
            address, exc_taint, class_name = self.pending_exception
            self.pending_exception = None
            raise PendingException(address, exc_taint, class_name)
        return Slot(value, taint, is_ref=trampoline.returns_ref)

    def _impl_dvmCallJNIMethod(self, ctx: HostContext):
        """const u4* args, JValue* pResult, const Method* method, Thread*."""
        args_ptr, result_ptr, handle = ctx.arg(0), ctx.arg(1), ctx.arg(2)
        method = self.method_from_handle(handle)
        trampoline = self._trampolines.get(method)
        if trampoline is None:
            trampoline = self._compile_trampoline(method)
        else:
            self.trampoline_hits += 1
        memory = self.emu.memory
        count = method.ins_size
        values, taints = [], []
        for index in range(count):
            value, taint = DvmStack.read_native_arg(memory, args_ptr, index)
            values.append(value)
            taints.append(taint)

        # Marshal to the JNI calling convention following the trampoline's
        # precompiled iref plan (no per-call param_types() recomputation).
        local_refs: List[int] = []
        add_local = self.vm.irt.add_local
        jni_args: List[int] = list(trampoline.prefix)
        for value, is_ref in zip(values, trampoline.arg_refs):
            if is_ref:
                iref = add_local(value)
                if iref:
                    local_refs.append(iref)
                jni_args.append(iref)
            else:
                jni_args.append(value)

        self.current_native_call = {
            "method": method, "args_ptr": args_ptr, "count": count,
            "taints": list(taints), "jni_args": list(jni_args),
        }
        log = self.vm.event_log
        if log.enabled:
            log.emit(
                "jni", "dvmCallJNIMethod",
                f"{method.full_name} shorty={method.shorty}",
                method=method.full_name, shorty=method.shorty,
                insn_addr=method.native_address & ~1, args_ptr=args_ptr,
                taints=list(taints))

        return_value = self.emu.call(method.native_address, tuple(jni_args))

        # Convert an object return (iref) back to a direct pointer.
        if trampoline.returns_ref:
            return_value = self.vm.irt.decode(return_value)
        memory.write_u32(result_ptr, return_value & 0xFFFF_FFFF)
        # TaintDroid's JNI policy: "the return value will be tainted if any
        # parameter is tainted."  NDroid's exit hook may overwrite this slot
        # with the precise native-side taint.
        policy_taint = TAINT_CLEAR
        for taint in taints:
            policy_taint |= taint
        memory.write_u32(
            DvmStack.native_return_taint_address(args_ptr, count),
            policy_taint)
        for iref in local_refs:
            try:
                self.vm.irt.remove(iref)
            except JNIError:
                pass  # native code may have deleted it already
        self.current_native_call = None
        return None

    # -------------------------------------------------- native -> Java (exit)

    def _make_call_method(self, type_name: str, variant: str, static: bool,
                          nonvirtual: bool):
        """Build one of the 90 Call* entry points (Table II)."""
        return_char = _PRIM_TYPE_CHAR[type_name]
        if type_name in ("Long", "Double"):
            def unsupported(ctx: HostContext):
                raise JNIError(
                    f"Call*{type_name}Method: 64-bit returns are not "
                    "modelled; use Int/Object")
            return unsupported

        def implementation(ctx: HostContext):
            arg_base = 4 if nonvirtual else 3
            this_iref = 0 if static else ctx.arg(1)
            handle = ctx.arg(arg_base - 1)
            method = self.method_from_handle(handle)
            param_count = len(method.shorty) - 1
            memory = self.emu.memory

            if variant in ("V", "A"):
                # va_list and jvalue[] share our packed-word layout.
                block_ptr = ctx.arg(arg_base)
                owned_block = 0
            else:
                words = [ctx.arg(arg_base + index)
                         for index in range(param_count)]
                owned_block = self.chars_heap.alloc(max(4 * param_count, 4))
                memory.write_words(owned_block, words)
                block_ptr = owned_block

            # Table II: the plain and V forms route through dvmCallMethodV,
            # the A form through dvmCallMethodA.
            inner = "dvmCallMethodA" if variant == "A" else "dvmCallMethodV"
            cpu = self.emu.cpu
            saved = cpu.regs[:4]
            cpu.regs[0] = handle
            cpu.regs[1] = this_iref
            cpu.regs[2] = block_ptr
            cpu.regs[3] = 0
            self.emu.call_host(self.symbols[inner])
            result = cpu.regs[0]
            cpu.regs[0:4] = saved
            if owned_block:
                self.chars_heap.free(owned_block)

            if return_char == "V":
                return None
            if return_char == "L":
                return self.vm.irt.add_local(result)
            return result

        return implementation

    def _impl_dvmCallMethodV(self, ctx: HostContext):
        return self._dvm_call_method(ctx, variant="V")

    def _impl_dvmCallMethodA(self, ctx: HostContext):
        return self._dvm_call_method(ctx, variant="A")

    def _dvm_call_method(self, ctx: HostContext, variant: str):
        """Shared dvmCallMethod* body: frame setup then dvmInterpret.

        Performs the three steps the paper names: allocate the method frame,
        put the parameters in (their taint slots cleared — the behaviour
        NDroid must compensate for), and decode indirect references via
        ``dvmDecodeIndirectRef``.
        """
        handle, this_iref, block_ptr = ctx.arg(0), ctx.arg(1), ctx.arg(2)
        method = self.method_from_handle(handle)
        memory = self.emu.memory
        param_types = method.shorty[1:]

        raw_args: List[int] = []
        irefs: List[int] = []
        if not method.is_static:
            raw_args.append(this_iref)
            irefs.append(this_iref)
        for index, type_char in enumerate(param_types):
            word = memory.read_u32(block_ptr + 4 * index)
            raw_args.append(word)
            if type_char == "L":
                irefs.append(word)

        # Decode indirect references to direct pointers.
        decoded: List[int] = []
        types = ("L" if not method.is_static else "") + param_types
        for type_char, word in zip(types, raw_args):
            if type_char == "L" and word:
                cpu = self.emu.cpu
                saved_r0 = cpu.regs[0]
                cpu.regs[0] = word
                self.emu.call_host(self.symbols["dvmDecodeIndirectRef"])
                decoded.append(cpu.regs[0])
                cpu.regs[0] = saved_r0
            else:
                decoded.append(word)

        if method.is_native:
            # Native-to-native via JNI: route through the ordinary bridge.
            slots = [Slot(value, TAINT_CLEAR, type_char == "L")
                     for type_char, value in zip(types, decoded)]
            result = self._call_bridge(self.vm, method, slots)
            self.vm.interp_save_state = result
            return result.value

        # Allocate the frame and copy parameters in; the DVM clears the
        # taint slots here (push_frame zeroes them).
        frame = self.vm.stack.push_frame(method)
        first_in = frame.first_in_register()
        for offset, (type_char, value) in enumerate(zip(types, decoded)):
            frame.set(first_in + offset, value, TAINT_CLEAR,
                      is_ref=(type_char == "L"))
        self.pending_interpret = {
            "method": method, "frame": frame, "irefs": irefs,
            "variant": variant, "first_in": first_in, "types": types,
        }
        log = self.vm.event_log
        if log.enabled:
            log.emit(
                "jni", f"dvmCallMethod{variant}",
                f"{method.full_name} frame@0x{frame.fp:08x}",
                method=method.full_name, frame=frame.fp, irefs=list(irefs))
        self.emu.call_host(self.symbols["dvmInterpret"])
        return self.emu.cpu.regs[0]

    def _impl_dvmInterpret(self, ctx: HostContext):
        pending = self.pending_interpret
        if pending is None:
            raise JNIError("dvmInterpret with no pending frame")
        self.pending_interpret = None
        frame = pending["frame"]
        method = pending["method"]
        log = self.vm.event_log
        if log.enabled:
            log.emit(
                "jni", "dvmInterpret",
                f"{method.full_name} shorty={method.shorty} "
                f"curFrame@0x{frame.fp:08x}",
                method=method.full_name, shorty=method.shorty,
                frame=frame.fp, registers=frame.register_count,
                ins=method.ins_size)
        try:
            result = self.vm.interpreter.execute_frame(frame)
            self.vm.interp_save_state = result
            return result.value
        except PendingException as pending_exception:
            self.pending_exception = (pending_exception.exception_address,
                                      pending_exception.taint,
                                      pending_exception.class_name)
            self.vm.interp_save_state = Slot()
            return 0
        finally:
            self.vm.stack.pop_frame()

    def _impl_dvmDecodeIndirectRef(self, ctx: HostContext):
        return self.vm.irt.decode(ctx.arg(0))

    # ----------------------------------------------------- object creation

    def _impl_dvmAllocObject(self, ctx: HostContext):
        class_name = self.class_from_handle(ctx.arg(0))
        return self.vm.new_instance(class_name).address

    def _impl_dvmCreateStringFromCstr(self, ctx: HostContext):
        text = ctx.cstring_arg(0)
        record = self.vm.heap.alloc_string(text)
        log = self.vm.event_log
        if log.enabled:
            log.emit(
                "jni", "dvmCreateStringFromCstr",
                f"{text!r} -> 0x{record.address:08x}",
                text=text, address=record.address, source_ptr=ctx.arg(0),
                length=len(text))
        return record.address

    def _impl_dvmCreateStringFromUnicode(self, ctx: HostContext):
        pointer, length = ctx.arg(0), ctx.arg(1)
        data = self.emu.memory.read_bytes(pointer, 2 * length)
        text = data.decode("utf-16-le", errors="replace")
        record = self.vm.heap.alloc_string(text)
        log = self.vm.event_log
        if log.enabled:
            log.emit(
                "jni", "dvmCreateStringFromUnicode",
                f"{text!r} -> 0x{record.address:08x}",
                text=text, address=record.address, source_ptr=pointer,
                length=2 * length)
        return record.address

    def _impl_dvmAllocArrayByClass(self, ctx: HostContext):
        length = ctx.arg(1)
        return self.vm.heap.alloc_array("L", length).address

    def _impl_dvmAllocPrimitiveArray(self, ctx: HostContext):
        type_char = chr(ctx.arg(0) & 0xFF) or "I"
        length = ctx.arg(1)
        return self.vm.heap.alloc_array(type_char, length).address

    def _env_NewStringUTF(self, ctx: HostContext):
        cstr_ptr = ctx.arg(1)
        cpu = self.emu.cpu
        saved = cpu.regs[0]
        cpu.regs[0] = cstr_ptr
        self.emu.call_host(self.symbols["dvmCreateStringFromCstr"])
        address = cpu.regs[0]
        cpu.regs[0] = saved
        return self.vm.irt.add_local(address)

    def _env_NewString(self, ctx: HostContext):
        cpu = self.emu.cpu
        saved = cpu.regs[:2]
        cpu.regs[0], cpu.regs[1] = ctx.arg(1), ctx.arg(2)
        self.emu.call_host(self.symbols["dvmCreateStringFromUnicode"])
        address = cpu.regs[0]
        cpu.regs[0:2] = saved
        return self.vm.irt.add_local(address)

    def _new_object_common(self, ctx: HostContext, args_block: int):
        class_handle = ctx.arg(1)
        method_handle = ctx.arg(2)
        cpu = self.emu.cpu
        saved = cpu.regs[0]
        cpu.regs[0] = class_handle
        self.emu.call_host(self.symbols["dvmAllocObject"])
        address = cpu.regs[0]
        cpu.regs[0] = saved
        iref = self.vm.irt.add_local(address)
        if method_handle:
            saved4 = cpu.regs[:4]
            cpu.regs[0] = method_handle
            cpu.regs[1] = iref
            cpu.regs[2] = args_block
            cpu.regs[3] = 0
            self.emu.call_host(self.symbols["dvmCallMethodA"])
            cpu.regs[0:4] = saved4
        return iref

    def _env_NewObject(self, ctx: HostContext):
        method_handle = ctx.arg(2)
        param_count = 0
        if method_handle:
            param_count = len(self.method_from_handle(method_handle).shorty) - 1
        block = self.chars_heap.alloc(max(4 * param_count, 4))
        self.emu.memory.write_words(
            block, [ctx.arg(3 + index) for index in range(param_count)])
        try:
            return self._new_object_common(ctx, block)
        finally:
            self.chars_heap.free(block)

    def _env_NewObjectV(self, ctx: HostContext):
        return self._new_object_common(ctx, ctx.arg(3))

    def _env_NewObjectA(self, ctx: HostContext):
        return self._new_object_common(ctx, ctx.arg(3))

    def _env_NewObjectArray(self, ctx: HostContext):
        length = ctx.arg(1)
        cpu = self.emu.cpu
        saved = cpu.regs[:2]
        cpu.regs[0], cpu.regs[1] = ctx.arg(2), length
        self.emu.call_host(self.symbols["dvmAllocArrayByClass"])
        address = cpu.regs[0]
        cpu.regs[0:2] = saved
        return self.vm.irt.add_local(address)

    def _make_new_prim_array(self, type_name: str):
        type_char = _PRIM_TYPE_CHAR[type_name]

        def implementation(ctx: HostContext):
            length = ctx.arg(1)
            cpu = self.emu.cpu
            saved = cpu.regs[:2]
            cpu.regs[0], cpu.regs[1] = ord(type_char), length
            self.emu.call_host(self.symbols["dvmAllocPrimitiveArray"])
            address = cpu.regs[0]
            cpu.regs[0:2] = saved
            return self.vm.irt.add_local(address)

        return implementation

    # ----------------------------------------------------- class/member lookup

    def _env_FindClass(self, ctx: HostContext):
        name = ctx.cstring_arg(1)
        descriptor = name if name.startswith("L") else f"L{name};"
        return self.class_handle(descriptor)

    def _lookup_method(self, ctx: HostContext):
        class_name = self.class_from_handle(ctx.arg(1))
        method_name = ctx.cstring_arg(2)
        method = self.vm.resolve_method(f"{class_name}->{method_name}")
        return self.method_handle(method)

    def _env_GetMethodID(self, ctx: HostContext):
        return self._lookup_method(ctx)

    def _env_GetStaticMethodID(self, ctx: HostContext):
        return self._lookup_method(ctx)

    def _env_GetFieldID(self, ctx: HostContext):
        class_name = self.class_from_handle(ctx.arg(1))
        return self.field_handle(class_name, ctx.cstring_arg(2))

    def _env_GetStaticFieldID(self, ctx: HostContext):
        return self._env_GetFieldID(ctx)

    def _env_GetObjectClass(self, ctx: HostContext):
        record = self._object_from_iref(ctx.arg(1))
        return self.class_handle(record.class_name)

    # ----------------------------------------------------- field access (Table IV)

    def _object_from_iref(self, iref: int) -> ObjectRecord:
        address = self.vm.irt.decode(iref)
        if address == 0:
            raise JNIError("NULL object reference")
        return self.vm.heap.get(address)

    def _make_field_access(self, type_name: str, get: bool, static: bool):
        is_object = type_name == "Object"

        def implementation(ctx: HostContext):
            field_class, field_name = self.field_from_handle(ctx.arg(2))
            if static:
                symbol = f"{field_class}->{field_name}"
                if get:
                    value, __ = self.vm.get_static(symbol)
                    return self.vm.irt.add_local(value) if is_object else value
                raw = ctx.arg(3)
                value = self.vm.irt.decode(raw) if is_object else raw
                __, old_taint = self.vm.get_static(symbol)
                self.vm.set_static(symbol, value, old_taint,
                                   is_ref=is_object)
                return None
            record = self._object_from_iref(ctx.arg(1))
            if get:
                slot = record.fields.get(field_name)
                value = slot.value if slot else 0
                return self.vm.irt.add_local(value) if is_object else value
            raw = ctx.arg(3)
            value = self.vm.irt.decode(raw) if is_object else raw
            slot = record.fields.get(field_name)
            if slot is None:
                slot = Slot()
                record.fields[field_name] = slot
            slot.value = value
            slot.is_ref = is_object
            return None

        return implementation

    # ----------------------------------------------------- strings and arrays

    def _env_GetStringUTFChars(self, ctx: HostContext):
        record = self._object_from_iref(ctx.arg(1))
        if not record.is_string:
            raise JNIError("GetStringUTFChars on non-string")
        data = record.text.encode("utf-8")
        buffer = self.chars_heap.alloc(len(data) + 1)
        self.emu.memory.write_bytes(buffer, data + b"\x00")
        if ctx.arg(2):
            self.emu.memory.write_u8(ctx.arg(2), 1)  # *isCopy = JNI_TRUE
        log = self.vm.event_log
        if log.enabled:
            log.emit(
                "jni", "GetStringUTFChars",
                f"{record.text!r} -> buffer@0x{buffer:08x}",
                text=record.text, buffer=buffer, length=len(data),
                jstring=ctx.arg(1), string_address=record.address)
        return buffer

    def _env_ReleaseStringUTFChars(self, ctx: HostContext):
        self.chars_heap.free(ctx.arg(2))
        return 0

    def _env_GetStringLength(self, ctx: HostContext):
        return len(self._object_from_iref(ctx.arg(1)).text)

    def _env_GetStringUTFLength(self, ctx: HostContext):
        return len(self._object_from_iref(ctx.arg(1)).text.encode("utf-8"))

    def _array_from_iref(self, iref: int) -> ObjectRecord:
        record = self._object_from_iref(iref)
        if not record.is_array:
            raise JNIError("expected an array reference")
        return record

    def _env_GetArrayLength(self, ctx: HostContext):
        return len(self._array_from_iref(ctx.arg(1)).elements)

    def _env_GetObjectArrayElement(self, ctx: HostContext):
        record = self._array_from_iref(ctx.arg(1))
        index = ctx.arg(2)
        if not 0 <= index < len(record.elements):
            raise JNIError(f"array index {index} out of bounds")
        return self.vm.irt.add_local(record.elements[index].value)

    def _env_SetObjectArrayElement(self, ctx: HostContext):
        record = self._array_from_iref(ctx.arg(1))
        index = ctx.arg(2)
        if not 0 <= index < len(record.elements):
            raise JNIError(f"array index {index} out of bounds")
        record.elements[index] = Slot(self.vm.irt.decode(ctx.arg(3)),
                                      TAINT_CLEAR, True)
        self.vm.heap.sync_array_to_memory(record)
        return 0

    def _env_GetByteArrayRegion(self, ctx: HostContext):
        record = self._array_from_iref(ctx.arg(1))
        start, length, buffer = ctx.arg(2), ctx.arg(3), ctx.arg(4)
        for offset in range(length):
            value = record.elements[start + offset].value & 0xFF
            self.emu.memory.write_u8(buffer + offset, value)
        return 0

    def _env_SetByteArrayRegion(self, ctx: HostContext):
        record = self._array_from_iref(ctx.arg(1))
        start, length, buffer = ctx.arg(2), ctx.arg(3), ctx.arg(4)
        for offset in range(length):
            record.elements[start + offset] = Slot(
                self.emu.memory.read_u8(buffer + offset))
        self.vm.heap.sync_array_to_memory(record)
        return 0

    def _env_GetIntArrayRegion(self, ctx: HostContext):
        record = self._array_from_iref(ctx.arg(1))
        start, length, buffer = ctx.arg(2), ctx.arg(3), ctx.arg(4)
        for offset in range(length):
            self.emu.memory.write_u32(
                buffer + 4 * offset, record.elements[start + offset].value)
        return 0

    def _env_SetIntArrayRegion(self, ctx: HostContext):
        record = self._array_from_iref(ctx.arg(1))
        start, length, buffer = ctx.arg(2), ctx.arg(3), ctx.arg(4)
        for offset in range(length):
            record.elements[start + offset] = Slot(
                self.emu.memory.read_u32(buffer + 4 * offset))
        self.vm.heap.sync_array_to_memory(record)
        return 0

    # ----------------------------------------------------- references

    def _env_NewGlobalRef(self, ctx: HostContext):
        address = self.vm.irt.decode(ctx.arg(1))
        return self.vm.irt.add_global(address)

    def _env_DeleteGlobalRef(self, ctx: HostContext):
        if ctx.arg(1):
            self.vm.irt.remove(ctx.arg(1))
        return 0

    def _env_DeleteLocalRef(self, ctx: HostContext):
        if ctx.arg(1):
            self.vm.irt.remove(ctx.arg(1))
        return 0

    # ----------------------------------------------------- exceptions

    def _impl_initException(self, ctx: HostContext):
        """Create the message string and run the constructor chain."""
        exception_address, message_ptr = ctx.arg(0), ctx.arg(1)
        cpu = self.emu.cpu
        saved = cpu.regs[0]
        cpu.regs[0] = message_ptr
        self.emu.call_host(self.symbols["dvmCreateStringFromCstr"])
        string_address = cpu.regs[0]
        cpu.regs[0] = saved
        record = self.vm.heap.get(exception_address)
        record.fields["message"] = Slot(string_address, TAINT_CLEAR, True)
        # Invoke the class's constructor through dvmCallMethod if it has one.
        class_def = self.vm.classes.get(record.class_name)
        if class_def and "<init>" in (class_def.methods if class_def else {}):
            method = class_def.methods["<init>"]
            block = self.chars_heap.alloc(4)
            iref = self.vm.irt.add_local(exception_address)
            saved4 = cpu.regs[:4]
            cpu.regs[0] = self.method_handle(method)
            cpu.regs[1] = iref
            cpu.regs[2] = block
            cpu.regs[3] = 0
            self.emu.call_host(self.symbols["dvmCallMethodV"])
            cpu.regs[0:4] = saved4
            self.chars_heap.free(block)
        return string_address

    def _env_ThrowNew(self, ctx: HostContext):
        class_name = self.class_from_handle(ctx.arg(1))
        message_ptr = ctx.arg(2)
        cpu = self.emu.cpu
        saved = cpu.regs[0]
        cpu.regs[0] = ctx.arg(1)
        self.emu.call_host(self.symbols["dvmAllocObject"])
        exception_address = cpu.regs[0]
        cpu.regs[0] = saved

        saved2 = cpu.regs[:2]
        cpu.regs[0], cpu.regs[1] = exception_address, message_ptr
        self.emu.call_host(self.symbols["initException"])
        cpu.regs[0:2] = saved2

        self.pending_exception = (exception_address, TAINT_CLEAR, class_name)
        self.vm.event_log.emit(
            "jni", "ThrowNew", f"{class_name} @0x{exception_address:08x}",
            class_name=class_name, exception=exception_address,
            message_ptr=message_ptr)
        return 0

    def _env_Throw(self, ctx: HostContext):
        record = self._object_from_iref(ctx.arg(1))
        self.pending_exception = (record.address, TAINT_CLEAR,
                                  record.class_name)
        return 0

    def _env_ExceptionOccurred(self, ctx: HostContext):
        if self.pending_exception is None:
            return 0
        return self.vm.irt.add_local(self.pending_exception[0])

    def _env_ExceptionClear(self, ctx: HostContext):
        self.pending_exception = None
        return 0

    # ----------------------------------------------------- RegisterNatives

    def _env_RegisterNatives(self, ctx: HostContext):
        """Bind native methods explicitly, the JNI_OnLoad way.

        The method table is an array of ``JNINativeMethod`` structs::

            +0 name pointer   +4 signature pointer   +8 function pointer

        Real malware prefers this to ``Java_*`` symbol export because it
        hides the native entry points from static inspection.
        """
        class_name = self.class_from_handle(ctx.arg(1))
        table_ptr = ctx.arg(2)
        count = ctx.arg(3)
        memory = self.emu.memory
        class_def = self.vm.classes.get(class_name)
        if class_def is None:
            return 0xFFFF_FFFF  # JNI_ERR
        bound = 0
        for index in range(count):
            entry = table_ptr + 12 * index
            name = memory.read_cstring(memory.read_u32(entry)).decode(
                "utf-8", errors="replace")
            function = memory.read_u32(entry + 8)
            method = class_def.methods.get(name)
            if method is None or not method.is_native:
                return 0xFFFF_FFFF
            method.native_address = function
            # Rebinding invalidates the compiled call plan (belt and
            # braces: the closure re-reads native_address anyway).
            if self._trampolines.pop(method, None) is not None:
                self.trampoline_invalidations += 1
            bound += 1
            self.vm.event_log.emit(
                "jni", "RegisterNatives",
                f"{class_name}->{name} @0x{function & ~1:08x}",
                class_name=class_name, method=name, address=function)
        return 0 if bound == count else 0xFFFF_FFFF

    def _env_UnregisterNatives(self, ctx: HostContext):
        class_name = self.class_from_handle(ctx.arg(1))
        class_def = self.vm.classes.get(class_name)
        if class_def is None:
            return 0xFFFF_FFFF
        for method in class_def.methods.values():
            if method.is_native:
                method.native_address = 0
                if self._trampolines.pop(method, None) is not None:
                    self.trampoline_invalidations += 1
        return 0
