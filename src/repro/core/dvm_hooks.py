"""NDroid's DVM hook engine (Section V.B).

Instruments the JNI-related libdvm functions in five groups:

1. **JNI entry** — ``dvmCallJNIMethod``: build a :class:`SourcePolicy`
   from the parameters-and-taints block TaintDroid left in the outs area,
   and seed native-side taints right before the native method's first
   instruction executes.  On exit, overwrite the call bridge's
   taint-if-any-param-tainted return label with the precise shadow-R0
   taint.
2. **JNI exit** — the ``Call*Method*`` family → ``dvmCallMethod*`` →
   ``dvmInterpret``, gated by multilevel hooking: collect argument taints
   from the native side (taint map + iref shadow) and write them into the
   freshly pushed DVM frame slots (which the DVM itself cleared).
3. **Object creation** — NOF/MAF pairs (Table III): taint the new
   String/array object in TaintDroid's format and key its native-side
   shadow by indirect reference.
4. **Field access** — Table IV: bridge taints between shadow registers
   and TaintDroid's interleaved field-taint storage.
5. **Exception** — ``ThrowNew``/``initException``: carry the message
   C-string's taint onto the exception's message String object.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import ReproError
from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.core.multilevel import MultilevelHookManager
from repro.core.source_policy import SourcePolicy, SourcePolicyMap
from repro.core.taint_engine import TaintEngine
from repro.cpu.state import CpuState
from repro.observability.ledger import Loc
from repro.dalvik.stack import DvmStack
from repro.jni.layer import CrossingPlan, JniLayer
from repro.jni.slots import JNI_SLOTS

_CALL_METHOD_NAMES = [name for name in JNI_SLOTS
                      if "Method" in name and name.startswith("Call")]
_GET_FIELD_NAMES = [name for name in JNI_SLOTS
                    if name.startswith(("Get", "GetStatic"))
                    and name.endswith("Field")]
_SET_FIELD_NAMES = [name for name in JNI_SLOTS
                    if name.startswith(("Set", "SetStatic"))
                    and name.endswith("Field")]


class DvmHookEngine:
    """Installs and services all DVM-side hooks."""

    def __init__(self, platform, taint_engine: TaintEngine,
                 multilevel: MultilevelHookManager,
                 guard: Optional[Callable] = None) -> None:
        self.platform = platform
        self.emu = platform.emu
        self.jni: JniLayer = platform.jni
        self.taint = taint_engine
        self.multilevel = multilevel
        # Graceful-degradation wrapper (NDroid.guard_hook); identity when
        # the engine is used standalone in tests.
        self._guard = guard if guard is not None else \
            (lambda name, hook, fallback=None: hook)
        self.source_policies = SourcePolicyMap()
        # Provenance ledger (observability); None when not tracing.
        self.ledger = None
        self._init_job_state()

    # -- warm-worker reset ---------------------------------------------------------

    def _init_job_state(self) -> None:
        # Per-call state stacks (JNI calls nest).
        self._jni_entry_stack: List[Dict] = []
        self._java_call_taints: List[List[TaintLabel]] = []
        self._pending_creation_taint: Optional[TaintLabel] = None
        self._pending_creation_address: Optional[int] = None
        # (Loc, mechanism) of the native bytes a New* call was built from.
        self._pending_creation_origin = None
        self._pending_string_chars: List[Dict] = []
        self._pending_field_get: List[Dict] = []
        self._pending_throw_taint: Optional[TaintLabel] = None
        # The message C-string a pending ThrowNew's taint came from.
        self._pending_throw_origin: Optional[Loc] = None
        # Native method address -> its SourcePolicy.apply entry hook.
        self._native_entry_hooks: Dict[int, Callable] = {}
        self.stats = {"jni_entries": 0, "jni_exits": 0, "creations": 0,
                      "field_accesses": 0, "exceptions": 0}
        # Every native invocation that received tainted parameters — the
        # "delivered sensitive data to native code" observation of the
        # paper's Section VI app study.
        self.tainted_deliveries: List[Dict] = []

    def reset_for_job(self) -> None:
        """Forget the job's policies, call state and counts, and remove
        its native-method entry hooks (translations stay): a resident
        method reached natively must not meet the last job's policy."""
        for address, hook in self._native_entry_hooks.items():
            self.emu.remove_entry_hook(address, hook)
        self.source_policies.reset_for_job()
        self._init_job_state()

    def _trace(self, tag: TaintLabel, mechanism: str, src: Loc, dst: Loc,
               location: str = "") -> None:
        if self.ledger is not None:
            self.ledger.record(tag, mechanism, src, dst, location)

    # -- wiring ------------------------------------------------------------------

    def install(self) -> None:
        symbols = self.jni.symbols
        emu = self.emu
        guard = self._guard
        bridge = symbols["dvmCallJNIMethod"]
        exit_hook = guard("dvmCallJNIMethod.exit", self._on_call_jni_exit)
        hooks = (emu.add_entry_hook(bridge, guard(
                     "dvmCallJNIMethod.entry", self._on_call_jni_entry,
                     self._jni_entry_fallback)),
                 emu.add_exit_hook(bridge, exit_hook))
        # The same two halves, handed their inputs directly, so a crossing
        # nothing else observes skips the guest round trip (§V.B's entry
        # mechanism is host-side data either way).
        self.jni.crossing_plan = CrossingPlan(
            hooks=hooks,
            entry=guard("dvmCallJNIMethod.entry", self._jni_entry,
                        self._jni_entry_fallback),
            exit=exit_hook)

        # JNI exit: gate dvmCallMethod*/dvmInterpret on native provenance
        # (Fig. 5); register the multilevel chains per Table II.
        for name in _CALL_METHOD_NAMES:
            inner = "dvmCallMethodA" if name.endswith("A") else \
                "dvmCallMethodV"
            self.multilevel.add_chain([name, inner, "dvmInterpret"])
        for inner in ("dvmCallMethodV", "dvmCallMethodA"):
            emu.add_entry_hook(symbols[inner],
                               guard(f"{inner}.entry",
                                     self._make_call_method_hook(inner)))
        emu.add_entry_hook(symbols["dvmInterpret"],
                           guard("dvmInterpret.entry",
                                 self._on_interpret_entry))
        emu.add_exit_hook(symbols["dvmInterpret"],
                          guard("dvmInterpret.exit",
                                self._on_interpret_exit))
        for name in _CALL_METHOD_NAMES:
            emu.add_exit_hook(symbols[name],
                              guard(f"{name}.exit",
                                    self._make_call_method_exit(name)))

        # Object creation (Table III NOF -> MAF pairs).
        for head, tail in (("NewStringUTF", "dvmCreateStringFromCstr"),
                           ("NewString", "dvmCreateStringFromUnicode"),
                           ("NewObject", "dvmAllocObject"),
                           ("NewObjectV", "dvmAllocObject"),
                           ("NewObjectA", "dvmAllocObject"),
                           ("NewObjectArray", "dvmAllocArrayByClass")):
            self.multilevel.add_chain([head, tail])
        emu.add_entry_hook(symbols["NewStringUTF"],
                           guard("NewStringUTF.entry",
                                 self._on_new_string_utf_entry))
        emu.add_exit_hook(symbols["NewStringUTF"],
                          guard("NewStringUTF.exit",
                                self._on_new_string_exit))
        emu.add_entry_hook(symbols["NewString"],
                           guard("NewString.entry",
                                 self._on_new_string_entry))
        emu.add_exit_hook(symbols["NewString"],
                          guard("NewString.exit", self._on_new_string_exit))
        emu.add_exit_hook(symbols["dvmCreateStringFromCstr"],
                          guard("dvmCreateStringFromCstr.exit",
                                self._on_create_string_exit))
        emu.add_exit_hook(symbols["dvmCreateStringFromUnicode"],
                          guard("dvmCreateStringFromUnicode.exit",
                                self._on_create_string_exit))

        # Field access (Table IV).
        for name in _GET_FIELD_NAMES:
            emu.add_entry_hook(symbols[name],
                               guard(f"{name}.entry",
                                     self._make_get_field_entry(name)))
            emu.add_exit_hook(symbols[name],
                              guard(f"{name}.exit",
                                    self._make_get_field_exit(name)))
        for name in _SET_FIELD_NAMES:
            emu.add_entry_hook(symbols[name],
                               guard(f"{name}.entry",
                                     self._make_set_field_hook(name)))

        # String/array data transfer into native memory.
        emu.add_entry_hook(symbols["GetStringUTFChars"],
                           guard("GetStringUTFChars.entry",
                                 self._on_get_string_chars_entry))
        emu.add_exit_hook(symbols["GetStringUTFChars"],
                          guard("GetStringUTFChars.exit",
                                self._on_get_string_chars_exit))
        for kind, element_size in (("Byte", 1), ("Int", 4)):
            for name, make in ((f"Get{kind}ArrayRegion",
                                self._make_get_array_region),
                               (f"Set{kind}ArrayRegion",
                                self._make_set_array_region)):
                emu.add_entry_hook(symbols[name],
                                   guard(f"{name}.entry",
                                         make(name, element_size)))

        # Exceptions.
        self.multilevel.add_chain(["ThrowNew", "initException"])
        emu.add_entry_hook(symbols["ThrowNew"],
                           guard("ThrowNew.entry", self._on_throw_new_entry))
        emu.add_exit_hook(symbols["ThrowNew"],
                          guard("ThrowNew.exit", self._on_throw_new_exit))

    # ================================================================ JNI entry

    def _on_call_jni_entry(self, emu) -> None:
        """Parse the outs block ``dvmCallJNIMethod`` received (r0, r2)."""
        args_ptr = emu.cpu.regs[0]
        handle = emu.cpu.regs[2]
        method = self.jni.method_from_handle(handle)
        taints: List[TaintLabel] = []
        for index in range(method.ins_size):
            __, taint = DvmStack.read_native_arg(emu.memory, args_ptr, index)
            taints.append(taint)
        self._jni_entry(emu, method, taints, args_ptr)

    def _jni_entry(self, emu, method, taints: List[TaintLabel],
                   args_ptr: int, cell: Optional[List] = None) -> None:
        """Step 1: create and populate a SourcePolicy (Section V.B).

        ``cell`` is a crossing plan's return-taint slot; without one the
        exit hook writes the outs block's slot at ``args_ptr``.
        """
        count = len(taints)
        self.stats["jni_entries"] += 1

        # Map parameter taints onto JNI argument positions:
        # [env, this|jclass, param0, param1, ...].
        if method.is_static:
            jni_taints = [TAINT_CLEAR, TAINT_CLEAR] + taints
        else:
            jni_taints = [TAINT_CLEAR, taints[0] if taints else TAINT_CLEAR]
            jni_taints += taints[1:]
        register_taints = (jni_taints + [TAINT_CLEAR] * 4)[:4]
        stack_taints = jni_taints[4:]

        policy = SourcePolicy(
            method_address=method.native_address & ~1,
            t_r0=register_taints[0], t_r1=register_taints[1],
            t_r2=register_taints[2], t_r3=register_taints[3],
            stack_args_num=len(stack_taints),
            stack_args_taints=stack_taints,
            method_shorty=method.shorty,
            method_name=method.full_name,
            access_flag=method.access_flags,
            handler=self._source_policy_handler)
        self.source_policies.put(policy)
        self._jni_entry_stack.append({
            "method": method, "args_ptr": args_ptr, "count": count,
            "taints": taints, "cell": cell,
        })
        address = method.native_address & ~1
        if address not in self._native_entry_hooks:
            self._native_entry_hooks[address] = emu.add_entry_hook(
                address, self._guard("SourcePolicy.apply",
                                     self._on_native_method_entry))
        if policy.has_taint():
            union = TAINT_CLEAR
            for taint in taints:
                union |= taint
            self.tainted_deliveries.append({
                "method": method.full_name, "taint": union,
                "class_name": method.class_name,
            })

    def _jni_entry_fallback(self, emu, method=None,
                            taints: Optional[List[TaintLabel]] = None,
                            args_ptr: Optional[int] = None,
                            cell: Optional[List] = None) -> TaintLabel:
        """Quarantine stand-in for the JNI-entry hook.

        Reads whatever parameter taints TaintDroid left in the outs area
        without interpreting the method (the part that faulted) and
        returns their union, so degradation still carries every label
        that crossed the JNI boundary.  A crossing plan hands the same
        first four labels over directly.
        """
        label = TAINT_CLEAR
        if taints is not None:
            for taint in taints[:4]:
                label |= taint
            return label
        args_ptr = emu.cpu.regs[0]
        for index in range(4):
            try:
                __, taint = DvmStack.read_native_arg(emu.memory, args_ptr,
                                                     index)
            except ReproError:
                break
            label |= taint
        return label

    def _on_native_method_entry(self, emu) -> None:
        """Step 2: apply the SourcePolicy right before the first insn."""
        policy = self.source_policies.lookup(emu.cpu.pc)
        if policy is None:
            return
        policy.apply(emu.cpu)

    def _source_policy_handler(self, policy: SourcePolicy,
                               cpu: CpuState) -> None:
        """Initialise registers and memories with proper taint values."""
        for index, label in enumerate(policy.register_taints()):
            self.taint.set_register(index, label)
            if label:
                # The JNI crossing itself: a tainted Java parameter landed
                # in a native register (Fig. 6's dvmCallJNIMethod step).
                self._trace(label, "jni:dvmCallJNIMethod",
                            Loc.java(label), Loc.reg(index),
                            location=policy.method_name)
        for index, label in enumerate(policy.stack_args_taints):
            if label:
                self.taint.set_memory(cpu.sp + 4 * index, 4, label)
                self._trace(label, "jni:dvmCallJNIMethod",
                            Loc.java(label), Loc.mem(cpu.sp + 4 * index, 4),
                            location=policy.method_name)
        # Key object parameters' shadow taints by indirect reference.
        jni_args = self.jni.native_call_args
        if jni_args is not None:
            labels = policy.register_taints() + policy.stack_args_taints
            for value, label in zip(jni_args, labels):
                if label and self.jni.vm.irt.is_indirect(value):
                    self.taint.add_iref(value, label)
                    self._trace(label, "jni:dvmCallJNIMethod",
                                Loc.java(label), Loc.iref(value),
                                location=policy.method_name)

    def _on_call_jni_exit(self, emu) -> None:
        """Overwrite the bridge's policy taint with the precise label."""
        if not self._jni_entry_stack:
            return
        entry = self._jni_entry_stack.pop()
        self.stats["jni_exits"] += 1
        method = entry["method"]
        label = self.taint.get_register(0)
        return_value = emu.cpu.regs[0]
        if method.return_type == "L":
            label |= self.taint.get_iref(return_value)
        if label:
            source = (Loc.iref(return_value) if method.return_type == "L"
                      and self.taint.get_iref(return_value) else Loc.reg(0))
            self._trace(label, "jni:dvmCallJNIMethod.return", source,
                        Loc.java(label), location=method.full_name)
        if entry["cell"] is not None:
            entry["cell"][0] = label
        else:
            emu.memory.write_u32(DvmStack.native_return_taint_address(
                entry["args_ptr"], entry["count"]), label)
        # Reset shadow registers: the native frame is gone.
        self.taint.clear_all_registers()

    # =============================================================== JNI exit

    def _make_call_method_hook(self, name: str):
        def hook(emu) -> None:
            if not self.multilevel.gate(name):
                return
            handle = emu.cpu.regs[0]
            this_iref = emu.cpu.regs[1]
            block_ptr = emu.cpu.regs[2]
            method = self.jni.method_from_handle(handle)
            param_types = method.shorty[1:]
            labels: List[TaintLabel] = []
            if not method.is_static:
                this_label = self.taint.get_iref(this_iref)
                labels.append(this_label)
                if this_label:
                    self._trace(this_label, f"jni:{name}",
                                Loc.iref(this_iref), Loc.java(this_label),
                                location=method.full_name)
            for index, type_char in enumerate(param_types):
                word_address = block_ptr + 4 * index
                label = self.taint.get_memory(word_address, 4)
                source: Loc = Loc.mem(word_address, 4)
                if type_char == "L":
                    word = emu.memory.read_u32(word_address)
                    iref_label = self.taint.get_iref(word)
                    if iref_label:
                        source = Loc.iref(word)
                    label |= iref_label
                if label:
                    # The reverse crossing: a tainted native value enters
                    # the Java context as a Call*Method* argument.
                    self._trace(label, f"jni:{name}", source,
                                Loc.java(label), location=method.full_name)
                labels.append(label)
            self._java_call_taints.append(labels)
        return hook

    def _on_interpret_entry(self, emu) -> None:
        if not self.multilevel.gate("dvmInterpret"):
            return
        pending = self.jni.pending_interpret
        if pending is None or not self._java_call_taints:
            return
        labels = self._java_call_taints.pop()
        frame = pending["frame"]
        first_in = pending["first_in"]
        method = pending["method"]
        for offset, label in enumerate(labels):
            if label:
                frame.add_taint(first_in + offset, label)
                # Fig. 9's last step: the argument's taint lands in the
                # freshly pushed frame's slot, which the DVM had cleared.
                self._trace(label, "jni:dvmInterpret", Loc.java(label),
                            Loc.dvreg(frame.slot_address(first_in + offset)),
                            location=method.full_name)
        self.stats["jni_exits"] += 1

    def _on_interpret_exit(self, emu) -> None:
        # The interpreted method's return taint flows back to the native
        # context through shadow R0.
        result = self.jni.vm.interp_save_state
        if result.taint:
            self.taint.set_register(0, result.taint)

    def _make_call_method_exit(self, name: str):
        returns_object = "Object" in name

        def hook(emu) -> None:
            result = self.jni.vm.interp_save_state
            if not result.taint:
                return
            self.taint.set_register(0, result.taint)
            if returns_object:
                self.taint.add_iref(emu.cpu.regs[0], result.taint)
            # The Java method's tainted result comes back to native code.
            self._trace(result.taint, f"jni:{name}", Loc.java(result.taint),
                        Loc.iref(emu.cpu.regs[0]) if returns_object
                        else Loc.reg(0))
        return hook

    # ========================================================== object creation

    def _on_new_string_utf_entry(self, emu) -> None:
        cstr_ptr = emu.cpu.regs[1]
        data = emu.memory.read_cstring(cstr_ptr)
        label = self.taint.get_memory(cstr_ptr, len(data) + 1)
        label |= self.taint.get_register(1)
        self._pending_creation_taint = label
        self._pending_creation_address = None
        self._pending_creation_origin = (Loc.mem(cstr_ptr, len(data) + 1),
                                         "jni:NewStringUTF")

    def _on_new_string_entry(self, emu) -> None:
        pointer, length = emu.cpu.regs[1], emu.cpu.regs[2]
        label = self.taint.get_memory(pointer, 2 * length)
        label |= self.taint.get_register(1)
        self._pending_creation_taint = label
        self._pending_creation_address = None
        self._pending_creation_origin = (Loc.mem(pointer, 2 * length),
                                         "jni:NewString")

    def _on_create_string_exit(self, emu) -> None:
        if self._pending_creation_taint is None and \
                self._pending_throw_taint is None:
            return
        self._pending_creation_address = emu.cpu.regs[0]
        if self._pending_throw_taint:
            # Exception path: taint the message string object directly.
            record = self.jni.vm.heap.maybe_get(emu.cpu.regs[0])
            if record is not None:
                record.taint |= self._pending_throw_taint
                self.taint.add_memory(record.address, record.byte_size(),
                                      self._pending_throw_taint)
                self._trace(self._pending_throw_taint, "jni:ThrowNew",
                            self._pending_throw_origin,
                            Loc.mem(record.address, record.byte_size()))

    def _on_new_string_exit(self, emu) -> None:
        label = self._pending_creation_taint
        address = self._pending_creation_address
        origin = self._pending_creation_origin
        self._pending_creation_taint = None
        self._pending_creation_address = None
        self._pending_creation_origin = None
        if not label or address is None:
            return
        self.stats["creations"] += 1
        iref = emu.cpu.regs[0]
        record = self.jni.vm.heap.maybe_get(address)
        if record is not None:
            record.taint |= label  # TaintDroid-format object taint
            self.taint.add_memory(record.address, record.byte_size(), label)
        self.taint.add_iref(iref, label)
        self.taint.set_register(0, label)
        if origin is not None:
            source, mechanism = origin
            self._trace(label, mechanism, source, Loc.iref(iref))

    # ============================================================ field access

    def _make_get_field_entry(self, name: str):
        static = "Static" in name

        def hook(emu) -> None:
            self._pending_field_get.append({
                "name": name,
                "object_iref": 0 if static else emu.cpu.regs[1],
                "field_handle": emu.cpu.regs[2],
                "static": static,
            })
        return hook

    def _make_get_field_exit(self, name: str):
        is_object = "Object" in name

        def hook(emu) -> None:
            if not self._pending_field_get:
                return
            pending = self._pending_field_get.pop()
            self.stats["field_accesses"] += 1
            field_class, field_name = self.jni.field_from_handle(
                pending["field_handle"])
            label = TAINT_CLEAR
            if pending["static"]:
                __, label = self.jni.vm.get_static(
                    f"{field_class}->{field_name}")
            else:
                address = self.jni.vm.irt.decode(pending["object_iref"])
                record = self.jni.vm.heap.maybe_get(address)
                if record is not None:
                    slot = record.fields.get(field_name)
                    if slot is not None:
                        label = slot.taint
            self.taint.set_register(0, label)
            if not label:
                return
            if is_object:
                self.taint.add_iref(emu.cpu.regs[0], label)
            self._trace(label, f"jni:{name}", Loc.java(label),
                        Loc.iref(emu.cpu.regs[0]) if is_object
                        else Loc.reg(0),
                        location=f"{field_class}->{field_name}")
        return hook

    def _make_set_field_hook(self, name: str):
        static = "Static" in name
        is_object = "Object" in name

        def hook(emu) -> None:
            self.stats["field_accesses"] += 1
            field_handle = emu.cpu.regs[2]
            value = emu.cpu.regs[3]
            label = self.taint.get_register(3)
            if is_object:
                label |= self.taint.get_iref(value)
            if not label:
                return
            field_class, field_name = self.jni.field_from_handle(field_handle)
            if static:
                # The JNI impl runs after this hook and preserves the
                # existing taint label when it stores the value, so merging
                # here is enough.
                symbol = f"{field_class}->{field_name}"
                current, old_label = self.jni.vm.get_static(symbol)
                self.jni.vm.set_static(symbol, current, old_label | label,
                                       is_ref=is_object)
            else:
                address = self.jni.vm.irt.decode(emu.cpu.regs[1])
                record = self.jni.vm.heap.maybe_get(address)
                if record is not None:
                    from repro.dalvik.heap import Slot as HeapSlot
                    slot = record.fields.get(field_name)
                    if slot is None:
                        slot = HeapSlot()
                        record.fields[field_name] = slot
                    slot.taint |= label
            self._trace(label, f"jni:{name}",
                        Loc.iref(value) if is_object
                        and self.taint.get_iref(value) else Loc.reg(3),
                        Loc.java(label),
                        location=f"{field_class}->{field_name}")
        return hook

    # ==================================================== string/array transfer

    def _on_get_string_chars_entry(self, emu) -> None:
        iref = emu.cpu.regs[1]
        label = self.taint.get_iref(iref) | self.taint.get_register(1)
        address = self.jni.vm.irt.decode(iref)
        record = self.jni.vm.heap.maybe_get(address)
        if record is not None:
            label |= record.taint
            label |= self.taint.get_memory(record.address, record.byte_size())
        self._pending_string_chars.append({"taint": label, "iref": iref})

    def _on_get_string_chars_exit(self, emu) -> None:
        if not self._pending_string_chars:
            return
        pending = self._pending_string_chars.pop()
        label = pending["taint"]
        if not label:
            return
        buffer = emu.cpu.regs[0]
        length = len(emu.memory.read_cstring(buffer)) + 1
        self.taint.set_memory(buffer, length, label)
        self.taint.set_register(0, label)
        self._trace(label, "jni:GetStringUTFChars",
                    Loc.iref(pending["iref"]), Loc.mem(buffer, length))

    def _make_get_array_region(self, name: str, element_size: int):
        def hook(emu) -> None:
            """Get*ArrayRegion copies array data to a native buffer."""
            iref = emu.cpu.regs[1]
            size = emu.cpu.regs[3] * element_size
            buffer = self._fifth_argument(emu)
            address = self.jni.vm.irt.decode(iref)
            record = self.jni.vm.heap.maybe_get(address)
            label = self.taint.get_iref(iref)
            if record is not None:
                label |= record.taint
            if label:
                self.taint.set_memory(buffer, size, label)
                self._trace(label, f"jni:{name}", Loc.iref(iref),
                            Loc.mem(buffer, size))
        return hook

    def _make_set_array_region(self, name: str, element_size: int):
        def hook(emu) -> None:
            """Set*ArrayRegion moves native bytes into a Java array."""
            iref = emu.cpu.regs[1]
            size = emu.cpu.regs[3] * element_size
            buffer = self._fifth_argument(emu)
            label = self.taint.get_memory(buffer, size)
            if not label:
                return
            address = self.jni.vm.irt.decode(iref)
            record = self.jni.vm.heap.maybe_get(address)
            if record is not None:
                record.taint |= label
            self.taint.add_iref(iref, label)
            self._trace(label, f"jni:{name}", Loc.mem(buffer, size),
                        Loc.iref(iref))
        return hook

    @staticmethod
    def _fifth_argument(emu) -> int:
        return emu.memory.read_u32(emu.cpu.sp)

    # ============================================================== exceptions

    def _on_throw_new_entry(self, emu) -> None:
        message_ptr = emu.cpu.regs[2]
        data = emu.memory.read_cstring(message_ptr)
        label = self.taint.get_memory(message_ptr, len(data) + 1)
        label |= self.taint.get_register(2)
        self._pending_throw_taint = label or None
        self._pending_throw_origin = Loc.mem(message_ptr, len(data) + 1)
        self.stats["exceptions"] += 1

    def _on_throw_new_exit(self, emu) -> None:
        label = self._pending_throw_taint
        origin = self._pending_throw_origin
        self._pending_throw_taint = None
        self._pending_throw_origin = None
        if not label:
            return
        if self.jni.pending_exception is not None:
            address, old_label, class_name = self.jni.pending_exception
            self.jni.pending_exception = (address, old_label | label,
                                          class_name)
            record = self.jni.vm.heap.maybe_get(address)
            if record is not None:
                slot = record.fields.get("message")
                if slot is not None:
                    slot.taint |= label
                    message = self.jni.vm.heap.maybe_get(slot.value)
                    if message is not None:
                        message.taint |= label
            # The exception, message and all, enters the Java context.
            self._trace(label, "jni:ThrowNew", origin, Loc.java(label),
                        location=class_name)
