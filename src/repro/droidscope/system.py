"""DroidScope cost-model implementation."""

from __future__ import annotations

from typing import Dict

from repro.core.instruction_tracer import InstructionTracer
from repro.core.taint_engine import TaintEngine
from repro.taintdroid import TaintDroid


class DroidScopeSim:
    """Whole-system instruction-level tracking, no JNI semantics."""

    def __init__(self, platform) -> None:
        self.platform = platform
        self.taint_engine = TaintEngine()
        # Unscoped tracer: every region counts as "in scope", and it
        # re-derives each instruction's handler per step.
        self.tracer = InstructionTracer(self.taint_engine,
                                        is_third_party=lambda address: True)
        self._init_job_state()

    def _init_job_state(self) -> None:
        self.dalvik_reconstructions = 0
        self.library_walk_bytes = 0
        self.context_lookups = 0

    def reset_for_job(self) -> None:
        self.taint_engine.reset_for_job()
        self.tracer.reset_for_job()
        self._init_job_state()

    def _trace(self, ir, emu) -> None:
        """Per-instruction pipeline: context tracking, then taint.

        With no cooperation from the guest, DroidScope must re-establish
        execution context for *every* instruction: map the PC to a module
        (a VMA walk over the reconstructed view) and consult its
        whole-system shadow memory for the instruction's operands, before
        running the taint-propagation logic itself.
        """
        self.context_lookups += 1
        pc = emu.cpu.pc
        for region in emu.memory_map:
            if region.contains(pc):
                break
        # Whole-system shadow lookups for the operand registers (DroidScope
        # keeps taint state in memory-mapped shadow, not native fields).
        shadow_base = 0xD500_0000
        for index in (0, 1, 2, 3):
            self.taint_engine.get_memory(shadow_base + 4 * index)
        self.tracer(ir, emu)

    @classmethod
    def attach(cls, platform) -> "DroidScopeSim":
        if platform.taintdroid is None:
            TaintDroid.attach(platform)
        sim = cls(platform)
        platform.droidscope = sim
        platform.emu.add_tracer(sim._trace)
        platform.vm.interpreter.listener = sim._reconstruct_dvm_view
        sim._hook_all_library_calls()
        return sim

    # -- DVM-level view reconstruction ------------------------------------------

    def _reconstruct_dvm_view(self, frame, ins) -> None:
        """Re-derive the frame state from raw memory, per instruction.

        DroidScope has no cooperation from the DVM, so each interpreted
        instruction requires locating the frame and reading its register
        window out of guest memory.
        """
        self.dalvik_reconstructions += 1
        memory = self.platform.memory
        base = frame.fp
        for register in range(frame.register_count):
            memory.read_u32(base + 8 * register)
            memory.read_u32(base + 8 * register + 4)

    # -- instruction-level library tracing -----------------------------------------

    def _hook_all_library_calls(self) -> None:
        """Walk the data each libc/libm call touches, byte by byte.

        NDroid replaces this work with the Table VI summaries; DroidScope
        pays it for every call.
        """
        platform = self.platform
        buffer_walks = {
            "memcpy": (0, 1, 2), "memmove": (0, 1, 2), "memset": (0, None, 2),
            "memcmp": (0, 1, 2),
        }
        for name, address in platform.libc.symbols.items():
            if name in buffer_walks:
                platform.emu.add_entry_hook(
                    address, self._make_buffer_walk(*buffer_walks[name]))
            else:
                platform.emu.add_entry_hook(address, self._generic_walk)
        for address in platform.libm.symbols.values():
            platform.emu.add_entry_hook(address, self._generic_walk)

    def _make_buffer_walk(self, dest_arg, src_arg, len_arg):
        def hook(emu) -> None:
            length = min(emu.cpu.regs[len_arg], 1 << 16)
            self.library_walk_bytes += length
            dest = emu.cpu.regs[dest_arg]
            for offset in range(length):
                label = self.taint_engine.get_memory(
                    emu.cpu.regs[src_arg] + offset
                    if src_arg is not None else dest + offset)
                self.taint_engine.set_memory(dest + offset, 1, label)
        return hook

    def _generic_walk(self, emu) -> None:
        """Fixed per-call cost approximating a traced library prologue,
        body loop over the first argument's C string (when one exists),
        and epilogue."""
        pointer = emu.cpu.regs[0]
        length = 0
        if 0x1000 <= pointer < 0xF000_0000:
            try:
                length = min(
                    len(emu.memory.read_cstring(pointer, limit=4096)), 4096)
            except Exception:
                length = 0
        steps = 64 + length
        self.library_walk_bytes += steps
        for offset in range(steps):
            self.taint_engine.get_memory(pointer + offset)

    # -- statistics ---------------------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        return {
            "traced_instructions": self.tracer.traced_instructions,
            "dalvik_reconstructions": self.dalvik_reconstructions,
            "library_walk_bytes": self.library_walk_bytes,
        }
