"""Core execution engine: translation blocks with instrumentation gating.

Mirroring NDroid's QEMU substrate, the emulator executes *translation
blocks* — straight-line runs decoded once, cached by ``(pc, thumb)`` and
chained to their static successors — rather than fetch/decode/execute per
instruction.  Instrumentation is decided at translation boundaries: while
no per-instruction instrumentation is attached (no tracers, no fault
injector), blocks run through a tight micro-op loop with **zero**
per-instruction checks.

Taint analysis is *compiled into* the blocks rather than demoting them
(NDroid inserts its analysis at translation time inside QEMU's TCG
loop): a tracer declaring ``compiles_to_tb`` stays on the block engine —
at translation time the emulator asks it once per page whether the block
is in a third-party region and, when it is, requests a pre-bound Table V
taint micro-op per instruction.  Each such block carries two executable
variants sharing one translation pass: *clean* (taint ops elided) runs
while the taint engine's sticky ``maybe_tainted`` flag is off, *tainted*
(taint ops interleaved before their execution ops) once it flips — the
flag is re-read at every block dispatch, so the transition needs no
retranslation.  Anything else — plain tracers, several taint engines at
once, a fault injector — reverts execution to the single-step
interpreter whose semantics the blocks replicate (that path also serves
as the differential oracle for the compiled one).

Invalidation is page-granular and shared between the decode cache and
the block cache: a write into a page holding translated code (observed
through the memory write-watch), a host-function registration, or a new
entry/exit hook on that page drops the page's blocks and severs chain
links, so self-modifying code is re-translated at the next block
boundary.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import DecodeError, EmulationError
from repro.common.events import EventLog
from repro.cpu.arm_decoder import decode_arm
from repro.cpu.executor import Executor
from repro.cpu.isa import Instruction
from repro.cpu.state import LR, PC, SP, CpuState
from repro.cpu.thumb_decoder import decode_thumb
from repro.emulator.tb import TranslationBlock, TranslationCache
from repro.emulator.translator import (
    build_micro_op,
    ends_block,
    interleave_taint_ops,
    static_branch_target,
)
from repro.memory.memory import Memory
from repro.memory.regions import MemoryMap

# Returning to this address stops the run loop; the call bridge sets LR to
# it before jumping into a native method (QEMU's equivalent is returning to
# the JNI trampoline).
EXIT_ADDRESS = 0xFFFF_0000

# Translation stops after this many body micro-ops even without a branch
# (bounds translation latency and keeps invalidation granular).
MAX_BLOCK_OPS = 64

BranchListener = Callable[[int, int, "Emulator"], None]
Tracer = Callable[[Instruction, "Emulator"], None]
Hook = Callable[["Emulator"], None]
SyscallHandler = Callable[[int, "Emulator"], None]
# A fault injector observes named fault points ("step", "decode", "host",
# "hook") and may raise to simulate a failure there.  The resilience
# subsystem's FaultPlan implements this surface; installing one switches
# execution to the per-instruction engine so every fault point fires.
FaultInjector = Callable[..., None]


class HostContext:
    """Argument accessor handed to host functions (AAPCS view).

    The first four arguments live in R0-R3; the rest are on the stack.
    ``returns`` sets R0 (and R1 for 64-bit results).
    """

    def __init__(self, emu: "Emulator") -> None:
        self.emu = emu
        self.cpu = emu.cpu
        self.memory = emu.memory

    def arg(self, index: int) -> int:
        if index < 4:
            return self.cpu.regs[index]
        return self.memory.read_u32(self.cpu.sp + 4 * (index - 4))

    def set_result(self, value: int, high: Optional[int] = None) -> None:
        self.cpu.write_reg(0, value)
        if high is not None:
            self.cpu.write_reg(1, high)

    def cstring_arg(self, index: int) -> str:
        return self.memory.read_cstring(self.arg(index)).decode(
            "utf-8", errors="replace")


# A host function receives a HostContext; returning an int sets R0.
HostFunction = Callable[[HostContext], Optional[int]]


class _RegisteredHost:
    __slots__ = ("name", "function")

    def __init__(self, name: str, function: HostFunction) -> None:
        self.name = name
        self.function = function


class Emulator:
    """An emulated ARM machine with analysis instrumentation.

    ``use_tb=False`` forces the pre-translation single-step engine (used
    by the benchmark harness to measure the translation engine's gain).
    """

    def __init__(self, memory: Optional[Memory] = None,
                 event_log: Optional[EventLog] = None,
                 use_tb: bool = True) -> None:
        self.memory = memory if memory is not None else Memory()
        self.cpu = CpuState()
        self.memory_map = MemoryMap()
        self.event_log = event_log if event_log is not None else EventLog()
        self.executor = Executor(self.cpu, self.memory,
                                 svc_handler=self._handle_svc)
        self.use_tb = use_tb

        self._decode_cache: Dict[Tuple[int, bool], Instruction] = {}
        # Page-granular reverse index over the decode cache, shared with
        # the translation-block cache's invalidation path.
        self._decode_pages: Dict[int, Set[Tuple[int, bool]]] = {}
        # Per-page [lo, hi) span of addresses actually decoded as code.
        # Writes to a watched page outside this span (literal pools, data
        # buffers sharing a code page) don't invalidate anything.
        self._code_extents: Dict[int, List[int]] = {}
        self._tb_cache = TranslationCache()
        self.memory.set_write_watcher(self._on_code_page_write)

        self._host_functions: Dict[int, _RegisteredHost] = {}
        self._entry_hooks: Dict[int, List[Hook]] = {}
        self._exit_hooks: Dict[int, List[Hook]] = {}
        self._pending_exits: List[Tuple[int, int, Hook]] = []
        self._branch_listeners: List[BranchListener] = []
        self._tracers: List[Tracer] = []
        self.syscall_handler: Optional[SyscallHandler] = None
        # Pluggable fault injection (resilience/faults.py); stays None in
        # production runs.  Installing one forces per-instruction mode.
        self._fault_injector: Optional[FaultInjector] = None
        # Optional TB-boundary sampling profiler (observability).  Unlike
        # tracers, attaching one does NOT force the single-step engine:
        # sampling is a block-boundary presence check, never per-step.
        self._profiler = None
        # Optional span tracer (observability/spans.py).  Emits only at
        # translation time — a cache-miss path — never per block run, so
        # execution order and instruction counts are identical either way.
        self.span_tracer = None
        # True while any per-instruction instrumentation is attached.
        self._per_step_instrumentation = False
        # The single attached tracer whose taint propagation is compiled
        # into translation blocks (None when no tracer, a non-compiling
        # tracer, several tracers, or a fault injector is attached).
        self._taint_compiler = None
        # Compiled blocks bake in per-page third-party decisions; a
        # region-table change must drop those caches.
        self.memory_map.subscribe(self._on_region_change)

        self.instruction_count = 0
        self.host_call_count = 0
        self.decode_count = 0
        # Wall-clock seconds spent inside _translate (warm-vs-cold bench).
        self.translate_seconds = 0.0
        self._running = False
        self._stop_requested = False
        # Nested call() invocations each get their own return sentinel so
        # an inner function's return never triggers an outer caller's
        # pending exit hooks (both would otherwise target EXIT_ADDRESS).
        self._call_depth = 0

    # -- code/data loading ----------------------------------------------------

    def load(self, address: int, data: bytes) -> None:
        self.memory.write_bytes(address, data)
        self.invalidate_cache()

    def invalidate_cache(self) -> None:
        """Drop every translated block and decoded instruction."""
        for page in list(self._decode_pages):
            self.memory.unwatch_page(page)
        for page in self._tb_cache.pages():
            self.memory.unwatch_page(page)
        self._decode_cache.clear()
        self._decode_pages.clear()
        self._code_extents.clear()
        self._tb_cache.flush()

    def invalidate_page(self, page: int) -> None:
        """Page-granular invalidation (self-modifying code, new hooks)."""
        keys = self._decode_pages.pop(page, None)
        if keys:
            for key in keys:
                self._decode_cache.pop(key, None)
        self._code_extents.pop(page, None)
        self._tb_cache.invalidate_page(page)
        if page not in self._decode_pages and page not in self._tb_cache.pages():
            self.memory.unwatch_page(page)

    def _on_code_page_write(self, page: int, start: int, end: int) -> None:
        extent = self._code_extents.get(page)
        if extent is None:
            return
        # Only writes overlapping bytes that were actually decoded as
        # code invalidate; data sharing the page (literal pools, .space
        # buffers) is written freely.
        base = page << 12
        if base + start < extent[1] and base + end > extent[0]:
            self.invalidate_page(page)

    # -- instrumentation bookkeeping ------------------------------------------

    def instrumentation_free(self) -> bool:
        """True when no hook/listener/injector could observe a call.

        The JNI trampoline fast path bypasses the guest-memory marshalling
        protocol, which is exactly what entry/exit hooks (NDroid) and the
        per-instruction engines inspect — so it may only be taken when
        nothing is attached.
        """
        return (not self._entry_hooks and not self._exit_hooks
                and not self._branch_listeners
                and self._fault_injector is None
                and not self._per_step_instrumentation)

    def _refresh_instrumentation(self) -> None:
        compilers = [tracer for tracer in self._tracers
                     if getattr(tracer, "compiles_to_tb", False)]
        # Exactly one compiling tracer and no fault injector: its taint
        # propagation rides inside the translation blocks.  Everything
        # else needs the per-instruction engine (the fault injector must
        # see every fault point; a second engine would break the
        # per-block maybe_tainted variant choice).
        if self._fault_injector is None and self._tracers and \
                len(compilers) == len(self._tracers) == 1:
            new_compiler = compilers[0]
            self._per_step_instrumentation = False
        else:
            new_compiler = None
            self._per_step_instrumentation = bool(self._tracers) or \
                self._fault_injector is not None
        if new_compiler is not self._taint_compiler:
            # Existing blocks lack (or embed) the old instrumentation.
            self._taint_compiler = new_compiler
            self._flush_translations()

    def _flush_translations(self) -> None:
        """Drop every translated block but keep the decode cache."""
        for page in self._tb_cache.pages():
            if page not in self._decode_pages:
                self.memory.unwatch_page(page)
        self._tb_cache.flush()

    def _on_region_change(self) -> None:
        """The region table changed: per-page third-party decisions may be
        stale, both in tracer region caches and in compiled blocks."""
        for tracer in self._tracers:
            invalidate = getattr(tracer, "invalidate_region_cache", None)
            if invalidate is not None:
                # A compiling tracer's invalidation also flushes the
                # translation cache through its registered callback.
                invalidate()

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector: Optional[FaultInjector]) -> None:
        self._fault_injector = injector
        self._refresh_instrumentation()

    @property
    def profiler(self):
        return self._profiler

    @profiler.setter
    def profiler(self, profiler) -> None:
        # Deliberately no _refresh_instrumentation(): the profiler samples
        # at block boundaries and must not demote the TB fast path.
        self._profiler = profiler

    # -- host functions -------------------------------------------------------

    def register_host_function(self, address: int, name: str,
                               function: HostFunction) -> int:
        """Install a Python-implemented function at an emulated address."""
        if address in self._host_functions:
            raise EmulationError(
                f"host function already registered @ 0x{address:08x}")
        self._host_functions[address] = _RegisteredHost(name, function)
        # Blocks translated before this registration assumed the address
        # held (or preceded) translatable code.
        self.invalidate_page((address & ~1) >> 12)
        return address

    def host_function_at(self, address: int) -> Optional[str]:
        registered = self._host_functions.get(address)
        return registered.name if registered else None

    def is_host_address(self, address: int) -> bool:
        return (address & ~1) in self._host_functions

    def call_host(self, address: int) -> None:
        """Invoke a host function as if emulated code branched to it.

        Used by host functions that internally call other hooked functions
        (e.g. ``CallVoidMethodA`` → ``dvmCallMethodA`` → ``dvmInterpret``),
        so the branch-event chain the multilevel hooks watch is preserved,
        and entry/exit hooks fire exactly as for an emulated call.
        """
        caller_pc = self.cpu.pc
        self._notify_branch(caller_pc, address)
        self._dispatch_host(address, simulate_return=False,
                            return_address=caller_pc + 4)
        self._notify_branch(address, caller_pc + 4)
        self._fire_exit_hooks(caller_pc + 4)

    # -- hooks -----------------------------------------------------------------

    def add_entry_hook(self, address: int, hook: Hook) -> None:
        self._entry_hooks.setdefault(address & ~1, []).append(hook)
        self.invalidate_page((address & ~1) >> 12)

    def add_exit_hook(self, address: int, hook: Hook) -> None:
        self._exit_hooks.setdefault(address & ~1, []).append(hook)
        self.invalidate_page((address & ~1) >> 12)

    def add_branch_listener(self, listener: BranchListener) -> None:
        self._branch_listeners.append(listener)

    def add_tracer(self, tracer: Tracer) -> None:
        self._tracers.append(tracer)
        wire = getattr(tracer, "set_region_invalidate_callback", None)
        if wire is not None:
            wire(self._flush_translations)
        self._refresh_instrumentation()

    def remove_tracer(self, tracer: Tracer) -> None:
        self._tracers.remove(tracer)
        unwire = getattr(tracer, "set_region_invalidate_callback", None)
        if unwire is not None:
            unwire(None)
        self._refresh_instrumentation()

    def _notify_branch(self, i_from: int, i_to: int) -> None:
        for listener in self._branch_listeners:
            listener(i_from, i_to, self)

    def _fire_entry_hooks(self, address: int,
                          return_address: Optional[int] = None) -> None:
        hooks = self._entry_hooks.get(address & ~1)
        if hooks:
            for hook in hooks:
                hook(self)
        exit_hooks = self._exit_hooks.get(address & ~1)
        if exit_hooks:
            if return_address is None:
                return_address = self.cpu.lr
            return_address &= ~1
            for hook in exit_hooks:
                self._pending_exits.append((return_address, self.cpu.sp, hook))

    def _fire_exit_hooks(self, address: int) -> None:
        if not self._pending_exits:
            return
        address &= ~1
        # Fire every pending exit whose recorded return site we just reached
        # with the stack back at (or above) the call-time level.
        remaining: List[Tuple[int, int, Hook]] = []
        for return_address, sp_at_entry, hook in self._pending_exits:
            if return_address == address and self.cpu.sp >= sp_at_entry:
                hook(self)
            else:
                remaining.append((return_address, sp_at_entry, hook))
        self._pending_exits = remaining

    # -- syscalls ---------------------------------------------------------------

    def _handle_svc(self, imm: int, cpu: CpuState, memory: Memory) -> None:
        if self.syscall_handler is None:
            raise EmulationError(f"SVC #{imm} but no syscall handler installed")
        self.syscall_handler(imm, self)

    # -- fault points -------------------------------------------------------------

    def fire_fault_point(self, point: str, **context: Any) -> None:
        """Give the installed fault injector a chance to fail ``point``.

        The named points sit at the emulator's existing raise sites: a
        fault plan raising here is indistinguishable from the organic
        failure (undecodable word, wild pointer, broken hook).
        """
        if self._fault_injector is not None:
            self._fault_injector(point, self, **context)

    # -- decode -----------------------------------------------------------------

    def _decode(self, address: int, thumb: bool) -> Instruction:
        key = (address, thumb)
        cached = self._decode_cache.get(key)
        if cached is not None:
            return cached
        self.decode_count += 1
        self.fire_fault_point("decode", address=address, thumb=thumb)
        try:
            if thumb:
                halfword = self.memory.read_u16(address)
                next_halfword = self.memory.read_u16(address + 2)
                ir = decode_thumb(halfword, next_halfword)
            else:
                ir = decode_arm(self.memory.read_u32(address))
        except DecodeError as error:
            if error.pc is None:
                error.pc = address
            raise
        self._decode_cache[key] = ir
        # Track (and watch) the pages this decode read, so a write to
        # them invalidates the cached instruction.
        end = address + ir.width
        for page in range(address >> 12, (end - 1 >> 12) + 1):
            self._decode_pages.setdefault(page, set()).add(key)
            extent = self._code_extents.get(page)
            if extent is None:
                self._code_extents[page] = [address, end]
            else:
                if address < extent[0]:
                    extent[0] = address
                if end > extent[1]:
                    extent[1] = end
            self.memory.watch_page(page)
        return ir

    # -- single-step engine (instrumented mode) ----------------------------------

    def step(self) -> None:
        """Execute a single instruction (or host function) at PC."""
        pc = self.cpu.pc
        profiler = self._profiler
        if profiler is not None and \
                self.instruction_count >= profiler.next_sample:
            profiler.take_sample(pc, self.instruction_count)
        self.fire_fault_point("step", pc=pc,
                              instruction_count=self.instruction_count)
        if self.is_host_address(pc):
            self._dispatch_host(pc & ~1, simulate_return=True)
            return
        ir = self._decode(pc, self.cpu.thumb)
        for tracer in self._tracers:
            tracer(ir, self)
        wrote_pc = self.executor.execute(ir)
        self.instruction_count += 1
        if wrote_pc:
            target = self.cpu.pc
            self._notify_branch(pc, target)
            self._fire_exit_hooks(target)
            if not self.is_host_address(target):
                # Host dispatch fires entry hooks itself on the next step.
                self._fire_entry_hooks(target)
        else:
            self.cpu.pc = pc + ir.width

    # -- translation ----------------------------------------------------------------

    def _translate(self, pc: int, thumb: bool) -> TranslationBlock:
        """Decode a straight-line run starting at ``pc`` into a block.

        With a taint-compiling tracer attached, the third-party region
        lookup is hoisted here — once per page the block covers, instead
        of once per executed instruction — and each in-scope instruction
        gets a pre-bound taint micro-op for the block's tainted variant.
        """
        tracer = self.span_tracer
        span_start = tracer.now() if tracer is not None else 0.0
        translate_start = time.perf_counter()
        ops = []
        specialised = 0
        term_ir: Optional[Instruction] = None
        term_pc = pc
        current = pc
        hosts = self._host_functions
        compiler = self._taint_compiler
        taint_slots: List = []
        traced = 0
        term_taint_op = None
        scope_page = -1
        in_scope = False
        while True:
            if current in hosts or (current | 1) in hosts:
                break  # host boundary: fall through into host dispatch
            ir = self._decode(current, thumb)
            if compiler is not None:
                page = current >> 12
                if page != scope_page:
                    scope_page = page
                    in_scope = compiler.in_scope(current)
            if ends_block(ir):
                term_ir = ir
                term_pc = current
                if compiler is not None and in_scope:
                    term_taint_op = compiler.compile_taint_op(
                        ir, current, self)
                    traced += 1
                current += ir.width
                break
            op, is_specialised = build_micro_op(
                ir, current, thumb, self.cpu, self.memory, self.executor)
            ops.append(op)
            if compiler is not None and in_scope:
                taint_slots.append(compiler.compile_taint_op(
                    ir, current, self))
                traced += 1
            else:
                taint_slots.append(None)
            if is_specialised:
                specialised += 1
            current += ir.width
            if len(ops) >= MAX_BLOCK_OPS:
                break
        fall_pc = current & 0xFFFF_FFFF
        taken_pc = (static_branch_target(term_ir, term_pc, thumb)
                    if term_ir is not None else None)
        pages = tuple(range(pc >> 12, ((current + 3) >> 12) + 1))
        body_ops = tuple(ops)
        taint_ops = (interleave_taint_ops(body_ops, taint_slots)
                     if traced else None)
        tb = TranslationBlock(
            pc=pc, thumb=thumb, ops=body_ops, term_ir=term_ir,
            term_pc=term_pc, fall_pc=fall_pc, taken_pc=taken_pc,
            length=len(ops) + (1 if term_ir is not None else 0),
            pages=pages, specialised=specialised, taint_ops=taint_ops,
            term_taint_op=term_taint_op, traced=traced)
        self._tb_cache.put(tb)
        for page in pages:
            self.memory.watch_page(page)
        self.translate_seconds += time.perf_counter() - translate_start
        if tracer is not None:
            tracer.complete("tb_translate", span_start, cat="engine",
                            pc=pc, ops=tb.length, traced=traced)
        return tb

    def translation_stats(self) -> Dict[str, int]:
        return {
            "blocks": len(self._tb_cache),
            "translations": self._tb_cache.translations,
            "invalidations": self._tb_cache.invalidations,
        }

    # -- block dispatch (uninstrumented fast path) ---------------------------------

    def _run_translated(self, stop_at: int, budget: int) -> int:
        """Run translated blocks until a boundary condition; returns steps.

        Exits when ``stop_at`` is reached, ``stop()`` was requested,
        per-instruction instrumentation appeared (a hook attached a
        tracer), or the step budget is exhausted (the caller re-checks
        and raises).  The inner loop performs no per-instruction checks:
        boundary work (branch listeners, entry/exit hooks, host
        dispatch, stop/budget checks) happens between blocks only.
        """
        cpu = self.cpu
        regs = cpu.regs
        cache = self._tb_cache
        hosts = self._host_functions
        executor_execute = self.executor.execute
        # Hoisted like the other per-block state: one `is not None` check
        # per block when attached, nothing extra on the code path when not.
        profiler = self._profiler
        compiler = self._taint_compiler
        # The sticky flag is re-read at every block dispatch: taint only
        # enters through hooks, host functions and syscalls, all of which
        # fire at block boundaries, so choosing the variant per block is
        # exactly as precise as the single-step engine's per-instruction
        # check.
        engine = compiler.taint if compiler is not None else None
        executed = 0
        tb: Optional[TranslationBlock] = None
        # Pending chain link: (predecessor, True for taken-edge).
        link: Optional[Tuple[TranslationBlock, bool]] = None
        while executed < budget:
            pc = regs[PC]
            if pc == stop_at or self._stop_requested or \
                    self._per_step_instrumentation or \
                    self._taint_compiler is not compiler:
                break  # (a hook may re-wire instrumentation mid-run)
            if profiler is not None and \
                    self.instruction_count >= profiler.next_sample:
                profiler.take_sample(pc, self.instruction_count)
            if tb is None or not tb.valid:
                if (pc & ~1) in hosts:
                    self._dispatch_host(pc & ~1, simulate_return=True)
                    executed += 1
                    tb = None
                    link = None
                    continue
                tb = cache.get((pc, cpu.thumb))
                if tb is None:
                    tb = self._translate(pc, cpu.thumb)
                if link is not None:
                    predecessor, taken_edge = link
                    if predecessor.valid:
                        if taken_edge:
                            predecessor.succ_taken = tb
                        else:
                            predecessor.succ_fall = tb
                    link = None

            # ---- the tight loop: zero per-instruction checks ----
            # Variant choice: tainted (taint ops interleaved) once any
            # label is live, clean (plain body) otherwise.
            tainted = engine is not None and engine.maybe_tainted
            for op in (tb.taint_ops if tainted else tb.ops):
                op()
            if compiler is not None and tb.traced:
                compiler.traced_instructions += tb.traced

            executed += tb.length
            term_ir = tb.term_ir
            if term_ir is None:
                # Block was cut short (length cap / host code ahead).
                self.instruction_count += tb.length
                regs[PC] = tb.fall_pc
                successor = tb.succ_fall
                if successor is None:
                    link = (tb, False)
                tb = successor
                continue

            regs[PC] = tb.term_pc
            if tainted and tb.term_taint_op is not None:
                tb.term_taint_op()
            wrote_pc = executor_execute(term_ir)
            self.instruction_count += tb.length
            if not wrote_pc:
                regs[PC] = tb.fall_pc
                successor = tb.succ_fall
                if successor is None:
                    link = (tb, False)
                tb = successor
                continue

            target = regs[PC]
            # Block-boundary instrumentation (cheap presence checks; the
            # paper's per-crossing hooks live here, not per instruction).
            if self._branch_listeners:
                self._notify_branch(tb.term_pc, target)
            if self._pending_exits:
                self._fire_exit_hooks(target)
            if (self._entry_hooks or self._exit_hooks) and \
                    (target & ~1) not in hosts:
                self._fire_entry_hooks(target)
            if target == tb.taken_pc:
                successor = tb.succ_taken
                if successor is None:
                    link = (tb, True)
                tb = successor
            else:
                tb = None  # dynamic target (BX, LDR pc, ...): re-resolve
        return executed

    # -- run loop ---------------------------------------------------------------------

    def run(self, max_steps: int = 5_000_000,
            stop_at: int = EXIT_ADDRESS) -> int:
        """Run until control returns to ``stop_at``.

        Returns the number of steps executed.  Raises on runaway loops so
        a broken scenario fails fast instead of hanging the test suite
        (translated blocks execute whole, so up to one block length may
        run beyond ``max_steps`` before the overrun is detected).
        """
        self._stop_requested = False
        steps = 0
        cpu = self.cpu
        while cpu.regs[PC] != stop_at:
            if self._stop_requested:
                break
            if steps >= max_steps:
                raise EmulationError(f"exceeded {max_steps} steps",
                                     pc=cpu.pc,
                                     mode="thumb" if cpu.thumb else "arm")
            if self._per_step_instrumentation or not self.use_tb:
                self.step()
                steps += 1
            else:
                steps += self._run_translated(stop_at, max_steps - steps)
        return steps

    def stop(self) -> None:
        self._stop_requested = True

    # -- host dispatch -----------------------------------------------------------------

    def _dispatch_host(self, address: int, simulate_return: bool,
                       return_address: Optional[int] = None) -> None:
        registered = self._host_functions.get(address)
        if registered is None:
            raise EmulationError(f"no host function @ 0x{address:08x}",
                                 pc=address)
        self.host_call_count += 1
        self.fire_fault_point("host", address=address, name=registered.name)
        # Capture the return address NOW: the host body may run nested
        # emulation (e.g. the JNI bridge calling into native code), which
        # clobbers LR exactly as a real call would.
        if return_address is None:
            return_address = self.cpu.lr
        self._fire_entry_hooks(address, return_address=return_address)
        result = registered.function(HostContext(self))
        if result is not None:
            self.cpu.write_reg(0, result & 0xFFFF_FFFF)
        if simulate_return:
            self.cpu.thumb = bool(return_address & 1)
            self.cpu.pc = return_address & ~1
            self._notify_branch(address, self.cpu.pc)
            self._fire_exit_hooks(self.cpu.pc)

    def call(self, address: int, args: Tuple[int, ...] = (),
             max_steps: int = 5_000_000) -> int:
        """Call an emulated (or host) function with AAPCS arguments.

        Extra arguments beyond four are pushed on the stack.  Returns R0.
        Calls nest (host functions invoke native code and vice versa);
        each nesting level returns to its own sentinel address.
        """
        stack_args = list(args[4:])
        for index, value in enumerate(args[:4]):
            self.cpu.write_reg(index, value & 0xFFFF_FFFF)
        saved_sp = self.cpu.sp
        if stack_args:
            self.cpu.sp = self.cpu.sp - 4 * len(stack_args)
            self.memory.write_words(self.cpu.sp,
                                    [value & 0xFFFF_FFFF for value in stack_args])
        sentinel = EXIT_ADDRESS + 16 * self._call_depth
        self._call_depth += 1
        try:
            self.cpu.lr = sentinel
            self.cpu.thumb = bool(address & 1)
            self.cpu.pc = address & ~1
            self._notify_branch(sentinel, self.cpu.pc)
            if not self.is_host_address(self.cpu.pc):
                # Host dispatch fires entry hooks itself inside step().
                self._fire_entry_hooks(self.cpu.pc)
            self.run(max_steps=max_steps, stop_at=sentinel)
        finally:
            self._call_depth -= 1
        self.cpu.sp = saved_sp
        return self.cpu.regs[0]
