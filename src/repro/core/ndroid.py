"""The NDroid facade: wires every engine onto a platform (Fig. 4).

Attachment order mirrors the architecture diagram:

1. reuse (or attach) **TaintDroid** for the Java context — "NDroid employs
   it to run apps and track information flow in the Java context";
2. build the **OS-level view reconstructor** over guest memory;
3. install the **taint engine** as the native-side taint authority for the
   modelled libc and the kernel;
4. attach the **instruction tracer** to the emulator, scoped to
   third-party regions via the reconstructed view;
5. install the **DVM hook engine** (with multilevel hooking) and the
   **system-library hook engine**.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Optional, Set

from repro.common.errors import DalvikThrow, ReproError
from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.core.dvm_hooks import DvmHookEngine
from repro.core.instruction_tracer import InstructionTracer
from repro.core.multilevel import MultilevelHookManager
from repro.core.syslib_hooks import SysLibHookEngine
from repro.core.taint_engine import TaintEngine
from repro.core.view_reconstructor import ViewReconstructor
from repro.taintdroid import TaintDroid


class NDroid:
    """One attached NDroid instance."""

    def __init__(self, platform, use_multilevel: bool = True) -> None:
        self.platform = platform
        self.taint_engine = TaintEngine()
        self.view_reconstructor = ViewReconstructor(platform.memory)
        self.multilevel = MultilevelHookManager(
            platform.jni.symbols, self._branch_from_third_party,
            enabled=use_multilevel)
        self._use_multilevel = use_multilevel
        self.instruction_tracer = InstructionTracer(
            self.taint_engine, self._is_third_party)
        self._init_job_state()
        self.instruction_tracer.fault_handler = self._on_tracer_fault
        self.dvm_hooks = DvmHookEngine(platform, self.taint_engine,
                                       self.multilevel,
                                       guard=self.guard_hook)
        self.syslib_hooks = SysLibHookEngine(platform, self.taint_engine,
                                             guard=self.guard_hook)

    # -- warm workers: checkpoint and reset ------------------------------------

    def _init_job_state(self) -> None:
        # Graceful degradation: a faulting hook is quarantined and the
        # engine over-taints instead of unwinding the whole analysis.
        self.degraded_events = 0
        self.quarantined_hooks: Set[str] = set()
        # Per-hook invocation counts, surfaced as core.hook.<name> metrics.
        self.hook_invocations: Dict[str, int] = defaultdict(int)

    def checkpoint(self) -> None:
        """Keep the reconstructed view of the booted task list."""
        self.view_reconstructor.checkpoint(
            self.platform.kernel.task_changes)

    def reset_for_job(self) -> None:
        """Reset every engine; the view comes back from the checkpoint
        unless the (already reset) task list changed."""
        self.taint_engine.reset_for_job()
        self.instruction_tracer.reset_for_job()
        self.multilevel.reset_for_job()
        self.dvm_hooks.reset_for_job()
        self.syslib_hooks.reset_for_job()
        self.view_reconstructor.reset_for_job(
            self.platform.kernel.task_changes)
        self._init_job_state()

    # -- attachment ------------------------------------------------------------

    @classmethod
    def attach(cls, platform, use_multilevel: bool = True) -> "NDroid":
        """Install NDroid on a platform (attaching TaintDroid if absent)."""
        if platform.taintdroid is None:
            TaintDroid.attach(platform)
        system = cls(platform, use_multilevel=use_multilevel)
        platform.ndroid = system

        # Native-side taint authority for libc and raw syscalls.
        platform.libc.taint_interface = system.taint_engine
        platform.kernel.taint_provider = system.taint_engine.memory_taints

        # The instruction tracer sees every instruction; it self-scopes to
        # third-party regions.
        platform.emu.add_tracer(system.instruction_tracer)

        system.dvm_hooks.install()
        system.syslib_hooks.install()
        # Branch events feed the multilevel condition chains; registered
        # once the hooks above added every chain, since the emulator
        # reads the watched addresses when the listener is added.
        platform.emu.add_branch_listener(system.multilevel)

        # Re-introspect after every map change, so freshly loaded
        # third-party code is traced from its first instruction.  (The
        # emulator drops the tracer's decisions for the region's pages.)
        platform.emu.memory_map.subscribe(
            lambda region: system.refresh_view())

        observability = getattr(platform, "observability", None)
        if observability is not None:
            observability.wire_ndroid(system)
        return system

    # -- graceful degradation ------------------------------------------------------

    def guard_hook(self, name: str,
                   hook: Callable,
                   fallback: Optional[Callable] = None) -> Callable:
        """Wrap an analysis hook so a fault degrades instead of unwinding.

        A hook that raises any :class:`ReproError` (other than
        :class:`DalvikThrow`, which is simulated Java control flow) is
        **quarantined**: the fault is counted, the taint engine enters
        conservative mode with every label the failed hook could have
        been carrying, and the run continues.  If a ``fallback`` is
        given it runs in place of the quarantined hook on every later
        invocation — sink hooks use this to keep reporting
        conservatively, so degradation never *misses* a leak.  The
        fallback may return an extra :class:`TaintLabel` to join into
        the degradation label.  Arguments after ``emu`` (a JNI crossing
        plan's inputs) pass through to the hook and the fallback.
        """
        def guarded(emu, *args) -> None:
            self.hook_invocations[name] += 1
            if name in self.quarantined_hooks:
                if fallback is not None:
                    self._run_fallback(fallback, emu, args)
                return
            try:
                on_hook = emu.hook_fault_point
                if on_hook is not None:
                    on_hook(name, emu.instruction_count)
                hook(emu, *args)
            except DalvikThrow:
                raise
            except ReproError:
                self._degrade_hook(name, emu, fallback, args)

        return guarded

    def _run_fallback(self, fallback: Callable, emu,
                      args: tuple = ()) -> TaintLabel:
        """Run a quarantined hook's conservative stand-in, crash-proof."""
        try:
            label = fallback(emu, *args)
        except ReproError:
            return TAINT_CLEAR
        return label if label is not None else TAINT_CLEAR

    def _degrade_hook(self, name: str, emu,
                      fallback: Optional[Callable], args: tuple = ()) -> None:
        self.degraded_events += 1
        self.quarantined_hooks.add(name)
        label = self.taint_engine.live_label()
        if fallback is not None:
            label |= self._run_fallback(fallback, emu, args)
        self.taint_engine.degrade(label)

    def _on_tracer_fault(self, error: ReproError, ir, emu) -> None:
        """A per-instruction taint handler faulted: over-taint, keep going."""
        self.degraded_events += 1
        self.taint_engine.degrade(self.taint_engine.live_label())

    # -- view plumbing ------------------------------------------------------------

    def _is_third_party(self, address: int) -> bool:
        return self.view_reconstructor.is_third_party(address)

    def _branch_from_third_party(self, address: int) -> bool:
        if not self._use_multilevel:
            return True  # ablation: hook on every invocation
        return self.view_reconstructor.is_third_party(address)

    def refresh_view(self) -> None:
        """The memory map changed: mark the reconstructed view stale.

        The next query re-reads the guest task list, which the loader
        syncs before any guest instruction runs.  A warm worker
        re-hitting a still-resident library maps nothing, so its view —
        and the tracer decisions and translation blocks it guards —
        stays.
        """
        self.view_reconstructor.invalidate()

    # -- reporting ----------------------------------------------------------------------

    def tainted_native_deliveries(self):
        """Native invocations that received tainted parameters.

        The Section VI study's intermediate observation: an app can
        "deliver the contact and SMS information to native code" without
        (yet) leaking it.
        """
        return list(self.dvm_hooks.tainted_deliveries)

    def statistics(self) -> Dict[str, int]:
        return {
            "traced_instructions":
                self.instruction_tracer.traced_instructions,
            "taint_propagations": self.taint_engine.propagation_count,
            "tainted_bytes": self.taint_engine.tainted_bytes,
            "modelled_calls": self.syslib_hooks.modelled_calls,
            "sink_checks": self.syslib_hooks.sink_checks,
            "source_policies": len(self.dvm_hooks.source_policies),
            "multilevel_checks": self.multilevel.checks,
            "multilevel_fires": self.multilevel.fires,
            "view_reconstructions":
                self.view_reconstructor.reconstructions,
            "degraded_events": self.degraded_events,
            "quarantined_hooks": len(self.quarantined_hooks),
        }
