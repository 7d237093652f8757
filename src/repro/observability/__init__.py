"""Unified observability layer: ledger, metrics, profile, spans.

One facade object per platform gathers the observability facilities
the paper's evaluation needs:

* a :class:`ProvenanceLedger`, the one record of taint flows: every
  taint-propagation step is an edge, so a leak's complete source->sink
  path can be reconstructed and printed in the shape of the paper's
  annotated flows (Figs. 6-9, Section VI.B);
* a :class:`MetricsRegistry` of *pull* sources over the
  emulator/kernel/DVM/core statistics already kept by the engines
  (Tables IV/V overhead breakdowns) -- including, while tracing, the
  exact guest profile: instructions retired per guest function, as
  ``profile.<module>;<symbol>`` counters (see ``profiler.py``);
* an optional :class:`SpanTracer` timing engine work as spans into a
  JSONL spool — each JNI crossing is one ``jni_crossing`` span carrying
  its duration and its path (host-side ``fast`` or guest-protocol
  ``slow``), the only per-crossing timer.

The ledger and the profile counts are job state: a warm platform's
``reset_for_job()`` clears both.

Everything is zero-cost when disabled: the engines hold a ``ledger``
attribute that stays ``None`` (one attribute read behind an existing
taint check), the metrics sources are snapshot-time closures, and the
profile is only attached to the emulator while tracing is enabled.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observability.ledger import (  # noqa: F401
    Loc,
    ProvenanceEdge,
    ProvenanceLedger,
    ProvenancePath,
)
from repro.observability.metrics import (  # noqa: F401
    MetricsRegistry,
    diff_snapshots,
    load_snapshot,
)
from repro.observability.profiler import (  # noqa: F401
    SymbolResolver,
    folded_lines,
)
from repro.observability.schema import (  # noqa: F401
    TRACE_SCHEMA,
    validate_trace,
)
from repro.observability.spans import (  # noqa: F401
    SpanTracer,
    attach_spans,
)


class Observability:
    """Per-platform facade wiring the facilities to the engines."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.ledger: Optional[ProvenanceLedger] = None
        # pc -> instructions retired, shared with the emulator.
        self.profile: Optional[Dict[int, int]] = None
        self._platform = None
        self._ndroid = None

    @property
    def tracing(self) -> bool:
        return self.ledger is not None

    # -- enabling --------------------------------------------------------------

    def enable_tracing(self) -> ProvenanceLedger:
        """Turn on provenance recording and the exact profile."""
        if self.ledger is None:
            self.ledger = ProvenanceLedger()
            self.profile = profile = {}
            ledger = self.ledger
            self.metrics.register_source("ledger", lambda: {
                "edges": len(ledger),
                "dropped": ledger.dropped,
            }, gauges=("edges",))
            self.metrics.register_source(
                "profile", lambda: self.resolver().fold(profile))
            self._propagate()
        return self.ledger

    def reset_for_job(self) -> None:
        """Forget the last job's edges and counts (tracing stays on)."""
        if self.ledger is not None:
            self.ledger.clear()
            self.profile.clear()

    def disable_tracing(self) -> None:
        if self.ledger is None:
            return
        self.ledger = None
        self.profile = None
        self.metrics.unregister_source("ledger")
        self.metrics.unregister_source("profile")
        self._propagate()

    # -- wiring ----------------------------------------------------------------

    def wire(self, platform) -> None:
        """Register pull sources over the platform engines' counters."""
        self._platform = platform
        emu, kernel, vm = platform.emu, platform.kernel, platform.vm
        jni = platform.jni

        def emulator_source():
            stats = emu.translation_stats()
            return {
                "instructions": emu.instruction_count,
                "host_calls": emu.host_call_count,
                "decodes": emu.decode_count,
                "tb.blocks": stats["blocks"],
                "tb.translations": stats["translations"],
                "tb.invalidations": stats["invalidations"],
                "tb.hits": emu._tb_cache.hits,
                "tb.misses": emu._tb_cache.misses,
            }

        self.metrics.register_source("emulator", emulator_source,
                                     gauges=("tb.blocks",))

        def kernel_source():
            values = {"traps": kernel.syscall_count}
            for name, count in kernel.syscalls_by_name.items():
                values[f"syscall.{name}"] = count
            return values

        self.metrics.register_source("kernel", kernel_source)
        self.metrics.register_source("dalvik", lambda: {
            "instructions": vm.interpreter.instructions_executed,
            "gc_count": vm.heap.gc_count,
        })

        def tbc_source():
            tbc = vm.tbc
            if tbc is None:
                return {}
            return {
                "hits": tbc.hits,
                "misses": tbc.misses,
                "invalidations": tbc.invalidations,
                "escalations": tbc.escalations,
                "blocks_compiled": tbc.blocks_compiled,
                "flushes": tbc.flushes,
                "cached_blocks": tbc.cached_blocks,
            }

        self.metrics.register_source("dalvik.tbc", tbc_source,
                                     gauges=("cached_blocks",))

        def jni_source():
            return {
                "trampoline.hits": jni.trampoline_hits,
                "trampoline.misses": jni.trampoline_misses,
                "trampoline.invalidations": jni.trampoline_invalidations,
                "trampoline.cached": len(jni._trampolines),
                "crossings_fast": jni.crossings_fast,
                "crossings_slow": jni.crossings_slow,
            }

        self.metrics.register_source("jni", jni_source,
                                     gauges=("trampoline.cached",))
        self._propagate()

    def wire_ndroid(self, ndroid) -> None:
        """Register the analysis-side (core + resilience) sources."""
        self._ndroid = ndroid

        def core_source():
            values = dict(ndroid.statistics())
            values.pop("degraded_events", None)
            values.pop("quarantined_hooks", None)
            for name, count in getattr(ndroid, "hook_invocations",
                                       {}).items():
                values[f"hook.{name}"] = count
            return values

        def resilience_source():
            values = {
                "degraded_events": ndroid.degraded_events,
                "quarantined_hooks": len(ndroid.quarantined_hooks),
            }
            for name in sorted(ndroid.quarantined_hooks):
                values[f"quarantined.{name}"] = 1
            return values

        self.metrics.register_source("core", core_source)
        self.metrics.register_source("resilience", resilience_source)
        self._propagate()

    def _propagate(self) -> None:
        """Push the current ledger/profile into every wired engine."""
        platform, ndroid = self._platform, self._ndroid
        if platform is not None:
            platform.kernel.ledger = self.ledger
            platform.vm.ledger = self.ledger
            platform.libc.ledger = self.ledger
            platform.emu.profile = self.profile
        if ndroid is not None:
            ndroid.instruction_tracer.ledger = self.ledger
            ndroid.dvm_hooks.ledger = self.ledger
            ndroid.syslib_hooks.ledger = self.ledger

    # -- convenience -----------------------------------------------------------

    def snapshot(self):
        return self.metrics.snapshot()

    def resolver(self) -> SymbolResolver:
        if self._platform is None:
            return SymbolResolver()
        return SymbolResolver.from_platform(self._platform)
