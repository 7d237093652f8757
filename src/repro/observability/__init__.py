"""Unified observability layer: ledger, metrics, profiler.

One facade object per platform gathers the three observability
facilities the paper's evaluation needs:

* a :class:`ProvenanceLedger` recording every taint-propagation step so a
  leak's complete source->sink path can be reconstructed (case studies,
  Section VI.B);
* a :class:`MetricsRegistry` of counters/gauges and *pull* sources over
  the emulator/kernel/DVM/core statistics already kept by the engines
  (Tables IV/V overhead breakdowns);
* a TB-boundary :class:`SamplingProfiler` attributing instruction counts
  to guest functions.

Everything is zero-cost when disabled: the engines hold a ``ledger``
attribute that stays ``None`` (one attribute read behind an existing
taint check), the metrics sources are snapshot-time closures, and the
profiler is only attached to the emulator while tracing is enabled.
"""

from __future__ import annotations

from typing import Optional

from repro.observability.ledger import (  # noqa: F401
    Loc,
    ProvenanceEdge,
    ProvenanceLedger,
    ProvenancePath,
)
from repro.observability.metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    load_snapshot,
)
from repro.observability.profiler import (  # noqa: F401
    SamplingProfiler,
    SymbolResolver,
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
    """Per-platform facade wiring the three facilities to the engines."""

    def __init__(self, ledger_capacity: int = 65536,
                 profile_interval: int = 128) -> None:
        self.metrics = MetricsRegistry()
        self.ledger: Optional[ProvenanceLedger] = None
        self.profiler: Optional[SamplingProfiler] = None
        self.spans: Optional[SpanTracer] = None
        self._ledger_capacity = ledger_capacity
        self._profile_interval = profile_interval
        self._platform = None
        self._ndroid = None

    @property
    def tracing(self) -> bool:
        return self.ledger is not None

    # -- enabling --------------------------------------------------------------

    def enable_tracing(self) -> ProvenanceLedger:
        """Turn on provenance recording and the sampling profiler."""
        if self.ledger is None:
            self.ledger = ProvenanceLedger(maxlen=self._ledger_capacity)
            self.profiler = SamplingProfiler(interval=self._profile_interval)
            ledger = self.ledger
            self.metrics.register_source("ledger", lambda: {
                "edges": len(ledger),
                "dropped": ledger.dropped,
            }, gauges=("edges",))
            self._propagate()
        return self.ledger

    def disable_tracing(self) -> None:
        if self.ledger is None:
            return
        self.ledger = None
        self.profiler = None
        self.metrics.unregister_source("ledger")
        self._propagate()

    # -- wiring ----------------------------------------------------------------

    def wire(self, platform) -> None:
        """Register pull sources over the platform engines' counters."""
        self._platform = platform
        emu, kernel, vm = platform.emu, platform.kernel, platform.vm
        jni = platform.jni

        def emulator_source():
            return {
                "instructions": emu.instruction_count,
                "host_calls": emu.host_call_count,
                "decodes": emu.decode_count,
                "tb.blocks": emu.translation_stats()["blocks"],
                "tb.translations": emu.translation_stats()["translations"],
                "tb.invalidations":
                    emu.translation_stats()["invalidations"],
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
        """Push the current ledger/profiler into every wired engine."""
        platform, ndroid = self._platform, self._ndroid
        if platform is not None:
            platform.kernel.ledger = self.ledger
            platform.vm.ledger = self.ledger
            platform.libc.ledger = self.ledger
            platform.emu.profiler = self.profiler
        if ndroid is not None:
            ndroid.instruction_tracer.ledger = self.ledger
            ndroid.dvm_hooks.ledger = self.ledger
            ndroid.syslib_hooks.ledger = self.ledger

    # -- convenience -----------------------------------------------------------

    def attach_spans(self, tracer: Optional[SpanTracer]) -> None:
        """Point the wired engines' span hooks at ``tracer`` (None detaches)."""
        self.spans = tracer
        if self._platform is not None:
            attach_spans(self._platform, tracer)

    def snapshot(self):
        return self.metrics.snapshot()

    def resolver(self) -> SymbolResolver:
        if self._platform is None:
            return SymbolResolver()
        return SymbolResolver.from_platform(self._platform)
