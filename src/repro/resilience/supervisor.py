"""Supervised execution of one analysis run (crash containment).

The supervisor gives an analysis the property the paper's market study
depends on: one hostile app yields a classified outcome and a crash
report, never a dead study.  It provides:

* an **instruction-budget watchdog** that aborts runaway native code
  with :class:`AnalysisTimeout`, and a crash-report ring buffer.  Both
  are armed in the emulator itself (``Emulator.set_supervision``), not
  as tracers, so supervised code keeps running on translation blocks
  and the watchdog still fires at the exact instruction;
* a **retry-with-backoff policy** for transient faults
  (:class:`TransientSyscallFault`): the analysis attempt is re-run from a
  fresh platform after an exponentially growing delay, against the *same*
  fault-plan activation, so consumed transient faults do not re-fire;
* **containment**: any :class:`ReproError` escaping the analysis is
  converted into a :class:`CrashReport` instead of unwinding the caller;
* **outcome classification**: ``ok`` / ``degraded`` (completed, but hooks
  were quarantined and taints over-approximated) / ``crashed`` /
  ``timeout``.

The analysis callable receives a :class:`RunContext` and must call
``ctx.attach(platform)`` right after building its platform, which wires
the watchdog, the crash-report ring buffer, and the fault plan into the
emulator and kernel::

    def analysis(ctx):
        platform = AndroidPlatform()
        ndroid = NDroid.attach(platform)
        ctx.attach(platform)
        ...
        return value

    result = Supervisor(budget=2_000_000).run("my-app", analysis)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.common.errors import (  # noqa: F401 - AnalysisTimeout re-exported
    AnalysisTimeout,
    ReproError,
    TransientSyscallFault,
)
from repro.core.instruction_tracer import InstructionRingBuffer
from repro.resilience.backoff import backoff_delay, jitter_rng
from repro.resilience.faults import ActiveFaultPlan, FaultPlan
from repro.resilience.report import CrashReport

OUTCOME_OK = "ok"
OUTCOME_DEGRADED = "degraded"
OUTCOME_CRASHED = "crashed"
OUTCOME_TIMEOUT = "timeout"


class RunContext:
    """Per-attempt wiring surface handed to the supervised analysis."""

    def __init__(self, budget: Optional[int],
                 active_plan: Optional[ActiveFaultPlan],
                 ring_capacity: int) -> None:
        self.budget = budget
        self.active_plan = active_plan
        self.ring_buffer = InstructionRingBuffer(capacity=ring_capacity)
        self.platform = None

    def attach(self, platform) -> None:
        """Instrument a freshly built platform for this attempt."""
        self.platform = platform
        platform.emu.set_supervision(self.budget, self.ring_buffer)
        if self.active_plan is not None:
            platform.emu.fault_injector = self.active_plan
            platform.kernel.syscall_fault_hook = self.active_plan.syscall_fault

    @property
    def ndroid(self):
        return getattr(self.platform, "ndroid", None)


Analysis = Callable[[RunContext], Any]


@dataclass
class SupervisedResult:
    """Outcome of one supervised analysis (possibly several attempts)."""

    label: str
    status: str
    value: Any = None
    attempts: int = 1
    backoff_delays: List[float] = field(default_factory=list)
    crash_report: Optional[CrashReport] = None
    degraded_events: int = 0
    quarantined_hooks: List[str] = field(default_factory=list)
    injected_faults: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status in (OUTCOME_OK, OUTCOME_DEGRADED)

    def describe(self) -> str:
        text = f"{self.label}: {self.status}"
        if self.attempts > 1:
            text += f" (attempt {self.attempts})"
        if self.degraded_events:
            text += f" degraded_events={self.degraded_events}"
        if self.error:
            text += f" [{self.error}]"
        return text


class Supervisor:
    """Runs analyses under a watchdog, retry policy and crash containment."""

    def __init__(self, budget: Optional[int] = 5_000_000,
                 max_retries: int = 3, backoff_base: float = 0.01,
                 backoff_factor: float = 2.0, backoff_jitter: float = 0.0,
                 ring_capacity: int = 32,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.budget = budget
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        # Jitter stretches each retry delay by up to this fraction of
        # itself (shared semantics with the farm's requeue path — both
        # go through repro.resilience.backoff.backoff_delay).  The RNG
        # is seeded per supervised label, so a given app retries on the
        # same schedule in every process.
        self.backoff_jitter = backoff_jitter
        self.ring_capacity = ring_capacity
        self._sleep = sleep

    def run(self, label: str, analysis: Analysis,
            plan: Optional[FaultPlan] = None) -> SupervisedResult:
        """Run ``analysis`` to a classified outcome; never raises
        :class:`ReproError`.

        The fault plan is activated once for the whole supervised run:
        a transient fault consumed by attempt N stays consumed, so the
        retry (attempt N+1) reruns the analysis without it and can reach
        the fault-free result.
        """
        active = plan.activate() if plan else None
        delays: List[float] = []
        attempt = 0
        rng = None  # built on the first retry: most runs never retry
        while True:
            attempt += 1
            ctx = RunContext(self.budget, active, self.ring_capacity)
            try:
                value = analysis(ctx)
            except TransientSyscallFault as error:
                if attempt <= self.max_retries:
                    if rng is None:
                        rng = jitter_rng("supervisor", label)
                    delay = backoff_delay(attempt, base=self.backoff_base,
                                          factor=self.backoff_factor,
                                          jitter=self.backoff_jitter,
                                          rng=rng)
                    delays.append(delay)
                    self._rearm(ctx)
                    self._sleep(delay)
                    continue
                return self._failed(OUTCOME_CRASHED, label, error, ctx,
                                    attempt, delays,
                                    note="transient-retries-exhausted")
            except AnalysisTimeout as error:
                return self._failed(OUTCOME_TIMEOUT, label, error, ctx,
                                    attempt, delays)
            except ReproError as error:
                return self._failed(OUTCOME_CRASHED, label, error, ctx,
                                    attempt, delays)
            return self._completed(label, value, ctx, attempt, delays, active)

    @staticmethod
    def _rearm(ctx: RunContext) -> None:
        """Re-arm the taint engine's clean-run fast path between attempts.

        Mirror of the farm's between-jobs fix: analyses that reuse a
        cached platform (or share an engine across attempts) would
        otherwise start the retry with ``maybe_tainted`` stuck on from
        the failed attempt, paying instrumented-path cost for a clean
        re-run.  Safe no-op when the attempt never attached a platform.
        """
        ndroid = ctx.ndroid
        engine = getattr(ndroid, "taint_engine", None) if ndroid else None
        if engine is not None:
            engine.rearm_fast_path()

    # -- result assembly ------------------------------------------------------

    @staticmethod
    def _fired(active: Optional[ActiveFaultPlan]) -> List[str]:
        if active is None:
            return []
        return [f.spec.describe() for f in active.fired]

    def _completed(self, label: str, value: Any, ctx: RunContext,
                   attempt: int, delays: List[float],
                   active: Optional[ActiveFaultPlan]) -> SupervisedResult:
        ndroid = ctx.ndroid
        degraded_events = ndroid.degraded_events if ndroid is not None else 0
        quarantined = (sorted(ndroid.quarantined_hooks)
                       if ndroid is not None else [])
        status = OUTCOME_DEGRADED if degraded_events else OUTCOME_OK
        return SupervisedResult(
            label=label, status=status, value=value, attempts=attempt,
            backoff_delays=list(delays), degraded_events=degraded_events,
            quarantined_hooks=quarantined, injected_faults=self._fired(active))

    def _failed(self, status: str, label: str, error: ReproError,
                ctx: RunContext, attempt: int, delays: List[float],
                note: Optional[str] = None) -> SupervisedResult:
        fired = self._fired(ctx.active_plan)
        report = CrashReport.capture(
            label=label, error=error, platform=ctx.platform, ndroid=ctx.ndroid,
            ring_buffer=ctx.ring_buffer, attempt=attempt,
            injected_faults=fired)
        ndroid = ctx.ndroid
        message = f"{type(error).__name__}: {error}"
        if note:
            message = f"{note}: {message}"
        return SupervisedResult(
            label=label, status=status, attempts=attempt,
            backoff_delays=list(delays), crash_report=report,
            degraded_events=(ndroid.degraded_events if ndroid else 0),
            quarantined_hooks=(sorted(ndroid.quarantined_hooks)
                               if ndroid else []),
            injected_faults=fired, error=message)
