"""Supervisor tests: retry/backoff, watchdog budget, crash reports."""

from types import SimpleNamespace

import pytest

from repro.common.errors import TransientSyscallFault
from repro.cpu.assembler import assemble
from repro.emulator import Emulator
from repro.resilience import (
    OUTCOME_CRASHED,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    FaultPlan,
    Supervisor,
)

CODE_BASE = 0x0001_0000


def make_supervisor(**overrides):
    sleeps = []
    defaults = dict(budget=100_000, max_retries=3, backoff_base=0.5,
                    backoff_factor=2.0, sleep=sleeps.append)
    defaults.update(overrides)
    return Supervisor(**defaults), sleeps


def run_program(ctx, source):
    """Build a bare emulator, attach it, and run ``main``."""
    emu = Emulator()
    program = assemble(source, base=CODE_BASE)
    emu.load(CODE_BASE, program.code)
    emu.cpu.sp = 0x0800_0000
    ctx.attach(SimpleNamespace(emu=emu, kernel=SimpleNamespace()))
    return emu.call(program.entry("main"))


class TestRetryPolicy:
    def test_transient_fault_retried_with_backoff(self):
        supervisor, sleeps = make_supervisor()
        calls = []

        def analysis(ctx):
            calls.append(ctx)
            if len(calls) < 3:
                raise TransientSyscallFault("sendto", 4)
            return "done"

        result = supervisor.run("app", analysis)
        assert result.status == OUTCOME_OK
        assert result.value == "done"
        assert result.attempts == 3
        assert result.backoff_delays == [0.5, 1.0]
        assert sleeps == [0.5, 1.0]
        # Each attempt got a fresh context (fresh ring buffer, platform).
        assert len({id(c) for c in calls}) == 3

    def test_retries_exhausted_becomes_crashed(self):
        supervisor, sleeps = make_supervisor(max_retries=2)

        def analysis(ctx):
            raise TransientSyscallFault("write", 11)

        result = supervisor.run("app", analysis)
        assert result.status == OUTCOME_CRASHED
        assert result.attempts == 3  # initial try + 2 retries
        assert "transient-retries-exhausted" in result.error
        assert result.crash_report is not None
        assert len(sleeps) == 2

    def test_consumed_faults_do_not_refire_on_retry(self):
        """One activation spans all attempts: retry converges to ok."""
        supervisor, __ = make_supervisor()

        def analysis(ctx):
            decision = ctx.active_plan.syscall_fault("sendto", 8)
            if decision is not None:
                raise TransientSyscallFault("sendto", decision[1])
            return "sent"

        result = supervisor.run("app", analysis,
                                plan=FaultPlan.parse("eintr:sendto"))
        assert result.status == OUTCOME_OK
        assert result.attempts == 2
        assert result.injected_faults == ["eintr:sendto"]


class TestRetryHygiene:
    def test_fast_path_rearmed_between_attempts(self):
        """A retry must not inherit the failed attempt's slow path."""
        supervisor, __ = make_supervisor()
        rearms = []
        engine = SimpleNamespace(rearm_fast_path=lambda: rearms.append(1))
        attempts = []

        def analysis(ctx):
            ctx.platform = SimpleNamespace(
                ndroid=SimpleNamespace(taint_engine=engine,
                                       degraded_events=0,
                                       quarantined_hooks=set()))
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientSyscallFault("sendto", 4)
            return "done"

        result = supervisor.run("app", analysis)
        assert result.status == OUTCOME_OK
        assert result.attempts == 3
        assert len(rearms) == 2  # once before each retry, not after success

    def test_rearm_is_a_noop_without_a_platform(self):
        supervisor, __ = make_supervisor()
        calls = []

        def analysis(ctx):
            calls.append(1)
            if len(calls) < 2:
                raise TransientSyscallFault("write", 4)
            return "ok"

        assert supervisor.run("bare", analysis).status == OUTCOME_OK

    def test_jittered_backoff_stays_bounded_and_deterministic(self):
        def run_once():
            supervisor, sleeps = make_supervisor(backoff_jitter=0.5)
            calls = []

            def analysis(ctx):
                calls.append(1)
                if len(calls) < 3:
                    raise TransientSyscallFault("sendto", 4)
                return "done"

            supervisor.run("jittery", analysis)
            return sleeps

        first, second = run_once(), run_once()
        # Deterministic: the RNG is keyed on the supervised label.
        assert first == second
        # Bounded: stretched by at most the jitter fraction, never shrunk.
        for delay, core in zip(first, [0.5, 1.0]):
            assert core <= delay <= core * 1.5
        assert first != [0.5, 1.0]  # the jitter actually engaged

    @pytest.mark.parametrize("label, expected", [
        ("jittery",
         [0.5941495181402676, 1.3131968177233173, 2.781477484271952]),
        ("com.market.ephone",
         [0.7221460070715003, 1.2658422413772135, 2.147784722755596]),
    ])
    def test_jittered_delays_are_pinned_per_label(self, label, expected):
        # The jitter RNG is built lazily on the first retry; a label's
        # delays must still be the ones its eagerly seeded RNG drew.
        supervisor, sleeps = make_supervisor(backoff_jitter=0.5)
        calls = []

        def analysis(ctx):
            calls.append(1)
            if len(calls) < 4:
                raise TransientSyscallFault("sendto", 4)
            return "done"

        result = supervisor.run(label, analysis)
        assert result.attempts == 4
        assert sleeps == result.backoff_delays == expected


class TestWatchdog:
    def test_budget_timeout_on_runaway_loop(self):
        supervisor, __ = make_supervisor(budget=500)

        def analysis(ctx):
            return run_program(ctx, """
            main:
                b main
            """)

        result = supervisor.run("spinner", analysis)
        assert result.status == OUTCOME_TIMEOUT
        assert result.crash_report is not None
        assert result.crash_report.error_type == "AnalysisTimeout"
        assert "500" in result.crash_report.error_message
        assert result.crash_report.instruction_count >= 500

    def test_budget_none_disables_watchdog(self):
        supervisor, __ = make_supervisor(budget=None)

        def analysis(ctx):
            return run_program(ctx, """
            main:
                mov r0, #42
                bx lr
            """)

        result = supervisor.run("app", analysis)
        assert result.status == OUTCOME_OK
        assert result.value == 42


class TestCrashContainment:
    def test_repro_error_contained_with_report(self):
        supervisor, __ = make_supervisor()

        def analysis(ctx):
            return run_program(ctx, """
            main:
                mov r0, #1
                mov r1, #2
                .word 0xf7f0f0f0
            """)

        result = supervisor.run("hostile", analysis)
        assert result.status == OUTCOME_CRASHED
        report = result.crash_report
        assert report.error_type == "DecodeError"
        # Enriched EmulationError context made it into the report.
        assert report.fault_pc == CODE_BASE + 8
        assert report.fault_mode == "arm"
        assert report.fault_word == 0xF7F0_F0F0
        # CPU snapshot + execution tail.
        assert report.registers["r0"] == 1
        assert report.registers["r1"] == 2
        moves = [e for e in report.last_instructions
                 if e["mnemonic"] == "mov"]
        assert len(moves) == 2
        assert "DecodeError" in report.format()
        assert report.to_dict()["fault_pc"] == CODE_BASE + 8

    def test_host_level_errors_are_not_swallowed(self):
        supervisor, __ = make_supervisor()

        def analysis(ctx):
            raise RuntimeError("a real bug, not a guest fault")

        with pytest.raises(RuntimeError):
            supervisor.run("buggy", analysis)

    def test_injected_decode_fault_through_emulator(self):
        supervisor, __ = make_supervisor()

        def analysis(ctx):
            return run_program(ctx, """
            main:
                mov r0, #7
                mov r0, #7
                mov r0, #7
                bx lr
            """)

        result = supervisor.run("app", analysis,
                                plan=FaultPlan.parse("decode@2"))
        assert result.status == OUTCOME_CRASHED
        assert result.injected_faults == ["decode@2"]
        assert "injected decode fault" in result.error

    def test_describe_mentions_status_and_attempts(self):
        supervisor, __ = make_supervisor()

        def analysis(ctx):
            if ctx.active_plan and not ctx.active_plan.exhausted:
                ctx.active_plan.syscall_fault("write", 1)
                raise TransientSyscallFault("write", 4)
            return 0

        result = supervisor.run("app", analysis,
                                plan=FaultPlan.parse("eintr:write"))
        assert "app: ok (attempt 2)" in result.describe()
