"""The Observability facade: wiring, zero-cost-when-off, schema."""

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform
from repro.framework.android import AndroidPlatform
from repro.observability.schema import validate_record


def test_disabled_platform_has_no_observability():
    platform = AndroidPlatform(observe=False)
    assert platform.observability is None
    assert platform.kernel.ledger is None
    assert platform.emu.profile is None


def test_wired_but_untraced_platform_keeps_engines_unledgered():
    platform = make_platform("ndroid")
    assert platform.observability is not None
    assert not platform.observability.tracing
    assert platform.kernel.ledger is None
    assert platform.vm.ledger is None
    assert platform.libc.ledger is None
    assert platform.ndroid.instruction_tracer.ledger is None
    assert platform.emu.profile is None
    # Metrics still pull fine without tracing.
    snapshot = platform.observability.snapshot()
    assert "emulator.instructions" in snapshot
    assert "core.traced_instructions" in snapshot


def test_enable_tracing_propagates_to_all_engines():
    platform = make_platform("ndroid")
    ledger = platform.observability.enable_tracing()
    assert platform.kernel.ledger is ledger
    assert platform.vm.ledger is ledger
    assert platform.libc.ledger is ledger
    assert platform.ndroid.instruction_tracer.ledger is ledger
    assert platform.ndroid.dvm_hooks.ledger is ledger
    assert platform.ndroid.syslib_hooks.ledger is ledger
    assert platform.emu.profile is platform.observability.profile
    platform.observability.disable_tracing()
    assert platform.kernel.ledger is None
    assert platform.emu.profile is None
    assert not any(name.startswith("profile.")
                   for name in platform.observability.snapshot())


def test_tracing_enabled_before_attach_also_wires_ndroid():
    # make_platform(trace=True) enables tracing before NDroid attaches;
    # wire_ndroid must propagate the existing ledger into the hooks.
    platform = make_platform("ndroid", trace=True)
    ledger = platform.observability.ledger
    assert platform.ndroid.instruction_tracer.ledger is ledger
    assert platform.ndroid.syslib_hooks.ledger is ledger


def test_metrics_cover_every_required_subsystem():
    platform = make_platform("ndroid", trace=True)
    run_scenario(ALL_SCENARIOS["ephone"](), platform)
    snapshot = platform.observability.snapshot()
    for name in ("emulator.instructions", "emulator.tb.blocks",
                 "emulator.tb.hits", "emulator.tb.misses",
                 "kernel.traps", "kernel.syscall.sendto",
                 "dalvik.instructions", "core.traced_instructions",
                 "resilience.degraded_events", "ledger.edges"):
        assert name in snapshot, name
    assert snapshot["ledger.edges"] > 0
    assert snapshot["kernel.syscall.sendto"] == 1
    assert any(name.startswith("core.hook.") for name in snapshot)
    assert any(name.startswith("profile.") for name in snapshot)


def test_ledger_edges_validate_against_schema():
    platform = make_platform("ndroid", trace=True)
    run_scenario(ALL_SCENARIOS["poc_case2"](), platform)
    for edge in platform.observability.ledger:
        assert validate_record(edge.to_dict()) == []
