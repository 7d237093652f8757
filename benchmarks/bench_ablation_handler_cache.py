"""Ablation — hot-handler reuse in the instruction tracer (Section V.C).

"To speed up the identification of the instruction type and the search of
the handler, NDroid caches hot instructions and the corresponding
handlers."  NDroid does this on the TB engine: each translation block
selects its instructions' handlers once, at translation time.  The
ablated run pins the single-step engine, whose tracer re-selects the
handler for every traced instruction.
"""

import pytest

from repro.bench import CFBench
from repro.core import NDroid
from repro.framework import AndroidPlatform


def make_platform(use_tb):
    platform = AndroidPlatform(use_tb=use_tb)
    NDroid.attach(platform)
    return platform


@pytest.mark.parametrize("use_tb", [True, False],
                         ids=["translated", "single-step"])
def test_benchmark_handler_cache(benchmark, count_calls, use_tb):
    platform = make_platform(use_tb)
    tracer = platform.ndroid.instruction_tracer
    translated = count_calls(tracer, "compile_taint_op")
    stepped = count_calls(tracer, "_select_handler")
    bench = CFBench(platform, iterations=400)

    def run():
        bench.run_workload("native_mips")

    benchmark.pedantic(run, rounds=3, iterations=1)
    traced = tracer.traced_instructions
    assert traced > 0
    if use_tb:
        assert not stepped
        assert 0 < len(translated) < traced
    else:
        assert not translated
        assert len(stepped) == traced


def test_cache_hit_rate_on_hot_loop(count_calls):
    platform = make_platform(True)
    tracer = platform.ndroid.instruction_tracer
    translated = count_calls(tracer, "compile_taint_op")
    bench = CFBench(platform, iterations=500)
    bench.run_workload("native_mips")
    traced = tracer.traced_instructions
    reuse = (traced - len(translated)) / max(traced, 1)
    print(f"\nhot-loop handler reuse: {reuse:.1%} of {traced} traced "
          f"instructions ran without a handler selection")
    assert reuse > 0.95
