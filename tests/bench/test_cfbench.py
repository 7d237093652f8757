"""CF-Bench suite and overhead-harness tests."""

import pytest

from repro.bench import CFBench, OverheadHarness, WORKLOADS
from repro.bench.cfbench import (
    JAVA_WORKLOADS,
    NATIVE_WORKLOADS,
    WorkloadResult,
    geometric_mean,
)
from repro.bench.harness import make_platform, williams_order


class TestWorkloads:
    @pytest.fixture(scope="class")
    def bench(self):
        platform = make_platform("vanilla")
        return CFBench(platform, iterations=60)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_workload_runs_and_times(self, bench, name):
        result = bench.run_workload(name)
        assert result.elapsed_seconds > 0
        assert result.iterations == 60
        assert result.score > 0

    def test_unknown_workload_rejected(self, bench):
        with pytest.raises(KeyError):
            bench.run_workload("native_gpu")

    def test_native_workloads_execute_arm_instructions(self, bench):
        before = bench.platform.emu.instruction_count
        bench.run_workload("native_mips", iterations=100)
        assert bench.platform.emu.instruction_count - before >= 600

    def test_java_workloads_execute_dalvik_instructions(self, bench):
        before = bench.platform.vm.dalvik_instructions
        bench.run_workload("java_mips", iterations=100)
        assert bench.platform.vm.dalvik_instructions - before >= 500

    def test_disk_workloads_touch_filesystem(self, bench):
        bench.run_workload("native_disk_write", iterations=10)
        file = bench.platform.kernel.filesystem.lookup("/sdcard/bench.dat")
        assert file.size > 0

    def test_iterations_scale_work(self, bench):
        small = bench.run_workload("native_mips", iterations=50)
        big = bench.run_workload("native_mips", iterations=500)
        assert big.elapsed_seconds > small.elapsed_seconds

    def test_workload_partition(self):
        assert set(NATIVE_WORKLOADS) | set(JAVA_WORKLOADS) == set(WORKLOADS)
        assert not set(NATIVE_WORKLOADS) & set(JAVA_WORKLOADS)


class TestGeometricMean:
    def test_basics(self):
        assert geometric_mean([4.0, 1.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([3.0]) == pytest.approx(3.0)


class TestWilliamsOrder:
    """The harness's run order: a balanced (Williams) design."""

    @pytest.mark.parametrize("count", range(1, 8))
    def test_each_treatment_directly_follows_every_other_equally(
            self, count):
        period = count if count % 2 == 0 else 2 * count
        rows = [williams_order(count, index) for index in range(period)]
        follows = {}
        for row in rows:
            assert sorted(row) == list(range(count))
            for before, after in zip(row, row[1:]):
                follows[before, after] = follows.get((before, after), 0) + 1
        pairs = [(a, b) for a in range(count) for b in range(count)
                 if a != b]
        assert sorted(follows) == pairs
        assert len(set(follows.values())) <= 1
        # ... and runs in every position equally often.
        for position in range(count):
            column = sorted(row[position] for row in rows)
            assert column == sorted(list(range(count)) * (period // count))

    def test_order_is_a_pure_function_of_its_index(self):
        assert williams_order(4, 5) == williams_order(4, 5) == \
            williams_order(4, 1)
        assert williams_order(3, 4) == williams_order(3, 10)


class TestOverheadHarness:
    def test_configs_construct(self):
        for config in ("vanilla", "taintdroid", "ndroid", "droidscope"):
            platform = make_platform(config)
            assert platform is not None
        with pytest.raises(ValueError):
            make_platform("nonsense")

    def test_overhead_ordering_matches_paper(self):
        """The Fig. 10 shape: NDroid < DroidScope, with NDroid's cost on
        native code.

        TaintDroid is not ordered against vanilla here: both run the same
        Dalvik engine, and on CF-Bench's clean data the same code, so
        their ratio is 1.0 within timing noise.  Absolute ratios are
        compressed because the substrate is a Python emulator rather
        than TCG-translated code, but the ordering and the
        native-vs-Java structure must hold.
        """
        harness = OverheadHarness(iterations=150, repeats=3)
        workloads = ["native_mips", "java_mips", "native_mallocs",
                     "java_memory_read"]
        tables = harness.compare(["ndroid", "droidscope"], workloads)
        ndroid, droidscope = tables["ndroid"], tables["droidscope"]
        # NDroid costs more on native code than on Java code.
        assert ndroid.rows["native_mips"] > ndroid.rows["java_mips"] * 0.9
        # DroidScope's overall slowdown exceeds NDroid's.
        assert droidscope.overall > ndroid.overall
        # And its Java cost dwarfs NDroid's (no DVM cooperation).
        assert droidscope.rows["java_mips"] > ndroid.rows["java_mips"] * 1.5

    def test_table_formatting(self):
        harness = OverheadHarness(iterations=60, repeats=2)
        table = harness.overhead_table("ndroid",
                                       workloads=["native_mips",
                                                  "java_mips"])
        text = table.format()
        assert "NDroid" in text
        assert "native_mips" in text
        assert "Overall Score" in text
        assert "median of 2 interleaved rounds" in text
        assert len(table.rounds) == 2
        low, high = table.spread["native_mips"]
        assert low <= table.rows["native_mips"] <= high

    def test_tables_name_each_configs_engines(self):
        """DroidScope-sim runs single-step; the others translated code."""
        tables = OverheadHarness(iterations=20, repeats=1).compare_all(
            ["native_mips"])
        assert tables["ndroid"].engine == "ARM translated, Dalvik compiled"
        assert tables["droidscope"].engine == \
            "ARM single-step, Dalvik single-step"
        assert "single-step" in tables["droidscope"].format()
