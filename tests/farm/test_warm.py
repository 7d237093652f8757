"""Warm workers: template reset, worker reuse, fork isolation.

Pins the warm-fork contract end to end:

* ``Platform.reset_for_job()`` — a list of the state owners' own
  ``reset_for_job()`` calls, each restoring what its ``checkpoint()``
  kept at ``prepare_template()`` — returns a used template to a state
  that re-runs any job with engine-identical results while keeping the
  translation caches warm;
* a resident library gets back only what a job changed, and the guest
  task list is re-serialised only when a memory map changed (the
  kernel's change count), with no walk of it otherwise;
* compiled Dalvik blocks outlive the job and die with their methods;
* the worker module reuses one booted template per config and one
  build per app across jobs, and ``install`` hands an app back as built;
* after a fork, self-modifying code invalidates the *child's* warm
  translation state without touching the template in the parent (the
  emulator re-registers its write watcher in its own reset).

``tests/farm/test_reset_for_job.py`` checks the same contract against
cold boots over generated job sequences.
"""

import os

import pytest

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform
from repro.farm import worker as worker_module
from repro.farm.manifest import JobSpec
from repro.jni.slots import jni_offset
from repro.kernel.process import TASK_LIST_HEAD


@pytest.fixture(autouse=True)
def cold_worker_defaults():
    """Every test starts — and leaves the process — in cold mode."""
    worker_module.configure_warm(False)
    yield
    worker_module.configure_warm(False)


def leak_rows(platform):
    return [(r.detector, r.sink, r.taint, r.destination, r.payload.hex(),
             r.context) for r in platform.leaks.records]


def counted(log, name, function):
    """``function``, appending ``name`` to ``log`` on every call."""
    def call(*args):
        log.append(name)
        return function(*args)
    return call


def wait_exit(pid: int) -> int:
    __, raw = os.waitpid(pid, 0)
    assert os.WIFEXITED(raw), f"child died abnormally (status {raw})"
    return os.WEXITSTATUS(raw)


class TestResetForJob:
    def test_requires_prepare_template(self):
        from repro.common.errors import DalvikError
        platform = make_platform("ndroid")
        with pytest.raises(DalvikError):
            platform.reset_for_job()

    def test_reset_is_engine_identical_to_cold(self):
        name = "qqphonebook"
        cold = make_platform("ndroid")
        run_scenario(ALL_SCENARIOS[name](), cold)
        expected = (leak_rows(cold), cold.work_counters())

        warm = make_platform("ndroid")
        warm.prepare_template()
        for __ in range(3):
            warm.reset_for_job()
            run_scenario(ALL_SCENARIOS[name](), warm)
            assert (leak_rows(warm), warm.work_counters()) == expected

    def test_reset_keeps_translation_caches_warm(self):
        platform = make_platform("ndroid")
        platform.prepare_template()
        platform.reset_for_job()
        run_scenario(ALL_SCENARIOS["case2"](), platform)
        warm_entries = len(platform.emu._decode_cache)
        assert warm_entries > 0
        platform.reset_for_job()
        # The resident library's decoded instructions survived the reset.
        assert len(platform.emu._decode_cache) >= warm_entries
        assert platform._resident_libraries

    def test_changed_library_source_never_aliases_resident_code(self):
        from repro.framework import Apk

        platform = make_platform("ndroid")
        platform.prepare_template()
        emu = platform.emu

        def job(package, value):
            platform.reset_for_job()
            platform.install(Apk(package=package, native_libraries={
                "libalias.so": f"f:\n    mov r0, #{value}\n    bx lr\n"}))
            program = platform.load_library("libalias.so")
            return program.base, emu.call(program.entry("f"))

        first_base, first = job("com.alias.one", 1)
        assert first == 1
        # Same name, different source: the resident is evicted — its
        # translations dropped and its mapping removed — and the new
        # code maps at a base never handed out before.
        second_base, second = job("com.alias.two", 2)
        assert second == 2
        assert second_base != first_base
        assert emu.memory_map.find(first_base) is None
        assert not any(first_base <= address < second_base
                       for address, __ in emu._decode_cache)
        third_base, third = job("com.alias.one", 1)
        assert third == 1
        assert third_base not in (first_base, second_base)

    def test_new_library_keeps_other_jobs_translations(self):
        # Loading and mapping a library reaches only its own pages'
        # caches: case3's job drops none of case2's blocks, and case2
        # run again translates nothing.
        platform = make_platform("ndroid")
        platform.prepare_template()
        metrics = {}
        for name in ("case2", "case3", "case2"):
            platform.reset_for_job()
            run_scenario(ALL_SCENARIOS[name](), platform)
            metrics[name] = platform.observability.snapshot()
            assert platform.leaks.records
        assert metrics["case3"]["emulator.tb.invalidations"] == 0
        assert metrics["case2"]["emulator.tb.translations"] == 0
        assert metrics["case2"]["emulator.tb.hits"] > 0

    def test_reset_clears_job_state(self):
        platform = make_platform("ndroid", trace=True)
        platform.prepare_template()
        platform.reset_for_job()
        run_scenario(ALL_SCENARIOS["case2"](), platform)
        assert platform.leaks.records
        assert len(platform.observability.ledger) > 0
        platform.reset_for_job()
        assert not platform.leaks.records
        assert platform.emu.instruction_count == 0
        assert platform.vm.interpreter.instructions_executed == 0
        assert platform.kernel.syscall_count == 0
        assert len(platform.observability.ledger) == 0


class TestResidentRestore:
    """A reset writes back only what a job changed in a resident library."""

    def _warm_after_one_job(self, name):
        platform = make_platform("ndroid")
        platform.prepare_template()
        platform.reset_for_job()
        run_scenario(ALL_SCENARIOS[name](), platform)
        return platform

    def test_data_writes_keep_translations(self):
        platform = self._warm_after_one_job("case1_prime")
        program, base, __ = platform._resident_libraries["libcase1p.so"]
        end = base + len(program.code)
        # The job stashed the IMEI in the library's own data area.
        assert platform.memory.read_bytes(base, len(program.code)) != \
            program.code
        platform.reset_for_job()
        assert platform.memory.read_bytes(base, len(program.code)) == \
            program.code
        emu = platform.emu
        translated = []
        translate = emu._translate

        def counting(pc, thumb):
            translated.append(pc)
            return translate(pc, thumb)

        emu._translate = counting
        run_scenario(ALL_SCENARIOS["case1_prime"](), platform)
        assert [pc for pc in translated if base <= pc < end] == []
        assert emu._tb_cache.hits > 0
        assert platform.leaks.records

    def test_code_rewrite_is_invalidated_and_restored(self):
        cold = make_platform("ndroid")
        run_scenario(ALL_SCENARIOS["case1_prime"](), cold)
        expected = (leak_rows(cold), cold.work_counters())

        platform = self._warm_after_one_job("case1_prime")
        program, base, __ = platform._resident_libraries["libcase1p.so"]
        fetch = program.entry("Java_com_cases_OnePrime_fetch")
        emu = platform.emu
        # A job that rewrites fetch() to "mov r0, #42; bx lr" and runs
        # it, so translated blocks of the rewritten code exist.
        platform.reset_for_job()
        emu.memory.write_bytes(fetch, bytes.fromhex("2a00a0e31eff2fe1"))
        assert emu.call(fetch) == 42
        assert (fetch, False) in emu._tb_cache._blocks
        platform.reset_for_job()
        # The restore rewrote decoded code: its blocks are gone.
        assert (fetch, False) not in emu._tb_cache._blocks
        assert platform.memory.read_bytes(base, len(program.code)) == \
            program.code
        run_scenario(ALL_SCENARIOS["case1_prime"](), platform)
        assert (leak_rows(platform), platform.work_counters()) == expected


class TestTaskListSkip:
    """reset_for_job() re-serialises the guest task list only when a
    checkpointed process's memory map changed; otherwise the boot-page
    rewrite restores it.  Either way the guest bytes and NDroid's view
    must be what a fresh serialisation + reconstruction gives."""

    @staticmethod
    def task_list_state(platform):
        kernel = platform.kernel
        cursor = kernel._kernel_allocator.cursor
        memory = platform.memory
        return (memory.read_bytes(TASK_LIST_HEAD, cursor - TASK_LIST_HEAD),
                cursor, platform.ndroid.view_reconstructor.view().format())

    def fresh_task_list(self, platform):
        tasks_base = platform.kernel._tasks_checkpoint[0]
        platform.kernel._kernel_allocator.cursor = tasks_base
        platform.kernel.sync_tasks_to_guest()
        reconstructor = platform.ndroid.view_reconstructor
        reconstructor.invalidate()
        reconstructor.reconstruct()
        return self.task_list_state(platform)

    def test_reset_task_list_equals_fresh_serialisation(self, monkeypatch):
        from repro.framework import Apk

        platform = make_platform("ndroid")
        platform.prepare_template()
        kernel = platform.kernel
        syncs = []
        sync = kernel.sync_tasks_to_guest

        def counting_sync():
            syncs.append(1)
            sync()
        monkeypatch.setattr(kernel, "sync_tasks_to_guest", counting_sync)

        def scribble():
            platform.memory.write_bytes(TASK_LIST_HEAD, b"\xa5" * 0x200)

        def map_library():
            platform.install(Apk(package="com.tasks.lib", native_libraries={
                "libtasks.so": "f:\n    mov r0, #3\n    bx lr\n"}))
            platform.load_library("libtasks.so")

        def add_process():
            kernel.spawn_process("com.tasks.extra")
            kernel.sync_tasks_to_guest()

        # Whether each job's reset must re-serialise: only the library
        # stays behind (resident) and changes what the reset restores.
        for job, reserialises in ((scribble, False), (map_library, True),
                                  (add_process, False), (scribble, False)):
            job()
            del syncs[:]
            platform.reset_for_job()
            assert len(syncs) == int(reserialises), job.__name__
            after_reset = self.task_list_state(platform)
            assert after_reset == self.fresh_task_list(platform), \
                job.__name__
        view = platform.ndroid.view_reconstructor.view()
        assert any(vma.name == "libtasks.so" and vma.third_party
                   for process in view.processes for vma in process.vmas)

    def test_dalvik_block_map_stays_bounded_across_jobs(self):
        # Blocks outlive the job and die with their methods: a fresh
        # build's are gone once its reset lets its classes go, and an
        # image's are compiled once, so the map stops growing.
        platform = make_platform("ndroid")
        platform.prepare_template()
        tbc = platform.vm.tbc

        def held():
            blocks = sum(len(blocks)
                         for blocks in tbc._method_blocks.values())
            assert tbc.cached_blocks == blocks
            return blocks, set(tbc._method_blocks)

        names = ("case2", "qqphonebook", "ephone")
        booted = held()
        for name in names * 2:
            platform.reset_for_job()
            run_scenario(ALL_SCENARIOS[name](), platform)
            assert held()[0] > booted[0]
            platform.reset_for_job()
            assert held() == booted
        images = [ALL_SCENARIOS[name]() for name in names]
        cycles = []
        for __ in range(3):
            misses = 0
            for image in images:
                platform.reset_for_job()
                run_scenario(image, platform)
                misses += tbc.misses
                assert platform.leaks.records
            cycles.append((held(), misses))
        assert cycles[0][1] > 0
        assert cycles[1] == cycles[2] == (cycles[0][0], 0)

    def test_reset_on_an_unchanged_task_list_walks_nothing(
            self, monkeypatch):
        from repro.core.view_reconstructor import ViewReconstructor
        from repro.memory.regions import MemoryMap

        platform = make_platform("ndroid")
        platform.prepare_template()
        for __ in range(2):
            # The first job maps case2's library; the second finds it
            # resident and maps nothing.
            platform.reset_for_job()
            run_scenario(ALL_SCENARIOS["case2"](), platform)
        walks = []
        monkeypatch.setattr(MemoryMap, "__iter__",
                            counted(walks, "regions", MemoryMap.__iter__))
        monkeypatch.setattr(ViewReconstructor, "reconstruct",
                            counted(walks, "reconstruct",
                                    ViewReconstructor.reconstruct))
        monkeypatch.setattr(platform.kernel, "sync_tasks_to_guest",
                            counted(walks, "sync",
                                    platform.kernel.sync_tasks_to_guest))
        platform.reset_for_job()
        assert walks == []
        assert self.task_list_state(platform) == \
            self.fresh_task_list(platform)


class TestAppImages:
    """The worker builds each app once; ``install`` gives it back as
    built, whatever its last job wrote to its classes."""

    CLASS = "Lcom/image/App;"
    ONLOAD = f"""
JNI_OnLoad:                       ; (env, reserved)
    push {{r4, lr}}
    mov r4, r0
    ldr ip, [r4]
    ldr ip, [ip, #{jni_offset('FindClass')}]
    ldr r1, =cls_name
    blx ip
    mov r1, r0
    ldr ip, [r4]
    ldr ip, [ip, #{jni_offset('RegisterNatives')}]
    mov r0, r4
    ldr r2, =method_table
    mov r3, #1
    blx ip
    mov r0, #0
    pop {{r4, pc}}

hidden_poke:                      ; (env, jclass) -> void
    bx lr

cls_name:
    .asciz "com/image/App"
m_name:
    .asciz "poke"
m_sig:
    .asciz "()V"
.align 2
method_table:
    .word m_name
    .word m_sig
    .word hidden_poke
"""

    def image(self):
        """``main`` bumps a static counter, binds ``poke`` through
        ``RegisterNatives`` and calls it; returns the counter."""
        from repro.dalvik import ClassDef, MethodBuilder
        from repro.framework import Apk

        cls = ClassDef(self.CLASS)
        cls.add_static_field("counter")
        cls.add_method(MethodBuilder(self.CLASS, "poke", "V", static=True,
                                     native=True).build())
        main = MethodBuilder(self.CLASS, "main", "I", static=True,
                             registers=2)
        main.sget(0, f"{self.CLASS}->counter")
        main.add_lit(0, 0, 1)
        main.sput(0, f"{self.CLASS}->counter")
        main.const_string(1, "libimage.so")
        main.invoke_static("Ljava/lang/System;->loadLibrary", 1)
        main.invoke_static(f"{self.CLASS}->poke")
        main.ret(0)
        cls.add_method(main.build())
        return Apk(package="com.image.app", classes=[cls],
                   native_libraries={"libimage.so": self.ONLOAD})

    def test_image_installs_pristine_after_a_job_wrote_it(self):
        apk = self.image()
        cls = apk.classes[0]
        poke = cls.methods["poke"]
        platform = make_platform("ndroid")
        platform.prepare_template()
        for __ in range(2):
            platform.reset_for_job()
            platform.install(apk)
            # As built: the last job's counter and binding are gone.
            assert cls.static_values == {"counter": [0, 0]}
            assert poke.native_address == 0
            assert platform.run_app(apk).value == 1
            program = platform._loaded_libraries["libimage.so"]
            assert poke.native_address == program.entry("hidden_poke")
            assert cls.static_values["counter"][0] == 1

    def test_second_warm_run_builds_and_compiles_nothing(
            self, monkeypatch):
        from repro.apps.market import MARKET_APPS
        from repro.dalvik.tbc import DalvikTraceCompiler

        specs = ([JobSpec(id=f"scenario:{name}", kind="scenario",
                          target=name) for name in sorted(ALL_SCENARIOS)]
                 + [JobSpec(id=f"market:{name}", kind="market",
                            target=name) for name in sorted(MARKET_APPS)])
        worker_module.configure_warm(True)
        first = [worker_module.execute_job(spec) for spec in specs]
        calls = []
        for registry in (ALL_SCENARIOS, MARKET_APPS):
            for name, build in list(registry.items()):
                monkeypatch.setitem(registry, name,
                                    counted(calls, name, build))
        monkeypatch.setattr(DalvikTraceCompiler, "compile",
                            counted(calls, "compile",
                                    DalvikTraceCompiler.compile))
        second = [worker_module.execute_job(spec) for spec in specs]
        assert calls == []
        for before, after in zip(first, second):
            assert after["status"] == before["status"] == "ok"
            assert after["leaks"] == before["leaks"]
            assert after["metrics"]["dalvik.tbc.misses"] == 0


class TestWarmWorker:
    def spec(self, target: str) -> dict:
        return JobSpec(id=f"scenario:{target}", kind="scenario",
                       target=target).to_dict()

    def test_template_reused_across_jobs(self, tmp_path):
        worker_module.configure_warm(True)
        cold = worker_module.execute_job(self.spec("case2"))
        assert cold["status"] in ("ok", "degraded")

        template = worker_module.WARM["templates"]["ndroid"]
        second = worker_module.execute_job(self.spec("ephone"))
        assert second["status"] in ("ok", "degraded")
        assert worker_module.WARM["templates"]["ndroid"] is template

    def test_warm_results_match_cold(self):
        targets = ("case1", "case2", "benign")
        cold = {t: worker_module.execute_job(self.spec(t))
                for t in targets}
        worker_module.configure_warm(True)
        for target in targets:
            warm = worker_module.execute_job(self.spec(target))
            assert warm["leaks"] == cold[target]["leaks"]
            assert warm["detected"] == cold[target]["detected"]


class TestForkIsolation:
    def test_smc_after_fork_invalidates_child_not_template(self):
        platform = make_platform("ndroid")
        platform.prepare_template()
        platform.reset_for_job()
        run_scenario(ALL_SCENARIOS["case2"](), platform)
        platform.reset_for_job()

        name, (program, base, __) = \
            next(iter(platform._resident_libraries.items()))
        emu = platform.emu
        page = base >> 12
        assert any(key in emu._decode_cache
                   for key in list(emu._decode_pages.get(page, ()))), \
            "warm template lost its resident decode entries"
        entries_before = len(emu._decode_cache)

        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # The child claims the template for its own job: the
                # reset re-registers the write watcher on *this*
                # process's objects.
                platform.reset_for_job()
                emu.memory.write_bytes(base, b"\x2a\x00\xa0\xe3")
                page_keys = emu._decode_pages.get(page, set())
                invalidated = not any(key in emu._decode_cache
                                      for key in list(page_keys)) \
                    and emu._tb_cache.invalidations >= 0
                child_saw_drop = len(emu._decode_cache) < entries_before
                code = 0 if (invalidated and child_saw_drop) else 1
            finally:
                os._exit(code)

        assert wait_exit(pid) == 0
        # The template in the parent never saw the child's write: its
        # warm decode entries for the library are intact.
        assert len(emu._decode_cache) == entries_before
        assert bytes(emu.memory.read_bytes(base, 4)) == \
            bytes(program.code[:4])

    def test_forked_child_reruns_job_with_parity(self):
        worker_module.configure_warm(True)
        worker_module.warm_boot_templates(["ndroid"])
        expected = worker_module.execute_job(
            {"id": "scenario:case2", "kind": "scenario",
             "target": "case2", "config": "ndroid"})

        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                result = worker_module.execute_job(
                    {"id": "scenario:case2", "kind": "scenario",
                     "target": "case2", "config": "ndroid"})
                ok = (result["leaks"] == expected["leaks"]
                      and result["detected"] == expected["detected"])
                code = 0 if ok else 1
            finally:
                os._exit(code)
        assert wait_exit(pid) == 0
