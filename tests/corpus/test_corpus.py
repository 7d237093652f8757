"""Corpus generator + study pipeline tests (Section III / Fig. 2)."""

import hashlib
import random

import pytest

from repro.corpus import (
    AppRecord,
    CorpusGenerator,
    PAPER_PARAMETERS,
    analyze_corpus,
)
from repro.corpus.appmodel import EmbeddedDexInfo
from repro.corpus.generator import (
    _GENERIC_CATEGORIES,
    largest_remainder,
    plan_corpus,
)
from repro.corpus.study import classify
from repro.farm import iter_corpus_jobs, worker


class TestClassifier:
    def test_type1_is_load_call(self):
        record = AppRecord("a", "Tools",
                           dex_strings=("Ljava/lang/System;->loadLibrary",),
                           native_libraries=("libx.so",))
        assert classify(record) == "I"

    def test_type1_without_libs_still_type1(self):
        record = AppRecord("a", "Tools",
                           dex_strings=("Ljava/lang/System;->load",))
        assert classify(record) == "I"

    def test_type2_is_libs_without_call(self):
        record = AppRecord("a", "Tools", native_libraries=("libx.so",))
        assert classify(record) == "II"

    def test_type3_is_pure_native(self):
        record = AppRecord("a", "Game", native_libraries=("libmain.so",),
                           manifest_flags=("android.app.NativeActivity",))
        assert classify(record) == "III"

    def test_plain_app_is_none(self):
        record = AppRecord("a", "Tools",
                           dex_strings=("Landroid/app/Activity;->onCreate",))
        assert classify(record) == "none"

    def test_embedded_dex_load_detection(self):
        dex = EmbeddedDexInfo("assets/p.dex",
                              ("Ljava/lang/System;->loadLibrary",))
        record = AppRecord("a", "Tools", native_libraries=("libx.so",),
                           embedded_dex=(dex,))
        assert classify(record) == "II"
        assert record.has_loadable_embedded_dex()


class TestGeneratorCalibration:
    """At scale=1 the corpus reproduces the paper's exact marginals."""

    @pytest.fixture(scope="class")
    def report(self):
        records = CorpusGenerator(seed=2014, scale=0.05).generate()
        return analyze_corpus(records)

    def test_scaled_counts_proportional(self, report):
        assert report.total_apps == pytest.approx(227_911 * 0.05, rel=0.01)
        assert len(report.type1) == pytest.approx(37_506 * 0.05, rel=0.01)
        assert len(report.type2) == pytest.approx(1_738 * 0.05, rel=0.02)
        assert len(report.type3) == pytest.approx(16 * 0.05, abs=2)

    def test_type1_without_libs_and_admob(self, report):
        assert report.type1_without_libs == pytest.approx(4_034 * 0.05,
                                                          rel=0.02)
        assert report.admob_share_of_libless_type1 == pytest.approx(
            0.481, abs=0.02)

    def test_type2_loadable(self, report):
        assert report.type2_loadable == pytest.approx(394 * 0.05, rel=0.05)

    def test_game_category_dominates_type1(self, report):
        shares = report.type1_category_shares
        assert shares["Game"] == pytest.approx(0.42, abs=0.02)
        assert max(shares, key=shares.get) == "Game"
        for name, expected in PAPER_PARAMETERS.type1_categories:
            if name in ("Game", "Other"):
                continue
            assert shares.get(name, 0.0) == pytest.approx(expected, abs=0.015)

    def test_game_engines_top_bundled_libraries(self, report):
        top = [name for name, __ in report.library_popularity[:6]]
        engine_like = {"libunity.so", "libmono.so", "libgdx.so",
                       "libbox2d.so", "libcocos2dcpp.so",
                       "libandroidgl20.so"}
        assert len(engine_like.intersection(top)) >= 3

    def test_percentage_of_jni_apps(self, report):
        # Paper reports 16.46% using native libraries from this crawl.
        assert 14.0 < report.percent_using_jni < 19.0

    def test_determinism(self):
        first = CorpusGenerator(seed=7, scale=0.01).generate()
        second = CorpusGenerator(seed=7, scale=0.01).generate()
        assert [r.package for r in first] == [r.package for r in second]
        third = CorpusGenerator(seed=8, scale=0.01).generate()
        assert [r.package for r in first] != [r.package for r in third]

    def test_summary_formatting(self, report):
        text = report.format_summary()
        assert "type I" in text
        assert "Game" in text


class TestApportionment:
    """Largest-remainder planning: exact sums, no rounding drift."""

    def test_largest_remainder_sums_exactly(self):
        for total in (0, 1, 7, 100, 227_911):
            counts = largest_remainder(total, (37_506, 1_738, 16, 188_651))
            assert sum(counts) == total
            assert all(count >= 0 for count in counts)

    def test_scale_one_reproduces_the_paper(self):
        plan = plan_corpus(PAPER_PARAMETERS, 1.0)
        assert plan.total == 227_911
        assert plan.type1 == 37_506
        assert plan.type1_without_libs == 4_034
        assert plan.type2 == 1_738
        assert plan.type2_loadable == 394
        assert plan.type3 == 16
        assert plan.type3_games == 11

    @pytest.mark.parametrize("scale", [0.1, 1.0, 50.0])
    def test_marginals_within_tolerance_at_any_scale(self, scale):
        plan = plan_corpus(PAPER_PARAMETERS, scale)
        assert plan.total == round(PAPER_PARAMETERS.total_apps * scale)
        assert plan.type1 + plan.type2 + plan.type3 + plan.plain == \
            plan.total
        # Each stratum's share of the total stays within one count of
        # the published marginal's share — no drift however far the
        # scale is from 1.
        published = {
            "type1": PAPER_PARAMETERS.type1_count,
            "type2": PAPER_PARAMETERS.type2_count,
            "type3": PAPER_PARAMETERS.type3_count,
        }
        for name, count in published.items():
            expected = count * scale
            assert abs(getattr(plan, name) - expected) <= 1, name

    def test_category_table_is_normalized(self):
        generator = CorpusGenerator(seed=1, scale=0.001)
        cumulative = generator._category_cumulative
        assert cumulative[-1] == 1.0
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))


def record_fields(record):
    """Every field of ``record``, embedded dex included, as a tuple."""
    return (record.package, record.category, record.dex_strings,
            record.native_libraries, record.library_archs,
            tuple((dex.name, dex.strings) for dex in record.embedded_dex),
            record.manifest_flags, record.declared_native_classes)


class TestStreaming:
    """The generator is addressable: stream == materialize, any slice."""

    def test_stream_equals_generate(self):
        generator = CorpusGenerator(seed=2014, scale=0.01)
        streamed = [record_fields(record) for record in generator.stream()]
        materialized = [record_fields(record)
                        for record in
                        CorpusGenerator(seed=2014, scale=0.01).generate()]
        assert streamed == materialized
        assert len(streamed) == len(generator)

    def test_slices_are_position_addressable(self):
        generator = CorpusGenerator(seed=3, scale=0.005)
        full = [record_fields(record) for record in generator.stream()]
        middle = [record_fields(record)
                  for record in generator.stream(100, 150)]
        assert middle == full[100:150]
        for position in (0, 117, len(full) - 1):
            assert record_fields(generator.record_at(position)) == \
                full[position]
        with pytest.raises(IndexError):
            generator.record_at(len(generator))

    def test_chunks_reassemble_the_whole_corpus(self):
        generator = CorpusGenerator(seed=2014, scale=0.002)
        total = len(generator)
        chunked = []
        for start in range(0, total, 37):
            chunked += [record_fields(record)
                        for record in
                        generator.stream(start, min(start + 37, total))]
        assert chunked == [record_fields(record)
                           for record in generator.stream()]
        assert chunked == [record_fields(generator.record_at(position))
                           for position in range(total)]

    def test_library_picks_are_bounded_and_deterministic(self):
        generator = CorpusGenerator(seed=5, scale=0.01)
        rng_a = random.Random(generator._key("probe", 1))
        rng_b = random.Random(generator._key("probe", 1))
        libs_a = generator._pick_libraries(rng_a, "Game")
        libs_b = generator._pick_libraries(rng_b, "Game")
        assert libs_a == libs_b
        assert len(libs_a) == len(set(libs_a))


class TestRecordRandomness:
    """What each stratum draws, and what it must keep drawing."""

    # sha256 over every field of every type I/II/III record of
    # CorpusGenerator(seed=2014, scale=0.01), in stream order: the
    # inputs of Fig. 2 and the Section III table.  Any change to how
    # those records draw their randomness moves it.
    JNI_RECORDS_DIGEST = \
        "49184f86b15dac9900a13d497d075068ca38662d362bbcad9bd56b49e7768a0a"
    # The same over every plain record, taken when plain records were
    # still built field by field: reading a derived field must give
    # what the eager record held.
    PLAIN_RECORDS_DIGEST = \
        "e168e2859da40a083f7a136ea7aadd5fb151396e7b519d349dd5aae753af7547"

    @staticmethod
    def _stratum_digest(plain):
        digest = hashlib.sha256()
        count = 0
        for record in CorpusGenerator(seed=2014, scale=0.01).stream():
            if record.package.startswith("com.plain.") != plain:
                continue
            count += 1
            digest.update(repr(record_fields(record)).encode() + b"\n")
        return count, digest.hexdigest()

    def test_jni_records_match_the_golden_digest(self):
        count, digest = self._stratum_digest(plain=False)
        plan = plan_corpus(PAPER_PARAMETERS, 0.01)
        assert count == plan.type1 + plan.type2 + plan.type3 == 392
        assert digest == self.JNI_RECORDS_DIGEST

    def test_plain_records_match_the_golden_digest(self):
        count, digest = self._stratum_digest(plain=True)
        assert count == plan_corpus(PAPER_PARAMETERS, 0.01).plain == 1887
        assert digest == self.PLAIN_RECORDS_DIGEST

    def test_chunk_jobs_hash_and_seed_only_type1_and_type2_records(
            self, monkeypatch):
        # A chunk job classifies every record, but only a type I/II
        # record draws randomness: one key and one RNG seeding each.
        # Plain records (and type III) hash nothing.
        worker._corpus_generator.cache_clear()
        generator = worker._corpus_generator(2014, 0.01)
        calls = {"key": 0, "seed": 0}
        key, seed = generator._key, generator._rng.seed

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(generator, "_key", counting("key", key))
        monkeypatch.setattr(generator._rng, "seed", counting("seed", seed))
        all_plain = 0
        for spec in iter_corpus_jobs(0.01, seed=2014, chunk=4):
            calls.update(key=0, seed=0)
            metrics = worker._analyze_corpus_chunk(spec, None)["metrics"]
            assert metrics["corpus.records"] == spec.chunk
            drawn = metrics["corpus.type1"] + metrics["corpus.type2"]
            assert calls == {"key": drawn, "seed": drawn}, spec.id
            if metrics["corpus.plain"] == spec.chunk:
                all_plain += 1
                assert calls["key"] == 0
        assert all_plain > 0

    @pytest.mark.parametrize("stratum",
                             ("type1", "type2", "type3", "plain", "probe"))
    def test_key_is_the_record_sha256_prefix(self, stratum):
        # The prefix-hashed key must equal hashing the whole
        # "{seed}:{stratum}:{index}" string, on first use and on reuse,
        # for the record strata and for any other stratum name.
        generator = CorpusGenerator(seed=2014, scale=0.01)
        for __ in range(2):
            for index in (0, 9, 10, 10 ** 6):
                literal = hashlib.sha256(
                    f"2014:{stratum}:{index}".encode()).digest()
                assert generator._key(stratum, index) == \
                    int.from_bytes(literal[:8], "big")

    def test_plain_categories_are_deterministic_and_cover_all(self):
        generator = CorpusGenerator(seed=2014, scale=0.01)
        first = [generator._plain_record(index).category
                 for index in range(generator.plan.plain)]
        again = [CorpusGenerator(seed=2014, scale=0.01)
                 ._plain_record(index).category
                 for index in range(generator.plan.plain)]
        assert first == again
        assert set(first) == set(_GENERIC_CATEGORIES)
        assert len(_GENERIC_CATEGORIES) == 13
        # The streamed plain records carry the same categories.
        streamed = {record.package: record.category
                    for record in generator.stream()
                    if record.package.startswith("com.plain.")}
        assert len(streamed) == generator.plan.plain
        assert streamed == {f"com.plain.app{index}": category
                            for index, category in enumerate(first)}
        # A different seed gives a different assignment.
        other = [CorpusGenerator(seed=7, scale=0.01)
                 ._plain_record(index).category
                 for index in range(generator.plan.plain)]
        assert other != first


class TestLibraryKinds:
    """Section III.A's manual analysis of the top-20 libraries."""

    def test_top20_dominated_by_engines_then_media(self):
        records = CorpusGenerator(seed=2014, scale=0.05).generate()
        report = analyze_corpus(records)
        kinds = report.library_kind_distribution(top=20)
        assert kinds.get("game-engine", 0) >= 5
        assert kinds.get("media", 0) >= 3
        assert kinds.get("ndk-system", 0) >= 2
        # Engines dominate, as the paper observes.
        assert kinds["game-engine"] == max(kinds.values())

    def test_kind_distribution_respects_top_parameter(self):
        records = CorpusGenerator(seed=2014, scale=0.02).generate()
        report = analyze_corpus(records)
        top5 = report.library_kind_distribution(top=5)
        assert sum(top5.values()) == 5
