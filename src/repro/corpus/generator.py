"""Calibrated synthetic corpus generator.

Generates :class:`AppRecord` populations whose marginals match the
paper's published Section III numbers (stored in
:data:`PAPER_PARAMETERS`).  Generation is deterministic for a given seed,
and a ``scale`` factor shrinks (or grows) every stratum proportionally so
unit tests can run on thousands of records while the benchmark streams
hundreds of thousands.

Scaling uses **largest-remainder apportionment**
(:func:`largest_remainder`): the scaled strata always sum to exactly the
scaled corpus size, so the type I/II/III marginals track the published
proportions at any scale instead of drifting the way independent
``max(1, round(...))`` rounding does.

The corpus is **addressable and streamable**: every record is a pure
function of ``(seed, stratum, index)``, hashed into a 64-bit key, never
drawn from a shared random stream.  Type I/II records reseed the
generator's one RNG with the key, so no record's draws depend on
another's; plain records hold only their index and index the
category table by the key itself when (and only when) their category is
read, so a chunk job that classifies them hashes none.  Strata are
interleaved by a seed-derived affine permutation of positions rather
than an in-memory shuffle.  :meth:`CorpusGenerator.stream` therefore
yields any slice of the corpus in constant memory, ``record_at`` is
O(1), and ``generate()`` (== ``list(stream())``) returns byte-identical
records to the stream for the same seed, regardless of scale.

The analyzer (:mod:`repro.corpus.study`) never sees the strata — it must
rediscover them from the record contents.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.corpus.appmodel import (
    ADMOB_CLASSES,
    AppRecord,
    EmbeddedDexInfo,
    LOAD_LIBRARY_STRING,
    LOAD_STRING,
    NATIVE_ACTIVITY_STRING,
)


@dataclass(frozen=True)
class StudyParameters:
    """The published marginals (Section III)."""

    total_apps: int = 227_911
    type1_count: int = 37_506
    type1_without_libs: int = 4_034
    type1_without_libs_admob_share: float = 0.481
    type2_count: int = 1_738
    type2_loadable_count: int = 394
    type3_count: int = 16
    type3_games: int = 11
    # Fig. 2: category distribution of Type I apps.
    type1_categories: Tuple[Tuple[str, float], ...] = (
        ("Game", 0.42), ("Tools", 0.05), ("Entertainment", 0.05),
        ("Communication", 0.04), ("Personalization", 0.04),
        ("Music And Audio", 0.04), ("Productivity", 0.03),
        ("Media And Video", 0.03), ("Lifestyle", 0.03),
        ("Education", 0.03), ("Books And Reference", 0.03),
        ("Travel And Local", 0.03), ("Sports", 0.02), ("Finance", 0.02),
        ("Business", 0.02), ("Photography", 0.02), ("Other", 0.10),
    )


PAPER_PARAMETERS = StudyParameters()

# Popular native libraries, most-bundled first (Section III.A: game
# engines dominate, then media, then NDK/system libraries bundled for
# compatibility).
POPULAR_LIBRARIES = (
    "libunity.so", "libmono.so", "libgdx.so", "libbox2d.so",
    "libcocos2dcpp.so", "libandroidgl20.so", "libffmpeg.so",
    "libvlcjni.so", "libmp3lame.so", "libopenal.so",
    "libstlport_shared.so", "libcore.so", "libstagefright_froyo.so",
    "libcrypto.so", "libsqliteX.so", "libgnustl_shared.so",
    "libprotect.so", "libsecexe.so", "libtersafe.so", "liblua.so",
)

# Rejection-sampling bound in _pick_libraries: after this many draws per
# requested library the pick falls back to a deterministic fill.
_LIBRARY_DRAW_ATTEMPTS = 8

_GENERIC_CATEGORIES = (
    "Tools", "Entertainment", "Communication", "Personalization",
    "Music And Audio", "Productivity", "Lifestyle", "Education",
    "Sports", "Finance", "Business", "Photography", "Other",
)

_PLAIN_STRINGS = (
    "Landroid/app/Activity;->onCreate",
    "Landroid/widget/TextView;->setText",
    "Ljava/util/HashMap;-><init>",
    "Landroid/content/Intent;-><init>",
)


def largest_remainder(total: int, weights: Sequence[float]) -> List[int]:
    """Apportion ``total`` units across ``weights`` proportionally.

    Hamilton's method: floor every quota, then hand the leftover units
    to the largest fractional remainders (ties broken by index, so the
    result is deterministic).  The returned counts always sum to exactly
    ``total`` — the property independent per-stratum rounding lacks.
    """
    counts = [0] * len(weights)
    if total <= 0 or not weights:
        return counts
    weight_sum = float(sum(weights))
    if weight_sum <= 0:
        return counts
    quotas = [weight * total / weight_sum for weight in weights]
    counts = [int(quota) for quota in quotas]
    leftover = total - sum(counts)
    order = sorted(range(len(weights)),
                   key=lambda i: (-(quotas[i] - counts[i]), i))
    for index in order[:leftover]:
        counts[index] += 1
    return counts


@dataclass(frozen=True)
class CorpusPlan:
    """The apportioned stratum sizes for one ``(parameters, scale)``.

    Every count is exact bookkeeping, not a target: ``type1 + type2 +
    type3 + plain == total`` by construction, and each sub-stratum is
    the rounded share of its (already apportioned) parent.
    """

    total: int
    type1: int
    type1_without_libs: int
    type1_admob: int
    type2: int
    type2_loadable: int
    type3: int
    type3_games: int
    plain: int

    def marginals(self) -> dict:
        """The stratum counts as a flat dict (for tests and benches)."""
        return {
            "total": self.total, "type1": self.type1,
            "type1_without_libs": self.type1_without_libs,
            "type1_admob": self.type1_admob, "type2": self.type2,
            "type2_loadable": self.type2_loadable, "type3": self.type3,
            "type3_games": self.type3_games, "plain": self.plain,
        }


def plan_corpus(parameters: StudyParameters, scale: float) -> CorpusPlan:
    """Largest-remainder apportionment of the scaled corpus."""
    total = max(0, round(parameters.total_apps * scale))
    plain_weight = max(0, parameters.total_apps - parameters.type1_count -
                       parameters.type2_count - parameters.type3_count)
    type1, type2, type3, plain = largest_remainder(
        total, (parameters.type1_count, parameters.type2_count,
                parameters.type3_count, plain_weight))

    def sub(parent: int, numerator: int, denominator: int) -> int:
        if denominator <= 0:
            return 0
        return min(parent, round(parent * numerator / denominator))

    without = sub(type1, parameters.type1_without_libs,
                  parameters.type1_count)
    admob = min(without,
                round(without * parameters.type1_without_libs_admob_share))
    loadable = sub(type2, parameters.type2_loadable_count,
                   parameters.type2_count)
    games = sub(type3, parameters.type3_games, parameters.type3_count)
    return CorpusPlan(total=total, type1=type1,
                      type1_without_libs=without, type1_admob=admob,
                      type2=type2, type2_loadable=loadable,
                      type3=type3, type3_games=games, plain=plain)


class CorpusGenerator:
    """Deterministic, calibrated, constant-memory corpus synthesis."""

    def __init__(self, seed: int = 2014,
                 parameters: StudyParameters = PAPER_PARAMETERS,
                 scale: float = 1.0) -> None:
        self.seed = seed
        self.parameters = parameters
        self.scale = scale
        self.plan = plan_corpus(parameters, scale)
        self._category_names, self._category_cumulative = \
            self._build_category_table(parameters.type1_categories)
        self._mul, self._add = self._permutation(self.plan.total)
        # Stratum boundaries in permuted-position space.
        plan = self.plan
        self._offsets = (plan.type1,
                         plan.type1 + plan.type2,
                         plan.type1 + plan.type2 + plan.type3)
        # sha256 states over each stratum's ``"{seed}:{stratum}:"``
        # prefix; a key copies one and hashes only the index digits.
        self._key_prefixes = {
            stratum: hashlib.sha256(f"{seed}:{stratum}:".encode())
            for stratum in ("type1", "type2", "type3", "plain")}
        # The one RNG type I/II records draw from, reseeded per record.
        self._rng = random.Random()

    # -- deterministic machinery ---------------------------------------------------

    @staticmethod
    def _build_category_table(categories) -> Tuple[List[str], List[float]]:
        """Normalized cumulative category table, built once.

        The raw shares can sum to slightly under (or over) 1.0 through
        float error; normalizing the cumulative table — and pinning the
        final boundary to exactly 1.0 — keeps the tail bucket from
        absorbing the float residue on every draw.
        """
        names = [name for name, __ in categories]
        shares = [share for __, share in categories]
        share_sum = math.fsum(shares)
        cumulative: List[float] = []
        acc = 0.0
        for share in shares:
            acc += share
            cumulative.append(acc / share_sum)
        cumulative[-1] = 1.0
        return names, cumulative

    def _permutation(self, total: int) -> Tuple[int, int]:
        """A seed-derived affine permutation ``p -> (a*p + b) % total``.

        Interleaves the strata deterministically without materializing
        (and shuffling) the whole corpus; ``a`` is drawn coprime with
        ``total`` so the map is a bijection.
        """
        if total <= 1:
            return 1, 0
        rng = random.Random(f"{self.seed}:interleave")
        offset = rng.randrange(total)
        while True:
            mul = rng.randrange(1, total)
            if math.gcd(mul, total) == 1:
                return mul, offset

    def _key(self, stratum: str, index: int) -> int:
        """Per-record 64-bit key: a pure function of (seed, stratum, index).

        Type I/II records seed the RNG with it; a plain record's category
        indexes by it directly.
        """
        try:
            prefix = self._key_prefixes[stratum]
        except KeyError:  # not a record stratum: hash its prefix afresh
            prefix = hashlib.sha256(f"{self.seed}:{stratum}:".encode())
        digest = prefix.copy()
        digest.update(b"%d" % index)
        return int.from_bytes(digest.digest()[:8], "big")

    # -- public API ---------------------------------------------------------------

    def __len__(self) -> int:
        return self.plan.total

    def record_at(self, position: int) -> AppRecord:
        """The corpus record at stream ``position`` (O(1), no state)."""
        total = self.plan.total
        if not 0 <= position < total:
            raise IndexError(f"position {position} outside corpus "
                             f"[0, {total})")
        return self._record_for((self._mul * position + self._add) % total)

    def _record_for(self, permuted: int) -> AppRecord:
        """The record at permuted position ``permuted``: one stratum
        dispatch, shared by :meth:`record_at` and :meth:`stream`."""
        type2_start, type3_start, plain_start = self._offsets
        if permuted >= plain_start:
            return self._plain_record(permuted - plain_start)
        if permuted < type2_start:
            return self._type1_record(permuted)
        if permuted < type3_start:
            return self._type2_record(permuted - type2_start)
        return self._type3_record(permuted - type3_start)

    def stream(self, start: int = 0,
               stop: Optional[int] = None) -> Iterator[AppRecord]:
        """Yield records ``[start, stop)`` lazily, in constant memory.

        The full stream (default) covers the whole scaled corpus; any
        sub-range generates only its own records, so a sharded farm job
        can analyse records ``[k, k+chunk)`` without replaying the
        prefix.
        """
        total = self.plan.total
        stop = total if stop is None else min(stop, total)
        mul, add, record_for = self._mul, self._add, self._record_for
        for position in range(max(0, start), stop):
            yield record_for((mul * position + add) % total)

    def generate(self) -> List[AppRecord]:
        """Materialize the full corpus (identical to ``list(stream())``)."""
        return list(self.stream())

    # -- strata --------------------------------------------------------------------

    def _pick_type1_category(self, rng: random.Random) -> str:
        roll = rng.random()
        return self._category_names[
            bisect.bisect_right(self._category_cumulative, roll)]

    def _pick_libraries(self, rng: random.Random,
                        category: str) -> Tuple[str, ...]:
        # Zipf-flavoured popularity; games prefer engine libraries.
        count = 1 + (rng.random() < 0.35) + (rng.random() < 0.1)
        chosen = set()
        attempts = 0
        # Bounded rejection sampling: the category re-roll can keep
        # rejecting low (engine) indices arbitrarily long, so cap the
        # draws and fall back to a deterministic popularity-order fill.
        while len(chosen) < count and \
                attempts < _LIBRARY_DRAW_ATTEMPTS * count:
            attempts += 1
            index = min(int(rng.expovariate(0.35)),
                        len(POPULAR_LIBRARIES) - 1)
            if category != "Game" and index < 6 and rng.random() < 0.5:
                index = rng.randrange(6, len(POPULAR_LIBRARIES))
            chosen.add(POPULAR_LIBRARIES[index])
        for name in POPULAR_LIBRARIES:
            if len(chosen) >= count:
                break
            chosen.add(name)
        return tuple(sorted(chosen))

    def _type1_record(self, index: int) -> AppRecord:
        rng = self._rng
        rng.seed(self._key("type1", index))
        plan = self.plan
        category = self._pick_type1_category(rng)
        strings = _PLAIN_STRINGS + (
            LOAD_LIBRARY_STRING if rng.random() < 0.9 else LOAD_STRING,)
        if index < plan.type1_without_libs:
            libraries: Tuple[str, ...] = ()
            if index < plan.type1_admob:
                declared = tuple(rng.sample(ADMOB_CLASSES, 3))
            else:
                declared = (f"Lcom/app{index}/Native;",)
        else:
            libraries = self._pick_libraries(rng, category)
            declared = (f"Lcom/app{index}/Engine;",)
        return AppRecord(
            package=f"com.type1.app{index}", category=category,
            dex_strings=strings, native_libraries=libraries,
            declared_native_classes=declared)

    def _type2_record(self, index: int) -> AppRecord:
        rng = self._rng
        rng.seed(self._key("type2", index))
        if index < self.plan.type2_loadable:
            embedded = (EmbeddedDexInfo(
                "assets/payload.dex",
                _PLAIN_STRINGS + (LOAD_LIBRARY_STRING,)),)
            return AppRecord(
                package=f"com.type2.app{index}",
                category=rng.choice(_GENERIC_CATEGORIES),
                dex_strings=_PLAIN_STRINGS,
                native_libraries=self._pick_libraries(rng, "Tools"),
                embedded_dex=embedded)
        # Libraries present but unused: often wrong-arch leftovers
        # from open-source projects (Section III.B).
        archs = rng.choice((("x86",), ("mips",), ("armeabi", "x86")))
        return AppRecord(
            package=f"com.type2.app{index}",
            category=rng.choice(_GENERIC_CATEGORIES),
            dex_strings=_PLAIN_STRINGS,
            native_libraries=(rng.choice(POPULAR_LIBRARIES),),
            library_archs=archs)

    def _type3_record(self, index: int) -> AppRecord:
        category = "Game" if index < self.plan.type3_games \
            else "Entertainment"
        return AppRecord(
            package=f"com.type3.app{index}", category=category,
            dex_strings=(),  # pure native: no Java code at all
            native_libraries=("libmain.so",),
            manifest_flags=(NATIVE_ACTIVITY_STRING,))

    def _plain_record(self, index: int) -> AppRecord:
        return _PlainRecord(self, index)

    def _plain_category(self, index: int) -> str:
        return _GENERIC_CATEGORIES[
            self._key("plain", index) % len(_GENERIC_CATEGORIES)]


class _PlainRecord(AppRecord):
    """A plain-stratum record: its generator and index, nothing else.

    Every plain record has the same contents, so those fields are shared
    class attributes (the base class's defaults, and the plain dex
    strings); ``package`` and ``category`` are derived when read.  The
    classifier's probes read only the shared fields, so classifying a
    plain record costs no hash and builds no string.
    """

    __slots__ = ("_generator", "_index")

    dex_strings = _PLAIN_STRINGS
    native_libraries = ()
    library_archs = ("armeabi",)
    embedded_dex = ()
    manifest_flags = ()
    declared_native_classes = ()

    def __init__(self, generator: CorpusGenerator, index: int) -> None:
        self._generator = generator
        self._index = index

    @property
    def package(self) -> str:
        return f"com.plain.app{self._index}"

    @property
    def category(self) -> str:
        return self._generator._plain_category(self._index)
