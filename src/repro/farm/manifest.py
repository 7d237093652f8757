"""Farm job manifests: what to analyse, keyed by content digest.

A manifest is an ordered list of :class:`JobSpec` rows.  Each spec is a
pure value — no callables, no platform state — so it hashes
deterministically: :meth:`JobSpec.digest` is a sha256 over the canonical
JSON form plus the farm schema version, and the result store uses that
digest as its cache key.  A spec keeps its digest once computed, and the
same spec object travels from the manifest through the scheduler and the
(forked or inline) worker to its result row, so a job's digest is
computed once per run.

``Manifest.builtin()`` covers the paper's full built-in corpus: the
Table I / case-study scenarios plus the eight Section VI market apps.

Paper-scale corpora do not fit that shape: the Section III study covers
227,911 APKs, and a list-of-dicts manifest for even a tenth of that
should never materialize in one process.  Two pieces handle the scale:

* :func:`iter_corpus_jobs` streams ``corpus``-kind JobSpecs — each one
  classifies a contiguous chunk of the calibrated synthetic corpus,
  reconstructed in the worker from ``(seed, scale, target, chunk)``
  alone (the generator is addressable, so a chunk never replays its
  prefix);
* :class:`ShardedManifest` spools any JobSpec stream into fixed-size
  JSONL shard files plus a small index.  Shard contents are
  digest-stable (same jobs => byte-identical shards => same sha256), the
  index alone answers ``len()``, and iteration loads one shard at a
  time.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

# Bump when the worker's result payload or the job semantics change:
# every cached result keyed under the old version becomes unreachable.
# v2: corpus-kind jobs + the scale/chunk spec fields.
FARM_SCHEMA_VERSION = 2

JOB_KINDS = ("scenario", "market", "corpus")

SHARD_INDEX_NAME = "index.json"
DEFAULT_SHARD_SIZE = 1024


@dataclass(frozen=True)
class JobSpec:
    """One unit of farm work: analyse one app under one configuration.

    ``corpus`` jobs analyse a chunk of the synthetic Section III corpus
    instead of a single app: ``target`` is the starting stream position,
    ``chunk`` the record count, and ``seed``/``scale`` parameterize the
    generator the worker rebuilds.
    """

    id: str
    kind: str                       # "scenario" | "market" | "corpus"
    target: str                     # scenario name, market package, or
                                    # corpus stream offset
    config: str = "ndroid"
    seed: int = 0
    events: int = 12                # Monkey events (market jobs only)
    faults: Optional[str] = None    # FaultPlan atom string, or None
    trace: bool = False
    scale: float = 1.0              # corpus jobs: generator scale factor
    chunk: int = 1                  # corpus jobs: records in this chunk
    # The memoized digest: not a spec field, so it is neither hashed,
    # compared, nor written to the dict form.
    _digest: Optional[str] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r} "
                             f"(expected one of {JOB_KINDS})")

    def to_dict(self) -> Dict:
        # Every field is a flat value, so a plain read equals asdict()
        # without its deep copy.
        return {name: getattr(self, name) for name in _SPEC_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict) -> "JobSpec":
        return cls(**{k: v for k, v in data.items() if k in _SPEC_FIELDS})

    def digest(self) -> str:
        """Content digest: identical spec => identical key, any change
        to the spec (or the farm schema) => a different key.  Computed
        on the first call and kept on the spec."""
        if self._digest is None:
            canonical = json.dumps(
                {"schema": FARM_SCHEMA_VERSION, **self.to_dict()},
                sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_digest",
                               hashlib.sha256(canonical.encode()).hexdigest())
        return self._digest


_SPEC_FIELDS = tuple(spec_field.name for spec_field in fields(JobSpec)
                     if spec_field.init)


def iter_corpus_jobs(scale: float, seed: int = 2014,
                     chunk: int = 16) -> Iterator[JobSpec]:
    """Stream the corpus-classification jobs for one calibrated corpus.

    Yields one ``corpus`` JobSpec per ``chunk`` records, covering the
    whole scaled corpus exactly once.  Never materializes the records —
    only the generator's apportionment plan is consulted for the total.
    """
    from repro.corpus.generator import CorpusGenerator

    total = len(CorpusGenerator(seed=seed, scale=scale))
    chunk = max(1, chunk)
    for start in range(0, total, chunk):
        yield JobSpec(id=f"corpus:{start}", kind="corpus",
                      target=str(start), seed=seed, scale=scale,
                      chunk=min(chunk, total - start))


@dataclass
class Manifest:
    """An ordered corpus of farm jobs."""

    jobs: List[JobSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.jobs)

    def batches(self) -> Iterator[Tuple[int, int]]:
        """The scheduler's units of work: one ``[start, stop)`` per job."""
        return ((index, index + 1) for index in range(len(self.jobs)))

    def specs(self, start: int, stop: int) -> List[JobSpec]:
        return self.jobs[start:stop]

    def to_dict(self) -> Dict:
        return {"schema": FARM_SCHEMA_VERSION,
                "jobs": [job.to_dict() for job in self.jobs]}

    @classmethod
    def from_dict(cls, data: Dict) -> "Manifest":
        return cls(jobs=[JobSpec.from_dict(row)
                         for row in data.get("jobs", [])])

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, source: str, **overrides):
        """``"builtin"``, a manifest JSON path, or a sharded-manifest
        directory (one holding ``index.json``)."""
        if source == "builtin":
            return cls.builtin(**overrides)
        if os.path.isdir(source):
            return ShardedManifest.load(source)
        with open(source) as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def builtin(cls, config: str = "ndroid", seed: int = 0,
                events: int = 12, trace: bool = False) -> "Manifest":
        """The full built-in corpus: every scenario + every market app."""
        from repro.apps import ALL_SCENARIOS
        from repro.apps.market import MARKET_APPS
        jobs = [JobSpec(id=f"scenario:{name}", kind="scenario", target=name,
                        config=config, seed=seed, trace=trace)
                for name in ALL_SCENARIOS]
        jobs += [JobSpec(id=f"market:{package}", kind="market",
                         target=package, config=config, seed=seed,
                         events=events, trace=trace)
                 for package in MARKET_APPS]
        return cls(jobs=jobs)


@dataclass(frozen=True)
class ShardInfo:
    """One shard file as the index records it."""

    name: str           # file name within the manifest directory
    jobs: int           # JobSpec lines in the shard
    digest: str         # sha256 of the shard file's bytes

    def to_dict(self) -> Dict:
        return {"name": self.name, "jobs": self.jobs,
                "digest": self.digest}


class ShardedManifest:
    """A manifest spooled across fixed-size JSONL shard files.

    The index (``index.json``) is the only part a process must hold:
    shard names, per-shard job counts, and per-shard content digests.
    Jobs are assigned to shards in stream order, so identical job
    streams produce byte-identical shards — the digests are stable
    across runs and machines, and a resumed run can trust that a shard
    name still means the same work.
    """

    def __init__(self, directory: str, shards: List[ShardInfo],
                 shard_size: int) -> None:
        self.directory = directory
        self.shards = shards
        self.shard_size = shard_size
        # Manifest position of each shard's first job.
        self._starts = [0]
        for shard in shards:
            self._starts.append(self._starts[-1] + shard.jobs)

    def __len__(self) -> int:
        return self._starts[-1]

    def __iter__(self) -> Iterator[JobSpec]:
        for index in range(len(self.shards)):
            yield from self.iter_shard(index)

    def batches(self) -> Iterator[Tuple[int, int]]:
        """The scheduler's units of work: one ``[start, stop)`` per shard."""
        return zip(self._starts, self._starts[1:])

    def specs(self, start: int, stop: int) -> List[JobSpec]:
        """The specs at positions ``[start, stop)`` of one shard."""
        index = bisect.bisect_right(self._starts, start) - 1
        offset = start - self._starts[index]
        return list(itertools.islice(self.iter_shard(index), offset,
                                     offset + stop - start))

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_path(self, index: int) -> str:
        return os.path.join(self.directory, self.shards[index].name)

    def iter_shard(self, index: int) -> Iterator[JobSpec]:
        """Lazily yield one shard's specs (one shard in memory at most)."""
        with open(self.shard_path(index)) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield JobSpec.from_dict(json.loads(line))

    def verify_shard(self, index: int) -> bool:
        """Re-hash one shard file against its recorded digest."""
        digest = hashlib.sha256()
        try:
            with open(self.shard_path(index), "rb") as handle:
                for block in iter(lambda: handle.read(1 << 16), b""):
                    digest.update(block)
        except OSError:
            return False
        return digest.hexdigest() == self.shards[index].digest

    def to_dict(self) -> Dict:
        return {"schema": FARM_SCHEMA_VERSION,
                "shard_size": self.shard_size,
                "total_jobs": len(self),
                "shards": [shard.to_dict() for shard in self.shards]}

    @classmethod
    def write(cls, directory: str, specs: Iterable[JobSpec],
              shard_size: int = DEFAULT_SHARD_SIZE) -> "ShardedManifest":
        """Spool a JobSpec stream into shard files plus an index.

        Consumes ``specs`` incrementally — a 100k-job stream passes
        through one spec at a time.  Each shard is written whole and
        hashed as it goes; the index is committed last, so a torn write
        leaves either a loadable manifest or none.
        """
        os.makedirs(directory, exist_ok=True)
        shard_size = max(1, shard_size)
        shards: List[ShardInfo] = []
        handle = None
        hasher = None
        count = 0

        def close_shard() -> None:
            nonlocal handle
            if handle is None:
                return
            handle.close()
            shards.append(ShardInfo(name=name, jobs=count,
                                    digest=hasher.hexdigest()))
            handle = None

        for spec in specs:
            if handle is None:
                name = f"shard-{len(shards):05d}.jsonl"
                handle = open(os.path.join(directory, name), "w")
                hasher = hashlib.sha256()
                count = 0
            line = json.dumps(spec.to_dict(), sort_keys=True,
                              separators=(",", ":")) + "\n"
            handle.write(line)
            hasher.update(line.encode())
            count += 1
            if count >= shard_size:
                close_shard()
        close_shard()

        manifest = cls(directory, shards, shard_size)
        index_temp = os.path.join(directory, f"{SHARD_INDEX_NAME}.tmp")
        with open(index_temp, "w") as index_handle:
            json.dump(manifest.to_dict(), index_handle, indent=2)
            index_handle.write("\n")
        os.replace(index_temp, os.path.join(directory, SHARD_INDEX_NAME))
        return manifest

    @classmethod
    def load(cls, directory: str) -> "ShardedManifest":
        index_path = os.path.join(directory, SHARD_INDEX_NAME)
        with open(index_path) as handle:
            data = json.load(handle)
        shards = [ShardInfo(name=row["name"], jobs=row["jobs"],
                            digest=row["digest"])
                  for row in data.get("shards", [])]
        return cls(directory, shards,
                   data.get("shard_size", DEFAULT_SHARD_SIZE))
