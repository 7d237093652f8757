"""Farm manifests: digest stability and corpus construction."""

import json
import os

import pytest

from repro.farm.manifest import (FARM_SCHEMA_VERSION, JobSpec, Manifest,
                                 ShardedManifest, iter_corpus_jobs)


def test_digest_is_stable_across_instances():
    a = JobSpec(id="scenario:ephone", kind="scenario", target="ephone")
    b = JobSpec(id="scenario:ephone", kind="scenario", target="ephone")
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64


def test_digest_changes_with_any_field():
    base = JobSpec(id="scenario:ephone", kind="scenario", target="ephone")
    assert base.digest() != JobSpec(
        id="scenario:ephone", kind="scenario", target="ephone",
        seed=1).digest()
    assert base.digest() != JobSpec(
        id="scenario:ephone", kind="scenario", target="ephone",
        faults="decode@1").digest()
    assert base.digest() != JobSpec(
        id="scenario:ephone", kind="scenario", target="ephone",
        trace=True).digest()


def test_digest_covers_the_schema_version():
    spec = JobSpec(id="x", kind="scenario", target="ephone")
    canonical = json.dumps({"schema": FARM_SCHEMA_VERSION, **spec.to_dict()},
                           sort_keys=True, separators=(",", ":"))
    # v2: corpus-kind jobs plus the scale/chunk spec fields.
    assert FARM_SCHEMA_VERSION == 2
    assert str(FARM_SCHEMA_VERSION) in canonical


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        JobSpec(id="x", kind="apk", target="ephone")


def test_manifest_json_round_trip(tmp_path):
    manifest = Manifest(jobs=[
        JobSpec(id="scenario:ephone", kind="scenario", target="ephone"),
        JobSpec(id="market:com.market.ephone", kind="market",
                target="com.market.ephone", events=6, faults="decode@1"),
    ])
    path = tmp_path / "manifest.json"
    manifest.save(str(path))
    loaded = Manifest.load(str(path))
    assert [job.digest() for job in loaded] == \
        [job.digest() for job in manifest]


def test_builtin_covers_scenarios_and_market_apps():
    manifest = Manifest.load("builtin")
    kinds = {job.kind for job in manifest}
    assert kinds == {"scenario", "market"}
    assert len(manifest) >= 4
    ids = [job.id for job in manifest]
    assert "scenario:ephone" in ids
    assert "market:com.market.ephone" in ids
    assert len(set(job.digest() for job in manifest)) == len(manifest)


# -- sharded streamed manifests ----------------------------------------------

def _specs(count):
    return (JobSpec(id=f"corpus:{i}", kind="corpus", target=str(i),
                    seed=2014, scale=0.5, chunk=4) for i in range(count))


def test_sharded_manifest_round_trip(tmp_path):
    directory = str(tmp_path / "manifest")
    written = ShardedManifest.write(directory, _specs(25), shard_size=10)
    assert len(written) == 25
    assert written.shard_count == 3
    assert [s.jobs for s in written.shards] == [10, 10, 5]

    loaded = ShardedManifest.load(directory)
    assert len(loaded) == 25
    assert [spec.digest() for spec in loaded] == \
        [spec.digest() for spec in _specs(25)]
    # The generic loader routes a directory to the sharded loader.
    via_manifest = Manifest.load(directory)
    assert isinstance(via_manifest, ShardedManifest)
    assert len(via_manifest) == 25


def test_shard_digests_stable_across_writes(tmp_path):
    a = ShardedManifest.write(str(tmp_path / "a"), _specs(23),
                              shard_size=8)
    b = ShardedManifest.write(str(tmp_path / "b"), _specs(23),
                              shard_size=8)
    assert [s.digest for s in a.shards] == [s.digest for s in b.shards]
    assert all(a.verify_shard(i) for i in range(a.shard_count))
    # Corruption is detected by the recorded digest.
    with open(a.shard_path(0), "a") as handle:
        handle.write("{}\n")
    assert not a.verify_shard(0)


def test_shard_iteration_is_lazy(tmp_path):
    manifest = ShardedManifest.write(str(tmp_path / "m"), _specs(12),
                                     shard_size=5)
    first = next(iter(manifest.iter_shard(1)))
    assert first.id == "corpus:5"
    # len() comes from the index alone, no shard reads.
    os.unlink(manifest.shard_path(2))
    assert len(manifest) == 12


def test_iter_corpus_jobs_covers_the_corpus_exactly():
    from repro.corpus.generator import CorpusGenerator
    total = len(CorpusGenerator(seed=2014, scale=0.003))
    jobs = list(iter_corpus_jobs(scale=0.003, seed=2014, chunk=16))
    assert sum(job.chunk for job in jobs) == total
    assert jobs[0].target == "0"
    starts = [int(job.target) for job in jobs]
    assert starts == sorted(starts)
    assert all(job.kind == "corpus" for job in jobs)
    # The last chunk is clipped, never padded past the corpus.
    assert int(jobs[-1].target) + jobs[-1].chunk == total
