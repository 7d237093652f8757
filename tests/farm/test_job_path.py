"""One job path through the farm.

A spec is parsed once (from its shard line) and hashed once, and the same
spec object runs in the worker; a traced job runs the same worker lines
as an untraced one, so tracing changes no committed row.
"""

import glob
import os

import pytest

from repro.farm import FarmScheduler, JobSpec, Manifest, ShardedManifest
from repro.farm.journal import journal_counts
from repro.farm.manifest import iter_corpus_jobs
from repro.observability.flight import build_timeline, read_jsonl


def count_spec_work(tmp_path, monkeypatch, **options):
    """Run a sharded manifest under ``options``; return the job count,
    the report, the rows, and the spec objects digested, the dicts
    parsed and the specs built in this process."""
    manifest = ShardedManifest.write(
        str(tmp_path / "manifest"),
        iter_corpus_jobs(scale=0.004, seed=2014, chunk=16), shard_size=8)
    jobs = len(manifest)
    assert jobs > 8                       # several shards, several batches

    # A spec object computes its digest at most once, so the spec
    # objects digested are the digests computed.  Holding each one keeps
    # its id unique for the length of the run.
    digested = {}
    parsed = []
    built = []
    real_digest = JobSpec.digest
    real_from_dict = JobSpec.from_dict.__func__
    real_post_init = JobSpec.__post_init__

    def digest(self):
        digested.setdefault(id(self), self)
        return real_digest(self)

    def from_dict(cls, data):
        parsed.append(data["id"])
        return real_from_dict(cls, data)

    def post_init(self):
        built.append(self.id)
        real_post_init(self)

    monkeypatch.setattr(JobSpec, "digest", digest)
    monkeypatch.setattr(JobSpec, "from_dict", classmethod(from_dict))
    monkeypatch.setattr(JobSpec, "__post_init__", post_init)
    scheduler = FarmScheduler(manifest, run_dir=str(tmp_path / "run"),
                              **options)
    report = scheduler.run()
    rows = list(scheduler.iter_results())
    monkeypatch.undo()
    assert [row["digest"] for row in rows] == \
        [spec.digest() for spec in manifest]
    return jobs, report, digested, parsed, built


def test_inline_sharded_run_parses_and_hashes_each_spec_once(
        tmp_path, monkeypatch):
    jobs, report, digested, parsed, built = count_spec_work(
        tmp_path, monkeypatch, workers=1)
    assert report.outcomes == {"ok": jobs}
    assert len(digested) == jobs
    assert len(parsed) == jobs
    assert len(built) == jobs


@pytest.mark.parametrize("options", [
    pytest.param({"workers": 1, "resume": True}, id="resume"),
    pytest.param({"workers": 2, "warm": True}, id="j2-warm"),
])
def test_resumed_and_warm_pool_runs_parse_and_hash_each_spec_once(
        tmp_path, monkeypatch, options):
    """``--resume`` plans every batch before dispatch, and a warm pool
    reads every batch's configs before it forks: both reuse the specs
    they loaded, so the scheduler parses and hashes each job once."""
    jobs, report, digested, parsed, built = count_spec_work(
        tmp_path, monkeypatch, **options)
    assert report.outcomes == {"ok": jobs}
    assert report.cached_jobs == 0
    assert len(digested) == jobs
    assert len(parsed) == jobs
    assert len(built) == jobs


SPECS = [
    JobSpec(id="scenario:ephone", kind="scenario", target="ephone"),
    JobSpec(id="scenario:case2", kind="scenario", target="case2"),
    JobSpec(id="market:com.market.ephone", kind="market",
            target="com.market.ephone"),
    JobSpec(id="corpus:0", kind="corpus", target="0", seed=2014,
            scale=0.004, chunk=16),
    JobSpec(id="corpus:16", kind="corpus", target="16", seed=2014,
            scale=0.004, chunk=16),
]

# What differs between two runs of the same job on any host.
UNSTABLE = ("elapsed_seconds", "worker_pid")


def _manifest(kind, tmp_path):
    if kind == "list":
        return Manifest(jobs=list(SPECS))
    return ShardedManifest.write(str(tmp_path / "manifest"), SPECS,
                                 shard_size=2)


def _rows(manifest, workers, run_dir, trace_dir=None):
    scheduler = FarmScheduler(manifest, workers=workers, run_dir=run_dir,
                              trace_dir=trace_dir)
    scheduler.run()
    return [{key: value for key, value in row.items()
             if key not in UNSTABLE}
            for row in scheduler.iter_results()]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["list", "sharded"])
def test_tracing_changes_no_row(tmp_path, kind, workers):
    manifest = _manifest(kind, tmp_path)
    plain = _rows(manifest, workers, str(tmp_path / "plain"))
    trace_dir = str(tmp_path / "flight")
    run_dir = str(tmp_path / "traced")
    traced = _rows(manifest, workers, run_dir, trace_dir=trace_dir)

    assert [row["job"]["id"] for row in plain] == \
        [spec.id for spec in SPECS]
    assert {row["status"] for row in plain} == {"ok"}
    assert traced == plain

    # One spool per attempt, each closed: every span it began, it ended.
    spools = sorted(glob.glob(os.path.join(trace_dir, "worker-*.jsonl")))
    journal = journal_counts(os.path.join(run_dir, "journal.jsonl"))
    assert len(spools) == journal["dispatched"]
    for spool in spools:
        timeline = build_timeline(read_jsonl(spool, "ph"))
        assert timeline["spans"], spool
        assert timeline["open_spans"] == 0, spool
