"""The digest-keyed result store (crash-consistent writes, verified reads)."""

import hashlib
import json
import os
import signal
import time

from repro.farm.store import (
    ResultStore,
    atomic_write_json,
    read_verified_json,
)

DIGEST = "ab" * 32
OTHER = "cd" * 32


def test_miss_then_put_then_hit(tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    assert store.get(DIGEST) is None
    assert store.misses == 1
    store.put(DIGEST, {"status": "ok", "leaks": []})
    assert DIGEST in store
    assert store.get(DIGEST) == {"status": "ok", "leaks": []}
    assert store.hits == 1
    assert len(store) == 1
    assert store.digests() == [DIGEST]


def test_corrupt_entry_is_dropped_and_treated_as_miss(tmp_path):
    store = ResultStore(str(tmp_path))
    path = os.path.join(str(tmp_path), f"{DIGEST}.json")
    with open(path, "w") as handle:
        handle.write('{"status": "ok"')  # truncated write
    assert store.get(DIGEST) is None
    assert store.misses == 1
    assert not os.path.exists(path)  # poison removed: the job re-runs


def test_put_leaves_no_temp_files(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(DIGEST, {"status": "ok"})
    assert sorted(os.listdir(str(tmp_path))) == [f"{DIGEST}.json"]


def test_put_fsyncs_the_temp_file_before_the_rename(tmp_path, monkeypatch):
    # The crash-consistency contract: data reaches disk before the
    # rename makes it visible, and the directory entry is flushed after.
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd),
                                                 real_fsync(fd))[1])
    replaced = []
    real_replace = os.replace
    monkeypatch.setattr(
        os, "replace",
        lambda src, dst: (replaced.append(len(synced)),
                          real_replace(src, dst))[1])
    atomic_write_json(str(tmp_path / "entry.json"), {"status": "ok"})
    # At least one fsync (the temp file) strictly before the rename,
    # and one more (the directory) after it.
    assert replaced == [1]
    assert len(synced) == 2


def test_sigkill_mid_write_leaves_every_committed_file_whole(tmp_path):
    # A real kill, not a mock: a child commits payloads in a tight loop
    # until SIGKILLed somewhere inside atomic_write_json.
    root = str(tmp_path / "cache")
    os.makedirs(root)
    body = list(range(512))

    pid = os.fork()
    if pid == 0:
        try:
            index = 0
            while True:
                digest = hashlib.sha256(str(index).encode()).hexdigest()
                atomic_write_json(os.path.join(root, f"{digest}.json"),
                                  {"digest": digest, "index": index,
                                   "body": body})
                index += 1
        finally:
            os._exit(1)    # only reached if the loop somehow breaks

    time.sleep(0.25)
    os.kill(pid, signal.SIGKILL)
    __, raw = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(raw) and os.WTERMSIG(raw) == signal.SIGKILL

    committed = [name for name in os.listdir(root) if ".tmp." not in name]
    assert committed, "child was killed before any write committed"
    for name in committed:
        assert name.endswith(".json")
        digest = name[:-len(".json")]
        payload = read_verified_json(os.path.join(root, name),
                                     digest=digest)
        assert payload is not None, f"torn commit: {name}"
        assert payload["digest"] == digest
        assert payload["body"] == body


def test_truncated_entry_reads_as_cache_miss_after_commit(tmp_path):
    """Regression: a partial result file must never resume as data."""
    store = ResultStore(str(tmp_path))
    store.put(DIGEST, {"digest": DIGEST, "status": "ok", "leaks": []})
    path = os.path.join(str(tmp_path), f"{DIGEST}.json")
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)          # post-fsync media damage
    assert store.get(DIGEST) is None        # detected, treated as a miss
    assert store.misses == 1
    assert not os.path.exists(path)         # dropped: the job re-runs


def test_digest_field_mismatch_reads_as_damage(tmp_path):
    # Parses fine as JSON, but records a different job's digest — e.g.
    # a file renamed under the wrong key.  Must read as a miss.
    store = ResultStore(str(tmp_path))
    store.put(DIGEST, {"digest": OTHER, "status": "ok"})
    assert store.get(DIGEST) is None
    assert store.misses == 1
    # Directly through the reader too.
    path = str(tmp_path / "direct.json")
    atomic_write_json(path, {"digest": OTHER, "status": "ok"})
    assert read_verified_json(path, digest=DIGEST) is None
    assert read_verified_json(path, digest=OTHER) == \
        {"digest": OTHER, "status": "ok"}
    assert read_verified_json(path) is not None  # no expectation, no check


def test_non_dict_payload_reads_as_damage(tmp_path):
    path = str(tmp_path / "weird.json")
    with open(path, "w") as handle:
        json.dump(["not", "a", "result"], handle)
    assert read_verified_json(path) is None


def test_verify_audits_without_dropping(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(DIGEST, {"digest": DIGEST, "status": "ok"})
    store.put(OTHER, {"digest": OTHER, "status": "ok"})
    bad_path = os.path.join(str(tmp_path), f"{OTHER}.json")
    with open(bad_path, "r+b") as handle:
        handle.truncate(10)
    good, bad = store.verify()
    assert good == [DIGEST]
    assert bad == [OTHER]
    # Non-destructive: the damaged entry is still there for forensics.
    assert os.path.exists(bad_path)
