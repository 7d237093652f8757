"""Digest-keyed result store: re-running an unchanged corpus is near-free.

Every commit is one JSONL file of result rows, named by its batch key
(:func:`batch_digest`): a one-job batch is keyed by the job's content
digest, so a per-job entry is a one-line file exactly as before, and a
multi-job batch (a corpus shard, or half of one after a bisection) is
keyed by a digest over its members' digests.  A farm run with
``--resume`` consults the store before dispatching: a hit replays the
recorded rows without building a platform at all.

Writes are **crash-consistent**, not merely atomic-looking: rows spool
to a temp file that is fsync'd before the rename, and the directory
entry is fsync'd after it, so a commit that returned survives a
power-loss-style SIGKILL of the writer (farm workers commit their own
results and are chaos-killed on purpose).  Reads are **verified**: a
truncated or bit-damaged file — or one whose row digests do not hash to
its name — is damage, not data, so its jobs re-run instead of resuming
from it.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


def batch_digest(digests: Sequence[str]) -> str:
    """The store key of a batch: its job's digest when it holds one job,
    else a sha256 over the member digests in order."""
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def fsync_directory(directory: str) -> None:
    """Flush a directory entry table to disk (best-effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


class RowSpool:
    """Rows appended to a temp file and made visible at once by :meth:`commit`.

    write temp -> fsync temp -> rename -> fsync directory: a kill at any
    point leaves either no file, the old file, or the new complete file
    — never a torn one.  (A torn file can still *appear* if something
    truncates the committed entry afterwards; readers guard against that
    separately.)  Rows stream through one at a time, so a batch of any
    size commits in constant memory.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.temp = f"{path}.tmp.{os.getpid()}"
        self._handle = open(self.temp, "w")

    def add(self, row: Dict) -> None:
        self._handle.write(json.dumps(row) + "\n")

    def commit(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self.temp, self.path)
        fsync_directory(os.path.dirname(self.path) or ".")

    def discard(self) -> None:
        self._handle.close()
        try:
            os.unlink(self.temp)
        except OSError:
            pass


def atomic_write_json(path: str, payload: Dict) -> None:
    """Commit one row at ``path`` so it is either absent or whole."""
    spool = RowSpool(path)
    spool.add(payload)
    spool.commit()


def iter_rows(path: str) -> Iterator[Dict]:
    """Stream a committed file's rows; a damaged line raises ValueError."""
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            if not isinstance(row, dict):
                raise ValueError("result row is not an object")
            yield row


def scan_rows(path: str, key: Optional[str] = None
              ) -> Optional[Dict[str, int]]:
    """Outcome counts of a committed file, or ``None`` if it is damage.

    Missing, truncated, unparsable and empty files are damage.  With
    ``key`` given, the rows' digests must hash to it under
    :func:`batch_digest` — a partial overwrite that still parses (a file
    cut at a line boundary, or renamed under the wrong key) reads as
    damage too.  A lone row without a ``digest`` field is accepted.
    """
    outcomes: Dict[str, int] = {}
    digests: List[Optional[str]] = []
    try:
        for row in iter_rows(path):
            status = row.get("status", "lost")
            outcomes[status] = outcomes.get(status, 0) + 1
            digests.append(row.get("digest"))
    except (OSError, ValueError):
        return None
    if not digests:
        return None
    if key is not None:
        if len(digests) == 1:
            if digests[0] not in (None, key):
                return None
        elif None in digests or batch_digest(digests) != key:
            return None
    return outcomes


def read_verified_json(path: str, digest: Optional[str] = None
                       ) -> Optional[Dict]:
    """Load a committed one-row result, or ``None`` if it is damage."""
    try:
        rows = list(iter_rows(path))
    except (OSError, ValueError):
        return None
    if len(rows) != 1:
        return None
    if digest is not None and rows[0].get("digest") not in (None, digest):
        return None
    return rows[0]


class ResultStore:
    """Content-addressed cache of committed farm result batches."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path(key))

    def __len__(self) -> int:
        return len(self.digests())

    def drop(self, key: str) -> None:
        try:
            os.unlink(self.path(key))
        except OSError:
            pass

    def scan(self, key: str) -> Optional[Dict[str, int]]:
        """Outcome counts of the entry under ``key``, or ``None`` on a miss.

        A corrupt or mismatched entry is dropped and reads as a miss, so
        its jobs re-run instead of resuming from damage.
        """
        path = self.path(key)
        outcomes = scan_rows(path, key) if os.path.exists(path) else None
        if outcomes is None:
            self.misses += 1
            self.drop(key)
            return None
        self.hits += 1
        return outcomes

    def get(self, digest: str) -> Optional[Dict]:
        """The one-job entry under ``digest`` (verified), or ``None``;
        damage is dropped, as in :meth:`scan`."""
        result = read_verified_json(self.path(digest), digest=digest)
        if result is None:
            self.misses += 1
            self.drop(digest)
            return None
        self.hits += 1
        return result

    def put(self, digest: str, result: Dict) -> None:
        atomic_write_json(self.path(digest), result)

    def digests(self) -> List[str]:
        return sorted(name[:-len(".json")]
                      for name in os.listdir(self.directory)
                      if name.endswith(".json"))

    def verify(self) -> Tuple[List[str], List[str]]:
        """Audit every entry; returns ``(good_keys, bad_keys)``.

        Non-destructive (unlike :meth:`scan`, which drops damage on
        read): the chaos harness runs this after recovery to prove the
        store holds only whole, correctly-keyed results.
        """
        good: List[str] = []
        bad: List[str] = []
        for key in self.digests():
            if scan_rows(self.path(key), key) is None:
                bad.append(key)
            else:
                good.append(key)
        return good, bad
