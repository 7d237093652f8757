"""A small virtual file system.

Paths are absolute, ``/``-separated.  Regular files hold a ``bytearray``
plus a parallel per-byte taint shadow, so file contents written by a
tainted buffer stay tainted when read back — information flows through the
file system are not laundered (a file write then read is still a flow).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import KernelError
from repro.common.taint import TAINT_CLEAR, TaintLabel, combine


@dataclass
class RegularFile:
    """File content plus a taint label per byte."""

    data: bytearray = field(default_factory=bytearray)
    taints: List[TaintLabel] = field(default_factory=list)

    def write_at(self, offset: int, payload: bytes,
                 taints: Optional[List[TaintLabel]] = None) -> int:
        if taints is None:
            taints = [TAINT_CLEAR] * len(payload)
        end = offset + len(payload)
        if end > len(self.data):
            self.data.extend(b"\x00" * (end - len(self.data)))
            self.taints.extend([TAINT_CLEAR] * (end - len(self.taints)))
        self.data[offset:end] = payload
        self.taints[offset:end] = taints
        return len(payload)

    def read_at(self, offset: int,
                length: int) -> Tuple[bytes, List[TaintLabel]]:
        chunk = bytes(self.data[offset:offset + length])
        taints = self.taints[offset:offset + len(chunk)]
        return chunk, taints

    @property
    def size(self) -> int:
        return len(self.data)

    def taint_union(self) -> TaintLabel:
        return combine(*self.taints) if self.taints else TAINT_CLEAR


class FileSystem:
    """Flat-namespace VFS with directory bookkeeping."""

    def __init__(self) -> None:
        self._files: Dict[str, RegularFile] = {}
        self._directories = {"/"}
        for path in ("/sdcard", "/data", "/data/data", "/proc", "/system",
                     "/system/lib"):
            self._directories.add(path)

    def checkpoint(self) -> None:
        """Record every file's bytes and taints, and the directories."""
        self._checkpoint = (
            {path: (bytes(file.data), list(file.taints))
             for path, file in self._files.items()},
            set(self._directories))

    def reset_for_job(self) -> None:
        """Back to the checkpointed files (fresh objects) and directories."""
        files, directories = self._checkpoint
        self._files = {
            path: RegularFile(data=bytearray(data), taints=list(taints))
            for path, (data, taints) in files.items()}
        self._directories = set(directories)

    # -- path helpers --------------------------------------------------------

    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/"):
            raise KernelError(f"path must be absolute: {path!r}")
        parts = [part for part in path.split("/") if part]
        return "/" + "/".join(parts)

    @staticmethod
    def _parent(path: str) -> str:
        head, _, __ = path.rpartition("/")
        return head or "/"

    # -- directories ------------------------------------------------------------

    def mkdir(self, path: str) -> None:
        path = self._normalize(path)
        parent = self._parent(path)
        if parent not in self._directories:
            raise KernelError(f"mkdir: no parent directory {parent!r}")
        if path in self._directories or path in self._files:
            raise KernelError(f"mkdir: {path!r} exists")
        self._directories.add(path)

    def is_dir(self, path: str) -> bool:
        return self._normalize(path) in self._directories

    def listdir(self, path: str) -> List[str]:
        path = self._normalize(path)
        if path not in self._directories:
            raise KernelError(f"listdir: no directory {path!r}")
        prefix = path if path.endswith("/") else path + "/"
        names = set()
        for candidate in list(self._files) + list(self._directories):
            if candidate != path and candidate.startswith(prefix):
                remainder = candidate[len(prefix):]
                names.add(remainder.split("/", 1)[0])
        return sorted(names)

    # -- files ---------------------------------------------------------------------

    def create(self, path: str) -> RegularFile:
        path = self._normalize(path)
        if self._parent(path) not in self._directories:
            raise KernelError(f"create: no parent directory for {path!r}")
        if path in self._directories:
            raise KernelError(f"create: {path!r} is a directory")
        file = RegularFile()
        self._files[path] = file
        return file

    def exists(self, path: str) -> bool:
        path = self._normalize(path)
        return path in self._files or path in self._directories

    def lookup(self, path: str) -> RegularFile:
        path = self._normalize(path)
        if path not in self._files:
            raise KernelError(f"no such file: {path!r}")
        return self._files[path]

    def open_or_create(self, path: str, create: bool,
                       truncate: bool) -> RegularFile:
        path = self._normalize(path)
        file = self._files.get(path)
        if file is None:
            if not create:
                raise KernelError(f"no such file: {path!r}")
            file = self.create(path)
        elif truncate:
            file.data.clear()
            file.taints.clear()
        return file

    def remove(self, path: str) -> None:
        path = self._normalize(path)
        if path not in self._files:
            raise KernelError(f"remove: no such file {path!r}")
        del self._files[path]

    def rename(self, old: str, new: str) -> None:
        old, new = self._normalize(old), self._normalize(new)
        if old not in self._files:
            raise KernelError(f"rename: no such file {old!r}")
        if self._parent(new) not in self._directories:
            raise KernelError(f"rename: no parent directory for {new!r}")
        self._files[new] = self._files.pop(old)

    def write_text(self, path: str, text: str) -> RegularFile:
        """Convenience used by platform setup (e.g. seeding /proc files)."""
        file = self.open_or_create(path, create=True, truncate=True)
        file.write_at(0, text.encode("utf-8"))
        return file

    def read_text(self, path: str) -> str:
        chunk, _ = self.lookup(path).read_at(0, self.lookup(path).size)
        return chunk.decode("utf-8", errors="replace")

    def all_files(self) -> Dict[str, RegularFile]:
        return dict(self._files)
