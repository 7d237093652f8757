"""Socket layer that records every outbound transmission.

The network is the paper's canonical sink: QQPhoneBook posts to
``info.3g.qq.com``, ePhone registers with ``softphone.comwave.net``.  Every
``send``/``sendto``/``write``-on-socket lands in :attr:`NetworkStack.transmissions`
with its payload and the taint labels the caller attached, so integration
tests can assert both *that* data left the device and *what* it carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import KernelError
from repro.common.taint import TAINT_CLEAR, TaintLabel, combine

AF_INET = 2
SOCK_STREAM = 1
SOCK_DGRAM = 2


@dataclass
class Transmission:
    """One outbound packet/stream chunk."""

    fd: int
    destination: str
    payload: bytes
    taints: List[TaintLabel] = field(default_factory=list)

    @property
    def taint_union(self) -> TaintLabel:
        return combine(*self.taints) if self.taints else TAINT_CLEAR


@dataclass
class Socket:
    """One endpoint: connection state plus received-data queue."""
    fd: int
    domain: int = AF_INET
    type: int = SOCK_STREAM
    connected_to: Optional[str] = None
    bound_to: Optional[str] = None
    listening: bool = False
    received: List[bytes] = field(default_factory=list)
    closed: bool = False


class NetworkStack:
    """All sockets plus the global transmission record."""

    def __init__(self) -> None:
        self._sockets: Dict[int, Socket] = {}
        self.transmissions: List[Transmission] = []
        # Canned responses keyed by destination, for recv() in scenarios.
        self._responses: Dict[str, List[bytes]] = {}

    def checkpoint(self) -> None:
        """Record the queued canned responses."""
        self._checkpoint = {destination: list(queue) for destination, queue
                            in self._responses.items()}

    def reset_for_job(self) -> None:
        """No sockets, no transmissions, the checkpointed responses."""
        self._sockets.clear()
        self.transmissions.clear()
        self._responses = {destination: list(queue) for destination, queue
                           in self._checkpoint.items()}

    def create_socket(self, fd: int, domain: int, type_: int) -> Socket:
        socket = Socket(fd=fd, domain=domain, type=type_)
        self._sockets[fd] = socket
        return socket

    def socket_for(self, fd: int) -> Socket:
        socket = self._sockets.get(fd)
        if socket is None or socket.closed:
            raise KernelError(f"bad socket fd {fd}")
        return socket

    def connect(self, fd: int, destination: str) -> None:
        self.socket_for(fd).connected_to = destination

    def bind(self, fd: int, address: str) -> None:
        self.socket_for(fd).bound_to = address

    def listen(self, fd: int) -> None:
        socket = self.socket_for(fd)
        if socket.bound_to is None:
            raise KernelError(f"listen on unbound socket {fd}")
        socket.listening = True

    def send(self, fd: int, payload: bytes,
             taints: Optional[List[TaintLabel]] = None,
             destination: Optional[str] = None) -> int:
        socket = self.socket_for(fd)
        target = destination or socket.connected_to
        if target is None:
            raise KernelError(f"send on unconnected socket {fd}")
        if taints is None:
            taints = [TAINT_CLEAR] * len(payload)
        self.transmissions.append(
            Transmission(fd=fd, destination=target, payload=bytes(payload),
                         taints=list(taints)))
        return len(payload)

    def queue_response(self, destination: str, payload: bytes) -> None:
        self._responses.setdefault(destination, []).append(payload)

    def recv(self, fd: int, max_length: int) -> bytes:
        socket = self.socket_for(fd)
        if socket.connected_to is None:
            raise KernelError(f"recv on unconnected socket {fd}")
        queue = self._responses.get(socket.connected_to, [])
        if not queue:
            return b""
        payload = queue.pop(0)
        chunk, rest = payload[:max_length], payload[max_length:]
        if rest:
            queue.insert(0, rest)
        return chunk

    def close(self, fd: int) -> None:
        socket = self._sockets.get(fd)
        if socket is not None:
            socket.closed = True

    def transmissions_to(self, destination: str) -> List[Transmission]:
        return [t for t in self.transmissions if destination in t.destination]
