"""Transport implementations: in-process queues and framed byte pipes.

Both present the same endpoint interface:

    ep = transport.endpoint(party)
    ep.send(to, msg)
    msg = ep.receive(frm)

Channels are per (sender, receiver) pairs with FIFO order and by-value
delivery: message payloads are read-only copies, so the in-process
queues hand over the message itself.  All operations are lock-guarded
so client steps may send concurrently from separate threads.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ..errors import MissingClient
from .messages import FedMessage, PartyId
from .wire import decode_message, encode_message, frame_length

__all__ = ["InProcessTransport", "FramedByteTransport"]


@dataclass
class _Endpoint:
    transport: "InProcessTransport | FramedByteTransport"
    party: PartyId

    def send(self, to: PartyId, msg: FedMessage) -> None:
        if msg.sender != self.party:
            raise ValueError(
                f"endpoint bound to {self.party} cannot send as {msg.sender}"
            )
        self.transport._push(self.party, to, msg)

    def receive(self, frm: PartyId) -> FedMessage:
        return self.transport._pop(frm, self.party)


class InProcessTransport:
    """Queue-per-channel transport for single-process simulation."""

    def __init__(self) -> None:
        self._channels: dict[tuple[int, int], deque[FedMessage]] = {}
        self._lock = threading.Lock()

    def endpoint(self, party: PartyId) -> _Endpoint:
        return _Endpoint(self, party)

    def _push(self, frm: PartyId, to: PartyId, msg: FedMessage) -> None:
        with self._lock:
            self._channels.setdefault((frm.id, to.id), deque()).append(msg)

    def _pop(self, frm: PartyId, to: PartyId) -> FedMessage:
        with self._lock:
            queue = self._channels.get((frm.id, to.id))
            if not queue:
                raise MissingClient(f"no message from {frm} to {to}")
            return queue.popleft()


class FramedByteTransport:
    """Transport that serializes every message through the wire format.

    Each channel is a byte pipe: send appends an encoded frame, receive
    parses one frame off the front.  With capture=True every frame is
    also retained for post-run inspection (payload audits).
    """

    def __init__(self, capture: bool = False) -> None:
        self._channels: dict[tuple[int, int], bytearray] = {}
        self._lock = threading.Lock()
        self.captured: list[bytes] = [] if capture else None  # type: ignore[assignment]

    def endpoint(self, party: PartyId) -> _Endpoint:
        return _Endpoint(self, party)

    def _push(self, frm: PartyId, to: PartyId, msg: FedMessage) -> None:
        frame = encode_message(msg)
        with self._lock:
            if self.captured is not None:
                self.captured.append(frame)
            self._channels.setdefault((frm.id, to.id), bytearray()).extend(frame)

    def _pop(self, frm: PartyId, to: PartyId) -> FedMessage:
        with self._lock:
            pipe = self._channels.get((frm.id, to.id))
            if not pipe:
                raise MissingClient(f"no message from {frm} to {to}")
            total = frame_length(bytes(pipe[:64]))
            if total is None or len(pipe) < total:
                raise MissingClient(f"partial frame from {frm} to {to}")
            frame = bytes(pipe[:total])
            del pipe[:total]
        return decode_message(frame)
