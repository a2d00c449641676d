"""Transport implementations: in-process queues of messages or of frames.

Both present the same endpoint interface:

    ep = transport.endpoint(party)
    ep.send(to, msg)
    msg = ep.receive(frm)

Channels are per (sender, receiver) pairs with FIFO order and by-value
delivery: message payloads are read-only, either copies or rows of a
sealed stack that nothing writes (see `messages`), so the in-process
queues hand over the message itself, and the framed queues hold each
message's encoded frame, which the receiver decodes.  All operations are
lock-guarded so client steps may send concurrently from separate threads.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ..errors import MissingClient
from .messages import FedMessage, PartyId
from .wire import decode_message, encode_message

__all__ = ["InProcessTransport", "FramedByteTransport"]


@dataclass
class _Endpoint:
    transport: "InProcessTransport"
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
        self._channels: dict[tuple[int, int], deque] = {}
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


class FramedByteTransport(InProcessTransport):
    """Transport that serializes every message through the wire format.

    Each channel queues encoded frames: send encodes the message, receive
    decodes the oldest frame.  With capture=True every frame is also
    retained for post-run inspection (payload audits).
    """

    def __init__(self, capture: bool = False) -> None:
        super().__init__()
        self.captured: list[bytes] = [] if capture else None  # type: ignore[assignment]

    def _push(self, frm: PartyId, to: PartyId, msg: FedMessage) -> None:
        frame = encode_message(msg)
        with self._lock:
            if self.captured is not None:
                self.captured.append(frame)
            self._channels.setdefault((frm.id, to.id), deque()).append(frame)

    def _pop(self, frm: PartyId, to: PartyId) -> FedMessage:
        return decode_message(super()._pop(frm, to))
