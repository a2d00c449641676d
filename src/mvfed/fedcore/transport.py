"""Transport implementations: in-process queues of messages or of frames.

Traffic moves in phases.  One call sends a whole phase, a list of
(sender, receiver, message), and one call receives one message from
each listed (sender, receiver) channel:

    transport.send_all([(frm, to, msg), ...])
    msgs = transport.receive_all([(frm, to), ...])

Each call takes the transport's lock once, so phases may run
concurrently from separate threads.  The endpoint interface is a phase
of one message:

    ep = transport.endpoint(party)
    ep.send(to, msg)
    msg = ep.receive(frm)

Channels are per (sender, receiver) pairs with FIFO order and by-value
delivery: message payloads are read-only, either copies or rows of a
sealed stack that nothing writes (see `messages`), so the in-process
queues hand over the message itself, and the framed queues hold each
message's encoded frame, which the receiver decodes.

`_push(frm, to, msg)` and `_pop(frm, to)` are the per-message hooks a
subclass overrides: the phase calls run them once per message, in list
order, with the lock held.  Within one phase call the framed transport
encodes each distinct message object once and decodes each distinct
frame once, so a broadcast costs one encode and one decode however
many channels it crosses.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from ..errors import MissingClient
from .messages import FedMessage, PartyId
from .wire import decode_message, encode_message

__all__ = ["InProcessTransport", "FramedByteTransport"]


@dataclass
class _Endpoint:
    transport: "InProcessTransport"
    party: PartyId

    def send(self, to: PartyId, msg: FedMessage) -> None:
        self.transport.send_all([(self.party, to, msg)])

    def receive(self, frm: PartyId) -> FedMessage:
        return self.transport.receive_all([(frm, self.party)])[0]


class InProcessTransport:
    """Queue-per-channel transport for single-process simulation."""

    def __init__(self) -> None:
        self._channels: dict[tuple[int, int], deque] = {}
        self._lock = threading.Lock()
        # What the hooks derive within one phase call, keyed by object
        # id; each value holds its key's object, so no id is reused
        # while it is here.  Emptied as each call ends.
        self._memo: dict[int, tuple] = {}

    def endpoint(self, party: PartyId) -> _Endpoint:
        return _Endpoint(self, party)

    def send_all(self, sends: Sequence[tuple[PartyId, PartyId, FedMessage]]) -> None:
        """Queue each (sender, receiver, message) on its channel, in
        order.  A message whose sender is not its sending party raises
        ValueError before anything is queued."""
        for frm, to, msg in sends:
            if msg.sender is not frm and msg.sender != frm:
                raise ValueError(f"endpoint bound to {frm} cannot send as {msg.sender}")
        with self._lock:
            try:
                for frm, to, msg in sends:
                    self._push(frm, to, msg)
            finally:
                self._memo.clear()

    def receive_all(self, channels: Sequence[tuple[PartyId, PartyId]]) -> list[FedMessage]:
        """The oldest message of each (sender, receiver) channel, in
        order; MissingClient names the first channel that is empty."""
        with self._lock:
            try:
                return [self._pop(frm, to) for frm, to in channels]
            finally:
                self._memo.clear()

    def _push(self, frm: PartyId, to: PartyId, msg: FedMessage) -> None:
        self._channels.setdefault((frm.id, to.id), deque()).append(msg)

    def _pop(self, frm: PartyId, to: PartyId) -> FedMessage:
        queue = self._channels.get((frm.id, to.id))
        if not queue:
            raise MissingClient(f"no message from {frm} to {to}")
        return queue.popleft()


class FramedByteTransport(InProcessTransport):
    """Transport that serializes every message through the wire format.

    Each channel queues encoded frames: a send encodes the message, a
    receive decodes the oldest frame, each at most once per phase call.
    With capture=True every frame queued is also retained, once per
    (sender, receiver) in send order, for post-run inspection (payload
    audits).
    """

    def __init__(self, capture: bool = False) -> None:
        super().__init__()
        self.captured: list[bytes] = [] if capture else None  # type: ignore[assignment]

    def _push(self, frm: PartyId, to: PartyId, msg: FedMessage) -> None:
        hit = self._memo.get(id(msg))
        if hit is None:
            hit = self._memo[id(msg)] = (msg, encode_message(msg))
        frame = hit[1]
        if self.captured is not None:
            self.captured.append(frame)
        super()._push(frm, to, frame)

    def _pop(self, frm: PartyId, to: PartyId) -> FedMessage:
        frame = super()._pop(frm, to)
        hit = self._memo.get(id(frame))
        if hit is None:
            hit = self._memo[id(frame)] = (frame, decode_message(frame))
        return hit[1]
