"""Transport implementations: in-process queues of messages or of frames.

Traffic moves in phases.  One call sends a whole phase, a list of
(sender, receiver, message), and one call receives one message from
each listed (sender, receiver) channel:

    transport.send_all([(frm, to, msg), ...])
    msgs = transport.receive_all([(frm, to), ...])

Each call takes the transport's lock once, so phases may run
concurrently from separate threads.

Channels are per (sender, receiver) pairs with FIFO order and by-value
delivery: message payloads are read-only, either copies or rows of a
sealed stack that nothing writes (see `messages`), so the in-process
queues hand over the message itself, and the framed queues hold each
message's encoded frame, which the receiver decodes.

`_push(frm, to, msg)` and `_pop(frm, to)` are the per-message hooks a
subclass overrides: the phase calls run them once per message, in list
order, with the lock held.  The framed transport encodes each message
it queues and decodes each frame it pops.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Sequence

from ..errors import MissingClient
from .messages import FedMessage, PartyId
from .wire import decode_message, encode_message

__all__ = ["InProcessTransport", "FramedByteTransport"]


class InProcessTransport:
    """Queue-per-channel transport for single-process simulation."""

    def __init__(self) -> None:
        self._channels: dict[tuple[int, int], deque] = {}
        self._lock = threading.Lock()

    def send_all(self, sends: Sequence[tuple[PartyId, PartyId, FedMessage]]) -> None:
        """Queue each (sender, receiver, message) on its channel, in
        order.  A message whose sender is not its sending party raises
        ValueError before anything is queued."""
        for frm, to, msg in sends:
            if msg.sender is not frm and msg.sender != frm:
                raise ValueError(f"party {frm} cannot send as {msg.sender}")
        with self._lock:
            for frm, to, msg in sends:
                self._push(frm, to, msg)

    def receive_all(self, channels: Sequence[tuple[PartyId, PartyId]]) -> list[FedMessage]:
        """The oldest message of each (sender, receiver) channel, in
        order; MissingClient names the first channel that is empty."""
        with self._lock:
            return [self._pop(frm, to) for frm, to in channels]

    def _push(self, frm: PartyId, to: PartyId, msg: FedMessage) -> None:
        self._channels.setdefault((frm.id, to.id), deque()).append(msg)

    def _pop(self, frm: PartyId, to: PartyId) -> FedMessage:
        queue = self._channels.get((frm.id, to.id))
        if not queue:
            raise MissingClient(f"no message from {frm} to {to}")
        return queue.popleft()


class FramedByteTransport(InProcessTransport):
    """Transport that serializes every message through the wire format.

    Each channel queues encoded frames: a send encodes the message and a
    receive decodes the oldest frame.  With capture=True every frame
    queued is also retained, once per (sender, receiver) in send order,
    for post-run inspection (payload audits).
    """

    def __init__(self, capture: bool = False) -> None:
        super().__init__()
        self.captured: list[bytes] = [] if capture else None  # type: ignore[assignment]

    def _push(self, frm: PartyId, to: PartyId, msg: FedMessage) -> None:
        frame = encode_message(msg)
        if self.captured is not None:
            self.captured.append(frame)
        super()._push(frm, to, frame)

    def _pop(self, frm: PartyId, to: PartyId) -> FedMessage:
        return decode_message(super()._pop(frm, to))
