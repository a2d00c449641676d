"""Federation substrate: typed messages, wire codec, transports, rounds."""

from .messages import (
    HORIZONTAL_KINDS,
    PROTOCOL_KINDS,
    SEQUENTIAL_KINDS,
    SERVER_WIRE_ID,
    VERTICAL_KINDS,
    FedMessage,
    MessageKind,
    PartyId,
    Role,
)
from .fedavg import fedavg_aggregate
from .rounds import MessageRecord, RoundLog, RoundRecord, disallowed_kinds, run_rounds
from .transport import FramedByteTransport, InProcessTransport
from .wire import decode_message, encode_message, read_frame, write_frame

__all__ = [
    "FedMessage",
    "FramedByteTransport",
    "HORIZONTAL_KINDS",
    "InProcessTransport",
    "MessageKind",
    "MessageRecord",
    "PROTOCOL_KINDS",
    "PartyId",
    "Role",
    "RoundLog",
    "RoundRecord",
    "SEQUENTIAL_KINDS",
    "SERVER_WIRE_ID",
    "VERTICAL_KINDS",
    "decode_message",
    "disallowed_kinds",
    "encode_message",
    "fedavg_aggregate",
    "read_frame",
    "run_rounds",
    "write_frame",
]
