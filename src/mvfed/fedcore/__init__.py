"""Federation substrate: typed messages, wire codec, transports, rounds."""

from .messages import (
    HORIZONTAL_KINDS,
    SEQUENTIAL_KINDS,
    SERVER_WIRE_ID,
    VERTICAL_KINDS,
    FedMessage,
    MessageKind,
    PartyId,
    seal_rows,
    stack_rows,
)
from .fedavg import fedavg_aggregate
from .rounds import (
    Federation,
    MessageRecord,
    RoundLog,
    RoundRecord,
    disallowed_kinds,
    run_federations,
    run_rounds,
)
from .transport import FramedByteTransport, InProcessTransport
from .wire import decode_message, encode_message, frame_size

__all__ = [
    "FedMessage",
    "Federation",
    "FramedByteTransport",
    "HORIZONTAL_KINDS",
    "InProcessTransport",
    "MessageKind",
    "MessageRecord",
    "PartyId",
    "RoundLog",
    "RoundRecord",
    "SEQUENTIAL_KINDS",
    "SERVER_WIRE_ID",
    "VERTICAL_KINDS",
    "decode_message",
    "disallowed_kinds",
    "encode_message",
    "fedavg_aggregate",
    "frame_size",
    "run_federations",
    "run_rounds",
    "seal_rows",
    "stack_rows",
]
