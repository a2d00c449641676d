"""Framed binary wire format for protocol messages.

Frame layout (all integers little-endian):

    magic "FMV1" | version u8 = 1 | kind u8 | round u32 | sender u32
    | payload-length u64 | payload

Payloads by kind:

    CONSENSUS / TEST_CONSENSUS            matrix
    PSEUDO_LABEL / TEST_PSEUDO_LABEL      zeta f64 | matrix
    TRANSFORM_SET                         count u32 | count * matrix
    PARAM_VECTOR                          view u32 | length u64 | f64 array

where matrix = rows u64 | cols u64 | row-major f64 data.
"""

from __future__ import annotations

import struct
from typing import IO

import numpy as np

from ..errors import MalformedFrame
from .messages import FedMessage, MessageKind, PartyId

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "encode_message",
    "decode_message",
    "frame_length",
    "read_frame",
    "write_frame",
]

MAGIC = b"FMV1"
VERSION = 1

_HEADER = struct.Struct("<4sBBIIQ")
_MATRIX_HEAD = struct.Struct("<QQ")
_PARAM_HEAD = struct.Struct("<IQ")
_SCALAR = struct.Struct("<d")
_COUNT = struct.Struct("<I")

HEADER_SIZE = _HEADER.size

# Refuse to allocate for frames claiming more than this (desk-scale guard).
_MAX_PAYLOAD = 1 << 30


def _encode_matrix(m: np.ndarray) -> bytes:
    return _MATRIX_HEAD.pack(m.shape[0], m.shape[1]) + m.tobytes(order="C")


def _decode_matrix(payload: bytes, offset: int) -> tuple[np.ndarray, int]:
    if offset + _MATRIX_HEAD.size > len(payload):
        raise MalformedFrame("truncated matrix header")
    rows, cols = _MATRIX_HEAD.unpack_from(payload, offset)
    offset += _MATRIX_HEAD.size
    nbytes = rows * cols * 8
    if offset + nbytes > len(payload):
        raise MalformedFrame("truncated matrix data")
    data = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=offset)
    return data.reshape(rows, cols), offset + nbytes


def encode_message(msg: FedMessage) -> bytes:
    """Serialize one message to a self-delimiting frame."""
    kind = msg.kind
    if kind in (MessageKind.CONSENSUS, MessageKind.TEST_CONSENSUS):
        payload = _encode_matrix(msg.matrix)
    elif kind in (MessageKind.PSEUDO_LABEL, MessageKind.TEST_PSEUDO_LABEL):
        payload = _SCALAR.pack(msg.zeta) + _encode_matrix(msg.matrix)
    elif kind is MessageKind.TRANSFORM_SET:
        payload = _COUNT.pack(len(msg.matrices)) + b"".join(
            _encode_matrix(m) for m in msg.matrices
        )
    elif kind is MessageKind.PARAM_VECTOR:
        payload = _PARAM_HEAD.pack(msg.view, msg.vector.shape[0]) + msg.vector.tobytes()
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown kind {kind!r}")
    header = _HEADER.pack(
        MAGIC, VERSION, int(kind), msg.round, msg.sender.id, len(payload)
    )
    return header + payload


def decode_message(frame: bytes) -> FedMessage:
    """Parse exactly one frame; the buffer must contain nothing else."""
    if len(frame) < HEADER_SIZE:
        raise MalformedFrame(f"frame shorter than header ({len(frame)} bytes)")
    magic, version, kind_tag, round_, sender_id, length = _HEADER.unpack_from(frame, 0)
    if magic != MAGIC:
        raise MalformedFrame(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedFrame(f"unsupported version {version}")
    try:
        kind = MessageKind(kind_tag)
    except ValueError as exc:
        raise MalformedFrame(f"unknown kind tag {kind_tag}") from exc
    if length != len(frame) - HEADER_SIZE:
        raise MalformedFrame(
            f"payload length {length} != {len(frame) - HEADER_SIZE} bytes present"
        )
    payload = frame[HEADER_SIZE:]
    sender = PartyId.from_wire(sender_id)
    try:
        if kind in (MessageKind.CONSENSUS, MessageKind.TEST_CONSENSUS):
            matrix, end = _decode_matrix(payload, 0)
            _expect_consumed(end, payload)
            return FedMessage(round=round_, sender=sender, kind=kind, matrix=matrix)
        if kind in (MessageKind.PSEUDO_LABEL, MessageKind.TEST_PSEUDO_LABEL):
            if len(payload) < _SCALAR.size:
                raise MalformedFrame("truncated zeta scalar")
            (zeta,) = _SCALAR.unpack_from(payload, 0)
            matrix, end = _decode_matrix(payload, _SCALAR.size)
            _expect_consumed(end, payload)
            return FedMessage(
                round=round_, sender=sender, kind=kind, zeta=zeta, matrix=matrix
            )
        if kind is MessageKind.TRANSFORM_SET:
            if len(payload) < _COUNT.size:
                raise MalformedFrame("truncated matrix count")
            (count,) = _COUNT.unpack_from(payload, 0)
            offset = _COUNT.size
            matrices = []
            for _ in range(count):
                m, offset = _decode_matrix(payload, offset)
                matrices.append(m)
            _expect_consumed(offset, payload)
            return FedMessage(
                round=round_, sender=sender, kind=kind, matrices=tuple(matrices)
            )
        # PARAM_VECTOR
        if len(payload) < _PARAM_HEAD.size:
            raise MalformedFrame("truncated parameter header")
        view, length = _PARAM_HEAD.unpack_from(payload, 0)
        offset = _PARAM_HEAD.size
        if offset + length * 8 != len(payload):
            raise MalformedFrame("parameter vector length mismatch")
        vector = np.frombuffer(payload, dtype="<f8", count=length, offset=offset)
        return FedMessage(
            round=round_, sender=sender, kind=kind, view=view, vector=vector
        )
    except ValueError as exc:
        # constructor validation (e.g. non-finite payload values)
        raise MalformedFrame(str(exc)) from exc


def _expect_consumed(offset: int, payload: bytes) -> None:
    if offset != len(payload):
        raise MalformedFrame(
            f"{len(payload) - offset} trailing payload bytes"
        )


def frame_length(buffer: bytes) -> int | None:
    """Total length of the frame at the start of `buffer`, or None if the
    header is still incomplete.  Validates magic/version/size eagerly so
    corrupt streams fail fast."""
    if len(buffer) < HEADER_SIZE:
        return None
    magic, version, _, _, _, length = _HEADER.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise MalformedFrame(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedFrame(f"unsupported version {version}")
    if length > _MAX_PAYLOAD:
        raise MalformedFrame(f"payload length {length} exceeds cap")
    return HEADER_SIZE + length


def write_frame(stream: IO[bytes], msg: FedMessage) -> int:
    """Write one frame to a binary stream; returns the byte count."""
    frame = encode_message(msg)
    stream.write(frame)
    return len(frame)


def read_frame(stream: IO[bytes]) -> FedMessage | None:
    """Read one frame from a binary stream.

    Returns None on clean end-of-stream (no bytes at all); raises
    MalformedFrame if the stream ends mid-frame.
    """
    header = stream.read(HEADER_SIZE)
    if not header:
        return None
    if len(header) < HEADER_SIZE:
        raise MalformedFrame("stream ended inside frame header")
    total = frame_length(header)
    assert total is not None
    payload = stream.read(total - HEADER_SIZE)
    if len(payload) < total - HEADER_SIZE:
        raise MalformedFrame("stream ended inside frame payload")
    return decode_message(header + payload)
