"""Framed binary wire format for protocol messages.

Frame layout (all integers little-endian):

    magic "FMV1" | version u8 = 1 | kind u8 | round u32 | sender u32
    | payload-length u64 | payload

The payload is the kind's fields in the order `PAYLOADS` lists them:

    CONSENSUS / TEST_CONSENSUS            matrix
    PSEUDO_LABEL / TEST_PSEUDO_LABEL      zeta | matrix
    TRANSFORM_SET                         matrices
    PARAM_VECTOR                          view | vector

each field encoded as

    zeta      f64
    matrix    rows u64 | cols u64 | row-major f64 data
    matrices  count u32 | count * matrix
    view      u32
    vector    length u64 | f64 array

so a frame's length follows from its payload shapes alone: `frame_size`
gives it without encoding.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import MalformedFrame
from .messages import PAYLOADS, FedMessage, MessageKind, PartyId

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "encode_message",
    "decode_message",
    "frame_size",
]

MAGIC = b"FMV1"
VERSION = 1

_HEADER = struct.Struct("<4sBBIIQ")
_MATRIX_HEAD = struct.Struct("<QQ")
_SCALAR = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

HEADER_SIZE = _HEADER.size


def _unpack(fmt: struct.Struct, frame: bytes, offset: int, what: str) -> tuple:
    if offset + fmt.size > len(frame):
        raise MalformedFrame(f"truncated {what}")
    return fmt.unpack_from(frame, offset)


def _decode_floats(frame: bytes, offset: int, count: int) -> tuple[np.ndarray, int]:
    end = offset + count * 8
    if end > len(frame):
        raise MalformedFrame("truncated f64 data")
    return np.frombuffer(frame, dtype="<f8", count=count, offset=offset), end


def _encode_matrix(m: np.ndarray) -> bytes:
    return _MATRIX_HEAD.pack(m.shape[0], m.shape[1]) + m.tobytes(order="C")


def _decode_matrix(frame: bytes, offset: int) -> tuple[np.ndarray, int]:
    rows, cols = _unpack(_MATRIX_HEAD, frame, offset, "matrix header")
    data, offset = _decode_floats(frame, offset + _MATRIX_HEAD.size, rows * cols)
    return data.reshape(rows, cols), offset


def _decode_matrices(frame: bytes, offset: int) -> tuple[list[np.ndarray], int]:
    (count,) = _unpack(_U32, frame, offset, "matrix count")
    offset += _U32.size
    matrices = []
    for _ in range(count):
        m, offset = _decode_matrix(frame, offset)
        matrices.append(m)
    return matrices, offset


def _decode_vector(frame: bytes, offset: int) -> tuple[np.ndarray, int]:
    (length,) = _unpack(_U64, frame, offset, "vector length")
    return _decode_floats(frame, offset + _U64.size, length)


def _matrix_size(m: np.ndarray) -> int:
    return _MATRIX_HEAD.size + 8 * m.size


# One (encode, decode, size) triple per payload field: encode(value) ->
# bytes, decode(frame, offset) -> (value, offset past the field), and
# size(value) == len(encode(value)), read off the value's shape.
_CODECS = {
    "zeta": (
        _SCALAR.pack,
        lambda frame, offset: (_unpack(_SCALAR, frame, offset, "zeta")[0], offset + 8),
        lambda zeta: _SCALAR.size,
    ),
    "matrix": (_encode_matrix, _decode_matrix, _matrix_size),
    "matrices": (
        lambda ms: _U32.pack(len(ms)) + b"".join(map(_encode_matrix, ms)),
        _decode_matrices,
        lambda ms: _U32.size + sum(map(_matrix_size, ms)),
    ),
    "view": (
        _U32.pack,
        lambda frame, offset: (_unpack(_U32, frame, offset, "view")[0], offset + 4),
        lambda view: _U32.size,
    ),
    "vector": (
        lambda v: _U64.pack(v.shape[0]) + v.tobytes(),
        _decode_vector,
        lambda v: _U64.size + 8 * v.shape[0],
    ),
}


def encode_message(msg: FedMessage) -> bytes:
    """Serialize one message to a self-delimiting frame."""
    payload = b"".join(
        _CODECS[name][0](getattr(msg, name)) for name in PAYLOADS[msg.kind]
    )
    header = _HEADER.pack(
        MAGIC, VERSION, int(msg.kind), msg.round, msg.sender.id, len(payload)
    )
    return header + payload


# Per kind: (field, size function) of each payload field in wire order,
# so that sizing a message looks up nothing but its kind.
_SIZES = {
    kind: tuple((name, _CODECS[name][2]) for name in fields) for kind, fields in PAYLOADS.items()
}


def frame_size(msg: FedMessage) -> int:
    """`len(encode_message(msg))`, computed from the payload shapes
    without encoding."""
    size = HEADER_SIZE
    for name, field_size in _SIZES[msg.kind]:
        size += field_size(getattr(msg, name))
    return size


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
    sender = PartyId(sender_id)
    fields = {}
    offset = HEADER_SIZE
    for name in PAYLOADS[kind]:
        fields[name], offset = _CODECS[name][1](frame, offset)
    if offset != len(frame):
        raise MalformedFrame(f"{len(frame) - offset} trailing payload bytes")
    try:
        return FedMessage(round=round_, sender=sender, kind=kind, **fields)
    except ValueError as exc:
        # constructor validation (e.g. non-finite payload values)
        raise MalformedFrame(str(exc)) from exc
