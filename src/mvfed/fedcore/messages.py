"""Protocol message types, their payload table and the per-protocol
privacy allowlists.

Message kinds carry only model-side quantities (consensus estimates,
pseudo-labels, transform matrices, flat parameter vectors), and
`PAYLOADS` lists the fields each kind carries.  There is no kind whose
meaning is a block of raw feature rows, so a conforming protocol cannot
ship training data by construction; the allowlists below let tests audit
logged traffic per protocol on top of that.

A message's arrays are read-only: copies of what the sender passed, or
rows of a sealed stack.  `seal_rows` checks a stack that a client class
has just computed for all its clients finite once, marks it read-only
and hands out its rows; a message keeps such a row as it is, and
`stack_rows` gives `np.stack` of such rows back as the stack itself.
The invariant is that nothing writes a stack once rows of it are out:
the stack and every view of it refuse writes.

`FedMessage.batch` builds the replies a client class cuts from such a
stack, one per sender, as equal to messages built one at a time: it
checks the round, the kind and the fields every reply shares once, and
each sender and each row as the constructor would.
"""

from __future__ import annotations

import enum
import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import PartyFailure

__all__ = [
    "SERVER_WIRE_ID",
    "PartyId",
    "MessageKind",
    "FedMessage",
    "VERTICAL_KINDS",
    "HORIZONTAL_KINDS",
    "SEQUENTIAL_KINDS",
    "PAYLOADS",
    "seal_rows",
    "stack_rows",
]

# Wire sender id reserved for the server; client ids are dense from 0.
SERVER_WIRE_ID = 0xFFFFFFFF


@dataclass(frozen=True)
class PartyId:
    """A party by its wire id, all that a frame carries: the server is
    `SERVER_WIRE_ID` and clients are dense from 0."""

    id: int

    def __post_init__(self) -> None:
        if not 0 <= self.id <= SERVER_WIRE_ID:
            raise ValueError(f"party id {self.id} does not fit in u32")

    @classmethod
    def server(cls) -> "PartyId":
        return cls(SERVER_WIRE_ID)

    @classmethod
    def client(cls, index: int) -> "PartyId":
        if index == SERVER_WIRE_ID:
            raise ValueError("a client cannot take the server's wire id")
        return cls(index)


class MessageKind(enum.IntEnum):
    """Wire kind tags; values are part of the frame format."""

    CONSENSUS = 1
    PSEUDO_LABEL = 2
    TRANSFORM_SET = 3
    PARAM_VECTOR = 4
    TEST_CONSENSUS = 5
    TEST_PSEUDO_LABEL = 6


# Each kind's payload fields in wire order: the one statement of what a
# kind carries, read by the message checks and by the wire codec.
PAYLOADS: dict[MessageKind, tuple[str, ...]] = {
    MessageKind.CONSENSUS: ("matrix",),
    MessageKind.PSEUDO_LABEL: ("zeta", "matrix"),
    MessageKind.TRANSFORM_SET: ("matrices",),
    MessageKind.PARAM_VECTOR: ("view", "vector"),
    MessageKind.TEST_CONSENSUS: ("matrix",),
    MessageKind.TEST_PSEUDO_LABEL: ("zeta", "matrix"),
}


class _Sealed:
    """The owner of a sealed stack's memory.

    `seal_rows` views the checked, read-only stack through this owner,
    so every view of it, each row included, has a base whose base is a
    `_Sealed`: one identity test, with no lookup table, tells a message
    that the array needs no copy and no check.  `rows` holds weak
    references to the rows handed out, in stack order, so `stack_rows`
    can tell when it is given all of them, in order, without keeping
    any of them alive.
    """

    def __init__(self, stack: np.ndarray) -> None:
        self.stack = stack
        self.__array_interface__ = stack.__array_interface__
        self.rows: list[weakref.ref] = []


def seal_rows(stack: np.ndarray) -> list[np.ndarray]:
    """The rows of a freshly computed stack, one per client, for its
    messages to carry without a copy each.

    The stack is marked read-only and checked finite once.  A finite
    stack is sealed: a message keeps its rows as they are.  Otherwise
    the rows are plain read-only views, so each client's own message
    copies and checks its row, and the one with a non-finite entry
    raises.  The caller must not hold a writable view of the stack.
    """
    stack = np.ascontiguousarray(stack, dtype=np.float64)
    stack.setflags(write=False)
    if not np.isfinite(stack).all():
        return list(stack)
    owner = _Sealed(stack)
    rows = list(np.asarray(owner))
    owner.rows = [weakref.ref(r) for r in rows]
    return rows


def stack_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """`np.stack(arrays)`, bit for bit, without copying each array where
    it can: the sealed stack itself when the arrays are all its rows in
    order, and one repeat when they are all one array."""
    first = arrays[0]
    owner = getattr(getattr(first, "base", None), "base", None)
    if type(owner) is _Sealed and len(owner.rows) == len(arrays):
        if all(map(operator.is_, arrays, (r() for r in owner.rows))):
            return owner.stack
    if all(a is first for a in arrays):
        return np.repeat(first[None], len(arrays), axis=0)
    return np.stack(arrays)


def _checked_array(a: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """The message's read-only payload array: a C-ordered float64 view
    of a sealed stack as it is, since the stack was checked finite once
    and refuses writes, and otherwise one copy, checked finite."""
    sealed = (
        type(a) is np.ndarray
        and type(getattr(a.base, "base", None)) is _Sealed
        and a.dtype == np.float64
        and a.flags.c_contiguous
    )
    if not sealed:
        a = np.array(a, dtype=np.float64, order="C", copy=True)
    if a.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got ndim={a.ndim}")
    if not sealed:
        if not np.isfinite(a).all():
            raise ValueError(f"{what} contains non-finite entries")
        a.setflags(write=False)
    return a


def _check_zeta(zeta: float) -> float:
    if not math.isfinite(zeta):
        raise ValueError("zeta must be finite")
    return float(zeta)


def _check_matrices(matrices: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    if not matrices:
        raise ValueError("matrices must hold at least one matrix")
    return tuple(_checked_array(m, 2, f"matrices[{i}]") for i, m in enumerate(matrices))


def _check_view(view: int) -> int:
    if not 0 <= view < 2**32:
        raise ValueError(f"view index {view} does not fit in u32")
    return view


# The value a message stores for each payload field.
_CHECKS = {
    "zeta": _check_zeta,
    "matrix": lambda m: _checked_array(m, 2, "matrix"),
    "matrices": _check_matrices,
    "view": _check_view,
    "vector": lambda v: _checked_array(v, 1, "vector"),
}

# The payload fields that `FedMessage.batch` shares between messages.
_SHARED = frozenset({"zeta", "view"})

# Per kind: (field, check) of each field it carries, and the payload
# fields it must leave None.
_FIELDS = {
    kind: (
        tuple((name, _CHECKS[name]) for name in fields),
        tuple(name for name in _CHECKS if name not in fields),
    )
    for kind, fields in PAYLOADS.items()
}


def _check_round(rnd: int) -> None:
    if not 0 <= rnd < 2**32:
        raise ValueError(f"round {rnd} does not fit in u32")


def _check_sender(sender) -> None:
    if not isinstance(sender, PartyId):
        raise ValueError(f"sender must be a PartyId, got {sender!r}")


def _check_kind(kind) -> MessageKind:
    if type(kind) is MessageKind:
        return kind
    try:
        return MessageKind(kind)
    except ValueError:
        raise ValueError(f"unknown message kind {kind!r}") from None


def _equal(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(np.array_equal, a, b))
    return np.array_equal(a, b)


@dataclass(frozen=True, eq=False)
class FedMessage:
    """One protocol message; `PAYLOADS[kind]` names its payload fields,
    and every other payload field is None.

    Every array is read-only and finite.  A row of a sealed stack
    (`seal_rows`) is kept as it is: it was checked with its stack, and
    nothing writes the stack once its rows are out.  Any other array,
    a read-only view of a writable one included, is copied once at
    construction and checked, so a message never aliases the sender's
    mutable state and receivers can share it without copying again.
    """

    round: int
    sender: PartyId
    kind: MessageKind
    zeta: float | None = None
    matrix: np.ndarray | None = None
    matrices: tuple[np.ndarray, ...] | None = None
    view: int | None = None
    vector: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        _check_round(self.round)
        _check_sender(self.sender)
        kind = _check_kind(self.kind)
        if kind is not self.kind:
            object.__setattr__(self, "kind", kind)
        carried, absent = _FIELDS[kind]
        for name, check in carried:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"{kind.name} requires {name}")
            object.__setattr__(self, name, check(value))
        for name in absent:
            if getattr(self, name) is not None:
                raise ValueError(f"{kind.name} does not carry {name}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FedMessage):
            return NotImplemented
        if (self.round, self.sender, self.kind) != (other.round, other.sender, other.kind):
            return False
        return all(
            _equal(getattr(self, name), getattr(other, name)) for name in PAYLOADS[self.kind]
        )

    @classmethod
    def batch(
        cls, round: int, senders: Sequence[PartyId], kind: MessageKind, **fields
    ) -> list["FedMessage"]:
        """One message of the given round and kind per sender, in order:
        the replies a client class cuts from one stack it computed.

        The kind's array fields (matrix, vector; matrices as one sequence
        of matrices) take one value per sender; its scalar fields (zeta,
        view) take one value that every message shares.  Each message
        equals, field for field, the one the constructor builds from its
        sender's values, and fails where that one fails: round, kind and
        the shared fields are checked once, every sender must be a
        PartyId, and every array goes through the same check, so a row of
        a sealed stack (`seal_rows`) is kept without a copy and a row of a
        non-finite stack fails when its sender's turn comes, as the
        PartyFailure of that sender with the ValueError as its cause.
        """
        _check_round(round)
        kind = _check_kind(kind)
        unknown = sorted(fields.keys() - _CHECKS.keys())
        if unknown:
            raise TypeError(f"FedMessage has no payload field {unknown[0]!r}")
        carried, absent = _FIELDS[kind]
        shared = {"round": round, "sender": None, "kind": kind, **dict.fromkeys(_CHECKS)}
        columns = []
        for name, check in carried:
            value = fields.get(name)
            if value is None:
                raise ValueError(f"{kind.name} requires {name}")
            if name in _SHARED:
                shared[name] = check(value)
            elif len(value) != len(senders):
                raise ValueError(f"{len(senders)} senders, {len(value)} {name} values")
            else:
                columns.append((name, check, value))
        for name in absent:
            if fields.get(name) is not None:
                raise ValueError(f"{kind.name} does not carry {name}")
        messages = []
        for i, sender in enumerate(senders):
            _check_sender(sender)
            msg = object.__new__(cls)
            values = msg.__dict__
            values.update(shared, sender=sender)
            for name, check, value in columns:
                try:
                    values[name] = check(value[i])
                except ValueError as exc:
                    raise PartyFailure(round, sender.id, exc) from exc
            messages.append(msg)
        return messages

    # --- constructors per kind -------------------------------------------

    @classmethod
    def consensus(cls, round: int, sender: PartyId, matrix: np.ndarray) -> "FedMessage":
        return cls(round=round, sender=sender, kind=MessageKind.CONSENSUS, matrix=matrix)

    @classmethod
    def pseudo_label(
        cls, round: int, sender: PartyId, zeta: float, matrix: np.ndarray
    ) -> "FedMessage":
        return cls(
            round=round, sender=sender, kind=MessageKind.PSEUDO_LABEL,
            zeta=zeta, matrix=matrix,
        )

    @classmethod
    def transform_set(
        cls, round: int, sender: PartyId, matrices: Sequence[np.ndarray]
    ) -> "FedMessage":
        return cls(
            round=round, sender=sender, kind=MessageKind.TRANSFORM_SET,
            matrices=tuple(matrices),
        )

    @classmethod
    def param_vector(
        cls, round: int, sender: PartyId, view: int, vector: np.ndarray
    ) -> "FedMessage":
        return cls(
            round=round, sender=sender, kind=MessageKind.PARAM_VECTOR,
            view=view, vector=vector,
        )

    @classmethod
    def test_consensus(cls, round: int, sender: PartyId, matrix: np.ndarray) -> "FedMessage":
        return cls(round=round, sender=sender, kind=MessageKind.TEST_CONSENSUS, matrix=matrix)

    @classmethod
    def test_pseudo_label(
        cls, round: int, sender: PartyId, zeta: float, matrix: np.ndarray
    ) -> "FedMessage":
        return cls(
            round=round, sender=sender, kind=MessageKind.TEST_PSEUDO_LABEL,
            zeta=zeta, matrix=matrix,
        )


VERTICAL_KINDS = frozenset(
    {
        MessageKind.CONSENSUS,
        MessageKind.PSEUDO_LABEL,
        MessageKind.TEST_PSEUDO_LABEL,
    }
)
HORIZONTAL_KINDS = frozenset({MessageKind.TRANSFORM_SET})
SEQUENTIAL_KINDS = frozenset({MessageKind.PARAM_VECTOR})
