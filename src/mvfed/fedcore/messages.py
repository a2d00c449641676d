"""Protocol message types, their payload table and the per-protocol
privacy allowlists.

Message kinds carry only model-side quantities (consensus estimates,
pseudo-labels, transform matrices, flat parameter vectors), and
`PAYLOADS` lists the fields each kind carries.  There is no kind whose
meaning is a block of raw feature rows, so a conforming protocol cannot
ship training data by construction; the allowlists below let tests audit
logged traffic per protocol on top of that.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "SERVER_WIRE_ID",
    "Role",
    "PartyId",
    "MessageKind",
    "FedMessage",
    "VERTICAL_KINDS",
    "HORIZONTAL_KINDS",
    "SEQUENTIAL_KINDS",
    "PAYLOADS",
]

# Wire sender id reserved for the server; client ids are dense from 0.
SERVER_WIRE_ID = 0xFFFFFFFF


class Role(enum.Enum):
    SERVER = "server"
    CLIENT = "client"


@dataclass(frozen=True)
class PartyId:
    id: int
    role: Role

    def __post_init__(self) -> None:
        if self.role is Role.SERVER:
            if self.id != SERVER_WIRE_ID:
                raise ValueError("server party must use the reserved wire id")
        elif not 0 <= self.id < SERVER_WIRE_ID:
            raise ValueError(f"client id {self.id} out of range")

    @classmethod
    def server(cls) -> "PartyId":
        return cls(SERVER_WIRE_ID, Role.SERVER)

    @classmethod
    def client(cls, index: int) -> "PartyId":
        return cls(index, Role.CLIENT)

    @classmethod
    def from_wire(cls, wire_id: int) -> "PartyId":
        if wire_id == SERVER_WIRE_ID:
            return cls.server()
        return cls.client(wire_id)


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


def _checked_array(a: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """The message's one copy of a payload array, finite and read-only."""
    a = np.array(a, dtype=np.float64, order="C", copy=True)
    if a.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got ndim={a.ndim}")
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


def _equal(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(np.array_equal, a, b))
    return np.array_equal(a, b)


@dataclass(frozen=True, eq=False)
class FedMessage:
    """One protocol message; `PAYLOADS[kind]` names its payload fields,
    and every other payload field is None.

    Arrays are copied once at construction and marked read-only, so a
    message never aliases the sender's mutable state and receivers can
    share it without copying again.
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
        if not 0 <= self.round < 2**32:
            raise ValueError(f"round {self.round} does not fit in u32")
        try:
            object.__setattr__(self, "kind", MessageKind(self.kind))
        except ValueError:
            raise ValueError(f"unknown message kind {self.kind!r}") from None
        fields = PAYLOADS[self.kind]
        for name, check in _CHECKS.items():
            value = getattr(self, name)
            if name in fields:
                if value is None:
                    raise ValueError(f"{self.kind.name} requires {name}")
                object.__setattr__(self, name, check(value))
            elif value is not None:
                raise ValueError(f"{self.kind.name} does not carry {name}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FedMessage):
            return NotImplemented
        if (self.round, self.sender, self.kind) != (other.round, other.sender, other.kind):
            return False
        return all(
            _equal(getattr(self, name), getattr(other, name)) for name in PAYLOADS[self.kind]
        )

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
        MessageKind.TEST_CONSENSUS,
        MessageKind.TEST_PSEUDO_LABEL,
    }
)
HORIZONTAL_KINDS = frozenset({MessageKind.TRANSFORM_SET})
SEQUENTIAL_KINDS = frozenset({MessageKind.PARAM_VECTOR})
