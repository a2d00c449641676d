"""Protocol message types and the per-protocol privacy allowlists.

Message kinds carry only model-side quantities (consensus estimates,
pseudo-labels, transform matrices, flat parameter vectors).  There is no
kind whose meaning is a block of raw feature rows, so a conforming
protocol cannot ship training data by construction; the allowlists below
let tests audit logged traffic per protocol on top of that.
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
    "PROTOCOL_KINDS",
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


def _checked_array(a: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """The message's one copy of a payload array, finite and read-only."""
    a = np.array(a, dtype=np.float64, order="C", copy=True)
    if a.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FedMessage:
    """One protocol message; payload fields depend on `kind`.

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
        want_scalar = self.kind in (MessageKind.PSEUDO_LABEL, MessageKind.TEST_PSEUDO_LABEL)
        want_matrix = want_scalar or self.kind in (
            MessageKind.CONSENSUS,
            MessageKind.TEST_CONSENSUS,
        )
        if want_matrix:
            if self.matrix is None:
                raise ValueError(f"{self.kind.name} requires a matrix payload")
            object.__setattr__(self, "matrix", _checked_array(self.matrix, 2, "matrix"))
        elif self.matrix is not None:
            raise ValueError(f"{self.kind.name} does not carry a single matrix")
        if want_scalar:
            if self.zeta is None or not math.isfinite(self.zeta):
                raise ValueError(f"{self.kind.name} requires a finite zeta")
            object.__setattr__(self, "zeta", float(self.zeta))
        elif self.zeta is not None:
            raise ValueError(f"{self.kind.name} does not carry zeta")
        if self.kind is MessageKind.TRANSFORM_SET:
            if not self.matrices:
                raise ValueError("TRANSFORM_SET requires at least one matrix")
            object.__setattr__(
                self,
                "matrices",
                tuple(_checked_array(m, 2, f"matrices[{i}]") for i, m in enumerate(self.matrices)),
            )
        elif self.matrices is not None:
            raise ValueError(f"{self.kind.name} does not carry a matrix set")
        if self.kind is MessageKind.PARAM_VECTOR:
            if self.view is None or not 0 <= self.view < 2**32:
                raise ValueError("PARAM_VECTOR requires a u32 view index")
            if self.vector is None:
                raise ValueError("PARAM_VECTOR requires a vector payload")
            object.__setattr__(self, "vector", _checked_array(self.vector, 1, "vector"))
        else:
            if self.view is not None:
                raise ValueError(f"{self.kind.name} does not carry a view index")
            if self.vector is not None:
                raise ValueError(f"{self.kind.name} does not carry a vector")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FedMessage):
            return NotImplemented
        if (self.round, self.sender, self.kind, self.zeta, self.view) != (
            other.round,
            other.sender,
            other.kind,
            other.zeta,
            other.view,
        ):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        if self.matrix is not None and not np.array_equal(self.matrix, other.matrix):
            return False
        if (self.matrices is None) != (other.matrices is None):
            return False
        if self.matrices is not None:
            if len(self.matrices) != len(other.matrices):
                return False
            if not all(
                np.array_equal(a, b) for a, b in zip(self.matrices, other.matrices)
            ):
                return False
        if (self.vector is None) != (other.vector is None):
            return False
        if self.vector is not None and not np.array_equal(self.vector, other.vector):
            return False
        return True

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

PROTOCOL_KINDS = {
    "vertical": VERTICAL_KINDS,
    "horizontal": HORIZONTAL_KINDS,
    "sequential": SEQUENTIAL_KINDS,
}
