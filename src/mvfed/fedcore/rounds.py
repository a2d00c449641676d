"""Lock-step round orchestration shared by all federated protocols.

A protocol is a server object plus client objects:

    server.party                        PartyId
    server.reply_kind                   MessageKind (class constant)
    server.broadcast(round) -> FedMessage | None
    server.aggregate(round, replies: list[FedMessage]) -> None
    server.done() -> bool               optional early stop
    client.party                        PartyId
    client.step(round, msg) -> FedMessage
    type(client).steps(clients, round, msgs) -> list[FedMessage]  optional

Each round: the server's broadcast (if any) is sent to every client and
every client receives it; each client class that defines the classmethod
`steps` is then called once, with its clients in ascending id order and
the message each received, and answers them all; every other client
runs its own `step`.  Replies are sent in ascending client id order, and
after the barrier the server consumes them.

`steps` lets a class compute all its clients' work as one stacked
computation, so a lone `step` can be that stack of one.  An exception
from `steps` is dropped and each of the class's clients runs its own
`step` instead, so the one that fails is named; a `steps` must
therefore commit no client's state unless it returns.

`run_rounds` owns the round contract, so servers keep only their math:

- every client replies: a `None` reply raises MissingClient naming the
  round and the client;
- every reply has the server's `reply_kind`, otherwise ValueError;
- `aggregate` receives the replies in ascending client id order;
- `transport=None` means a fresh InProcessTransport.

All traffic flows through the transport, so the same protocol code runs
over in-process queues of messages or of encoded frames.  Each logged
message's byte count is its `frame_size`, the length of its encoded
frame, computed without encoding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import MissingClient, PartyFailure
from .messages import FedMessage, MessageKind
from .transport import InProcessTransport
from .wire import (
    encode_message,  # not called here; mvbench/tracer.py wraps this binding
    frame_size,
)

__all__ = [
    "MessageRecord",
    "RoundRecord",
    "RoundLog",
    "run_rounds",
    "disallowed_kinds",
]


@dataclass(frozen=True)
class MessageRecord:
    sender: int
    receiver: int
    kind: MessageKind
    n_bytes: int


@dataclass(frozen=True)
class RoundRecord:
    round: int
    messages: tuple[MessageRecord, ...]
    seconds: float


@dataclass
class RoundLog:
    """Append-only per-round traffic record."""

    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    @property
    def n_rounds(self) -> int:
        return len(self.records)

    def message_count(self) -> int:
        return sum(len(r.messages) for r in self.records)

    def message_kinds(self) -> set[MessageKind]:
        return {m.kind for r in self.records for m in r.messages}

    def bytes_sent_by(self, sender_id: int) -> int:
        return sum(
            m.n_bytes for r in self.records for m in r.messages if m.sender == sender_id
        )

    def total_bytes(self) -> int:
        return sum(m.n_bytes for r in self.records for m in r.messages)


def disallowed_kinds(log: RoundLog, allowed: Iterable[MessageKind]) -> set[MessageKind]:
    """Message kinds present in the log but absent from the allowlist."""
    return log.message_kinds() - set(allowed)


def run_rounds(
    server,
    clients: Sequence,
    transport,
    max_rounds: int,
    log: RoundLog | None = None,
) -> RoundLog:
    """Drive a protocol for up to max_rounds lock-step rounds.

    Stops early when the server's done(), if it has one, returns True
    after aggregation.  Client exceptions surface as PartyFailure
    carrying the round and party id.
    """
    log = log if log is not None else RoundLog()
    transport = transport if transport is not None else InProcessTransport()
    clients = sorted(clients, key=lambda c: c.party.id)
    server_ep = transport.endpoint(server.party)
    client_eps = [transport.endpoint(c.party) for c in clients]
    done = getattr(server, "done", None)
    by_class: dict[type, list[int]] = {}
    for i, client in enumerate(clients):
        by_class.setdefault(type(client), []).append(i)
    stacked = [(cls.steps, idx) for cls, idx in by_class.items() if hasattr(cls, "steps")]

    def client_turn(i: int, rnd: int, inbound: FedMessage | None, answered) -> MessageRecord:
        """Send client i's reply: its class's `steps` answer, or else the
        reply of its own `step`."""
        client = clients[i]
        try:
            reply = answered[i] if i in answered else client.step(rnd, inbound)
        except Exception as exc:
            raise PartyFailure(rnd, client.party.id, exc) from exc
        if reply is None:
            raise MissingClient(f"round {rnd}: no reply from client {client.party.id}")
        client_eps[i].send(server.party, reply)
        return MessageRecord(client.party.id, server.party.id, reply.kind, frame_size(reply))

    def receive(client, rnd: int) -> FedMessage:
        reply = server_ep.receive(client.party)
        if reply.kind is not server.reply_kind:
            raise ValueError(
                f"round {rnd}: client {client.party.id} sent {reply.kind.name}, "
                f"expected {server.reply_kind.name}"
            )
        return reply

    for rnd in range(max_rounds):
        t0 = time.perf_counter()
        records: list[MessageRecord] = []
        broadcast = server.broadcast(rnd)
        if broadcast is not None:
            size = frame_size(broadcast)
            for client in clients:
                server_ep.send(client.party, broadcast)
                records.append(
                    MessageRecord(
                        server.party.id, client.party.id, broadcast.kind, size
                    )
                )
        inbound = [
            None if broadcast is None else ep.receive(server.party) for ep in client_eps
        ]
        answered: dict[int, FedMessage | None] = {}
        for steps, idx in stacked:
            msgs = [inbound[i] for i in idx]
            try:
                answered.update(zip(idx, steps([clients[i] for i in idx], rnd, msgs)))
            except Exception:
                pass  # each of the class's clients steps alone
        records.extend(client_turn(i, rnd, msg, answered) for i, msg in enumerate(inbound))
        server.aggregate(rnd, [receive(c, rnd) for c in clients])
        log.append(RoundRecord(rnd, tuple(records), time.perf_counter() - t0))
        if done is not None and done():
            break
    return log
