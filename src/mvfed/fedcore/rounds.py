"""Lock-step round orchestration shared by all federated protocols.

A protocol is a server object plus client objects:

    server.party                        PartyId
    server.reply_kind                   MessageKind (class constant)
    server.broadcast(round) -> FedMessage | None
    server.aggregate(round, replies: list[FedMessage]) -> None
    server.done() -> bool               optional early stop
    client.party                        PartyId
    type(client).steps(clients, round, msgs) -> list[FedMessage]
    client.step(round, msg) -> FedMessage   for a class without steps

`run_federations` drives several such federations in lock-step, and
`run_rounds` is its list of one.  Each round runs in phases:

1. each live federation in turn: its server broadcasts (if it has a
   message), and every client receives;
2. each client class is called once, with its clients of every live
   federation (federation order, then ascending id) and the message
   each received: its `steps`, or each client's `step` in turn;
3. each federation in turn sends its replies in ascending client id
   order; then each server consumes its own, the round is logged, and
   a server whose done() is True leaves the later rounds.

`steps` lets a class compute all its clients' work as one stacked
computation, across federations too, and returns one reply per client
or raises.  A failure that is one client's (a broadcast it cannot take,
a reply that is not finite) raises PartyFailure naming the round and
that client, as any exception of a lone `step` does; any other
exception of a stack propagates as it is.  A `steps` commits no
client's state unless it returns, and every reply is checked before
any server aggregates, so a round that raises aggregates in no
federation and logs nothing.

A `BlockClient` is one slot of a block, clients whose local work runs
as one stacked computation.  Its class's `steps`, for the clients it is
given, (1) checks each broadcast (`check_broadcast`) in call order and
raises PartyFailure naming the first client that cannot take its own;
(2) groups the clients by block, sorts each group by slot and raises
InvalidSpec ("round r: a step covers k of its block's n clients")
unless every block is whole, so nothing is computed before these checks
pass and a lone `step` is that of a block of one; (3) runs each block's
math (`run_block`); (4) puts the replies back in call order; and (5)
commits every block's state only once every block's replies are built.

Federations may share a transport: channels are FIFO per (sender,
receiver) pair, and each phase sends and receives in federation order,
so every message reaches the client or server of its own federation.

The driver owns the round contract, so servers keep only their math:

- a federation's client ids are distinct, else InvalidSpec before any
  round;
- every client replies: a `None` reply raises MissingClient naming the
  round and the client;
- every reply has the server's `reply_kind`, otherwise ValueError;
- `aggregate` receives the replies in ascending client id order;
- each federation keeps its own RoundLog and stop rule;
- `transport=None` means a fresh InProcessTransport.

All traffic flows through the transport, so the same protocol code runs
over in-process queues of messages or of encoded frames.  A federation's
traffic moves per phase, not per message: its broadcast is one
`send_all` to every client and one `receive_all` from every downlink,
and its replies, gathered in client id order, one `send_all` and one
`receive_all` more, so a round of N clients makes four transport calls
whatever N is.  Each phase's records are built in one pass once its
messages are sent; a `MessageRecord` is a named tuple, and each logged
message's byte count is its `frame_size`, the length of its encoded
frame, computed without encoding.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Sequence

from ..errors import InvalidSpec, MissingClient, PartyFailure
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
    "Federation",
    "BlockClient",
    "run_federations",
    "run_rounds",
    "disallowed_kinds",
]


class MessageRecord(NamedTuple):
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




@dataclass(frozen=True)
class Federation:
    """One protocol run for `run_federations`: its server and clients,
    the transport their traffic crosses (None: a fresh
    InProcessTransport; several federations may share one) and the log
    its rounds append to (None: a fresh RoundLog)."""

    server: Any
    clients: Sequence
    transport: Any = None
    log: RoundLog | None = None


class _Run:
    """A federation inside `run_federations`: its clients in id order,
    its transport, its log and what its current round has sent and
    received."""

    def __init__(self, fed: Federation) -> None:
        self.server = fed.server
        self.clients = sorted(fed.clients, key=lambda c: c.party.id)
        self.transport = fed.transport if fed.transport is not None else InProcessTransport()
        self.done = getattr(self.server, "done", None)
        self.log = fed.log if fed.log is not None else RoundLog()
        self.by_class: dict[type, list[int]] = {}
        for i, client in enumerate(self.clients):
            self.by_class.setdefault(type(client), []).append(i)
        server = self.server.party
        parties = [c.party for c in self.clients]
        self.ids = [p.id for p in parties]
        for a, b in itertools.pairwise(self.ids):
            if a == b:
                raise InvalidSpec(f"client {a} joins a federation twice")
        self.downlinks = [(server, p) for p in parties]
        self.uplinks = [(p, server) for p in parties]
        self.records: list[MessageRecord] = []
        self.inbound: list[FedMessage | None] = []
        self.replies: list[FedMessage | None] = []
        self.received: list[FedMessage] = []

    def broadcast(self, rnd: int) -> None:
        """Open the round: the server's broadcast, if any, is sent to
        every client in one phase and every client receives it in one
        more."""
        self.records, self.replies = [], [None] * len(self.clients)
        msg = self.server.broadcast(rnd)
        if msg is None:
            self.inbound = [None] * len(self.clients)
            return
        self.transport.send_all([(frm, to, msg) for frm, to in self.downlinks])
        self.inbound = self.transport.receive_all(self.downlinks)
        sid, kind, size = self.server.party.id, msg.kind, frame_size(msg)
        self.records = [MessageRecord(sid, cid, kind, size) for cid in self.ids]

    def deliver(self, rnd: int) -> None:
        """Send the clients' replies in one phase, receive them in one
        more and check them."""
        for cid, reply in zip(self.ids, self.replies):
            if reply is None:
                raise MissingClient(f"round {rnd}: no reply from client {cid}")
        self.transport.send_all(
            [(frm, to, reply) for (frm, to), reply in zip(self.uplinks, self.replies)]
        )
        self.received = self.transport.receive_all(self.uplinks)
        server = self.server
        for cid, reply in zip(self.ids, self.received):
            if reply.kind is not server.reply_kind:
                raise ValueError(
                    f"round {rnd}: client {cid} sent {reply.kind.name}, "
                    f"expected {server.reply_kind.name}"
                )
        sid = server.party.id
        self.records += [
            MessageRecord(cid, sid, reply.kind, frame_size(reply))
            for cid, reply in zip(self.ids, self.replies)
        ]

    def close(self, rnd: int, t0: float) -> bool:
        """Aggregate the received replies and log the round; True when
        the server is done."""
        self.server.aggregate(rnd, self.received)
        self.log.append(RoundRecord(rnd, tuple(self.records), time.perf_counter() - t0))
        return self.done is not None and self.done()


def _each_step(clients: list, rnd: int, msgs: list) -> list:
    """The `steps` of a class without one: each client's `step` in
    turn, whose exception is that client's PartyFailure."""
    replies = []
    for client, msg in zip(clients, msgs):
        try:
            replies.append(client.step(rnd, msg))
        except Exception as exc:
            raise PartyFailure(rnd, client.party.id, exc) from exc
    return replies


class BlockClient:
    """A slot of a block, stepped by the block contract of the module
    docstring.  A subclass has `party` and `slot` and supplies `block`,
    whose len() is its slot count, `check_broadcast(round, msg)`, which
    raises for a broadcast the client cannot take, and the classmethod
    `run_block(round, clients, msgs)`, which takes a whole block in slot
    order and returns its replies and a commit of its state (or None).
    """

    @classmethod
    def steps(cls, clients, rnd: int, msgs: Sequence[FedMessage]) -> list[FedMessage]:
        """Every client's reply: the first client's `step`, with the
        others as its peers.  mvbench/tracer.py's `hfed.client_step` span
        wraps `HorizontalClient.step`, so a round's blocks run inside it."""
        first, *peers = clients
        return first.step(rnd, msgs[0], peers=list(zip(peers, msgs[1:])))

    def step(self, rnd: int, msg: FedMessage | None, peers=None):
        """This client's round, and its reply.  With `peers`, (client,
        broadcast) pairs of other clients of this class, the round of
        this client and its peers, and every reply, this client's
        first; alone, a block of one."""
        clients = [self, *(c for c, _ in peers or ())]
        msgs = [msg, *(m for _, m in peers or ())]
        for client, m in zip(clients, msgs):
            try:
                client.check_broadcast(rnd, m)
            except Exception as exc:
                raise PartyFailure(rnd, client.party.id, exc) from exc
        blocks: dict[int, list[int]] = {}
        for i, client in enumerate(clients):
            blocks.setdefault(id(client.block), []).append(i)
        for idx in blocks.values():
            idx.sort(key=lambda i: clients[i].slot)
            n = len(clients[idx[0]].block)
            if [clients[i].slot for i in idx] != list(range(n)):
                raise InvalidSpec(
                    f"round {rnd}: a step covers {len(idx)} of its block's {n} clients"
                )
        replies, commits = [None] * len(clients), []
        for idx in blocks.values():
            built, commit = self.run_block(rnd, [clients[i] for i in idx], [msgs[i] for i in idx])
            for i, reply in zip(idx, built):
                replies[i] = reply
            commits.append(commit)
        for commit in filter(None, commits):
            commit()
        return replies if peers is not None else replies[0]


def run_federations(federations: Sequence[Federation], max_rounds: int) -> list[RoundLog]:
    """Drive several federations in lock-step for up to max_rounds
    rounds, in the phases of the module docstring; returns their logs,
    in order.  A federation whose server's done() is True leaves the
    later rounds.  A client's failure surfaces as PartyFailure carrying
    the round and party id.
    """
    runs = [_Run(fed) for fed in federations]
    classes = {
        cls: getattr(cls, "steps", _each_step)
        for run in runs for cls in run.by_class
    }
    live = runs
    for rnd in range(max_rounds):
        if not live:
            break
        t0 = time.perf_counter()
        for run in live:
            run.broadcast(rnd)
        for cls, steps in classes.items():
            members = [(run, i) for run in live for i in run.by_class.get(cls, ())]
            if not members:
                continue
            replies = steps(
                [run.clients[i] for run, i in members], rnd,
                [run.inbound[i] for run, i in members],
            )
            for (run, i), reply in zip(members, replies):
                run.replies[i] = reply
        for run in live:
            run.deliver(rnd)
        live = [run for run in live if not run.close(rnd, t0)]
    return [run.log for run in runs]


def run_rounds(
    server,
    clients: Sequence,
    transport,
    max_rounds: int,
    log: RoundLog | None = None,
) -> RoundLog:
    """Drive one federation for up to max_rounds lock-step rounds:
    `run_federations` of a list of one.

    Stops early when the server's done(), if it has one, returns True
    after aggregation.  A client's failure surfaces as PartyFailure
    carrying the round and party id.
    """
    return run_federations([Federation(server, clients, transport, log)], max_rounds)[0]
