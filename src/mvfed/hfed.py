"""Horizontal federated training: clients hold all views over disjoint rows.

Each round the server broadcasts the per-view transforms, every client
re-optimizes them against its own samples (pseudo-labels first, then
consensus, then the IRLS refit, looping until the local objective
settles), and the server takes the sample-count-weighted average of the
returned transforms.  Only transform matrices ever cross the wire;
pseudo-labels and consensus stay on the client between rounds.

Clients are slots of blocks.  `make_horizontal_parties` stacks the
views and labels of every client whose views all take the primal form
(d_k <= n_i) once, whatever its row count, into one `_Rows` block; a
client with a view wider than its rows (dual form) shares one with the
clients of its row count only.  The block also owns its members' local
state: their pseudo-label and consensus blocks, as ragged stacks, and
the hyperparameters they share.  A `HorizontalClient` is its party, its
block and its slot.

`HorizontalClient.steps`, which the round driver calls once a round
with all the clients, is the first client's `step` with the others as
its peers: it checks every broadcast's kind and shapes, then runs each
block's local passes as one stacked computation in the centralized
trainer's loop (`mvl._passes`, refit last): products and sums over
rows once per row count, the solves and all other d-space work once
per block, each slice starting from the transforms its own client
received.  Each slice is bit-identical to what its client computes
alone.  A step covers whole blocks: given part of one, it raises
InvalidSpec, so the lone `step` of a client is that of a block of one.

Each block's transform stacks are sealed (`fedcore.seal_rows`): checked
finite once and read-only, so a reply carries its client's rows without
a copy and the server's FedAvg sums the stack itself; a block's replies
are built in one `FedMessage.batch` call.  A broadcast a client cannot
take, or a reply row that is not finite, raises PartyFailure naming
that client; any other failure of the stacked passes (NotSPD, say)
propagates as it is.  The local state is committed to the blocks
(`_Rows.commit`) only once every reply is built, so a step that raises
changes no client.  Committed stacks are read-only and never written:
each step replaces them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, MissingClient, PartyFailure
from .fedcore import (
    FedMessage,
    MessageKind,
    PartyId,
    RoundLog,
    fedavg_aggregate,
    run_rounds,
    seal_rows,
    stack_rows,
)
from .mvl import (
    HyperParams,
    MultiViewDataset,
    _check_cap,
    _fit_stats,  # not called here; mvbench/tracer.py wraps `mvfed.hfed:_fit_stats`
    _layout,
    _passes,
    objective,  # not called here; mvbench/tracer.py wraps `mvfed.hfed:objective`
    predict_mvl,  # not called here; mvbench/tracer.py wraps `mvfed.hfed:predict_mvl`
)
from .numerics import KEY_CONSENSUS, KEY_PSEUDO, KEY_TRANSFORM, gaussian_init, orthonormal_inits

DEFAULT_ROUNDS = 20
DEFAULT_MAX_LOCAL = 30


@dataclass(eq=False)
class _Rows:
    """One block of clients: their data, stacked once, and their local
    state.  Every array is read-only, so the block never changes under
    an array taken from it.

    The block is a ragged stack in slot order: views[k] is (N, d_k) and
    labels (N, c), slot after slot, `rows` lists each slot's row count
    and slots of one row count are adjacent; `mvl._passes` forms their
    X^T X once a round.  `transform_shapes` lists the (d_k, c) a
    broadcast must carry.  pseudo[k] and consensus are the members'
    (N, c) pseudo-label and consensus blocks, in that row order, which
    `mvl._passes` updates; `hp` and `max_local` are every member's."""

    views: list[np.ndarray]
    labels: np.ndarray
    rows: list[int]
    transform_shapes: list[tuple[int, int]]
    hp: HyperParams
    max_local: int
    pseudo: list[np.ndarray]
    consensus: np.ndarray

    @classmethod
    def stack(
        cls, datasets, group: list[int], hp: HyperParams, max_local: int, seed: int
    ) -> "_Rows":
        """The block of the clients in group, indices into datasets in
        slot order (ascending row count), holding their seeded initial
        pseudo-label and consensus blocks (`_client_inits`)."""
        members = [datasets[l] for l in group]
        views = [np.concatenate(v) for v in zip(*(d.views for d in members))]
        labels = np.concatenate([d.labels for d in members])
        rows = [d.n_samples for d in members]
        runs = itertools.groupby(group, key=lambda l: datasets[l].n_samples)
        inits = [_client_inits(datasets, seed, list(run)) for _, run in runs]
        *pseudo, consensus = (np.concatenate(m) for m in zip(*inits))
        for m in (*views, labels, *pseudo, consensus):
            m.setflags(write=False)
        shapes = [(v.shape[1], labels.shape[1]) for v in views]
        return cls(views, labels, rows, shapes, hp, max_local, pseudo, consensus)

    def commit(self, pseudo, consensus) -> None:
        """Make pseudo and consensus, ragged stacks in slot order, the
        members' state."""
        for m in (*pseudo, consensus):
            m.setflags(write=False)
        self.pseudo, self.consensus = list(pseudo), consensus


@dataclass
class HorizontalClient:
    """One participant: its slot of the block it is stacked in.

    `rows` is that block: every client whose views are all in primal
    form, or, if one of this client's views is wider than its rows,
    every client of its row count.  The block holds this client's rows
    and its pseudo-label and consensus blocks, which survive across
    rounds; its passes (`mvl._passes`) start from each broadcast.
    """

    party: PartyId
    rows: _Rows = field(repr=False, compare=False)
    slot: int

    @classmethod
    def steps(cls, clients, rnd: int, msgs: Sequence[FedMessage]) -> list[FedMessage]:
        """Every client's reply: the first client's `step`, with the
        others as its peers (mvbench/tracer.py's `hfed.client_step` span
        wraps `step`, so the stacked round runs inside it)."""
        first, *peers = clients
        return first.step(rnd, msgs[0], peers=list(zip(peers, msgs[1:])))

    def step(self, rnd: int, msg: FedMessage | None, peers=None):
        """This client's round, and its reply.  With `peers`, (client,
        broadcast) pairs of other clients of this class, the round of
        this client and its peers, and every reply, this client's first;
        alone, a stack of one.  The clients make up whole blocks, else
        InvalidSpec, and each block's local passes run as one stack.
        All messages are checked before any computation and the blocks'
        state is committed only after every reply is built, so a call
        that raises changes no client."""
        clients = [self, *(c for c, _ in peers or ())]
        msgs = [msg, *(m for _, m in peers or ())]
        for c, msg in zip(clients, msgs):
            try:
                if msg is None or msg.kind is not MessageKind.TRANSFORM_SET:
                    raise ValueError(f"round {rnd}: expected a transform broadcast")
                c._check_shapes(msg.matrices)
            except (ValueError, DimensionMismatch) as exc:
                raise PartyFailure(rnd, c.party.id, exc) from exc
        blocks: dict[int, list[int]] = {}
        for i, c in enumerate(clients):
            blocks.setdefault(id(c.rows), []).append(i)
        replies = [None] * len(clients)
        commits = []
        for idx in blocks.values():
            idx.sort(key=lambda i: clients[i].slot)
            block, s = clients[idx[0]].rows, len(idx)
            if [clients[i].slot for i in idx] != list(range(len(block.rows))):
                raise InvalidSpec(
                    f"round {rnd}: a step covers {s} of its block's {len(block.rows)} clients"
                )
            hp = block.hp
            w, pseudo, consensus, _ = _passes(
                block.views, block.labels,
                [stack_rows(a) for a in zip(*(msgs[i].matrices for i in idx))],
                block.pseudo, block.consensus,
                [np.full(s, q) for q in hp.zeta], np.full(s, hp.eta),
                hp, block.max_local, fit_first=False, layout=_layout(block.rows),
            )
            built = FedMessage.batch(
                rnd, [clients[i].party for i in idx], MessageKind.TRANSFORM_SET,
                matrices=list(zip(*map(seal_rows, w))),
            )
            for i, reply in zip(idx, built):
                replies[i] = reply
            commits.append((block, pseudo, consensus))
        for block, *state in commits:
            block.commit(*state)
        return replies if peers is not None else replies[0]

    def _check_shapes(self, matrices: Sequence[np.ndarray]) -> None:
        got = [m.shape for m in matrices]
        if got != self.rows.transform_shapes:
            raise DimensionMismatch(
                f"broadcast shapes {got}, expected {self.rows.transform_shapes}"
            )


def aggregate_transforms(
    w_sets: Sequence[Sequence[np.ndarray]], counts: Sequence[int]
) -> list[np.ndarray]:
    """Per-view average of client transforms weighted by sample share."""
    if len(w_sets) == 0:
        raise MissingClient("no transform sets to aggregate")
    n_views = len(w_sets[0])
    if any(len(ws) != n_views for ws in w_sets):
        raise DimensionMismatch("clients sent different numbers of transforms")
    return [fedavg_aggregate([ws[k] for ws in w_sets], counts) for k in range(n_views)]


@dataclass
class HorizontalServer:
    """Holds the global transforms and the per-client sample counts."""

    reply_kind: ClassVar[MessageKind] = MessageKind.TRANSFORM_SET

    w: list[np.ndarray]
    counts: list[int]
    party: PartyId = field(default_factory=PartyId.server)

    def broadcast(self, rnd: int) -> FedMessage:
        return FedMessage.transform_set(rnd, self.party, self.w)

    def aggregate(self, rnd: int, replies: Sequence[FedMessage]) -> None:
        self.w = aggregate_transforms(
            [m.matrices for m in replies],
            [self.counts[m.sender.id] for m in replies],
        )


def _client_inits(
    datasets: Sequence[MultiViewDataset], seed: int, group: Sequence[int]
) -> np.ndarray:
    """Seeded pseudo-label and consensus blocks for the clients in group,
    which share one row count n: the (K + 1, len(group) n, c) stack of
    the K views' pseudo-label ragged stacks, then the consensus one.

    Streams are keyed by role, client index and view so that no two
    blocks anywhere in the federation share a draw, and the group's
    blocks are orthonormalised as one stack.
    """
    first = datasets[group[0]]
    n_views, c = first.n_views, first.n_classes
    keys = []
    for l in group:
        keys += [(KEY_PSEUDO, l, k) for k in range(n_views)] + [(KEY_CONSENSUS, l)]
    blocks = orthonormal_inits(first.n_samples, c, seed, keys)
    blocks = blocks.reshape(len(group), n_views + 1, first.n_samples, c)
    return blocks.swapaxes(0, 1).reshape(n_views + 1, -1, c)


def _check_client_rows(datasets) -> None:
    """Every client needs at least as many rows as classes; the first
    that has fewer is named by its index in datasets."""
    for l, d in enumerate(datasets):
        if d.n_samples < d.n_classes:
            raise InvalidSpec(
                f"client {l} has {d.n_samples} rows, fewer than its {d.n_classes} classes"
            )


def make_horizontal_parties(
    datasets: Sequence[MultiViewDataset],
    hp: HyperParams,
    seed: int,
    max_local: int = DEFAULT_MAX_LOCAL,
) -> tuple[HorizontalServer, list[HorizontalClient]]:
    """Build a server and one client per local dataset, sharing `hp`.

    All datasets must agree on view count, per-view widths and class
    count, and each needs at least as many rows as classes.
    """
    if len(datasets) == 0:
        raise InvalidSpec("horizontal training needs at least one client")
    dims, c = datasets[0].dims, datasets[0].n_classes
    for d in datasets[1:]:
        if d.dims != dims or d.n_classes != c:
            raise DimensionMismatch("clients disagree on view widths or classes")
    _check_client_rows(datasets)
    _check_cap("max_local", max_local)
    if hp.n_views != len(dims):
        raise DimensionMismatch(
            f"hyperparams cover {hp.n_views} views, data has {len(dims)}"
        )
    w0 = [
        gaussian_init(d, c, seed, KEY_TRANSFORM, k, scale=1.0 / np.sqrt(d))
        for k, d in enumerate(dims)
    ]
    # One block for every client whose views all take the primal form,
    # whatever its row count; a client with a view wider than its rows
    # shares one with the clients of its row count only.
    blocks: dict[int | None, list[int]] = {}
    for l, data in enumerate(datasets):
        n = data.n_samples
        blocks.setdefault(None if max(dims) <= n else n, []).append(l)
    clients: list[HorizontalClient] = [None] * len(datasets)
    for group in blocks.values():
        group.sort(key=lambda l: datasets[l].n_samples)
        rows = _Rows.stack(datasets, group, hp, max_local, seed)
        for slot, l in enumerate(group):
            clients[l] = HorizontalClient(PartyId.client(l), rows, slot)
    server = HorizontalServer(w=w0, counts=[d.n_samples for d in datasets])
    return server, clients


@dataclass(frozen=True)
class HfedResult:
    """Global transforms after the final aggregation, plus traffic log."""

    transforms: list[np.ndarray]
    log: RoundLog


def hfed_train(
    datasets: Sequence[MultiViewDataset],
    hp: HyperParams,
    seed: int,
    rounds: int = DEFAULT_ROUNDS,
    max_local: int = DEFAULT_MAX_LOCAL,
    transport=None,
    log: RoundLog | None = None,
) -> HfedResult:
    """Run the broadcast/refit/average protocol for the given rounds."""
    _check_cap("rounds", rounds)
    server, clients = make_horizontal_parties(datasets, hp, seed, max_local=max_local)
    log = run_rounds(server, clients, transport, max_rounds=rounds, log=log)
    return HfedResult(transforms=[m.copy() for m in server.w], log=log)

