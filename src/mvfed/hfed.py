"""Horizontal federated training: clients hold all views over disjoint rows.

Each round the server broadcasts the per-view transforms, every client
re-optimizes them against its own samples (pseudo-labels first, then
consensus, then the IRLS refit, looping until the local objective
settles), and the server takes the sample-count-weighted average of the
returned transforms.  Only transform matrices ever cross the wire;
pseudo-labels and consensus stay on the client between rounds.

Clients are slots of blocks (`fedcore.BlockClient`, whose contract
`fedcore.rounds` states).  `make_horizontal_parties` stacks the views
and labels of every client whose views all take the primal form
(d_k <= n_i) once, whatever its row count, into one `_Rows` block; a
client with a view wider than its rows (dual form) shares one with the
clients of its row count only.  The block also owns its members'
pseudo-label and consensus blocks, as read-only ragged stacks that each
step replaces, and the hyperparameters they share.  A block's math is
its local passes as one stack in the centralized trainer's loop
(`mvl._passes`, refit last), each slice bit-identical to its client
alone; its replies are cut from the sealed transform stacks
(`fedcore.seal_rows`), so the server's FedAvg sums the stack itself.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, MissingClient
from .fedcore import (
    BlockClient,
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
    DEFAULT_MAX_LOCAL,
    DEFAULT_ROUNDS,
    HyperParams,
    MultiViewDataset,
    _check_cap,
    _check_hp_views,
    _dual,
    _fit_stats,  # not called here; mvbench/tracer.py wraps `mvfed.hfed:_fit_stats`
    _layout,
    _passes,
    objective,  # not called here; mvbench/tracer.py wraps `mvfed.hfed:objective`
    predict_mvl,  # not called here; mvbench/tracer.py wraps `mvfed.hfed:predict_mvl`
)
from .numerics import KEY_CONSENSUS, KEY_PSEUDO, KEY_TRANSFORM, gaussian_init, orthonormal_inits


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

    def __len__(self) -> int:
        return len(self.rows)

    def commit(self, pseudo, consensus) -> None:
        """Make pseudo and consensus, ragged stacks in slot order, the
        members' state."""
        for m in (*pseudo, consensus):
            m.setflags(write=False)
        self.pseudo, self.consensus = list(pseudo), consensus


@dataclass
class HorizontalClient(BlockClient):
    """One participant: its slot of the block `rows`, which holds its
    rows and its pseudo-label and consensus blocks across rounds."""

    party: PartyId
    rows: _Rows = field(repr=False, compare=False)
    slot: int

    block = property(lambda self: self.rows)

    def check_broadcast(self, rnd: int, msg: FedMessage | None) -> None:
        if msg is None or msg.kind is not MessageKind.TRANSFORM_SET:
            raise ValueError(f"round {rnd}: expected a transform broadcast")
        got = [m.shape for m in msg.matrices]
        if got != self.rows.transform_shapes:
            raise DimensionMismatch(
                f"broadcast shapes {got}, expected {self.rows.transform_shapes}"
            )

    @classmethod
    def run_block(cls, rnd: int, clients, msgs: Sequence[FedMessage]):
        """One block's local passes as one stack, each slice from its
        client's broadcast."""
        block, s = clients[0].rows, len(clients)
        hp = block.hp
        w, pseudo, consensus, _ = _passes(
            block.views, block.labels,
            [stack_rows(a) for a in zip(*(m.matrices for m in msgs))],
            block.pseudo, block.consensus,
            [np.full(s, q) for q in hp.zeta], np.full(s, hp.eta),
            hp, block.max_local, fit_first=False, layout=_layout(block.rows),
        )
        replies = FedMessage.batch(
            rnd, [c.party for c in clients], MessageKind.TRANSFORM_SET,
            matrices=list(zip(*map(seal_rows, w))),
        )
        return replies, functools.partial(block.commit, pseudo, consensus)


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
    _check_hp_views(hp, len(dims))
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
        blocks.setdefault(n if _dual(max(dims), n) else None, []).append(l)
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

