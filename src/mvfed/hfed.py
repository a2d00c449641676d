"""Horizontal federated training: clients hold all views over disjoint rows.

Each round the server broadcasts the per-view transforms, every client
re-optimizes them against its own samples (pseudo-labels first, then
consensus, then the IRLS refit, looping until the local objective
settles), and the server takes the sample-count-weighted average of the
returned transforms.  Only transform matrices ever cross the wire;
pseudo-labels and consensus stay on the client between rounds.

Clients of one round are refitted as stacks.  `make_horizontal_parties`
stacks the views and labels of the clients of each row count once, into
one `_Rows` block they share.  `HorizontalClient.prestep`, which the
round driver calls before the steps, runs each block's local passes as
one stacked computation (`_local_passes`: one `_fit_stats` call per
width group and pass over (s, n, d) stacks, each view's X^T X formed
once per call), each slice starting from the transforms its own client
received.  Each `step` then checks the broadcast's shapes and commits
its client's staged slice, which is bit-identical to what the client
computes alone.  A client computes alone instead, as a stack of one,
when it steps with a message other than the staged one, or when the
stacked pass raised; a failure is then reported by the client that
fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, MissingClient
from .fedcore import (
    FedMessage,
    MessageKind,
    PartyId,
    RoundLog,
    fedavg_aggregate,
    run_rounds,
)
from .mvl import (
    HyperParams,
    MultiViewDataset,
    _check_irls_epsilon,
    _fit_stats,  # not called here; mvbench/tracer.py wraps `mvfed.hfed:_fit_stats`
    _fit_sums,
    _fit_views,
    _freeze,
    _grams,
    _stack_objective,
    _stack_row_norms,
    _stops,
    objective,  # not called here; mvbench/tracer.py wraps `mvfed.hfed:objective`
    predict_mvl,  # not called here; mvbench/tracer.py wraps `mvfed.hfed:predict_mvl`
    update_consensus,
    update_pseudo_labels,
)
from .numerics import KEY_CONSENSUS, KEY_PSEUDO, KEY_TRANSFORM, gaussian_init, orthonormal_inits

DEFAULT_ROUNDS = 20
DEFAULT_MAX_LOCAL = 30


@dataclass(frozen=True)
class _Rows:
    """The views and labels of clients of one row count, stacked once:
    views[k] is (s, n, d_k) and labels (s, n, c), slot i holding the
    i-th client's rows.  Read-only, so clients can share it.
    `transform_shapes` lists the (d_k, c) a broadcast must carry."""

    views: list[np.ndarray]
    labels: np.ndarray
    transform_shapes: list[tuple[int, int]]

    @classmethod
    def stack(cls, datasets: Sequence[MultiViewDataset]) -> "_Rows":
        views = [np.stack(v) for v in zip(*(d.views for d in datasets))]
        labels = np.stack([d.labels for d in datasets])
        for m in (*views, labels):
            m.setflags(write=False)
        return cls(views, labels, [(v.shape[2], labels.shape[2]) for v in views])

    def take(self, slots: list[int]):
        """(views, labels) of the given slots; all of them, in order,
        without a copy."""
        if slots == list(range(len(self.labels))):
            return self.views, self.labels
        return [v[slots] for v in self.views], self.labels[slots]


@dataclass
class HorizontalClient:
    """One participant's samples plus its persistent local state.

    The pseudo-label and consensus blocks survive across rounds; the
    transforms are overwritten by every broadcast before the local
    optimization reuses them as the IRLS warm start.  `rows` is the
    stacked block of every client with this one's row count, and
    `slot` this client's slice of it.  `staged` holds the (message,
    result) pair `prestep` computed for the next step.
    """

    party: PartyId
    data: MultiViewDataset
    hp: HyperParams
    max_local: int
    w: list[np.ndarray]
    pseudo: list[np.ndarray]
    consensus: np.ndarray
    rows: _Rows = field(repr=False, compare=False)
    slot: int
    staged: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def prestep(cls, clients, rnd: int, msgs: Sequence[FedMessage]) -> None:
        """Stage every client's local passes, one stack per row block."""
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(clients):
            groups.setdefault(id(c.rows), []).append(i)
        staged = []
        for idx in groups.values():
            members = [clients[i] for i in idx]
            views, labels = members[0].rows.take([c.slot for c in members])
            stacked = _local_passes(
                views, labels, members[0].hp, members[0].max_local,
                [np.stack(a) for a in zip(*(msgs[i].matrices for i in idx))],
                [np.stack(a) for a in zip(*(c.pseudo for c in members))],
                np.stack([c.consensus for c in members]),
            )
            staged += [(members[j], msgs[i], _slice(*stacked, j)) for j, i in enumerate(idx)]
        for c, msg, result in staged:
            c.staged = (msg, result)

    def step(self, rnd: int, msg: FedMessage | None) -> FedMessage:
        if msg is None or msg.kind is not MessageKind.TRANSFORM_SET:
            raise ValueError(f"round {rnd}: expected a transform broadcast")
        staged, self.staged = self.staged, None
        if staged is not None and staged[0] is msg:
            self._check_shapes(msg.matrices)
            self.w, self.pseudo, self.consensus = staged[1]
        else:
            self.set_transforms(msg.matrices)
            self.optimize_local()
        return FedMessage.transform_set(rnd, self.party, self.w)

    def _check_shapes(self, matrices: Sequence[np.ndarray]) -> None:
        got = [m.shape for m in matrices]
        if got != self.rows.transform_shapes:
            raise DimensionMismatch(
                f"broadcast shapes {got}, expected {self.rows.transform_shapes}"
            )

    def set_transforms(self, matrices: Sequence[np.ndarray]) -> None:
        self._check_shapes(matrices)
        self.w = [m.copy() for m in matrices]

    def optimize_local(self) -> None:
        """Local block-coordinate passes until the objective settles,
        computed alone, as a stack of one."""
        views, labels = self.rows.take([self.slot])
        w, pseudo, consensus = _local_passes(
            views, labels, self.hp, self.max_local, [m[None] for m in self.w],
            [m[None] for m in self.pseudo], self.consensus[None],
        )
        self.w, self.pseudo, self.consensus = _slice(w, pseudo, consensus, 0)


def _slice(w, pseudo, consensus, i: int):
    """Client i's (w, pseudo, consensus) out of stacked local state."""
    return [m[i] for m in w], [m[i] for m in pseudo], consensus[i]


def _local_objective(labels, w, xw, pseudo, consensus, hp: HyperParams) -> np.ndarray:
    """`mvl.objective` of every client state in a stack."""
    norms = [_stack_row_norms(m) for m in w]
    fits = [_fit_sums(a, b) for a, b in zip(xw, pseudo)]
    return _stack_objective(
        labels, norms, fits, pseudo, consensus, hp.beta, hp.zeta, hp.eta, hp.epsilon
    )


def _local_passes(views, labels, hp: HyperParams, max_local: int, w, pseudo, consensus):
    """Local block-coordinate passes of a stack of equal-size clients.

    views[k] is (s, n, d_k); labels and consensus are (s, n, c); w[k]
    is (s, d_k, c) and pseudo[k] (s, n, c).  Slice i makes exactly the
    passes a client holding only slice i makes: at most max_local, each
    updating pseudo-labels, consensus and transforms, and it stops once
    its local objective changes by less than hp.tol relative; later
    passes run on the unfinished slices only.  Returns the stacked
    (w, pseudo, consensus).
    """
    n_views = len(views)
    w = list(w)
    grams = _grams(views)
    xw = [x @ m for x, m in zip(views, w)]
    prev = _local_objective(labels, w, xw, pseudo, consensus, hp)
    w_out = [m.copy() for m in w]
    pseudo_out = [m.copy() for m in pseudo]
    consensus_out = consensus.copy()
    live = np.arange(len(labels))
    for step in range(max_local):
        pseudo = [update_pseudo_labels(xw[k], consensus, hp.zeta[k]) for k in range(n_views)]
        consensus = update_consensus(pseudo, labels, hp.zeta, hp.eta)
        for k, w_k, _, xw_k in _fit_views(views, grams, pseudo, w, hp):
            w[k], xw[k] = w_k, xw_k
        value = _local_objective(labels, w, xw, pseudo, consensus, hp)
        stop = _stops(value, prev, hp.tol, step == max_local - 1)
        if stop.any():
            live, (labels, consensus, value, views, grams, w, xw) = _freeze(
                stop, live,
                [*zip(w_out, w), *zip(pseudo_out, pseudo), (consensus_out, consensus)],
                [labels, consensus, value, views, grams, w, xw],
            )
            if not live.size:
                break
        prev = value
    return w_out, pseudo_out, consensus_out


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
) -> list[tuple[list[np.ndarray], np.ndarray]]:
    """Seeded pseudo-label and consensus blocks for the clients in group,
    which share one row count.

    Streams are keyed by role, client index and view so that no two
    blocks anywhere in the federation share a draw; the group's blocks
    are orthonormalised as one stack, and each client's blocks are
    views of it.
    """
    first = datasets[group[0]]
    n_views = first.n_views
    keys = []
    for l in group:
        keys += [(KEY_PSEUDO, l, k) for k in range(n_views)] + [(KEY_CONSENSUS, l)]
    blocks = orthonormal_inits(first.n_samples, first.n_classes, seed, keys)
    blocks = blocks.reshape(len(group), n_views + 1, *blocks.shape[1:])
    return [(list(own[:n_views]), own[n_views]) for own in blocks]


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
    if hp.n_views != len(dims):
        raise DimensionMismatch(
            f"hyperparams cover {hp.n_views} views, data has {len(dims)}"
        )
    _check_irls_epsilon(hp.epsilon)
    w0 = [
        gaussian_init(d, c, seed, KEY_TRANSFORM, k, scale=1.0 / np.sqrt(d))
        for k, d in enumerate(dims)
    ]
    by_rows: dict[int, list[int]] = {}
    for l, data in enumerate(datasets):
        by_rows.setdefault(data.n_samples, []).append(l)
    clients: list[HorizontalClient] = [None] * len(datasets)
    for group in by_rows.values():
        rows = _Rows.stack([datasets[l] for l in group])
        inits = _client_inits(datasets, seed, group)
        for slot, (l, (pseudo, consensus)) in enumerate(zip(group, inits)):
            clients[l] = HorizontalClient(
                party=PartyId.client(l), data=datasets[l], hp=hp, max_local=max_local,
                w=list(w0), pseudo=pseudo, consensus=consensus, rows=rows, slot=slot,
            )
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
    server, clients = make_horizontal_parties(datasets, hp, seed, max_local=max_local)
    log = run_rounds(server, clients, transport, max_rounds=rounds, log=log)
    return HfedResult(transforms=[m.copy() for m in server.w], log=log)

