"""Horizontal federated training: clients hold all views over disjoint rows.

Each round the server broadcasts the per-view transforms, every client
re-optimizes them against its own samples (pseudo-labels first, then
consensus, then the IRLS refit, looping until the local objective
settles), and the server takes the sample-count-weighted average of the
returned transforms.  Only transform matrices ever cross the wire;
pseudo-labels and consensus stay on the client between rounds.
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
    MvlState,
    _check_irls_epsilon,
    _fit_stats,
    objective,
    predict_mvl,
    update_consensus,
    update_pseudo_labels,
)
from .numerics import KEY_CONSENSUS, KEY_PSEUDO, KEY_TRANSFORM, gaussian_init, orthonormal_init

DEFAULT_ROUNDS = 20
DEFAULT_MAX_LOCAL = 30


@dataclass
class HorizontalClient:
    """One participant's samples plus its persistent local state.

    The pseudo-label and consensus blocks survive across rounds; the
    transforms are overwritten by every broadcast before the local
    optimization reuses them as the IRLS warm start.
    """

    party: PartyId
    data: MultiViewDataset
    hp: HyperParams
    max_local: int
    w: list[np.ndarray]
    pseudo: list[np.ndarray]
    consensus: np.ndarray

    def step(self, rnd: int, msg: FedMessage | None) -> FedMessage:
        if msg is None or msg.kind is not MessageKind.TRANSFORM_SET:
            raise ValueError(f"round {rnd}: expected a transform broadcast")
        self.set_transforms(msg.matrices)
        self.optimize_local()
        return FedMessage.transform_set(rnd, self.party, self.w)

    def set_transforms(self, matrices: Sequence[np.ndarray]) -> None:
        expected = [(d, self.data.n_classes) for d in self.data.dims]
        got = [m.shape for m in matrices]
        if got != expected:
            raise DimensionMismatch(f"broadcast shapes {got}, expected {expected}")
        self.w = [m.copy() for m in matrices]

    def local_objective(self) -> float:
        state = MvlState(W=self.w, Zk=self.pseudo, Z=self.consensus)
        return objective(self.data, state, self.hp)

    def optimize_local(self) -> None:
        """Local block-coordinate passes until the objective settles."""
        hp, data = self.hp, self.data
        prev = self.local_objective()
        for _ in range(self.max_local):
            for k in range(data.n_views):
                self.pseudo[k] = update_pseudo_labels(
                    data.views[k] @ self.w[k], self.consensus, hp.zeta[k]
                )
            self.consensus = update_consensus(
                self.pseudo, data.labels, hp.zeta, hp.eta
            )
            for k in range(data.n_views):
                self.w[k], _, _ = _fit_stats(
                    data.views[k], self.pseudo[k], hp.beta[k], hp.epsilon,
                    hp.max_inner, hp.tol, w_init=self.w[k],
                )
            value = self.local_objective()
            if abs(value - prev) / max(1.0, abs(prev)) < hp.tol:
                break
            prev = value


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


def _client_init(
    data: MultiViewDataset, seed: int, index: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Seeded pseudo-label and consensus blocks for one client.

    Streams are keyed by role, client index and view so that no two
    blocks anywhere in the federation share a draw.
    """
    pseudo = [
        orthonormal_init(data.n_samples, data.n_classes, seed, KEY_PSEUDO, index, k)
        for k in range(data.n_views)
    ]
    consensus = orthonormal_init(data.n_samples, data.n_classes, seed, KEY_CONSENSUS, index)
    return pseudo, consensus


def make_horizontal_parties(
    datasets: Sequence[MultiViewDataset],
    hp: HyperParams | Sequence[HyperParams],
    seed: int,
    max_local: int = DEFAULT_MAX_LOCAL,
) -> tuple[HorizontalServer, list[HorizontalClient]]:
    """Build a server and one client per local dataset.

    All datasets must agree on view count, per-view widths and class
    count.  `hp` is either shared or given per client.
    """
    if len(datasets) == 0:
        raise InvalidSpec("horizontal training needs at least one client")
    hps = list(hp) if isinstance(hp, (list, tuple)) else [hp] * len(datasets)
    if len(hps) != len(datasets):
        raise InvalidSpec(
            f"{len(hps)} hyperparameter sets for {len(datasets)} clients"
        )
    dims, c = datasets[0].dims, datasets[0].n_classes
    for d in datasets[1:]:
        if d.dims != dims or d.n_classes != c:
            raise DimensionMismatch("clients disagree on view widths or classes")
    for h in hps:
        if h.n_views != len(dims):
            raise DimensionMismatch(
                f"hyperparams cover {h.n_views} views, data has {len(dims)}"
            )
        _check_irls_epsilon(h.epsilon)
    w0 = [
        gaussian_init(d, c, seed, KEY_TRANSFORM, k, scale=1.0 / np.sqrt(d))
        for k, d in enumerate(dims)
    ]
    clients = []
    for l, (data, h) in enumerate(zip(datasets, hps)):
        pseudo, consensus = _client_init(data, seed, l)
        clients.append(
            HorizontalClient(
                party=PartyId.client(l), data=data, hp=h, max_local=max_local,
                w=[m.copy() for m in w0], pseudo=pseudo, consensus=consensus,
            )
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
    hp: HyperParams | Sequence[HyperParams],
    seed: int,
    rounds: int = DEFAULT_ROUNDS,
    max_local: int = DEFAULT_MAX_LOCAL,
    transport=None,
    log: RoundLog | None = None,
) -> HfedResult:
    """Run the broadcast/refit/average protocol for the given rounds.

    After the last round the final global transforms are pushed back
    onto every client.
    """
    server, clients = make_horizontal_parties(datasets, hp, seed, max_local=max_local)
    log = run_rounds(server, clients, transport, max_rounds=rounds, log=log)
    for client in clients:
        client.set_transforms(server.w)
    return HfedResult(transforms=[m.copy() for m in server.w], log=log)


def hfed_predict(
    test_sets: Sequence[Sequence[np.ndarray]],
    transforms: Sequence[np.ndarray],
    zeta: Sequence[float],
    tol: float = 1e-6,
    max_rounds: int = 100,
) -> list[np.ndarray]:
    """Per-client consensus estimates from the shared global transforms.

    Entirely local: every client runs the centralized test-time
    alternation on its own rows, so no protocol messages are involved.
    Zero-row clients get a zero-row estimate back.
    """
    return [
        predict_mvl(views, transforms, zeta, tol=tol, max_outer=max_rounds)
        for views in test_sets
    ]
