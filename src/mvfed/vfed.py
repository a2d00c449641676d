"""Vertical federated training: one client per feature view, shared samples.

Every client holds a single view's feature block and never sends it
anywhere.  The round traffic is the server's consensus matrix going out
and (zeta, pseudo-label) pairs coming back.  Because all parties start
from the same seeded state and run the same update functions as the
centralized trainer, the protocol reproduces `train_mvl` bit for bit
under equal iteration caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from . import mvl
from .errors import DimensionMismatch
from .fedcore import (
    FedMessage,
    MessageKind,
    PartyId,
    RoundLog,
    run_rounds,
)
from .mvl import (
    HyperParams,
    MultiViewDataset,
    _check_cap,
    _check_hp_views,
    _check_prediction,
    _fit_stats,  # not called here; mvbench/tracer.py wraps `mvfed.vfed:_fit_stats`
    init_state,
    test_consensus,
    update_consensus,
    update_pseudo_labels,
)


@dataclass
class VerticalClient:
    """Holds one view's features plus the per-view optimization state."""

    party: PartyId
    x: np.ndarray
    beta: float
    zeta: float
    epsilon: float
    max_inner: int
    tol: float
    w: np.ndarray
    pseudo: np.ndarray

    def step(self, rnd: int, msg: FedMessage | None) -> FedMessage:
        """Refit the local transform, blend the pseudo-labels, reply."""
        if msg is None or msg.kind is not MessageKind.CONSENSUS:
            raise ValueError(f"round {rnd}: expected a consensus broadcast")
        z = msg.matrix
        if z.shape != self.pseudo.shape:
            raise DimensionMismatch(
                f"server consensus is {z.shape}, client holds {self.pseudo.shape}"
            )
        # Through `mvl`: the tracer may wrap `mvl._fit_stats` before it
        # first imports this module, whose own binding then holds that
        # wrapper and is wrapped again.
        self.w, _, _, xw = mvl._fit_stats(
            self.x, self.pseudo, self.beta, self.epsilon,
            self.max_inner, self.tol, w_init=self.w,
        )
        self.pseudo = update_pseudo_labels(xw, z, self.zeta)
        return FedMessage.pseudo_label(rnd, self.party, self.zeta, self.pseudo)


def _relative_drift(new: np.ndarray, old: np.ndarray) -> float:
    """||new - old|| / ||old||, or the plain distance when old is zero."""
    denom = float(np.linalg.norm(old))
    return float(np.linalg.norm(new - old)) / (denom if denom > 0.0 else 1.0)


@dataclass
class VerticalServer:
    """Keeps the labels and the consensus; stops on consensus drift."""

    reply_kind: ClassVar[MessageKind] = MessageKind.PSEUDO_LABEL

    labels: np.ndarray
    eta: float
    tol: float
    z: np.ndarray
    party: PartyId = field(default_factory=PartyId.server)
    drift: float | None = None

    def broadcast(self, rnd: int) -> FedMessage:
        return FedMessage.consensus(rnd, self.party, self.z)

    def aggregate(self, rnd: int, replies: Sequence[FedMessage]) -> None:
        z_new = update_consensus(
            [m.matrix for m in replies], self.labels,
            [m.zeta for m in replies], self.eta,
        )
        self.drift = _relative_drift(z_new, self.z)
        self.z = z_new

    def done(self) -> bool:
        return self.drift is not None and self.drift < self.tol


def make_vertical_parties(
    data: MultiViewDataset, hp: HyperParams, seed: int
) -> tuple[VerticalServer, list[VerticalClient]]:
    """Build a server and one client per view from one seeded state.

    The state split mirrors data ownership: client k receives W_k and
    Z_k, the server receives Z and the labels.
    """
    _check_hp_views(hp, data.n_views)
    state = init_state(data.dims, data.n_samples, data.n_classes, seed)
    server = VerticalServer(labels=data.labels, eta=hp.eta, tol=hp.tol, z=state.Z)
    clients = [
        VerticalClient(
            party=PartyId.client(k), x=data.views[k],
            beta=hp.beta[k], zeta=hp.zeta[k], epsilon=hp.epsilon,
            max_inner=hp.max_inner, tol=hp.tol,
            w=state.W[k], pseudo=state.Zk[k],
        )
        for k in range(data.n_views)
    ]
    return server, clients


@dataclass(frozen=True)
class VfedResult:
    """What the parties hold after training, plus the traffic log."""

    transforms: list[np.ndarray]
    pseudo_labels: list[np.ndarray]
    consensus: np.ndarray
    log: RoundLog


def vfed_train(
    data: MultiViewDataset,
    hp: HyperParams,
    seed: int,
    transport=None,
    log: RoundLog | None = None,
) -> VfedResult:
    """Train over the round protocol; each round is one outer iteration.

    Runs hp.max_outer rounds at most, stopping early when the relative
    consensus drift falls below hp.tol.
    """
    server, clients = make_vertical_parties(data, hp, seed)
    log = run_rounds(server, clients, transport, max_rounds=hp.max_outer, log=log)
    return VfedResult(
        transforms=[c.w for c in clients],
        pseudo_labels=[c.pseudo for c in clients],
        consensus=server.z,
        log=log,
    )


@dataclass
class VerticalPredictClient:
    """Blends its local score estimate toward the broadcast consensus."""

    party: PartyId
    x: np.ndarray
    w: np.ndarray
    zeta: float
    scores: np.ndarray | None = None
    estimate: np.ndarray | None = None

    def step(self, rnd: int, msg: FedMessage | None) -> FedMessage:
        if rnd == 0:
            self.scores = self.x @ self.w
            self.estimate = self.scores.copy()
        else:
            if msg is None or msg.kind is not MessageKind.TEST_CONSENSUS:
                raise ValueError(f"round {rnd}: expected a test-consensus broadcast")
            self.estimate = update_pseudo_labels(self.scores, msg.matrix, self.zeta)
        return FedMessage.test_pseudo_label(rnd, self.party, self.zeta, self.estimate)


@dataclass
class VerticalPredictServer:
    """Averages the clients' estimates; stops when the average settles."""

    reply_kind: ClassVar[MessageKind] = MessageKind.TEST_PSEUDO_LABEL

    tol: float
    party: PartyId = field(default_factory=PartyId.server)
    consensus: np.ndarray | None = None
    drift: float | None = None

    def broadcast(self, rnd: int) -> FedMessage | None:
        if self.consensus is None:
            return None
        return FedMessage.test_consensus(rnd, self.party, self.consensus)

    def aggregate(self, rnd: int, replies: Sequence[FedMessage]) -> None:
        z_new = test_consensus([m.matrix for m in replies], [m.zeta for m in replies])
        if self.consensus is not None:
            self.drift = _relative_drift(z_new, self.consensus)
        self.consensus = z_new

    def done(self) -> bool:
        return self.drift is not None and self.drift < self.tol


def vfed_predict(
    test_views: Sequence[np.ndarray],
    transforms: Sequence[np.ndarray],
    zeta: Sequence[float],
    tol: float = 1e-6,
    max_rounds: int = 100,
    transport=None,
    log: RoundLog | None = None,
) -> np.ndarray:
    """Consensus score estimates for test rows split across the clients.

    Round 0 initializes each client's estimate at X_k W_k and takes the
    first weighted average; later rounds alternate the client blend and
    the server average until the average's relative drift falls below
    tol.  Matches `predict_mvl` under equal caps, and rejects, before
    any round, the inputs it rejects (`mvl._check_prediction`).
    """
    _check_cap("max_rounds", max_rounds, low=1)
    _check_prediction(test_views, transforms, zeta, tol)
    clients = [
        VerticalPredictClient(party=PartyId.client(k), x=x, w=w, zeta=z)
        for k, (x, w, z) in enumerate(zip(test_views, transforms, zeta))
    ]
    server = VerticalPredictServer(tol=tol)
    run_rounds(server, clients, transport, max_rounds=max_rounds, log=log)
    return server.consensus
