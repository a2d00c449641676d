"""Centralized multi-view classifier.

The model learns one linear transform per view plus per-view pseudo-label
matrices that are pulled toward a shared consensus, which in turn is
anchored to the one-hot labels:

    min  sum_k ||X_k W_k - Z_k||_F^2 + beta_k ||W_k||_{2,1}
         + zeta_k ||Z_k - Z||_F^2  + eta ||Z - Y||_F^2

Training is block-coordinate descent: an IRLS inner loop for each W_k
(the l2,1 term is handled by diagonal reweighting), then closed-form
updates for each Z_k and for Z.  Prediction alternates the two test-time
closed forms until the test objective stabilizes and decodes classes by
row-wise argmax of the consensus.

The l2,1 norm is smoothed as sum_i sqrt(||row_i||^2 + epsilon^2) so the
objective is differentiable at zero rows; the reported objective uses
this smoothed form throughout.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec
from .numerics import (
    KEY_CONSENSUS,
    KEY_PSEUDO,
    KEY_TRANSFORM,
    gaussian_init,
    orthonormal_init,
    row_l2_norms,
    solve_spd,
)

__all__ = [
    "HyperParams",
    "MultiViewDataset",
    "MvlState",
    "TraceRow",
    "TrainTrace",
    "argmax_decode",
    "fit_view_transform",
    "init_state",
    "irls_row_weights",
    "objective",
    "predict_mvl",
    "smoothed_l21",
    "solve_view_transform",
    "test_consensus",
    "test_objective",
    "train_mvl",
    "train_single_view",
    "update_consensus",
    "update_pseudo_labels",
]


def _as_float_tuple(values: float | Iterable[float], k: int, name: str) -> tuple[float, ...]:
    if isinstance(values, (int, float)):
        return (float(values),) * k
    out = tuple(float(v) for v in values)
    if len(out) != k:
        raise InvalidSpec(f"{name} must have {k} entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class HyperParams:
    """Weights and loop controls for the multi-view objective.

    beta/zeta hold one entry per view.  Iteration caps may be zero (the
    corresponding loop is skipped); the IRLS cap must be at least 1.
    """

    beta: tuple[float, ...]
    zeta: tuple[float, ...]
    eta: float
    epsilon: float = 1e-8
    tol: float = 1e-6
    max_outer: int = 100
    max_inner: int = 20

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "zeta", tuple(float(z) for z in self.zeta))
        if not self.beta or len(self.beta) != len(self.zeta):
            raise InvalidSpec(
                f"beta and zeta must be non-empty and equal length, "
                f"got {len(self.beta)} and {len(self.zeta)}"
            )
        if any(b <= 0 for b in self.beta):
            raise InvalidSpec("every beta must be > 0")
        if any(z < 0 for z in self.zeta):
            raise InvalidSpec("every zeta must be >= 0")
        if self.eta < 0:
            raise InvalidSpec("eta must be >= 0")
        if self.epsilon < 0:
            raise InvalidSpec("epsilon must be >= 0")
        if not 0.0 < self.tol < 1.0:
            raise InvalidSpec("tol must lie in (0, 1)")
        if self.max_outer < 0:
            raise InvalidSpec("max_outer must be >= 0")
        if self.max_inner < 1:
            raise InvalidSpec("max_inner must be >= 1")

    @property
    def n_views(self) -> int:
        return len(self.beta)

    @classmethod
    def uniform(
        cls,
        n_views: int,
        beta: float | Iterable[float] = 4.0,
        zeta: float | Iterable[float] = 8.0,
        eta: float = 8.0,
        **kwargs,
    ) -> "HyperParams":
        """Hyperparameters with per-view values broadcast from scalars."""
        return cls(
            beta=_as_float_tuple(beta, n_views, "beta"),
            zeta=_as_float_tuple(zeta, n_views, "zeta"),
            eta=float(eta),
            **kwargs,
        )


def _check_one_hot(labels: np.ndarray) -> None:
    if labels.ndim != 2 or labels.shape[1] < 1:
        raise DimensionMismatch(f"labels must be 2-D one-hot, got shape {labels.shape}")
    ok = np.isin(labels, (0.0, 1.0)).all() and np.array_equal(
        labels.sum(axis=1), np.ones(labels.shape[0])
    )
    if not ok:
        raise DimensionMismatch("labels must be one-hot rows (exactly one 1 per row)")


@dataclass
class MultiViewDataset:
    """K aligned feature matrices over the same N samples, one-hot labels."""

    views: list[np.ndarray]
    labels: np.ndarray

    def __post_init__(self) -> None:
        if not self.views:
            raise DimensionMismatch("need at least one view")
        self.views = [np.ascontiguousarray(v, dtype=np.float64) for v in self.views]
        self.labels = np.ascontiguousarray(self.labels, dtype=np.float64)
        n = self.views[0].shape[0] if self.views[0].ndim == 2 else -1
        for k, v in enumerate(self.views):
            if v.ndim != 2 or v.shape[0] != n:
                raise DimensionMismatch(
                    f"view {k} must be 2-D with {n} rows, got shape {v.shape}"
                )
            if not np.isfinite(v).all():
                raise InvalidSpec(f"view {k} contains non-finite entries")
        _check_one_hot(self.labels)
        if self.labels.shape[0] != n:
            raise DimensionMismatch(
                f"labels have {self.labels.shape[0]} rows, views have {n}"
            )

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_classes(self) -> int:
        return self.labels.shape[1]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.shape[1] for v in self.views)

    def class_indices(self) -> np.ndarray:
        return np.argmax(self.labels, axis=1)

    def subset(self, indices: np.ndarray) -> "MultiViewDataset":
        """Dataset restricted to the given sample indices (copied)."""
        idx = np.asarray(indices)
        return MultiViewDataset(
            views=[v[idx].copy() for v in self.views],
            labels=self.labels[idx].copy(),
        )

    def select_views(self, view_indices: Sequence[int]) -> "MultiViewDataset":
        """Dataset restricted to a subset of views (shared arrays)."""
        if not view_indices:
            raise DimensionMismatch("view selection must keep at least one view")
        return MultiViewDataset(
            views=[self.views[k] for k in view_indices], labels=self.labels
        )

    @classmethod
    def from_class_indices(
        cls, views: list[np.ndarray], y: np.ndarray, n_classes: int | None = None
    ) -> "MultiViewDataset":
        y = np.asarray(y, dtype=np.int64)
        c = int(n_classes) if n_classes is not None else int(y.max()) + 1
        labels = np.zeros((y.shape[0], c))
        labels[np.arange(y.shape[0]), y] = 1.0
        return cls(views=views, labels=labels)


@dataclass
class MvlState:
    """Trainable state: per-view transforms and pseudo-labels, consensus."""

    W: list[np.ndarray]
    Zk: list[np.ndarray]
    Z: np.ndarray

    def copy(self) -> "MvlState":
        return MvlState(
            W=[w.copy() for w in self.W],
            Zk=[z.copy() for z in self.Zk],
            Z=self.Z.copy(),
        )


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    objective: float
    w_rownorm_min: tuple[float, ...]
    w_rownorm_max: tuple[float, ...]
    max_solve_residual: float


@dataclass
class TrainTrace:
    """Per-outer-iteration objective and transform diagnostics."""

    rows: list[TraceRow] = field(default_factory=list)

    def objectives(self) -> list[float]:
        return [r.objective for r in self.rows]

    def write_csv(self, stream: IO[str]) -> None:
        n_views = len(self.rows[0].w_rownorm_min) if self.rows else 0
        writer = csv.writer(stream, lineterminator="\n")
        header = ["iter", "objective"]
        for k in range(n_views):
            header += [f"w{k}_rownorm_min", f"w{k}_rownorm_max"]
        writer.writerow(header)
        for r in self.rows:
            row = [r.iteration, repr(r.objective)]
            for k in range(n_views):
                row += [repr(r.w_rownorm_min[k]), repr(r.w_rownorm_max[k])]
            writer.writerow(row)


def smoothed_l21(w: np.ndarray, epsilon: float) -> float:
    """Sum over rows of sqrt(||row||^2 + epsilon^2)."""
    norms = row_l2_norms(w)
    return float(np.sum(np.sqrt(norms * norms + epsilon * epsilon)))


def _check_state_shapes(data: MultiViewDataset, state: MvlState, k: int) -> None:
    n, c = data.n_samples, data.n_classes
    if len(state.W) != k or len(state.Zk) != k:
        raise DimensionMismatch(
            f"state holds {len(state.W)} transforms for {k} views"
        )
    for i in range(k):
        if state.W[i].shape != (data.dims[i], c):
            raise DimensionMismatch(
                f"W[{i}] shape {state.W[i].shape} != {(data.dims[i], c)}"
            )
        if state.Zk[i].shape != (n, c):
            raise DimensionMismatch(
                f"Zk[{i}] shape {state.Zk[i].shape} != {(n, c)}"
            )
    if state.Z.shape != (n, c):
        raise DimensionMismatch(f"Z shape {state.Z.shape} != {(n, c)}")


def objective(data: MultiViewDataset, state: MvlState, hp: HyperParams) -> float:
    """Smoothed training objective over the full dataset."""
    k = data.n_views
    if hp.n_views != k:
        raise DimensionMismatch(f"hyperparams cover {hp.n_views} views, data has {k}")
    _check_state_shapes(data, state, k)
    total = hp.eta * float(np.sum((state.Z - data.labels) ** 2))
    for i in range(k):
        fit = data.views[i] @ state.W[i] - state.Zk[i]
        total += float(np.sum(fit * fit))
        total += hp.beta[i] * smoothed_l21(state.W[i], hp.epsilon)
        gap = state.Zk[i] - state.Z
        total += hp.zeta[i] * float(np.sum(gap * gap))
    return total


def irls_row_weights(w: np.ndarray, epsilon: float) -> np.ndarray:
    """Diagonal IRLS reweighting: entry i = 1 / (2 (||row_i|| + epsilon))."""
    return 1.0 / (2.0 * (row_l2_norms(w) + epsilon))


def _solve_with_residual(
    x: np.ndarray, target: np.ndarray, row_weights: np.ndarray, beta: float
) -> tuple[np.ndarray, float]:
    gram = x.T @ x
    gram[np.diag_indices_from(gram)] += beta * row_weights
    rhs = x.T @ target
    w = solve_spd(gram, rhs)
    residual = float(np.max(np.abs(gram @ w - rhs))) if rhs.size else 0.0
    return w, residual


def solve_view_transform(
    x: np.ndarray, target: np.ndarray, row_weights: np.ndarray, beta: float
) -> np.ndarray:
    """Closed-form transform update: (X^T X + beta A)^{-1} X^T target."""
    if x.shape[0] != target.shape[0]:
        raise DimensionMismatch(
            f"X has {x.shape[0]} rows, target has {target.shape[0]}"
        )
    w, _ = _solve_with_residual(x, target, np.asarray(row_weights, dtype=np.float64), beta)
    return w


def _fit_stats(x, target, beta, epsilon, max_inner, tol, w_init):
    """IRLS loop; returns (W, A, max normal-equation residual seen)."""
    w = w_init
    a = None
    max_residual = 0.0
    xw = x @ w
    prev = float(np.sum((xw - target) ** 2)) + beta * smoothed_l21(w, epsilon)
    for _ in range(max_inner):
        a = irls_row_weights(w, epsilon)
        w, res = _solve_with_residual(x, target, a, beta)
        max_residual = max(max_residual, res)
        xw = x @ w
        value = float(np.sum((xw - target) ** 2)) + beta * smoothed_l21(w, epsilon)
        if abs(value - prev) / max(1.0, abs(prev)) < tol:
            prev = value
            break
        prev = value
    if a is None:
        a = irls_row_weights(w, epsilon)
    return w, a, max_residual


def fit_view_transform(
    x: np.ndarray,
    target: np.ndarray,
    beta: float,
    epsilon: float = 1e-8,
    max_inner: int = 20,
    tol: float = 1e-6,
    w_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit one view's transform by IRLS on the l2,1-regularized fit.

    Alternates the diagonal reweighting and the closed-form solve until
    the smoothed per-view value stabilizes or max_inner is reached.
    Returns the transform and the final reweighting diagonal.
    """
    if epsilon <= 0:
        raise InvalidSpec("IRLS requires epsilon > 0")
    if x.ndim != 2 or target.ndim != 2 or x.shape[0] != target.shape[0]:
        raise DimensionMismatch(
            f"incompatible shapes X {x.shape}, target {target.shape}"
        )
    if w_init is None:
        w_init = np.zeros((x.shape[1], target.shape[1]))
    w, a, _ = _fit_stats(x, target, beta, epsilon, max_inner, tol, w_init)
    return w, a


def update_pseudo_labels(xw: np.ndarray, consensus: np.ndarray, zeta: float) -> np.ndarray:
    """Closed-form pseudo-label update: (XW + zeta Z) / (1 + zeta)."""
    if xw.shape != consensus.shape:
        raise DimensionMismatch(f"shape {xw.shape} != {consensus.shape}")
    return (xw + zeta * consensus) / (1.0 + zeta)


def update_consensus(
    pseudo_labels: Sequence[np.ndarray],
    labels: np.ndarray,
    zeta: Sequence[float],
    eta: float,
) -> np.ndarray:
    """Closed-form consensus update: (sum_k zeta_k Z_k + eta Y) / (sum zeta + eta)."""
    if len(pseudo_labels) != len(zeta):
        raise DimensionMismatch(
            f"{len(pseudo_labels)} pseudo-label blocks for {len(zeta)} zeta values"
        )
    acc = eta * labels
    denom = float(eta)
    for z, zk in zip(zeta, pseudo_labels):
        if zk.shape != labels.shape:
            raise DimensionMismatch(f"shape {zk.shape} != {labels.shape}")
        acc = acc + z * zk
        denom += z
    if denom <= 0.0:
        raise InvalidSpec("consensus undefined: sum(zeta) + eta must be > 0")
    return acc / denom


def test_consensus(pseudo_labels: Sequence[np.ndarray], zeta: Sequence[float]) -> np.ndarray:
    """Test-time consensus: zeta-weighted mean of the per-view estimates."""
    if len(pseudo_labels) != len(zeta):
        raise DimensionMismatch(
            f"{len(pseudo_labels)} pseudo-label blocks for {len(zeta)} zeta values"
        )
    denom = float(sum(zeta))
    if denom <= 0.0:
        raise InvalidSpec("test consensus undefined: sum(zeta) must be > 0")
    acc = zeta[0] * pseudo_labels[0]
    for z, zk in zip(zeta[1:], pseudo_labels[1:]):
        if zk.shape != pseudo_labels[0].shape:
            raise DimensionMismatch(f"shape {zk.shape} != {pseudo_labels[0].shape}")
        acc = acc + z * zk
    return acc / denom


def init_state(
    dims: Sequence[int], n_samples: int, n_classes: int, seed: int
) -> MvlState:
    """Seeded initial state shared by the centralized and federated trainers.

    W_k is standard Gaussian scaled by 1/sqrt(d_k); Z_k and Z have
    orthonormal columns.  Each block draws from its own seed-derived
    stream keyed by role and view, so a federated deployment can
    reproduce exactly this state without any coordination beyond the
    seed itself.
    """
    w = [
        gaussian_init(d, n_classes, seed, KEY_TRANSFORM, k, scale=1.0 / np.sqrt(d))
        for k, d in enumerate(dims)
    ]
    zk = [
        orthonormal_init(n_samples, n_classes, seed, KEY_PSEUDO, k)
        for k in range(len(dims))
    ]
    z = orthonormal_init(n_samples, n_classes, seed, KEY_CONSENSUS)
    return MvlState(W=w, Zk=zk, Z=z)


def _trace_row(state: MvlState, iteration: int, value: float, residual: float) -> TraceRow:
    norms = [row_l2_norms(w) for w in state.W]
    return TraceRow(
        iteration=iteration,
        objective=value,
        w_rownorm_min=tuple(float(n.min()) for n in norms),
        w_rownorm_max=tuple(float(n.max()) for n in norms),
        max_solve_residual=residual,
    )


def train_mvl(
    data: MultiViewDataset, hp: HyperParams, seed: int
) -> tuple[MvlState, TrainTrace]:
    """Block-coordinate training of the multi-view objective.

    Each outer iteration runs, per view, the IRLS transform fit followed
    by the pseudo-label update, then refreshes the consensus and records
    the smoothed objective.  Stops when the relative objective change
    drops below hp.tol or after hp.max_outer iterations.
    """
    k = data.n_views
    if hp.n_views != k:
        raise DimensionMismatch(f"hyperparams cover {hp.n_views} views, data has {k}")
    state = init_state(data.dims, data.n_samples, data.n_classes, seed)
    trace = TrainTrace()
    prev = objective(data, state, hp)
    trace.rows.append(_trace_row(state, 0, prev, 0.0))
    for t in range(1, hp.max_outer + 1):
        max_residual = 0.0
        for i in range(k):
            w, _, res = _fit_stats(
                data.views[i], state.Zk[i], hp.beta[i], hp.epsilon,
                hp.max_inner, hp.tol, w_init=state.W[i],
            )
            state.W[i] = w
            max_residual = max(max_residual, res)
            state.Zk[i] = update_pseudo_labels(
                data.views[i] @ w, state.Z, hp.zeta[i]
            )
        state.Z = update_consensus(state.Zk, data.labels, hp.zeta, hp.eta)
        value = objective(data, state, hp)
        trace.rows.append(_trace_row(state, t, value, max_residual))
        if abs(value - prev) / max(1.0, abs(prev)) < hp.tol:
            break
        prev = value
    return state, trace


def test_objective(
    xw: Sequence[np.ndarray],
    pseudo_labels: Sequence[np.ndarray],
    consensus: np.ndarray,
    zeta: Sequence[float],
) -> float:
    """Test-phase objective: fit of each view plus consensus disagreement."""
    total = 0.0
    for k in range(len(xw)):
        fit = xw[k] - pseudo_labels[k]
        gap = pseudo_labels[k] - consensus
        total += float(np.sum(fit * fit)) + zeta[k] * float(np.sum(gap * gap))
    return total


def predict_mvl(
    test_views: Sequence[np.ndarray],
    transforms: Sequence[np.ndarray],
    zeta: Sequence[float],
    tol: float = 1e-6,
    max_outer: int = 100,
) -> np.ndarray:
    """Consensus label estimates for unlabeled multi-view rows.

    Initializes each view's estimate at X_k W_k and alternates the
    test-time consensus and per-view blends until the test objective's
    relative change falls below tol (or max_outer rounds).
    """
    if len(test_views) != len(transforms) or len(test_views) != len(zeta):
        raise DimensionMismatch(
            f"{len(test_views)} views, {len(transforms)} transforms, "
            f"{len(zeta)} zeta values"
        )
    xw = []
    for k, (x, w) in enumerate(zip(test_views, transforms)):
        if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
            raise DimensionMismatch(
                f"view {k}: X shape {x.shape} incompatible with W shape {w.shape}"
            )
        xw.append(x @ w)
    estimates = [m.copy() for m in xw]
    consensus = test_consensus(estimates, zeta)
    prev = np.inf
    for _ in range(max_outer):
        consensus = test_consensus(estimates, zeta)
        for k in range(len(estimates)):
            estimates[k] = update_pseudo_labels(xw[k], consensus, zeta[k])
        value = test_objective(xw, estimates, consensus, zeta)
        if abs(value - prev) / max(1.0, abs(prev)) < tol:
            break
        prev = value
    return consensus


def train_single_view(
    x: np.ndarray,
    labels: np.ndarray,
    beta: float,
    epsilon: float = 1e-8,
    max_inner: int = 20,
    tol: float = 1e-6,
) -> np.ndarray:
    """Single-view baseline: IRLS regression of one-hot labels on one view."""
    _check_one_hot(np.asarray(labels, dtype=np.float64))
    w, _ = fit_view_transform(
        x, np.asarray(labels, dtype=np.float64), beta, epsilon, max_inner, tol
    )
    return w


def argmax_decode(scores: np.ndarray) -> np.ndarray:
    """Predicted class per row: argmax, ties toward the lowest index."""
    if scores.ndim != 2:
        raise DimensionMismatch(f"expected 2-D scores, got ndim={scores.ndim}")
    return np.argmax(scores, axis=1)
