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

Every trainer (centralized, vertical, horizontal) fits W_k through the
one IRLS kernel `_fit_stats`.  Once the pseudo-labels and consensus are
fixed, the views' W_k fits are independent, so the centralized and
horizontal trainers hand it width groups (`_fit_views`): every primal
view of one width, for every grid candidate or client, as one stack in
one call; a dual view goes alone.  Each slice of a stack is
bit-identical to its own 2-D call.  Clients of different row counts
form a ragged stack (`_runs`): their rows one client after another, cut
into runs of one row count.  Zero padding would change BLAS products
and numpy's pairwise sums, so every product and sum over rows runs once
per run, on the (slots, rows, ...) stack that row count alone would
form, while everything in d-space runs once for the whole stack.

`train_mvl` is the block-coordinate loop `_train_stack` on a stack of
one; the validation grid runs it on all its (zeta, eta) candidates at
once, with one kernel call per width group and outer iteration, and
freezes each candidate at the outer iteration where it would stop
alone.  Prediction is stacked the same way: `predict_mvl` is
`_predict_stack` on a stack of one, and the grid scores all its
candidates' transforms on the validation rows in one call.

Each inner iteration solves the reweighted normal equations
(X^T X + beta A) W = X^T T, A = diag(a), in one of two forms chosen by
the shape of X (n rows, d columns) alone:

* primal, d <= n: X^T T and ||T||^2 are formed once per fit, and X^T X
  once per fit or, handed in, once per training (grid) or pass call
  (hfed), O(n d^2); each iteration works on d-sized arrays only: it
  adds beta a to the diagonal and factors the d x d system, O(d^3),
  and takes the fit term from the Gram identity
  ||X W - T||^2 = <W, X^T X W> - 2 <W, X^T T> + ||T||^2, O(d^2 c).
  X W is formed once, after the last iteration;
* dual, d > n: (X A^{-1} X^T + beta I) U = T, W = A^{-1} X^T U, with
  A^{-1} = diag(2 (||w_i|| + epsilon)); forming and factoring the n x n
  system costs O(n^2 d + n^3) per iteration and nothing is d x d
  (Nie et al., "Efficient and Robust Feature Selection via Joint
  l2,1-Norms Minimization", NeurIPS 2010).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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


def smoothed_l21(w: np.ndarray, epsilon: float) -> float:
    """Sum over rows of sqrt(||row||^2 + epsilon^2)."""
    return _smoothed_l21_of(row_l2_norms(w), epsilon)


def _smoothed_l21_of(norms: np.ndarray, epsilon: float) -> float:
    return float(np.sqrt(norms * norms + epsilon * epsilon).sum())


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
    zk = [m[None] for m in state.Zk]
    value = _stack_objective(
        data.labels, [row_l2_norms(w)[None] for w in state.W],
        [_fit_sums((x @ w)[None], m) for x, w, m in zip(data.views, state.W, zk)],
        zk, state.Z[None], hp.beta, hp.zeta, hp.eta, hp.epsilon,
    )
    return float(value[0])


def irls_row_weights(w: np.ndarray, epsilon: float) -> np.ndarray:
    """Diagonal IRLS reweighting: entry i = 1 / (2 (||row_i|| + epsilon))."""
    return _row_weights_of(row_l2_norms(w), epsilon)


def _row_weights_of(norms: np.ndarray, epsilon: float) -> np.ndarray:
    return 1.0 / (2.0 * (norms + epsilon))


def _check_irls_epsilon(epsilon: float) -> None:
    """IRLS divides by ||w_i|| + epsilon, so a zero row needs epsilon > 0."""
    if epsilon <= 0:
        raise InvalidSpec("IRLS requires epsilon > 0")


def _grams(views: Sequence[np.ndarray]) -> list[np.ndarray | None]:
    """X^T X of every view, one matrix or one per slice of a stack; None
    for a view wider than its rows, which the dual form fits without it."""
    return [None if x.shape[-1] > x.shape[-2] else x.swapaxes(-1, -2) @ x for x in views]


def _gram_fit(w, gw, rhs, tt):
    """||X W - T||^2 from d-sized arrays alone, 2-D or per slice of a
    stack: <W, X^T X W> - 2 <W, X^T T> + ||T||^2, given gw = X^T X W."""
    return tt + _stack_sums(w * (gw - 2.0 * rhs))


def _diagonal(m: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C-ordered square matrix, or of
    every matrix of a stack."""
    return m.reshape(m.shape[:-2] + (-1,))[..., :: m.shape[-1] + 1]


def _gram_step(gram, rhs, tt, row_weights, beta):
    """Solve (X^T X + beta A) W = X^T T, A = diag(a), in the primal form.

    2-D with a scalar beta, or stacked with an (s, 1) column of them.
    Returns (W, ||X W - T||^2, max-norm residual of the normal
    equations).  The fit term is `_gram_fit` with X^T X W taken from the
    system product the residual already needs, so nothing n-sized is
    formed.
    """
    scaled = beta * row_weights
    system = gram.copy()
    diag = _diagonal(system)
    diag += scaled
    w = solve_spd(system, rhs)
    sw = system @ w
    fit = _gram_fit(w, sw - scaled[..., None] * w, rhs, tt)
    return w, fit, np.abs(sw - rhs).max(axis=(-2, -1), initial=0.0)


def _dual_step(x, target, row_weights, beta):
    """`_gram_step` in the dual form, (X A^{-1} X^T + beta I) U = T,
    W = A^{-1} X^T U, for one X, a stack, or one X that every slice
    shares."""
    xt = x.swapaxes(-1, -2)
    a_inv = 1.0 / row_weights
    xs = x * np.sqrt(a_inv)[..., None, :]
    # X A^{-1} X^T as a product with its own transpose: numpy then
    # computes one triangle, so the system is exactly symmetric.
    system = xs @ xs.swapaxes(-1, -2)
    diag = _diagonal(system)
    diag += beta
    w = a_inv[..., None] * (xt @ solve_spd(system, target))
    err = x @ w - target
    r = xt @ err + (beta * row_weights)[..., None] * w
    return w, _stack_sums(err * err), np.abs(r).max(axis=(-2, -1), initial=0.0)


def solve_view_transform(
    x: np.ndarray, target: np.ndarray, row_weights: np.ndarray, beta: float
) -> np.ndarray:
    """Closed-form transform update: (X^T X + beta A)^{-1} X^T target.

    Solved in the primal form (d x d system) when X has at least as many
    rows as columns, else in the dual form (n x n system, A^{-1} X^T U);
    see the module docstring for the cost of each.  Row weights must be
    positive, one per column of X.
    """
    if x.shape[0] != target.shape[0]:
        raise DimensionMismatch(
            f"X has {x.shape[0]} rows, target has {target.shape[0]}"
        )
    a = np.asarray(row_weights, dtype=np.float64)
    if a.shape != (x.shape[1],) or not np.all(a > 0):
        raise InvalidSpec(f"need {x.shape[1]} positive row weights, got shape {a.shape}")
    if x.shape[1] > x.shape[0]:
        return _dual_step(x, target, a, beta)[0]
    return _gram_step(x.T @ x, x.T @ target, 0.0, a, beta)[0]  # the fit term is unused


def _fit_stats(x, target, beta, epsilon, max_inner, tol, w_init, gram=None):
    """The l2,1 IRLS kernel; returns (W, A, max normal-equation residual, X W).

    Each of at most max_inner (>= 1) iterations reweights with the
    current row norms and solves the reweighted normal equations,
    primal when d <= n and dual when d > n (module docstring).  Stops
    when the smoothed per-view value ||XW - T||^2 + beta sum_i
    sqrt(||w_i||^2 + eps^2) changes by less than tol relative; the
    primal form gets the fit term from the Gram identity, the dual from
    X W.  A is the reweighting of the last solve; X W is formed once,
    after the last iteration.

    gram is X^T X when the caller has it, else None: it is then formed
    here.

    Given lists, it fits a width group (`_fit_views`): several views of
    one width d <= n, or one view of any width, each with its X, (s, n, c)
    targets, beta, (s, d, c) initial transforms and X^T X (or None) in
    that argument's list, as one stack of all their slices.  A view's X
    is an (s, n, d) stack, one matrix per slice, or one (n, d) matrix
    that its slices share.  It returns lists of per-view stacked W and
    A and (s,) residuals, and an iterator that forms each view's X W as
    it is read.  Each slice is bit-identical to its own 2-D call.
    """
    if isinstance(x, list):
        return _fit_group(x, target, beta, epsilon, max_inner, tol, w_init, gram)
    return _fit_one(x, target, beta, epsilon, max_inner, tol, w_init, gram)


def _fit_one(x, target, beta, epsilon, max_inner, tol, w_init, gram=None):
    """`_fit_stats` on one 2-D problem."""
    if x.shape[1] > x.shape[0]:
        fit = _stack_sums((x @ w_init - target) ** 2)
        step = functools.partial(_dual_step, x, target)
    else:
        gram = x.T @ x if gram is None else gram
        rhs, tt = x.T @ target, _stack_sums(target * target)
        fit = _gram_fit(w_init, gram @ w_init, rhs, tt)
        step = functools.partial(_gram_step, gram, rhs, tt)
    w, norms = w_init, row_l2_norms(w_init)
    prev = fit + beta * _smoothed_l21_of(norms, epsilon)
    max_residual = 0.0
    for _ in range(max_inner):
        a = _row_weights_of(norms, epsilon)
        w, fit, res = step(a, beta)
        max_residual = max(max_residual, float(res))
        norms = row_l2_norms(w)
        value = fit + beta * _smoothed_l21_of(norms, epsilon)
        if abs(value - prev) / max(1.0, abs(prev)) < tol:
            break
        prev = value
    return w, a, max_residual, x @ w


def _stack_sums(m: np.ndarray) -> np.ndarray:
    """Sum of every trailing 2-D block of a C-ordered array, each added
    as one contiguous run: the order in which `.sum()` adds a 2-D array."""
    return m.reshape(m.shape[:-2] + (-1,)).sum(axis=-1)


def _layout(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The runs of a ragged stack: (rows, slots) for each run of slots
    of one row count, in slot order."""
    return [(r, len(list(run))) for r, run in itertools.groupby(rows)]


def _runs(m: np.ndarray, layout) -> list[np.ndarray]:
    """The (slots, rows, ...) stack of each run of a ragged stack m,
    which holds its slots' rows one slot after another; each is a
    C-ordered view of m, as the stack of that row count alone would be."""
    runs, start = [], 0
    for r, s in layout:
        runs.append(m[start : start + r * s].reshape(s, r, *m.shape[1:]))
        start += r * s
    return runs


def _slot_runs(m: np.ndarray, layout) -> list[np.ndarray]:
    """A per-slot stack (W, X^T X) cut at the runs of a layout."""
    runs, start = [], 0
    for _, s in layout:
        runs.append(m[start : start + s])
        start += s
    return runs


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """The parts as one array along their first axis; a lone part as is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _ragged(runs: list[np.ndarray]) -> np.ndarray:
    """The ragged stack of run stacks, the inverse of `_runs`."""
    return _join([m.reshape(-1, m.shape[-1]) for m in runs])


def _row_products(x: np.ndarray, w: np.ndarray, layout) -> np.ndarray:
    """X W of every slot of a ragged stack, one product per run."""
    return _ragged([p @ m for p, m in zip(_runs(x, layout), _slot_runs(w, layout))])


def _row_sums(m: np.ndarray, layout=None) -> np.ndarray:
    """`_stack_sums` of every slot of a stack or, given its layout, of a
    ragged stack, run by run: zero padding would move numpy's pairwise
    association, so each run is summed as its own (slots, rows, c) stack."""
    if layout is None:
        return _stack_sums(m)
    return _join([_stack_sums(p) for p in _runs(m, layout)])


def _stack_row_norms(w: np.ndarray) -> np.ndarray:
    """`row_l2_norms` of every (d, c) slice of a stack."""
    return np.sqrt(np.einsum("sij,sij->si", w, w))


def _stack_l21(norms: np.ndarray, epsilon: float) -> np.ndarray:
    """`_smoothed_l21_of` of every row of an (s, d) stack of row norms."""
    return np.sqrt(norms * norms + epsilon * epsilon).sum(axis=1)


def _fit_sums(xw: np.ndarray, zk: np.ndarray, layout=None) -> np.ndarray:
    """||X W - Z_k||^2 of every slice of a stack, or of a ragged stack
    given its layout, as `objective` sums it."""
    fit = xw - zk
    return _row_sums(fit * fit, layout)


def _stack_objective(
    labels, norms, fits, zk, z, beta, zeta, eta, epsilon, layout=None
) -> np.ndarray:
    """`objective` of every state in a stack, term by term in its order.

    Built from values already at hand: the W_k row norms and the
    `_fit_sums` of each view; zeta entries and eta are scalars or (s,)
    per-slice weights.  Given a layout, the row-space blocks are ragged
    stacks.
    """
    total = eta * _row_sums((z - labels) ** 2, layout)
    for k in range(len(fits)):
        total = total + fits[k]
        total = total + beta[k] * _stack_l21(norms[k], epsilon)
        gap = zk[k] - z
        total = total + zeta[k] * _row_sums(gap * gap, layout)
    return total


def _stops(value, prev, tol, last):
    """Which slices stop: those whose value changed by less than tol
    relative, and every slice on the last iteration."""
    stop = np.abs(value - prev) / np.maximum(1.0, np.abs(prev)) < tol
    if last:
        stop[:] = True
    return stop


def _freeze(stop, live, frozen, stacks):
    """Write the stopped slices of a stack out and drop them from it;
    callers skip it on iterations where no slice stops.

    live holds the original index of every running slice; frozen pairs
    outputs indexed by original slice (arrays, or lists of per-slice
    arrays) with the running stacks they take the stopped slices from;
    stacks lists the arrays, lists of arrays or Nones to shrink.
    Returns the new live indices (empty once every slice has stopped)
    and the shrunk stacks.  Stopped and kept slices are gathered by
    index, which costs less than a boolean mask per array."""
    gone, kept = stop.nonzero()[0], (~stop).nonzero()[0]
    done = live[gone]
    for out, cur in frozen:
        if isinstance(out, list):  # one array per slice, none a view of the stack
            for i, m in zip(done.tolist(), cur.take(gone, axis=0)):
                out[i] = m
        else:
            out[done] = cur.take(gone, axis=0)
    if not kept.size:
        return live[kept], stacks

    def shrink(m):
        return None if m is None else [shrink(v) for v in m] if isinstance(m, list) else m.take(kept, axis=0)

    return live[kept], [shrink(m) for m in stacks]


def _fit_group(xs, targets, betas, epsilon, max_inner, tol, w_inits, grams):
    """`_fit_stats` over a width group, as one stack of all its slices.

    Every iteration solves all unfinished slices in one `solve_spd`
    call, primal on the stacked X^T X, X^T T and ||T||^2, which are
    formed once per call, or dual on the group's one view.  A slice
    finishes at the iteration where its own 2-D call would stop; its W,
    A and residual are then frozen and later iterations run on the
    remaining slices only, so a slice never sees an iteration its 2-D
    call would not have made.  A shared 2-D X stays whole as slices
    finish.
    """
    sizes = [len(t) for t in targets]
    x, target = xs[0], targets[0]
    if sizes == [1]:  # the 2-D loop costs less per iteration than a stack of one
        gram = grams[0]
        if x.ndim == 3:
            x, gram = x[0], None if gram is None else gram[0]
        w, a, res, xw = _fit_one(
            x, target[0], betas[0], epsilon, max_inner, tol, w_inits[0][0], gram
        )
        return [w[None]], [a[None]], [np.array([res])], iter([xw[None]])
    beta = np.repeat(betas, sizes)
    w = np.concatenate(w_inits)
    if x.shape[-1] > x.shape[-2]:
        fit = _stack_sums((x @ w - target) ** 2)
        step = _dual_step if x.ndim == 3 else functools.partial(_dual_step, x)
        stacks = [x, target] if x.ndim == 3 else [target]
    else:
        d = x.shape[-1]
        gram = np.concatenate([
            np.broadcast_to(m.swapaxes(-1, -2) @ m if g is None else g, (len(t), d, d))
            for m, g, t in zip(xs, grams, targets)
        ])
        rhs = np.concatenate([m.swapaxes(-1, -2) @ t for m, t in zip(xs, targets)])
        tt = np.concatenate([_stack_sums(t * t) for t in targets])
        fit = _gram_fit(w, gram @ w, rhs, tt)
        step, stacks = _gram_step, [gram, rhs, tt]
    norms = _stack_row_norms(w)
    prev = fit + beta * _stack_l21(norms, epsilon)
    w_out, a_out, res_out = np.empty(w.shape), np.empty(norms.shape), np.empty(len(w))
    max_residual = np.zeros(len(w))
    live, column = np.arange(len(w)), beta[:, None]
    for it in range(max_inner):
        a = _row_weights_of(norms, epsilon)
        w, fit, res = step(*stacks, a, column)
        max_residual = np.where(res > max_residual, res, max_residual)
        norms = _stack_row_norms(w)
        value = fit + beta * _stack_l21(norms, epsilon)
        stop = _stops(value, prev, tol, it == max_inner - 1)
        if stop.any():
            live, (beta, norms, value, max_residual, *stacks) = _freeze(
                stop, live, [(w_out, w), (a_out, a), (res_out, max_residual)],
                [beta, norms, value, max_residual, *stacks],
            )
            if not live.size:
                break
            column = beta[:, None]
        prev = value
    bounds = np.cumsum(sizes)[:-1]
    ws = np.split(w_out, bounds)
    return ws, np.split(a_out, bounds), np.split(res_out, bounds), (m @ v for m, v in zip(xs, ws))


def _fit_views(views, grams, targets, w, hp: HyperParams, layout=None):
    """Fit every view's transform for one stack of slices (grid
    candidates, or clients): the views' fits are independent, so all
    primal views of one width go to one `_fit_stats` call, and each
    dual view to its own.

    views[k] is one (n, d_k) matrix or an (s, n, d_k) stack, grams[k]
    its `_grams` entry, targets[k] and w[k] the (s, n, c) targets and
    (s, d_k, c) warm starts.  Given a layout, the slots are a ragged
    stack: views[k] and targets[k] hold their rows one slot after
    another, grams[k] is (s, d_k, d_k) or None, and each run of one row
    count goes to the width group as its own part, so that X^T T,
    ||T||^2 and X W are formed per row count while the solves run once
    for the group.  Returns an iterator of (k, W_k, residual_k, X_k W_k)
    whose X W blocks, ragged if the views are, are formed one at a time,
    as it is read.
    """
    groups: dict[int, list[int]] = {}
    for k, (x, g) in enumerate(zip(views, grams)):
        groups.setdefault(-1 - k if g is None else x.shape[-1], []).append(k)
    if layout is None:
        parts = {k: [(views[k], targets[k], w[k], grams[k])] for k in range(len(views))}
    else:
        parts = {
            k: list(zip(
                _runs(views[k], layout), _runs(targets[k], layout), _slot_runs(w[k], layout),
                [None] * len(layout) if grams[k] is None else _slot_runs(grams[k], layout),
            ))
            for k in range(len(views))
        }
    fits = []
    for ks in groups.values():
        x, t, w0, g = (list(a) for a in zip(*(p for k in ks for p in parts[k])))
        betas = [hp.beta[k] for k in ks for _ in parts[k]]
        ws, _, res, xws = _fit_stats(x, t, betas, hp.epsilon, hp.max_inner, hp.tol, w0, g)
        fits.append(_view_fits(ks, [len(parts[k]) for k in ks], ws, res, xws, layout))
    return itertools.chain(*fits)


def _view_fits(ks, n_parts, ws, res, xws, layout):
    """(k, W_k, residual_k, X_k W_k) of each view of a width group, its
    parts joined back into one stack; X W is formed as it is read."""
    start = 0
    for k, n in zip(ks, n_parts):
        end = start + n
        xw = [next(xws) for _ in range(n)]
        yield k, _join(ws[start:end]), _join(res[start:end]), (
            xw[0] if layout is None else _ragged(xw)
        )
        del xw  # so that the next view's block is formed without this one
        start = end


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
    _check_irls_epsilon(epsilon)
    if max_inner < 1:
        raise InvalidSpec("max_inner must be >= 1")
    if x.ndim != 2 or target.ndim != 2 or x.shape[0] != target.shape[0]:
        raise DimensionMismatch(
            f"incompatible shapes X {x.shape}, target {target.shape}"
        )
    if w_init is None:
        w_init = np.zeros((x.shape[1], target.shape[1]))
    w, a, _, _ = _fit_stats(x, target, beta, epsilon, max_inner, tol, w_init)
    return w, a


def update_pseudo_labels(
    xw: np.ndarray, consensus: np.ndarray, zeta: float | np.ndarray
) -> np.ndarray:
    """Closed-form pseudo-label update: (XW + zeta Z) / (1 + zeta).

    zeta may be an (s, 1, 1) array, one weight per slice of a stack."""
    if xw.shape != consensus.shape:
        raise DimensionMismatch(f"shape {xw.shape} != {consensus.shape}")
    return (xw + zeta * consensus) / (1.0 + zeta)


def update_consensus(
    pseudo_labels: Sequence[np.ndarray],
    labels: np.ndarray,
    zeta: Sequence,
    eta: float | np.ndarray,
) -> np.ndarray:
    """Closed-form consensus update: (sum_k zeta_k Z_k + eta Y) / (sum zeta + eta).

    The weights may be (s, 1, 1) arrays, one weight per slice of stacked
    pseudo-label blocks; labels may be shared by every slice."""
    if len(pseudo_labels) != len(zeta):
        raise DimensionMismatch(
            f"{len(pseudo_labels)} pseudo-label blocks for {len(zeta)} zeta values"
        )
    acc = eta * labels
    denom = eta
    for z, zk in zip(zeta, pseudo_labels):
        if zk.shape[-2:] != labels.shape[-2:]:
            raise DimensionMismatch(f"shape {zk.shape} != {labels.shape}")
        acc = acc + z * zk
        denom = denom + z
    if np.any(denom <= 0.0):
        raise InvalidSpec("consensus undefined: sum(zeta) + eta must be > 0")
    return acc / denom


def test_consensus(pseudo_labels: Sequence[np.ndarray], zeta: Sequence) -> np.ndarray:
    """Test-time consensus: zeta-weighted mean of the per-view estimates.

    The weights may be (s, 1, 1) arrays, one weight per slice of stacked
    estimates."""
    if len(pseudo_labels) != len(zeta):
        raise DimensionMismatch(
            f"{len(pseudo_labels)} pseudo-label blocks for {len(zeta)} zeta values"
        )
    denom = sum(zeta)
    if np.any(denom <= 0.0):
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


def train_mvl(
    data: MultiViewDataset, hp: HyperParams, seed: int
) -> tuple[MvlState, TrainTrace]:
    """Block-coordinate training of the multi-view objective.

    Each outer iteration runs, per view, the IRLS transform fit followed
    by the pseudo-label update, then refreshes the consensus and records
    the smoothed objective.  Stops when the relative objective change
    drops below hp.tol or after hp.max_outer iterations.
    """
    return _train_stack(data, [hp], seed)[0]


def _train_stack(
    data: MultiViewDataset, hps: Sequence[HyperParams], seed: int
) -> list[tuple[MvlState, TrainTrace]]:
    """`train_mvl` for several hyperparameter sets at once, as one stack.

    The sets may differ in zeta and eta only, as the validation grid's
    candidates do, so they share X, its X^T X (formed once) and the
    seeded initial state.  Every outer iteration fits the views for all
    running sets with one `_fit_stats` call per width group
    (`_fit_views`), then updates pseudo-labels and consensus with each
    set's own weights.  Set i stops at the outer
    iteration where `train_mvl(data, hps[i], seed)` stops and is then
    frozen, so its state and trace are bit-identical to that call's.
    """
    hp, k = hps[0], data.n_views
    if hp.n_views != k:
        raise DimensionMismatch(f"hyperparams cover {hp.n_views} views, data has {k}")
    if any(dataclasses.replace(h, zeta=hp.zeta, eta=hp.eta) != hp for h in hps):
        raise InvalidSpec("stacked hyperparameter sets may differ in zeta and eta only")
    _check_irls_epsilon(hp.epsilon)
    s = len(hps)
    zeta = [np.array([h.zeta[i] for h in hps]) for i in range(k)]
    eta = np.array([h.eta for h in hps])
    init = init_state(data.dims, data.n_samples, data.n_classes, seed)
    w, zk = ([np.repeat(m[None], s, axis=0) for m in ms] for ms in (init.W, init.Zk))
    z = np.repeat(init.Z[None], s, axis=0)
    # The stopped slices go to per-slice outputs, so that the frozen
    # states and the running stack together hold one state per slice.
    w_out, zk_out = ([[m] * s for m in ms] for ms in (init.W, init.Zk))
    z_out = [init.Z] * s
    norms = [_stack_row_norms(m) for m in w]
    fits = [_fit_sums(x @ m, q) for x, m, q in zip(data.views, w, zk)]
    prev = _stack_objective(data.labels, norms, fits, zk, z, hp.beta, zeta, eta, hp.epsilon)
    traces = [TrainTrace() for _ in hps]
    live = np.arange(s)
    _trace_rows(traces, live, 0, prev, norms, np.zeros(s))
    grams = _grams(data.views)
    for t in range(1, hp.max_outer + 1):
        residual = np.zeros(len(live))
        for i, w_i, res, xw in _fit_views(data.views, grams, zk, w, hp):
            w[i] = w_i
            residual = np.where(res > residual, res, residual)
            zk[i] = update_pseudo_labels(xw, z, zeta[i][:, None, None])
            fits[i] = _fit_sums(xw, zk[i])
            del xw  # so that the next view's (s, n, c) block is formed without this one
        z = update_consensus(zk, data.labels, [m[:, None, None] for m in zeta], eta[:, None, None])
        norms = [_stack_row_norms(m) for m in w]
        value = _stack_objective(data.labels, norms, fits, zk, z, hp.beta, zeta, eta, hp.epsilon)
        _trace_rows(traces, live, t, value, norms, residual)
        stop = _stops(value, prev, hp.tol, t == hp.max_outer)
        if stop.any():
            live, (w, zk, z, zeta, eta, value) = _freeze(
                stop, live,
                [*zip(w_out, w), *zip(zk_out, zk), (z_out, z)],
                [w, zk, z, zeta, eta, value],
            )
            if not live.size:
                break
        prev = value
    return [
        (MvlState(W=[m[i] for m in w_out], Zk=[m[i] for m in zk_out], Z=z_out[i]), traces[i])
        for i in range(s)
    ]


def _trace_rows(traces, live, iteration, value, norms, residual) -> None:
    """Append one row to the trace of every running slice."""
    lows = zip(*[m.min(axis=1).tolist() for m in norms])
    highs = zip(*[m.max(axis=1).tolist() for m in norms])
    rows = map(TraceRow, itertools.repeat(iteration), value.tolist(), lows, highs, residual.tolist())
    for i, row in zip(live.tolist(), rows):
        traces[i].rows.append(row)


def test_objective(
    xw: Sequence[np.ndarray],
    pseudo_labels: Sequence[np.ndarray],
    consensus: np.ndarray,
    zeta: Sequence[float],
) -> float:
    """Test-phase objective: fit of each view plus consensus disagreement."""
    return float(_test_objectives(xw, pseudo_labels, consensus, zeta))


def _test_objectives(xw, pseudo_labels, consensus, zeta) -> np.ndarray:
    """`test_objective` of every slice of a stack, term by term in its
    order; zeta entries are scalars or (s,) per-slice weights."""
    total = 0.0
    for k in range(len(xw)):
        fit = xw[k] - pseudo_labels[k]
        gap = pseudo_labels[k] - consensus
        total = total + (_stack_sums(fit * fit) + zeta[k] * _stack_sums(gap * gap))
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
    relative change falls below tol (or max_outer rounds).  It is the
    stacked predictor `_predict_stack` on a stack of one transform set.
    """
    if len(test_views) != len(transforms) or len(test_views) != len(zeta):
        raise DimensionMismatch(
            f"{len(test_views)} views, {len(transforms)} transforms, "
            f"{len(zeta)} zeta values"
        )
    for k, (x, w) in enumerate(zip(test_views, transforms)):
        if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
            raise DimensionMismatch(
                f"view {k}: X shape {x.shape} incompatible with W shape {w.shape}"
            )
    return _predict_stack(
        test_views, [w[None] for w in transforms],
        [np.array([z], dtype=np.float64) for z in zeta], tol, max_outer,
    )[0]


def _predict_stack(test_views, transforms, zeta, tol, max_outer) -> np.ndarray:
    """`predict_mvl` of every transform set of a stack, as one stack.

    transforms[k] is the (s, d_k, c) stack of view k's transforms and
    zeta[k] its (s,) per-slice weights; the (n, d_k) test views are
    shared.  Slice i stops at the round where `predict_mvl` with its
    own transforms and weights stops, and is then frozen, so each
    (n, c) slice of the result is bit-identical to that call's.
    """
    xw = [x @ w for x, w in zip(test_views, transforms)]
    zeta = [z[:, None, None] for z in zeta]
    # Every slice's answer when max_outer is 0; otherwise each slice is
    # overwritten at the round where it stops.
    out = test_consensus(xw, zeta)
    estimates, prev, live = xw, np.full(len(out), np.inf), np.arange(len(out))
    for it in range(max_outer):
        consensus = test_consensus(estimates, zeta)
        estimates = [update_pseudo_labels(m, consensus, z) for m, z in zip(xw, zeta)]
        value = _test_objectives(xw, estimates, consensus, [z[:, 0, 0] for z in zeta])
        with np.errstate(invalid="ignore"):  # the first round's inf / inf: NaN, no stop
            stop = _stops(value, prev, tol, it == max_outer - 1)
        if stop.any():
            live, (xw, estimates, zeta, value) = _freeze(
                stop, live, [(out, consensus)], [xw, estimates, zeta, value]
            )
            if not live.size:
                break
        prev = value
    return out


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
