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
one call; a dual view goes alone.  A lone view (a vertical client's,
`fit_view_transform`'s) is fitted as a stack of one, so there is one
IRLS loop, and each slice of a stack is bit-identical to its own fit
as a stack of one.  Clients of different row counts form a ragged
stack (`_runs`): their rows one client after another, cut into runs of
one row count.  Zero padding would change BLAS products
and numpy's pairwise sums, so every product and sum over rows runs once
per run, on the (slots, rows, ...) stack that row count alone would
form, while everything in d-space runs once for the whole stack.

There is one block-coordinate loop too, `_passes`: one kernel call per
width group and pass for a stack of states, each with its own zeta and
eta, frozen at the pass where it would stop alone.  `train_mvl` runs
it on a stack of one, the grid on its candidates over one X, and hfed
on a ragged block of clients.  Prediction is stacked the same way:
`predict_mvl` is `_predict_stack` on a stack of one, and the grid
scores all its candidates' transforms on the validation rows at once.
Its loop, `_predict_scores`, takes the X_k W_k products as given, so
vfed's prediction server runs it on the products its clients send.

Each inner iteration solves the reweighted normal equations
(X^T X + beta A) W = X^T T, A = diag(a), in one of two forms chosen by
the shape of X (n rows, d columns) alone:

* primal, d <= n: X^T T and ||T||^2 are formed once per fit, and X^T X
  once per lone fit or `_passes` call (a training with its grid, or an
  hfed block's round), O(n d^2); each iteration works on d-sized arrays
  only: it adds beta a to the diagonal and factors the d x d system,
  O(d^3), and takes the fit term from the Gram identity
  ||X W - T||^2 = <W, X^T X W> - 2 <W, X^T T> + ||T||^2, O(d^2 c).
  X W is formed once, after the last iteration;
* dual, d > n: (X A^{-1} X^T + beta I) U = T, W = A^{-1} X^T U, with
  A^{-1} = diag(2 (||w_i|| + epsilon)); forming and factoring the n x n
  system costs O(n^2 d + n^3) per iteration and nothing is d x d
  (Nie et al., "Efficient and Robust Feature Selection via Joint
  l2,1-Norms Minimization", NeurIPS 2010).
  `_dual` states that choice once, for the kernel and hfed's blocks.

The input rules that several entry points share each have one function
here, which every such entry point calls: `_check_cap` (counts, seeds),
`_check_view_indices` (a non-empty selection of existing views, for both
dataset types), `_class_indices` (integer labels in [0, classes), for
`MultiViewDataset` and `data.SequenceDataset`, which `sfed.loss_and_grad`
builds from its batch; labels >= 0 for `experiments.export_embeddings`),
`_check_hp_views` (hyperparameters for the data's views, for every
trainer), `_check_zeta` (every zeta finite and >= 0, for `HyperParams`,
the prediction inputs and a saved model's `ModelBundle`),
`_check_prediction` (for `predict_mvl` and `vfed_predict`) and
`_check_block_count` (one zeta per pseudo-label block).
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
    "objective",
    "predict_mvl",
    "test_consensus",
    "train_mvl",
    "train_single_view",
    "update_consensus",
    "update_pseudo_labels",
]


def _check_cap(name: str, value, low: int = 0, error: type[Exception] = InvalidSpec) -> None:
    """Reject a count (an iteration or round cap, a size, a seed) that is
    not an integer >= low, a bool included, with `error`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def _as_float_tuple(values: float | Iterable[float], k: int, name: str) -> tuple[float, ...]:
    if isinstance(values, (int, float)):
        return (float(values),) * k
    out = tuple(float(v) for v in values)
    if len(out) != k:
        raise InvalidSpec(f"{name} must have {k} entries, got {len(out)}")
    return out


# The horizontal trainer's default caps on server rounds and on each
# client's local passes a round; `hfed` and the run configuration share them.
DEFAULT_ROUNDS = 20
DEFAULT_MAX_LOCAL = 30


@dataclass(frozen=True)
class HyperParams:
    """Weights and loop controls for the multi-view objective.

    beta/zeta hold one entry per view.  Every weight is finite, beta > 0
    and zeta, eta >= 0; tol lies in (0, 1); epsilon is finite and > 0,
    since IRLS divides by ||w_i|| + epsilon and a zero row would
    otherwise get an infinite weight.  Iteration caps are integers and
    may be zero (the corresponding loop is skipped); the IRLS cap must
    be at least 1.
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
        if not all(0 < b < np.inf for b in self.beta):
            raise InvalidSpec(f"beta must be finite and > 0, got {self.beta}")
        _check_zeta(self.zeta)
        if not 0 <= self.eta < np.inf:
            raise InvalidSpec(f"eta must be finite and >= 0, got {self.eta!r}")
        if not 0 < self.epsilon < np.inf:
            raise InvalidSpec(
                f"epsilon must be finite; IRLS needs epsilon > 0, got {self.epsilon!r}"
            )
        if not 0.0 < self.tol < 1.0:
            raise InvalidSpec(f"tol must lie in (0, 1), got {self.tol!r}")
        _check_cap("max_outer", self.max_outer)
        _check_cap("max_inner", self.max_inner, low=1)

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


def _check_view_indices(view_indices, n_views: int) -> None:
    """Reject an empty selection or an index that is not an integer in [0, n_views)."""
    if len(view_indices) == 0:
        raise DimensionMismatch("view selection must keep at least one view")
    for k in view_indices:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < n_views:
            raise DimensionMismatch(f"view index {k!r} is not one of the {n_views} views")


def _check_hp_views(hp: HyperParams, k: int) -> None:
    """Reject hyperparameters that do not cover exactly the data's k views."""
    if hp.n_views != k:
        raise DimensionMismatch(f"hyperparams cover {hp.n_views} views, data has {k}")


def _check_zeta(zeta) -> None:
    """Reject a zeta entry that is not finite and >= 0."""
    if not all(0 <= z < np.inf for z in zeta):
        raise InvalidSpec(f"zeta must be finite and >= 0, got {zeta!r}")


def _check_prediction(test_views, transforms, zeta, tol) -> None:
    """The prediction entry points' inputs: an (n, d_k) X_k, a (d_k, c)
    W_k and a zeta_k per view, every zeta finite and >= 0, as in
    `HyperParams`, and tol in [0, 1), where 0 runs every round."""
    if len(test_views) != len(transforms) or len(test_views) != len(zeta):
        raise DimensionMismatch(
            f"{len(test_views)} views, {len(transforms)} transforms, "
            f"{len(zeta)} zeta values"
        )
    _check_zeta(zeta)
    if not 0 <= tol < 1:
        raise InvalidSpec(f"tol must lie in [0, 1), got {tol!r}")
    for k, (x, w) in enumerate(zip(test_views, transforms)):
        if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
            raise DimensionMismatch(
                f"view {k}: X shape {x.shape} incompatible with W shape {w.shape}"
            )


def _int64_or_minus_one(label) -> int:
    try:
        return np.int64(label)
    except (OverflowError, TypeError, ValueError):
        return -1


def _class_indices(y, n_classes: int | None = None) -> tuple[np.ndarray, int]:
    """y as int64 class indices, and the class count: n_classes, else the
    largest index plus one.  InvalidSpec names the first sample whose
    label is not an integer in [0, n_classes), or >= 0 when no count is
    given; a label with no int64 value (too large, a string, None) too."""
    y = np.asarray(y)
    try:
        with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
            index = y.astype(np.int64, copy=False)
    except (OverflowError, TypeError, ValueError):  # such a label becomes -1, caught below
        index = np.array([_int64_or_minus_one(v) for v in y.ravel().tolist()], dtype=np.int64)
    c = int(n_classes) if n_classes is not None else int(index.max(initial=-1)) + 1
    bad = (index != y) | (index < 0) | (index >= c)
    if bad.any():
        i = int(bad.argmax())
        rule = f"in [0, {c})" if n_classes is not None else ">= 0"
        raise InvalidSpec(
            f"label of sample {i} must be an integer {rule}, got {y.ravel().tolist()[i]!r}"
        )
    return index, c


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
        return MultiViewDataset(views=[v[idx] for v in self.views], labels=self.labels[idx])

    def select_views(self, view_indices: Sequence[int]) -> "MultiViewDataset":
        """Dataset restricted to a subset of views (shared arrays)."""
        _check_view_indices(view_indices, self.n_views)
        return MultiViewDataset(
            views=[self.views[k] for k in view_indices], labels=self.labels
        )

    @classmethod
    def from_class_indices(
        cls, views: list[np.ndarray], y: np.ndarray, n_classes: int | None = None
    ) -> "MultiViewDataset":
        """One-hot labels from class indices (`_class_indices`)."""
        index, c = _class_indices(y, n_classes)
        labels = np.zeros((index.shape[0], c))
        labels[np.arange(index.shape[0]), index] = 1.0
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
    _check_hp_views(hp, k)
    _check_state_shapes(data, state, k)
    zk = [m[None] for m in state.Zk]
    value = _stack_objective(
        data.labels, [row_l2_norms(w)[None] for w in state.W],
        [_fit_sums((x @ w)[None], m) for x, w, m in zip(data.views, state.W, zk)],
        zk, state.Z[None], hp.beta, hp.zeta, hp.eta, hp.epsilon,
    )
    return float(value[0])


def _row_weights_of(norms: np.ndarray, epsilon: float) -> np.ndarray:
    """Diagonal IRLS reweighting, given the row norms: entry i =
    1 / (2 (||row_i|| + epsilon)), formed as 0.5 / (||row_i|| + epsilon):
    both round the same real number once, so the bits agree wherever
    2 (||row_i|| + epsilon) is finite."""
    return 0.5 / (norms + epsilon)


def _dual(d: int, n: int) -> bool:
    """Whether a view d wide over n rows is fitted in the dual form."""
    return d > n


def _grams(views: Sequence[np.ndarray], layout=None) -> list[np.ndarray | None]:
    """X^T X of every view, one matrix or one per slice of a stack or,
    given its layout, one per slot of a ragged stack, formed once per
    run (`_runs`); None for a view wider than its rows, which the dual
    form fits without it."""
    if layout is None:
        return [None if _dual(x.shape[-1], x.shape[-2]) else x.swapaxes(-1, -2) @ x for x in views]
    runs = [_grams(_runs(x, layout)) for x in views]
    return [None if g[0] is None else _join(g) for g in runs]


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

    One (n, d) X with an (n, c) target, a scalar beta, a (d, c) initial
    transform and X^T X (or None: it is then formed here) is fitted as
    a stack of one.  Given lists, it fits a width group (`_fit_views`):
    several views of one width d <= n, or one view of any width, each
    with its X, (s, n, c) targets, beta, (s, d, c) initial transforms
    and X^T X (or None) in that argument's list, as one stack of all
    their slices.  A view's X is an (s, n, d) stack, one matrix per
    slice, or one (n, d) matrix that its slices share.  It returns the
    group's W, A and residual stacks over all its slices, uncut, in
    input order: the first view's slices, then the next view's.
    """
    if isinstance(x, list):
        return _fit_group(x, target, beta, epsilon, max_inner, tol, w_init, gram)
    w, a, res = _fit_group(
        [x], [target[None]], [beta], epsilon, max_inner, tol, [w_init[None]], [gram]
    )
    return w[0], a[0], float(res[0]), x @ w[0]


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


def _row_products(x: np.ndarray, w: np.ndarray, layout=None) -> np.ndarray:
    """X W of every slice of a stack over one shared X or, given its
    layout, of every slot of a ragged stack, one product per run."""
    if layout is None:
        return x @ w
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
    """The smoothed l2,1 penalty sum_i sqrt(||w_i||^2 + epsilon^2) of
    every slice, given the (s, d) stack of its row norms."""
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
    """The mask of the slices that stop, or None if none does: those
    whose value changed by less than tol relative, and every slice on
    the last iteration."""
    if last:
        return np.ones(len(value), dtype=bool)
    stop = np.abs(value - prev) / np.maximum(1.0, np.abs(prev)) < tol
    return stop if np.count_nonzero(stop) else None


def _freeze(stop, live, frozen, stacks):
    """Set the stopped slices of a stack aside and drop them from it;
    callers skip it on iterations where no slice stops.

    live holds the original index of every running slice; the stopped
    slices of the arrays of frozen, a (pieces, arrays) pair, go to the
    list pieces with their original indices, for `_thawed`; stacks lists
    the arrays, lists of arrays or Nones to shrink.  Returns the new live
    indices (empty once every slice has stopped) and the shrunk stacks,
    gathered by index, which costs less than a boolean mask per array."""
    gone, kept = stop.nonzero()[0], (~stop).nonzero()[0]
    pieces, arrays = frozen
    pieces.append((live[gone], [m.take(gone, axis=0) for m in arrays]))
    if not kept.size:
        return live[kept], stacks

    def shrink(m):
        return None if m is None else [shrink(v) for v in m] if isinstance(m, list) else m.take(kept, axis=0)

    return live[kept], [shrink(m) for m in stacks]


def _thawed(pieces):
    """Stacks put together in original slice order from the (original
    indices, [stopped slices of each stack]) that each freeze set aside,
    freeing those as it goes."""
    n = sum(len(idx) for idx, _ in pieces)
    stacks = []
    for j, first in enumerate(pieces[0][1]):
        out = np.empty((n, *first.shape[1:]))
        for idx, parts in pieces:
            out[idx], parts[j] = parts[j], None
        stacks.append(out)
    return stacks


def _fit_group(xs, targets, betas, epsilon, max_inner, tol, w_inits, grams):
    """`_fit_stats` over a width group, as one stack of all its slices.

    Every iteration solves all unfinished slices in one `solve_spd`
    call, primal on the stacked X^T X, X^T T and ||T||^2, which are
    formed once per call, or dual on the group's one view.  A slice
    finishes at the iteration where it would stop if fitted alone; its
    W, A and residual are then frozen and later iterations run on the
    remaining slices only, so a slice never sees an iteration its own
    fit would not have made, and each slice is bit-identical to its
    stack of one.  A shared 2-D X stays whole as slices finish.  When
    every slice stops at one iteration, as a stack of one always does,
    the running stacks are the outputs; otherwise the frozen slices are
    put together at the end (`_thawed`).
    """
    sizes = [len(t) for t in targets]
    x = xs[0]
    beta = np.array(betas).repeat(sizes)
    w = _join(w_inits)
    if _dual(x.shape[-1], x.shape[-2]):
        target = targets[0]
        fit = _stack_sums((x @ w - target) ** 2)
        step = _dual_step if x.ndim == 3 else functools.partial(_dual_step, x)
        stacks = [x, target] if x.ndim == 3 else [target]
    else:
        gram = _join([
            _stacked_gram(m.swapaxes(-1, -2) @ m if g is None else g, len(t))
            for m, g, t in zip(xs, grams, targets)
        ])
        rhs = _join([m.swapaxes(-1, -2) @ t for m, t in zip(xs, targets)])
        tt = _join([_stack_sums(t * t) for t in targets])
        fit = _gram_fit(w, gram @ w, rhs, tt)
        step, stacks = _gram_step, [gram, rhs, tt]
    norms = _stack_row_norms(w)
    prev = fit + beta * _stack_l21(norms, epsilon)
    s = len(w)
    max_residual, column = np.zeros(s), beta[:, None]
    live = None  # the running slices, tracked from the first freeze that keeps some
    for it in range(max_inner):
        a = _row_weights_of(norms, epsilon)
        w, fit, res = step(*stacks, a, column)
        max_residual = np.fmax(max_residual, res)
        norms = _stack_row_norms(w)
        value = fit + beta * _stack_l21(norms, epsilon)
        stop = _stops(value, prev, tol, it == max_inner - 1)
        if stop is not None:
            if live is None:
                if np.count_nonzero(stop) == s:
                    break
                live, frozen = np.arange(s), []
            live, (beta, norms, value, max_residual, *stacks) = _freeze(
                stop, live, (frozen, [w, a, max_residual]),
                [beta, norms, value, max_residual, *stacks],
            )
            if not live.size:
                break
            column = beta[:, None]
        prev = value
    if live is not None:
        w, a, max_residual = _thawed(frozen)
    return w, a, max_residual


def _stacked_gram(gram: np.ndarray, s: int) -> np.ndarray:
    """An (s, d, d) stack of X^T X: as is, or s copies of one shared
    (d, d) matrix."""
    return gram if gram.ndim == 3 else gram[None].repeat(s, axis=0)


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
    count goes to the width group as its own part, so that X^T T and
    ||T||^2 are formed per row count while the solves run once for the
    group.  Returns an iterator of (k, W_k, residual_k, X_k W_k), view
    by view: W_k and residual_k are view k's rows of its group's stacks,
    and X_k W_k (`_row_products`, ragged if the views are) is formed as
    it is read.
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
    s, fits = len(w[0]), []
    for ks in groups.values():
        x, t, w0, g = (list(a) for a in zip(*(p for k in ks for p in parts[k])))
        betas = [hp.beta[k] for k in ks for _ in parts[k]]
        ws, _, res = _fit_stats(x, t, betas, hp.epsilon, hp.max_inner, hp.tol, w0, g)
        fits += [(k, ws[j * s : (j + 1) * s], res[j * s : (j + 1) * s]) for j, k in enumerate(ks)]
    # Holds no target, so that a caller that replaces one frees it.
    return ((k, w_k, r, _row_products(views[k], w_k, layout)) for k, w_k, r in fits)


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
    Returns the transform and the final reweighting diagonal.  X and the
    target are fitted as float64; beta, epsilon, tol and max_inner must
    meet `HyperParams`' rules (InvalidSpec), and a given w_init must be
    (d, c) (DimensionMismatch).
    """
    HyperParams((beta,), (0.0,), 0.0, epsilon, tol, max_inner=max_inner)
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if x.ndim != 2 or target.ndim != 2 or x.shape[0] != target.shape[0]:
        raise DimensionMismatch(
            f"incompatible shapes X {x.shape}, target {target.shape}"
        )
    shape = (x.shape[1], target.shape[1])
    w_init = np.zeros(shape) if w_init is None else np.asarray(w_init, dtype=np.float64)
    if w_init.shape != shape:
        raise DimensionMismatch(f"w_init shape {w_init.shape} != {shape}")
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


def _check_block_count(pseudo_labels, zeta) -> None:
    """Reject a zeta count that differs from the pseudo-label block count."""
    if len(pseudo_labels) != len(zeta):
        raise DimensionMismatch(
            f"{len(pseudo_labels)} pseudo-label blocks for {len(zeta)} zeta values"
        )


def update_consensus(
    pseudo_labels: Sequence[np.ndarray],
    labels: np.ndarray,
    zeta: Sequence,
    eta: float | np.ndarray,
) -> np.ndarray:
    """Closed-form consensus update: (sum_k zeta_k Z_k + eta Y) / (sum zeta + eta).

    The weights may be (s, 1, 1) arrays, one weight per slice of stacked
    pseudo-label blocks; labels may be shared by every slice."""
    _check_block_count(pseudo_labels, zeta)
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
    _check_block_count(pseudo_labels, zeta)
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
    (state,), reports = _train_stack(data, [hp], seed)
    return state, _trace(reports, 0)


def _trace(reports, i: int) -> TrainTrace:
    """Slice i's `TrainTrace` from `_passes`' per-pass reports: one row
    per pass that slice ran, the start included."""
    trace = TrainTrace()
    for t, (live, value, norms, residual) in enumerate(reports):
        if i not in live:  # stopped: a slice never runs again
            break
        at = live.tolist().index(i)
        trace.rows.append(TraceRow(
            t, value[at].item(), tuple(m[at].min().item() for m in norms),
            tuple(m[at].max().item() for m in norms), residual[at].item(),
        ))
    return trace


def _train_stack(
    data: MultiViewDataset, hps: Sequence[HyperParams], seed: int
) -> tuple[list[MvlState], list]:
    """`train_mvl` for several hyperparameter sets at once, as one stack.

    The sets may differ in zeta and eta only, as the validation grid's
    candidates do, so they share X, its X^T X and the seeded initial
    state; `_passes` runs them, the fit first in every pass.  Returns
    each set's state, bit-identical to `train_mvl(data, hps[i], seed)`'s,
    and `_passes`' per-pass reports, from which `_trace` makes set i's
    trace.
    """
    hp, k = hps[0], data.n_views
    _check_hp_views(hp, k)
    if any(dataclasses.replace(h, zeta=hp.zeta, eta=hp.eta) != hp for h in hps):
        raise InvalidSpec("stacked hyperparameter sets may differ in zeta and eta only")
    s = len(hps)
    init = init_state(data.dims, data.n_samples, data.n_classes, seed)
    # No name here holds the initial stacks, so the passes free each one they replace.
    w, zk, z, passes = _passes(
        data.views, data.labels,
        [np.repeat(m[None], s, axis=0) for m in init.W],
        [np.repeat(m[None], s, axis=0) for m in init.Zk], np.repeat(init.Z[None], s, axis=0),
        [np.array([h.zeta[i] for h in hps]) for i in range(k)], np.array([h.eta for h in hps]),
        hp, hp.max_outer, fit_first=True,
    )
    states = [MvlState(W=[m[i] for m in w], Zk=[m[i] for m in zk], Z=z[i]) for i in range(s)]
    return states, passes


def _passes(views, labels, w, zk, z, zeta, eta, hp, max_passes, fit_first, layout=None):
    """Block-coordinate passes over a stack of multi-view states: the
    loop of `train_mvl` (grid candidates) and of hfed (a client block).

    A pass fits the views (`_fit_views`, warm-started at w, the
    pseudo-labels as targets) and updates the pseudo-labels, then the
    consensus; fit_first puts the fit first (`train_mvl`), else last
    (hfed).  Slice i, weighted by zeta[k][i], eta[i] and hp, stops when
    its objective changes by less than hp.tol relative, or after
    max_passes, and is frozen: it makes exactly the passes it would
    make alone.  The views' X^T X are formed once per call (`_grams`).
    With no layout, zk and z are (s, n, c) stacks over shared views and
    labels, never shrunk; given a layout, the slots are a ragged stack
    (`_fit_views`), and a stopped slot's rows and X^T X go with it.
    Returns (w, zk, z), the running stacks if every slice stops at one
    pass, and one report per pass, the start included: the running
    slices' original indices, objective values, W row norms and maximum
    solve residuals.
    """
    s, grams = len(w[0]), _grams(views, layout)
    rows = None if layout is None else np.array([r for r, n in layout for _ in range(n)])

    def in_rows(q):
        """Per-slice weights as factors of a row-space block."""
        if layout is None:
            return q[:, None, None]
        return np.repeat(q, rows * labels.shape[1]).reshape(labels.shape)

    w, zk = list(w), list(zk)
    products = (_row_products(x, m, layout) for x, m in zip(views, w))
    # With the fit first, each pass's fit forms X W afresh, so these go one at a time.
    xw = None if fit_first else list(products)
    fits = [_fit_sums(a, b, layout) for a, b in zip(xw or products, zk)]
    norms = [_stack_row_norms(m) for m in w]
    prev = _stack_objective(labels, norms, fits, zk, z, hp.beta, zeta, eta, hp.epsilon, layout)
    live = np.arange(s)
    live_rows = live if layout is None else np.arange(len(labels))
    reports = [(live, prev, norms, np.zeros(s))]
    zeta_rows, eta_rows = [in_rows(q) for q in zeta], in_rows(eta)
    frozen = None  # set aside from the first freeze that keeps slices running
    for t in range(1, max_passes + 1):
        if not fit_first:
            zk = [update_pseudo_labels(m, z, q) for m, q in zip(xw, zeta_rows)]
            z = update_consensus(zk, labels, zeta_rows, eta_rows)
        residual = np.zeros(len(live))
        for k, w_k, res, xw_k in _fit_views(views, grams, zk, w, hp, layout):
            w[k] = w_k
            residual = np.where(res > residual, res, residual)
            if fit_first:
                zk[k] = update_pseudo_labels(xw_k, z, zeta_rows[k])
            else:
                xw[k] = xw_k
            fits[k] = _fit_sums(xw_k, zk[k], layout)
            del xw_k  # so that the next view's block is formed without this one
        if fit_first:
            z = update_consensus(zk, labels, zeta_rows, eta_rows)
        norms = [_stack_row_norms(m) for m in w]
        value = _stack_objective(labels, norms, fits, zk, z, hp.beta, zeta, eta, hp.epsilon, layout)
        reports.append((live, value, norms, residual))
        stop = _stops(value, prev, hp.tol, t == max_passes)
        if stop is not None:
            if frozen is None:
                if np.count_nonzero(stop) == s:
                    break
                frozen = [], []
            slot_data, row_data = ([], []) if layout is None else ([grams, rows], [labels, views])
            live, (w, value, zeta, eta, *slot_data) = _freeze(
                stop, live, (frozen[0], w), [w, value, zeta, eta, *slot_data]
            )
            live_rows, (zk, z, xw, *row_data) = _freeze(
                stop if layout is None else np.repeat(stop, rows), live_rows,
                (frozen[1], [*zk, z]), [zk, z, xw, *row_data],
            )
            if not live.size:
                break
            if layout is not None:
                (grams, rows), (labels, views) = slot_data, row_data
                layout = _layout(rows.tolist())
            zeta_rows, eta_rows = [in_rows(q) for q in zeta], in_rows(eta)
        prev = value
    if frozen is not None:
        w, (*zk, z) = map(_thawed, frozen)
    return w, zk, z, reports


def _test_objectives(xw, pseudo_labels, consensus, zeta) -> np.ndarray:
    """The test-phase objective of every slice of a stack, each view's
    fit plus its consensus disagreement, term by term in its order; zeta
    entries are scalars or (s,) per-slice weights."""
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
    `_check_prediction` checks the inputs before any round.
    """
    _check_cap("max_outer", max_outer)
    _check_prediction(test_views, transforms, zeta, tol)
    return _predict_stack(
        test_views, [w[None] for w in transforms],
        [np.array([z], dtype=np.float64) for z in zeta], tol, max_outer,
    )[0]


def _predict_stack(test_views, transforms, zeta, tol, max_outer) -> np.ndarray:
    """`predict_mvl` of every transform set of a stack, as one stack.

    transforms[k] is the (s, d_k, c) stack of view k's transforms and
    zeta[k] its (s,) per-slice weights; the (n, d_k) test views are
    shared.  It is `_predict_scores` on the X_k W_k products.
    """
    return _predict_scores(
        [x @ w for x, w in zip(test_views, transforms)], zeta, tol, max_outer
    )


def _predict_scores(xw, zeta, tol, max_outer) -> np.ndarray:
    """The prediction loop on given scores: xw[k] is the (s, n, c)
    stack of view k's X_k W_k and zeta[k] its (s,) per-slice weights.

    Slice i stops at the round where `predict_mvl` with its own
    transforms and weights stops, and is then frozen, so each (n, c)
    slice of the result is bit-identical to that call's.  vfed's
    prediction server runs it on the scores its clients send.
    """
    zeta = [z[:, None, None] for z in zeta]
    s = len(xw[0])
    estimates, prev, live, frozen = xw, np.full(s, np.inf), np.arange(s), []
    for it in range(max_outer):
        consensus = test_consensus(estimates, zeta)
        estimates = [update_pseudo_labels(m, consensus, z) for m, z in zip(xw, zeta)]
        value = _test_objectives(xw, estimates, consensus, [z[:, 0, 0] for z in zeta])
        with np.errstate(invalid="ignore"):  # the first round's inf / inf: NaN, no stop
            stop = _stops(value, prev, tol, it == max_outer - 1)
        if stop is not None:
            live, (xw, estimates, zeta, value) = _freeze(
                stop, live, (frozen, [consensus]), [xw, estimates, zeta, value]
            )
            if not live.size:
                break
        prev = value
    return _thawed(frozen)[0] if frozen else test_consensus(xw, zeta)


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
