import dataclasses
import math

import numpy as np
import pytest

import mvfed.mvl
from mvfed.errors import DimensionMismatch, InvalidSpec
from mvfed.mvl import test_consensus as consensus_mean
from mvfed.mvl import (
    HyperParams,
    MultiViewDataset,
    MvlState,
    TraceRow,
    argmax_decode,
    fit_view_transform,
    init_state,
    irls_row_weights,
    objective,
    predict_mvl,
    smoothed_l21,
    solve_view_transform,
    train_mvl,
    train_single_view,
    update_consensus,
    update_pseudo_labels,
)
from mvfed.numerics import row_l2_norms, solve_spd
from suite_utils import blob_dataset, random_instance, record_calls


def one_hot(y, c):
    y = np.asarray(y)
    out = np.zeros((len(y), c))
    out[np.arange(len(y)), y] = 1.0
    return out


class TestTypes:
    def test_dataset_rejects_non_one_hot(self):
        with pytest.raises(DimensionMismatch):
            MultiViewDataset(views=[np.ones((2, 3))], labels=np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            MultiViewDataset(views=[np.ones((2, 3))], labels=np.array([[0.5, 0.5], [0.0, 1.0]]))

    def test_dataset_rejects_ragged_views(self):
        with pytest.raises(DimensionMismatch):
            MultiViewDataset(
                views=[np.ones((2, 3)), np.ones((3, 3))], labels=one_hot([0, 1], 2)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dataset_rejects_non_finite_features(self, bad):
        views = [np.ones((2, 3)), np.ones((2, 2))]
        views[1][1, 0] = bad
        with pytest.raises(InvalidSpec, match="view 1"):
            MultiViewDataset(views=views, labels=one_hot([0, 1], 2))

    def test_dataset_helpers(self):
        data = MultiViewDataset(
            views=[np.arange(8.0).reshape(4, 2), np.ones((4, 3))],
            labels=one_hot([0, 1, 1, 0], 2),
        )
        assert data.n_samples == 4 and data.n_views == 2 and data.n_classes == 2
        assert data.dims == (2, 3)
        sub = data.subset(np.array([1, 3]))
        assert sub.n_samples == 2
        assert np.array_equal(sub.views[0], data.views[0][[1, 3]])
        only = data.select_views([1])
        assert only.n_views == 1 and only.dims == (3,)

    def test_hyperparams_validation(self):
        with pytest.raises(InvalidSpec):
            HyperParams(beta=(0.0,), zeta=(1.0,), eta=1.0)
        with pytest.raises(InvalidSpec):
            HyperParams(beta=(1.0,), zeta=(-1.0,), eta=1.0)
        with pytest.raises(InvalidSpec):
            HyperParams(beta=(1.0, 1.0), zeta=(1.0,), eta=1.0)
        with pytest.raises(InvalidSpec):
            HyperParams(beta=(1.0,), zeta=(1.0,), eta=1.0, tol=0.0)
        with pytest.raises(InvalidSpec):
            HyperParams(beta=(1.0,), zeta=(1.0,), eta=1.0, max_inner=0)
        hp = HyperParams.uniform(3, beta=4.0, zeta=(1.0, 2.0, 4.0), eta=8.0)
        assert hp.beta == (4.0, 4.0, 4.0)
        assert hp.zeta == (1.0, 2.0, 4.0)
        # zero caps are usable (loops skipped)
        HyperParams(beta=(1.0,), zeta=(1.0,), eta=1.0, max_outer=0)


class TestObjective:
    def test_zero_state(self):
        # With zeta=0 the value reduces to the smoothed-zero-row penalty.
        rng = np.random.default_rng(0)
        dims = (3, 5)
        data = MultiViewDataset(
            views=[rng.standard_normal((4, d)) for d in dims],
            labels=one_hot([0, 1, 0, 1], 2),
        )
        eps = 1e-8
        hp = HyperParams.uniform(2, beta=(2.0, 3.0), zeta=0.0, eta=7.0, epsilon=eps)
        state = MvlState(
            W=[np.zeros((d, 2)) for d in dims],
            Zk=[np.zeros((4, 2)) for _ in dims],
            Z=data.labels.copy(),
        )
        expected = 2.0 * 3 * eps + 3.0 * 5 * eps
        assert math.isclose(objective(data, state, hp), expected, rel_tol=1e-12)
        # with nonzero zeta the pseudo-label gap zeta_k*||0 - Y||^2 = zeta_k*N joins
        hp2 = HyperParams.uniform(2, beta=(2.0, 3.0), zeta=(1.0, 2.0), eta=7.0, epsilon=eps)
        assert math.isclose(
            objective(data, state, hp2), expected + (1.0 + 2.0) * 4, rel_tol=1e-12
        )

    def test_single_view_hand_value(self):
        data = MultiViewDataset(views=[np.eye(1)], labels=np.array([[1.0]]))
        state = MvlState(
            W=[np.array([[1.0]])],
            Zk=[np.array([[1.0]])],
            Z=np.array([[1.0]]),
        )
        hp = HyperParams(beta=(1.0,), zeta=(1.0,), eta=1.0, epsilon=0.0)
        assert objective(data, state, hp) == 1.0

    def test_matches_term_by_term_oracle(self):
        data, hp = random_instance(3)
        state = init_state(data.dims, data.n_samples, data.n_classes, seed=5)
        total = 0.0
        for k in range(data.n_views):
            fit = data.views[k] @ state.W[k] - state.Zk[k]
            total += math.fsum(fit.ravel() ** 2)
            rows = [math.fsum(r ** 2) for r in state.W[k]]
            total += hp.beta[k] * math.fsum(
                math.sqrt(v + hp.epsilon ** 2) for v in rows
            )
            gap = state.Zk[k] - state.Z
            total += hp.zeta[k] * math.fsum(gap.ravel() ** 2)
        gap = state.Z - data.labels
        total += hp.eta * math.fsum(gap.ravel() ** 2)
        value = objective(data, state, hp)
        assert abs(value - total) <= 1e-12 * max(1.0, abs(total))

    def test_shape_mismatch(self):
        data, hp = random_instance(4)
        state = init_state(data.dims, data.n_samples, data.n_classes, seed=5)
        state.Z = state.Z[:-1]
        with pytest.raises(DimensionMismatch):
            objective(data, state, hp)


class TestRowWeights:
    def test_half_norm_row(self):
        w = np.array([[0.5, 0.0]])
        a = irls_row_weights(w, 1e-8)
        assert math.isclose(a[0], 1.0 / (2.0 * 0.50000001), rel_tol=1e-9)

    def test_zero_row(self):
        a = irls_row_weights(np.zeros((1, 3)), 1e-8)
        assert a[0] == pytest.approx(5e7)

    def test_three_four_row(self):
        a = irls_row_weights(np.array([[3.0, 4.0]]), 1e-8)
        assert a[0] == pytest.approx(0.1, rel=1e-8)

    def test_all_positive(self):
        rng = np.random.default_rng(9)
        a = irls_row_weights(rng.standard_normal((20, 4)), 1e-8)
        assert (a > 0).all()


class TestSolveViewTransform:
    def test_unit_scalar(self):
        w = solve_view_transform(np.eye(1), np.eye(1), np.ones(1), 1.0)
        assert np.allclose(w, [[0.5]], atol=1e-12)

    def test_vanishing_regularization(self):
        w = solve_view_transform(
            np.eye(1), np.array([[2.0]]), np.array([1e-16]), 1e-8
        )
        assert np.allclose(w, [[2.0]], atol=1e-6)

    def test_normal_equation_residual(self):
        # (6, 15) is wider than its rows and takes the dual form.
        rng = np.random.default_rng(2)
        for n, d in [(20, 4), (6, 15)]:
            x = rng.standard_normal((n, d))
            z = rng.standard_normal((n, 2))
            a = irls_row_weights(rng.standard_normal((d, 2)), 1e-8)
            beta = 4.0
            w = solve_view_transform(x, z, a, beta)
            gram = x.T @ x + beta * np.diag(a)
            assert np.max(np.abs(gram @ w - x.T @ z)) < 1e-8

    def test_rejects_bad_row_weights(self):
        x = np.ones((2, 3))
        with pytest.raises(InvalidSpec):
            solve_view_transform(x, np.ones((2, 1)), np.array([1.0, 0.0, 1.0]), 1.0)
        with pytest.raises(InvalidSpec):
            solve_view_transform(x, np.ones((2, 1)), np.ones(2), 1.0)


class TestIrlsFit:
    def test_planted_solution(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 5))
        w_true = rng.standard_normal((5, 2))
        z = x @ w_true
        w, _ = fit_view_transform(x, z, beta=1e-10, max_inner=50, tol=1e-12)
        assert np.max(np.abs(w - w_true)) < 1e-4

    def test_zero_feature_column_suppressed(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 4))
        x[:, 2] = 0.0
        z = rng.standard_normal((30, 2))
        w, _ = fit_view_transform(x, z, beta=1.0, max_inner=50, tol=1e-12)
        assert np.linalg.norm(w[2]) < 1e-3

    def test_cap_one_equals_single_alternation(self):
        # (6, 20) is wider than its rows and takes the dual form.
        rng = np.random.default_rng(11)
        for n, d in [(15, 4), (6, 20)]:
            x = rng.standard_normal((n, d))
            z = rng.standard_normal((n, 2))
            w0 = rng.standard_normal((d, 2))
            w_cap, a_cap = fit_view_transform(
                x, z, beta=2.0, epsilon=1e-8, max_inner=1, tol=1e-12, w_init=w0
            )
            a_manual = irls_row_weights(w0, 1e-8)
            w_manual = solve_view_transform(x, z, a_manual, 2.0)
            assert np.array_equal(w_cap, w_manual)
            assert np.array_equal(a_cap, a_manual)

    def test_inner_value_non_increasing(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((25, 6))
        z = rng.standard_normal((25, 2))
        beta, eps = 3.0, 1e-8
        w = np.zeros((6, 2))
        values = []
        for _ in range(15):
            a = irls_row_weights(w, eps)
            w = solve_view_transform(x, z, a, beta)
            values.append(
                float(np.sum((x @ w - z) ** 2)) + beta * smoothed_l21(w, eps)
            )
        diffs = np.diff(values)
        assert (diffs <= 1e-10).all()

    def test_requires_positive_epsilon(self):
        with pytest.raises(InvalidSpec):
            fit_view_transform(np.eye(2), np.eye(2), beta=1.0, epsilon=0.0)

    def test_requires_an_inner_iteration(self):
        with pytest.raises(InvalidSpec):
            fit_view_transform(np.eye(2), np.eye(2), beta=1.0, max_inner=0)


def reference_fit_stats(x, target, beta, epsilon, max_inner, tol, w_init):
    """The IRLS loop before the shared kernel, kept as its reference:
    X^T X and X^T T rebuilt and the d x d system solved every inner
    iteration.  Returns (W, A, max residual, inner iterations run)."""
    w = w_init
    a = None
    max_residual = 0.0
    xw = x @ w
    prev = float(np.sum((xw - target) ** 2)) + beta * smoothed_l21(w, epsilon)
    iterations = 0
    for _ in range(max_inner):
        iterations += 1
        a = irls_row_weights(w, epsilon)
        gram = x.T @ x
        gram[np.diag_indices_from(gram)] += beta * a
        rhs = x.T @ target
        w = solve_spd(gram, rhs)
        res = float(np.max(np.abs(gram @ w - rhs))) if rhs.size else 0.0
        max_residual = max(max_residual, res)
        xw = x @ w
        value = float(np.sum((xw - target) ** 2)) + beta * smoothed_l21(w, epsilon)
        if abs(value - prev) / max(1.0, abs(prev)) < tol:
            prev = value
            break
        prev = value
    if a is None:
        a = irls_row_weights(w, epsilon)
    return w, a, max_residual, iterations


class TestKernel:
    """`_fit_stats` against the reference loop, in both solve forms."""

    @staticmethod
    def fit(monkeypatch, x, z, beta, max_inner, tol, w0):
        """Kernel output plus the number of solves it made."""
        calls = []

        def counting_solve(a, b):
            calls.append(a.shape)
            return solve_spd(a, b)

        monkeypatch.setattr(mvfed.mvl, "solve_spd", counting_solve)
        w, a, res, xw = mvfed.mvl._fit_stats(x, z, beta, 1e-8, max_inner, tol, w0)
        assert np.array_equal(xw, x @ w)
        return w, a, res, calls

    @staticmethod
    def problem(n, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        z = rng.standard_normal((n, 3))
        w0 = rng.standard_normal((d, 3)) / np.sqrt(d)
        return x, z, w0

    @pytest.mark.parametrize("n, d", [(30, 6), (12, 12), (200, 40)])
    @pytest.mark.parametrize("max_inner, tol", [(1, 1e-12), (50, 1e-6)])
    def test_primal_is_bit_identical(self, monkeypatch, n, d, max_inner, tol):
        x, z, w0 = self.problem(n, d, seed=n + d)
        w, a, res, calls = self.fit(monkeypatch, x, z, 2.0, max_inner, tol, w0)
        w_ref, a_ref, res_ref, iterations = reference_fit_stats(
            x, z, 2.0, 1e-8, max_inner, tol, w0
        )
        assert np.array_equal(w, w_ref)
        assert np.array_equal(a, a_ref)
        assert res == res_ref
        assert calls == [(d, d)] * iterations

    @pytest.mark.parametrize("seed", range(8))
    def test_gram_fit_term_matches_explicit(self, seed):
        # The primal loop's fit term <W, GW> - 2 <W, X^T T> + ||T||^2
        # against ((X W - T) ** 2).sum(), also at a near-exact fit,
        # where the identity cancels most.
        rng = np.random.default_rng(seed)
        n, d, c = int(rng.integers(8, 60)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        w0 = rng.standard_normal((d, c))
        near = x @ w0 + 1e-8 * rng.standard_normal((n, c))
        for t, beta in ((5.0 * rng.standard_normal((n, c)), 2.0), (near, 1e-12)):
            gram, rhs, tt = x.T @ x, x.T @ t, float((t * t).sum())
            bound = 1e-9 * max(1.0, tt)
            for w in (w0, rng.standard_normal((d, c))):
                fit = mvfed.mvl._gram_fit(w, gram @ w, rhs, tt)
                assert abs(fit - ((x @ w - t) ** 2).sum()) <= bound
            w, fit, _ = mvfed.mvl._gram_step(gram, rhs, tt, rng.uniform(0.1, 5.0, d), beta)
            assert abs(fit - ((x @ w - t) ** 2).sum()) <= bound
            w, _, _, xw = mvfed.mvl._fit_stats(x, t, beta, 1e-8, 20, 1e-9, w0)
            assert np.array_equal(xw, x @ w)

    @pytest.mark.parametrize("n, d", [(12, 13), (15, 40), (30, 300)])
    @pytest.mark.parametrize("max_inner, tol", [(1, 1e-12), (20, 1e-6)])
    def test_dual_matches_reference(self, monkeypatch, n, d, max_inner, tol):
        x, z, w0 = self.problem(n, d, seed=n + d)
        w, a, res, calls = self.fit(monkeypatch, x, z, 2.0, max_inner, tol, w0)
        w_ref, a_ref, _, iterations = reference_fit_stats(
            x, z, 2.0, 1e-8, max_inner, tol, w0
        )
        assert np.max(np.abs(w - w_ref)) <= 1e-10 * np.max(np.abs(w_ref))
        assert np.max(np.abs(a - a_ref)) <= 1e-10 * np.max(np.abs(a_ref))
        assert calls == [(n, n)] * iterations
        assert res < 1e-8


    @pytest.mark.parametrize("n, d", [(30, 6), (12, 12), (200, 40), (8, 20), (15, 40)])
    def test_stack_is_bit_identical_per_slice(self, monkeypatch, n, d):
        rng = np.random.default_rng(n * d)
        s = 6
        x = rng.standard_normal((s, n, d)) * rng.uniform(0.1, 3.0, (s, 1, 1))
        z = rng.standard_normal((s, n, 3))
        w0 = rng.standard_normal((s, d, 3)) / np.sqrt(d)
        w, a, res, xw, calls = self.fit_stack(monkeypatch, x, z, 2.0, 30, 1e-4, w0)
        iterations = []
        for i in range(s):
            w_i, a_i, res_i, calls_i = self.fit(monkeypatch, x[i], z[i], 2.0, 30, 1e-4, w0[i])
            assert np.array_equal(w[i], w_i)
            assert np.array_equal(a[i], a_i)
            assert np.array_equal(xw[i], x[i] @ w_i)
            assert res[i] == res_i
            iterations.append(len(calls_i))
        # each solve covers exactly the slices whose own fit is still running
        assert len(set(iterations)) > 1
        assert [c[0] for c in calls] == [
            sum(it > j for it in iterations) for j in range(max(iterations))
        ]

    @pytest.mark.parametrize("n, d", [(30, 6), (12, 12), (8, 20), (15, 40)])
    def test_shared_x_is_bit_identical_per_slice(self, monkeypatch, n, d):
        # One 2-D X under a stack of targets and warm starts: the form
        # the grid's candidate stack uses, primal (d <= n) and dual.
        rng = np.random.default_rng(n + 7 * d)
        s = 5
        x = rng.standard_normal((n, d))
        z = rng.standard_normal((s, n, 3)) * rng.uniform(0.1, 3.0, (s, 1, 1))
        w0 = rng.standard_normal((s, d, 3)) / np.sqrt(d)
        w, a, res, xw, calls = self.fit_stack(monkeypatch, x, z, 2.0, 30, 1e-4, w0)
        iterations = []
        for i in range(s):
            w_i, a_i, res_i, calls_i = self.fit(monkeypatch, x, z[i], 2.0, 30, 1e-4, w0[i])
            assert np.array_equal(w[i], w_i)
            assert np.array_equal(a[i], a_i)
            assert np.array_equal(xw[i], x @ w_i)
            assert res[i] == res_i
            iterations.append(len(calls_i))
        assert len(set(iterations)) > 1
        assert [c[0] for c in calls] == [
            sum(it > j for it in iterations) for j in range(max(iterations))
        ]

    def test_shared_x_stack_of_one_runs_the_2d_loop(self, monkeypatch):
        x, z, w0 = self.problem(20, 5, seed=3)
        w, a, res, xw, calls = self.fit_stack(monkeypatch, x, z[None], 2.0, 20, 1e-6, w0[None])
        w_2d, a_2d, res_2d, calls_2d = self.fit(monkeypatch, x, z, 2.0, 20, 1e-6, w0)
        assert np.array_equal(w[0], w_2d) and np.array_equal(a[0], a_2d)
        assert res.tolist() == [res_2d]
        assert calls == calls_2d == [(5, 5)] * len(calls_2d)

    @staticmethod
    def fit_stack(monkeypatch, x, z, beta, max_inner, tol, w0):
        """The kernel on a stack, as a width group of one view."""
        calls = []

        def counting_solve(a, b):
            calls.append(a.shape)
            return solve_spd(a, b)

        monkeypatch.setattr(mvfed.mvl, "solve_spd", counting_solve)
        w, a, res, xw = mvfed.mvl._fit_stats([x], [z], [beta], 1e-8, max_inner, tol, [w0], [None])
        return w[0], a[0], res[0], next(xw), calls


class TestClosedFormUpdates:
    def test_pseudo_label_blend(self):
        out = update_pseudo_labels(np.array([[1.0]]), np.array([[3.0]]), 1.0)
        assert np.array_equal(out, np.array([[2.0]]))

    def test_pseudo_label_zeta_zero(self):
        xw = np.array([[1.25, -2.5]])
        out = update_pseudo_labels(xw, np.array([[9.0, 9.0]]), 0.0)
        assert np.array_equal(out, xw)

    def test_pseudo_label_zeta_three(self):
        out = update_pseudo_labels(np.array([[0.0]]), np.array([[4.0]]), 3.0)
        assert np.array_equal(out, np.array([[3.0]]))

    def test_pseudo_label_is_convex_combination(self):
        rng = np.random.default_rng(3)
        xw = rng.standard_normal((6, 3))
        z = rng.standard_normal((6, 3))
        zeta = 2.7
        out = update_pseudo_labels(xw, z, zeta)
        expected = xw / (1 + zeta) + z * (zeta / (1 + zeta))
        assert np.allclose(out, expected, atol=1e-12)
        lo = np.minimum(xw, z) - 1e-12
        hi = np.maximum(xw, z) + 1e-12
        assert ((out >= lo) & (out <= hi)).all()

    def test_consensus_single_view(self):
        out = update_consensus([np.array([[1.0]])], np.array([[0.0]]), (1.0,), 1.0)
        assert np.array_equal(out, np.array([[0.5]]))

    def test_consensus_eta_zero_limit(self):
        out = update_consensus(
            [np.array([[0.0]]), np.array([[4.0]])], np.array([[1.0]]), (1.0, 3.0), 0.0
        )
        assert np.array_equal(out, np.array([[3.0]]))

    def test_consensus_fixed_point(self):
        y = one_hot([0, 1, 1], 2)
        out = update_consensus([y.copy(), y.copy()], y, (1.5, 2.5), 3.0)
        assert np.array_equal(out, y)

    def test_consensus_rows_in_convex_hull(self):
        rng = np.random.default_rng(4)
        zks = [rng.standard_normal((5, 2)) for _ in range(3)]
        y = one_hot([0, 1, 0, 1, 1], 2)
        zeta = (1.0, 2.0, 0.5)
        out = update_consensus(zks, y, zeta, eta=4.0)
        stacked = np.stack(zks + [y])
        assert (out >= stacked.min(axis=0) - 1e-12).all()
        assert (out <= stacked.max(axis=0) + 1e-12).all()

    def test_consensus_scale_invariance(self):
        rng = np.random.default_rng(5)
        zks = [rng.standard_normal((4, 2)) for _ in range(2)]
        y = one_hot([0, 1, 0, 1], 2)
        base = update_consensus(zks, y, (1.5, 2.5), 3.0)
        for alpha in (2.0, 0.5, 4.0):
            scaled = update_consensus(
                zks, y, (1.5 * alpha, 2.5 * alpha), 3.0 * alpha
            )
            assert np.array_equal(scaled, base)
        scaled = update_consensus(zks, y, (1.5 * 3, 2.5 * 3), 3.0 * 3)
        assert np.allclose(scaled, base, rtol=1e-14)

    def test_consensus_requires_positive_denominator(self):
        with pytest.raises(InvalidSpec):
            update_consensus([np.ones((1, 1))], np.ones((1, 1)), (0.0,), 0.0)


class TestTrainMvl:
    def test_separable_training_accuracy(self):
        data = blob_dataset(seed=1, n=60, dims=(5, 4))
        hp = HyperParams.uniform(2)
        state, _ = train_mvl(data, hp, seed=0)
        acc = float(np.mean(argmax_decode(state.Z) == data.class_indices()))
        assert acc >= 0.95

    def test_trace_monotone_over_random_instances(self):
        for seed in range(20):
            data, hp = random_instance(seed)
            _, trace = train_mvl(data, hp, seed=seed + 100)
            values = trace.objectives()
            assert len(values) >= 2
            diffs = np.diff(values)
            assert (diffs <= 1e-10).all(), f"instance {seed}: increase {diffs.max()}"

    def test_rejects_non_positive_epsilon(self):
        # With a zero feature column, epsilon = 0 would give that row an
        # infinite IRLS weight.
        data = blob_dataset(seed=1, n=20, dims=(4,))
        data.views[0][:, 1] = 0.0
        hp = HyperParams.uniform(1, epsilon=0.0)
        with pytest.raises(InvalidSpec, match="epsilon"):
            train_mvl(data, hp, seed=0)

    def test_max_outer_zero_returns_initialization(self):
        data, hp = random_instance(6)
        hp0 = HyperParams(
            beta=hp.beta, zeta=hp.zeta, eta=hp.eta, epsilon=hp.epsilon,
            tol=hp.tol, max_outer=0, max_inner=hp.max_inner,
        )
        state, trace = train_mvl(data, hp0, seed=42)
        ref = init_state(data.dims, data.n_samples, data.n_classes, seed=42)
        for k in range(data.n_views):
            assert np.array_equal(state.W[k], ref.W[k])
            assert np.array_equal(state.Zk[k], ref.Zk[k])
        assert np.array_equal(state.Z, ref.Z)
        assert len(trace.rows) == 1 and trace.rows[0].iteration == 0

    def test_deterministic(self):
        data, hp = random_instance(7)
        s1, t1 = train_mvl(data, hp, seed=3)
        s2, t2 = train_mvl(data, hp, seed=3)
        assert np.array_equal(s1.Z, s2.Z)
        for k in range(data.n_views):
            assert np.array_equal(s1.W[k], s2.W[k])
        assert t1.objectives() == t2.objectives()


def reference_objective(data, state, hp):
    """`objective` as it was written before the stacked form, kept as
    the reference for its order of operations."""
    total = hp.eta * float(np.sum((state.Z - data.labels) ** 2))
    for i in range(data.n_views):
        fit = data.views[i] @ state.W[i] - state.Zk[i]
        total += float(np.sum(fit * fit))
        total += hp.beta[i] * smoothed_l21(state.W[i], hp.epsilon)
        gap = state.Zk[i] - state.Z
        total += hp.zeta[i] * float(np.sum(gap * gap))
    return total


def reference_train_mvl(data, hp, seed):
    """The per-candidate training loop before the candidate stack, kept
    as its reference: 2-D `_fit_stats` calls and the objective
    recomputed from the state for every trace row."""
    state = init_state(data.dims, data.n_samples, data.n_classes, seed)
    rows = []

    def record(t, value, residual):
        norms = [row_l2_norms(w) for w in state.W]
        rows.append(TraceRow(
            t, value, tuple(float(m.min()) for m in norms),
            tuple(float(m.max()) for m in norms), residual,
        ))

    prev = reference_objective(data, state, hp)
    record(0, prev, 0.0)
    for t in range(1, hp.max_outer + 1):
        max_residual = 0.0
        for i in range(data.n_views):
            w, _, res, xw = mvfed.mvl._fit_stats(
                data.views[i], state.Zk[i], hp.beta[i], hp.epsilon,
                hp.max_inner, hp.tol, state.W[i],
            )
            state.W[i] = w
            max_residual = max(max_residual, res)
            state.Zk[i] = update_pseudo_labels(xw, state.Z, hp.zeta[i])
        state.Z = update_consensus(state.Zk, data.labels, hp.zeta, hp.eta)
        value = reference_objective(data, state, hp)
        record(t, value, max_residual)
        if abs(value - prev) / max(1.0, abs(prev)) < hp.tol:
            break
        prev = value
    return state, rows


def assert_same_state(a, b):
    for k in range(len(a.W)):
        assert a.W[k].tobytes() == b.W[k].tobytes()
        assert a.Zk[k].tobytes() == b.Zk[k].tobytes()
    assert a.Z.tobytes() == b.Z.tobytes()


class TestTrainStack:
    """`_train_stack` (the grid's candidate stack) and `train_mvl`, its
    stack of one, against the per-candidate reference loop."""

    MAX_OUTER = 25

    @classmethod
    def candidates(cls, k):
        # zeta differs between the views of one candidate; the weights
        # spread the candidates over different stopping iterations.
        return [
            HyperParams(
                beta=(2.0, 0.5, 1.0)[:k], zeta=(ze, 2.0 * ze, 0.5 * ze)[:k], eta=eta,
                tol=1e-3, max_outer=cls.MAX_OUTER, max_inner=8,
            )
            for ze in (0.25, 4.0, 64.0) for eta in (0.125, 2.0, 32.0)
        ]

    @staticmethod
    def data(n, dims, c, seed):
        rng = np.random.default_rng(seed)
        y = np.arange(n) % c
        rng.shuffle(y)
        views = [rng.standard_normal((n, d)) + y[:, None] for d in dims]
        return MultiViewDataset.from_class_indices(views, y, c)

    @pytest.mark.parametrize("n, dims, c", [
        (40, (5, 3, 7), 3), (15, (40, 3), 2), (30, (6, 6, 6), 3), (30, (6, 6, 4), 3),
        (20, (6, 40, 6), 2),
    ])
    def test_bit_identical_to_per_candidate_training(self, monkeypatch, n, dims, c):
        # Views of one width share a kernel call; a view wider than its
        # rows (dual form) is fitted alone.  The slice count of each
        # call, per running candidate:
        groups = {
            (5, 3, 7): [1, 1, 1], (40, 3): [1, 1], (6, 6, 6): [3], (6, 6, 4): [2, 1],
            (6, 40, 6): [2, 1],
        }[dims]
        data = self.data(n, dims, c, seed=n)
        hps = self.candidates(len(dims))
        sizes = record_calls(monkeypatch, mvfed.mvl, "_fit_stats", 1, group=True)
        stacked = mvfed.mvl._train_stack(data, hps, seed=4)
        monkeypatch.undo()
        outer = []
        for hp, (state, trace) in zip(hps, stacked):
            ref_state, ref_rows = reference_train_mvl(data, hp, seed=4)
            assert_same_state(state, ref_state)
            assert trace.rows == ref_rows
            single_state, single_trace = train_mvl(data, hp, seed=4)
            assert_same_state(single_state, ref_state)
            assert single_trace.rows == ref_rows
            outer.append(len(ref_rows) - 1)
        # candidates stop at different outer iterations, one at max_outer
        assert len(set(outer)) > 2 and max(outer) == self.MAX_OUTER
        # one kernel call per width group and outer iteration, over the
        # candidates still running
        assert sizes == [
            g * sum(o > t for o in outer) for t in range(max(outer)) for g in groups
        ]

    def test_trace_objectives_equal_objective_of_each_state(self):
        data = self.data(40, (5, 3, 7), 3, seed=1)
        hp = self.candidates(3)[4]
        _, trace = train_mvl(data, hp, seed=2)
        assert len(trace.rows) > 3
        for t, row in enumerate(trace.rows):
            state, _ = train_mvl(data, dataclasses.replace(hp, max_outer=t), seed=2)
            assert row.objective == objective(data, state, hp)
            assert row.objective == reference_objective(data, state, hp)

    def test_candidates_differ_only_in_zeta_and_eta(self):
        data = self.data(20, (4, 3), 2, seed=0)
        hps = self.candidates(2)[:2]
        hps[1] = dataclasses.replace(hps[1], beta=(1.0, 1.0))
        with pytest.raises(InvalidSpec, match="zeta and eta"):
            mvfed.mvl._train_stack(data, hps, seed=0)

    def test_max_outer_zero_returns_initialization(self):
        data = self.data(20, (4, 3), 2, seed=0)
        hps = [dataclasses.replace(hp, max_outer=0) for hp in self.candidates(2)]
        ref = init_state(data.dims, data.n_samples, data.n_classes, seed=1)
        for state, trace in mvfed.mvl._train_stack(data, hps, seed=1):
            assert_same_state(state, ref)
            assert [r.iteration for r in trace.rows] == [0]


class TestPredictMvl:
    def test_single_view_exact(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((7, 3))
        w = rng.standard_normal((3, 2))
        out = predict_mvl([x], [w], zeta=(1.0,))
        assert np.array_equal(out, x @ w)

    def test_common_value_fixed_point(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 3))
        w = rng.standard_normal((3, 2))
        # second view reproduces the same XW via doubled features/halved W
        out = predict_mvl([x, 2.0 * x], [w, 0.5 * w], zeta=(1.0, 1.0))
        assert np.allclose(out, x @ w, atol=1e-12)

    def test_symmetric_attractor(self):
        out = predict_mvl(
            [np.array([[0.0]]), np.array([[1.0]])],
            [np.array([[1.0]]), np.array([[2.0]])],
            zeta=(1.0, 1.0),
            tol=1e-12,
        )
        assert np.allclose(out, [[1.0]], atol=1e-12)

    def test_equal_zeta_one_pass_is_mean(self):
        rng = np.random.default_rng(15)
        xs = [rng.standard_normal((5, 3)) for _ in range(3)]
        ws = [rng.standard_normal((3, 2)) for _ in range(3)]
        out = predict_mvl(xs, ws, zeta=(1.0, 1.0, 1.0), max_outer=1)
        mean = (xs[0] @ ws[0] + xs[1] @ ws[1] + xs[2] @ ws[2]) / 3.0
        assert np.array_equal(out, mean)

    def test_zero_zeta_rejected(self):
        with pytest.raises(InvalidSpec):
            predict_mvl([np.ones((2, 2))], [np.ones((2, 2))], zeta=(0.0,))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            predict_mvl([np.ones((2, 3))], [np.ones((2, 2))], zeta=(1.0,))

    def test_consensus_helper_matches_weighted_mean(self):
        rng = np.random.default_rng(16)
        zks = [rng.standard_normal((4, 2)) for _ in range(2)]
        zeta = (1.0, 3.0)
        out = consensus_mean(zks, zeta)
        assert np.allclose(out, (zks[0] + 3.0 * zks[1]) / 4.0, atol=1e-14)


def reference_predict(views, transforms, zeta, tol=1e-6, max_outer=100):
    """`predict_mvl` as the loop over Python floats it was before the
    stacked predictor; also returns how many rounds it made."""
    xw = [x @ w for x, w in zip(views, transforms)]

    def consensus_of(estimates):
        acc = zeta[0] * estimates[0]
        for z, m in zip(zeta[1:], estimates[1:]):
            acc = acc + z * m
        return acc / float(sum(zeta))

    estimates = [m.copy() for m in xw]
    consensus = consensus_of(estimates)
    prev, rounds = np.inf, 0
    for _ in range(max_outer):
        rounds += 1
        consensus = consensus_of(estimates)
        estimates = [(m + z * consensus) / (1.0 + z) for m, z in zip(xw, zeta)]
        value = 0.0
        for k in range(len(xw)):
            fit = xw[k] - estimates[k]
            gap = estimates[k] - consensus
            value += float(np.sum(fit * fit)) + zeta[k] * float(np.sum(gap * gap))
        if abs(value - prev) / max(1.0, abs(prev)) < tol:
            break
        prev = value
    return consensus, rounds


class TestPredictStack:
    """`_predict_stack` runs many transform sets over one set of test
    views; each slice must be bit-identical to its own `predict_mvl`, and
    that to the loop over Python floats."""

    @staticmethod
    def problem(n_views, s, seed):
        rng = np.random.default_rng(seed)
        dims = (4, 3, 5)[:n_views]
        views = [rng.standard_normal((30, d)) for d in dims]
        transforms = [rng.standard_normal((s, d, 3)) for d in dims]
        zeta = [2.0 ** rng.integers(-4, 6, size=s) for _ in dims]
        return views, transforms, zeta

    @pytest.mark.parametrize("n_views", [1, 3])
    @pytest.mark.parametrize("tol, max_outer", [(1e-6, 100), (1e-9, 100), (1e-12, 60), (1e-6, 1), (1e-6, 0)])
    def test_slices_equal_per_candidate_predict(self, n_views, tol, max_outer):
        views, transforms, zeta = self.problem(n_views, 10, seed=7 + n_views)
        stacked = mvfed.mvl._predict_stack(views, transforms, zeta, tol, max_outer)
        assert stacked.shape == (10, 30, 3)
        rounds = []
        for i in range(10):
            w = [m[i] for m in transforms]
            z = [float(m[i]) for m in zeta]
            alone = predict_mvl(views, w, z, tol=tol, max_outer=max_outer)
            reference, r = reference_predict(views, w, z, tol, max_outer)
            assert np.array_equal(stacked[i], alone)
            assert np.array_equal(alone, reference)
            rounds.append(r)
        if n_views == 3 and max_outer > 1:
            # the slices stop at different rounds, and some run to the cap
            assert len(set(rounds)) >= 3
            assert min(rounds) < max_outer == max(rounds)

    def test_one_slice_stack_is_predict_mvl(self):
        views, transforms, zeta = self.problem(3, 1, seed=3)
        alone = predict_mvl(views, [m[0] for m in transforms], [float(z[0]) for z in zeta])
        stacked = mvfed.mvl._predict_stack(views, transforms, zeta, 1e-6, 100)
        assert np.array_equal(stacked[0], alone)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_runs_clean_with_runtime_warnings_as_errors(self):
        # The first round compares against an infinite previous value;
        # numpy's inf / inf must stay silent (and is no stop).
        views, transforms, zeta = self.problem(3, 6, seed=5)
        predict_mvl(views, [m[0] for m in transforms], [float(z[0]) for z in zeta])
        mvfed.mvl._predict_stack(views, transforms, zeta, 1e-6, 100)
        predict_mvl([np.zeros((0, 4))], [np.ones((4, 2))], [2.0])


class TestSingleViewBaseline:
    def test_matches_irls_fit(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((20, 4))
        y = one_hot(rng.integers(0, 2, 20), 2)
        w = train_single_view(x, y, beta=4.0)
        ref, _ = fit_view_transform(x, y, beta=4.0)
        assert np.array_equal(w, ref)

    def test_planted_labels_accuracy(self):
        data = blob_dataset(seed=2, n=80, dims=(6,))
        w = train_single_view(data.views[0], data.labels, beta=1.0)
        acc = float(
            np.mean(argmax_decode(data.views[0] @ w) == data.class_indices())
        )
        assert acc >= 0.95

    def test_large_beta_shrinks(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((30, 5))
        y = one_hot(rng.integers(0, 2, 30), 2)
        w = train_single_view(x, y, beta=1e6, max_inner=50, tol=1e-12)
        assert np.max(np.abs(w)) < 1e-2


class TestDecode:
    def test_argmax_with_low_index_ties(self):
        z = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        assert argmax_decode(z).tolist() == [1, 0, 0]

    def test_invariant_under_monotone_row_shift(self):
        rng = np.random.default_rng(19)
        z = rng.standard_normal((10, 3))
        shifted = z + rng.standard_normal((10, 1))
        assert np.array_equal(argmax_decode(z), argmax_decode(shifted))
