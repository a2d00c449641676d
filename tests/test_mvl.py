import io
import math

import numpy as np
import pytest

from mvfed.errors import DimensionMismatch, InvalidSpec
from mvfed.mvl import test_consensus as consensus_mean
from mvfed.mvl import (
    HyperParams,
    MultiViewDataset,
    MvlState,
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
from suite_utils import blob_dataset, random_instance


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
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 4))
        z = rng.standard_normal((20, 2))
        a = irls_row_weights(rng.standard_normal((4, 2)), 1e-8)
        beta = 4.0
        w = solve_view_transform(x, z, a, beta)
        gram = x.T @ x + beta * np.diag(a)
        assert np.max(np.abs(gram @ w - x.T @ z)) < 1e-8


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
        rng = np.random.default_rng(11)
        x = rng.standard_normal((15, 4))
        z = rng.standard_normal((15, 2))
        w0 = rng.standard_normal((4, 2))
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

    def test_trace_csv_format(self):
        data, hp = random_instance(8)
        _, trace = train_mvl(data, hp, seed=1)
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["iter", "objective"]
        assert header[2:4] == ["w0_rownorm_min", "w0_rownorm_max"]
        assert len(lines) == len(trace.rows) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == trace.rows[0].objective


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
