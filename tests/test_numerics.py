import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import mvfed.numerics
from mvfed.data import partition_horizontal
from mvfed.errors import DimensionMismatch, InvalidShape, NotSPD
from mvfed.hfed import hfed_train
from mvfed.mvl import HyperParams
from mvfed.numerics import (
    gaussian_init,
    make_rng,
    orthonormal_init,
    row_l2_norms,
    solve_spd,
    stream_states,
)
from suite_utils import BATCH_SEEDS, MIXED_KEYS, blob_dataset, refines
from test_contracts import check_inits, check_solve_spd, check_streams


def reference_solve_spd(a, b):
    """solve_spd's solve through scipy's Cholesky wrappers: factor, solve,
    and one refinement pass when the residual exceeds 1e-10 relative."""
    factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    x = scipy.linalg.cho_solve(factor, b, check_finite=False)
    residual = b - a @ x
    if float(np.max(np.abs(residual))) > 1e-10 * (1.0 + float(np.max(np.abs(b)))):
        x = x + scipy.linalg.cho_solve(factor, residual, check_finite=False)
    return np.ascontiguousarray(x)


def gufunc_reference_solve_spd(a, b):
    """solve_spd's solve of one system of order <= 16 through numpy's
    public routines: the Cholesky check, an LU solve, and one more solve
    of the residual when it exceeds 1e-10 relative."""
    np.linalg.cholesky(a)
    x = np.linalg.solve(a, b)
    residual = b - a @ x
    if float(np.max(np.abs(residual))) > 1e-10 * (1.0 + float(np.max(np.abs(b)))):
        x = x + np.linalg.solve(a, residual)
    return x


class TestSolveSpd:
    def test_identity(self):
        b = np.array([[1.0], [2.0]])
        x = solve_spd(np.eye(2), b)
        assert np.array_equal(x, b)

    def test_scalar(self):
        x = solve_spd(np.array([[2.0]]), np.array([[4.0]]))
        assert np.allclose(x, [[2.0]], rtol=0.0, atol=1e-12)

    def test_hand_elimination_2x2(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([[1.0], [2.0]])
        x = solve_spd(a, b)
        assert np.allclose(x, [[1.0 / 11.0], [7.0 / 11.0]], atol=1e-12)

    def test_random_8x8_residual(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, 8))
        a = g.T @ g + np.eye(8)
        b = rng.standard_normal((8, 3))
        x = solve_spd(a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-8

    def test_not_spd(self):
        # a negative pivot, a dense indefinite matrix, a singular one;
        # an empty right-hand side does not skip the check
        for a in (
            np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones((3, 3))
        ):
            with pytest.raises(NotSPD):
                solve_spd(a, np.ones((a.shape[0], 1)))
            with pytest.raises(NotSPD):
                solve_spd(a, np.ones((a.shape[0], 0)))

    def test_empty_systems(self):
        x = solve_spd(np.zeros((0, 0)), np.zeros((0, 3)))
        assert x.shape == (0, 3) and x.dtype == np.float64
        assert solve_spd(np.eye(2), np.zeros((2, 0))).shape == (2, 0)

    @pytest.mark.parametrize(
        "orders, reference",
        [((1, 2, 5, 8), gufunc_reference_solve_spd), ((20, 64, 150), reference_solve_spd)],
        ids=["gufunc", "lapack"],
    )
    def test_bitwise_equal_to_engine_reference(self, orders, reference):
        # Random eigenbases; odd trials spread the spectrum over twelve
        # decades, which leaves raw residuals above 1e-10 and exercises
        # the refinement branch too.
        rng = np.random.default_rng(4321)
        trials = orders * 2
        refined = 0
        for trial, n in enumerate(trials):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            low = -4.0 if trial % 2 else -1.0
            a = (q * 10.0 ** rng.uniform(low, 8.0 if trial % 2 else 1.0, n)) @ q.T
            a = (a + a.T) / 2.0
            b = rng.standard_normal((n, 3))
            refined += refines(a, b)
            assert np.array_equal(solve_spd(a, b), reference(a, b))
        assert 0 < refined < len(trials)

    def test_not_symmetric(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotSPD):
            solve_spd(a, np.ones((2, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_spd(np.eye(3), np.ones((2, 1)))
        with pytest.raises(DimensionMismatch):
            solve_spd(np.ones((3, 2)), np.ones((3, 1)))

    def test_residual_bound_property(self):
        # SPD inputs of the form G^T G + delta*I with delta >= 1e-6,
        # sizes up to 64, including the ill-conditioned floor.
        rng = np.random.default_rng(1234)
        sizes = [1, 2, 3, 5, 8, 13, 21, 34, 64]
        for trial, n in enumerate(sizes * 4):
            g = rng.standard_normal((n, n))
            if trial % 3 == 0:
                # rank-deficient G so delta dominates the small eigenvalues
                g[:, : max(1, n // 2)] = 0.0
            delta = float(rng.uniform(1e-6, 1.0))
            a = g.T @ g + delta * np.eye(n)
            b = rng.standard_normal((n, max(1, n // 4)))
            x = solve_spd(a, b)
            bound = 1e-8 * (1.0 + np.max(np.abs(b)))
            assert np.max(np.abs(a @ x - b)) <= bound

    def test_pure(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((6, 6))
        a = g.T @ g + 0.1 * np.eye(6)
        b = rng.standard_normal((6, 2))
        assert np.array_equal(solve_spd(a, b), solve_spd(a, b))


def spd_stack(rng, s, n, m, spread):
    """s random SPD systems of size n with m right-hand sides; eigenvalues
    spread over `spread` decades."""
    a = np.empty((s, n, n))
    for i in range(s):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a[i] = (q * 10.0 ** rng.uniform(-spread / 2, spread / 2, n)) @ q.T
        a[i] = (a[i] + a[i].T) / 2.0
    return a, rng.standard_normal((s, n, m))


class TestSolveSpdStack:
    def test_bitwise_equal_to_per_slice_calls(self):
        rng = np.random.default_rng(98)
        stacks = [
            (1, 1, 1, 2), (4, 2, 3, 2), (7, 6, 2, 4), (5, 20, 1, 12), (3, 64, 4, 12), (6, 8, 3, 12)
        ]
        assert any(r for args in stacks for r in check_solve_spd(*spd_stack(rng, *args)))

    def test_bad_slice_raises(self):
        rng = np.random.default_rng(99)
        a, b = spd_stack(rng, 4, 3, 2, 2)
        for bad in (np.diag([1.0, -1.0, 1.0]), np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]])):
            stack = a.copy()
            stack[2] = bad
            with pytest.raises(NotSPD, match="matrix 2"):
                solve_spd(stack, b)
            with pytest.raises(NotSPD, match="matrix 2"):
                solve_spd(stack, b[:, :, :0])

    def test_empty_stacks(self):
        assert solve_spd(np.zeros((0, 3, 3)), np.zeros((0, 3, 2))).shape == (0, 3, 2)
        assert solve_spd(np.zeros((2, 0, 0)), np.zeros((2, 0, 4))).shape == (2, 0, 4)
        x = solve_spd(np.stack([np.eye(3)] * 2), np.zeros((2, 3, 0)))
        assert x.shape == (2, 3, 0) and x.dtype == np.float64

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_spd(np.zeros((2, 3, 3)), np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            solve_spd(np.zeros((2, 3, 3)), np.zeros((3, 3, 1)))
        with pytest.raises(DimensionMismatch):
            solve_spd(np.zeros((2, 3, 2)), np.zeros((2, 3, 1)))


def per_system_solve_spd(a, b):
    """solve_spd with its checks made system by system on every call, as
    before the whole-stack comparisons; the engines are solve_spd's own.
    Equal entries have no skew, a NaN skew is not within the symmetry
    bound, and a system whose residual is not finite (every system, for
    an empty B) is rejected if its A has an entry that is not finite."""
    from mvfed.numerics import _factor

    if a.ndim == 2:
        scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
        if a.size and not float(np.where(a == a.T, 0.0, np.abs(a - a.T)).max()) <= 1e-12 * scale:
            raise NotSPD("matrix is not symmetric")
        failed, solve = _factor(a[None])
        if failed is not None:
            raise NotSPD("matrix is not positive definite")
        if b.size == 0 and not np.isfinite(a).all():
            raise NotSPD("matrix is not finite")
        if b.size == 0:
            return np.zeros(b.shape)
        x = solve(b[None])[0]
        residual = b - a @ x
        if not np.isfinite(residual).all() and not np.isfinite(a).all():
            raise NotSPD("matrix is not finite")
        b_scale = 1.0 + float(np.abs(b).max())
        if float(np.abs(residual).max()) > 1e-10 * b_scale:
            x = x + solve(residual[None])[0]
        return np.ascontiguousarray(x)
    if a.size:
        scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
        at = a.transpose(0, 2, 1)
        skew = np.where(a == at, 0.0, np.abs(a - at)).max(axis=(1, 2))
        bad = np.flatnonzero(~(skew <= 1e-12 * scale))
        if bad.size:
            raise NotSPD(f"matrix {bad[0]} of the stack is not symmetric")
    failed, solve = _factor(a)
    if failed is not None:
        raise NotSPD(f"matrix {failed} of the stack is not positive definite")
    residual = None
    if b.size:
        x = solve(b)
        residual = b - a @ x
    for i in range(len(a)):
        lost = residual is None or not np.isfinite(residual[i]).all()
        if lost and not np.isfinite(a[i]).all():
            raise NotSPD(f"matrix {i} of the stack is not finite")
    if b.size == 0:
        return np.zeros(b.shape)
    b_scale = 1.0 + np.abs(b).max(axis=(1, 2))
    rows = np.flatnonzero(np.abs(residual).max(axis=(1, 2)) > 1e-10 * b_scale)
    if rows.size:
        x[rows] += solve(residual[rows], rows)
    return np.ascontiguousarray(x)


def raw_residual(a, b):
    """Max-norm residual of one system's raw solve, before refinement."""
    if a.shape[0] <= 16:
        raw = np.linalg.solve(a, b)
    else:
        raw = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
    return float(np.max(np.abs(b - a @ raw)))


def outcome(solve, a, b):
    """What a solve does with (a, b): the NotSPD message it raises, or its
    output's shape and bytes."""
    with np.errstate(all="ignore"):
        try:
            x = solve(a, b)
        except NotSPD as exc:
            return "NotSPD", str(exc)
    return x.shape, x.dtype, x.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestWholeStackChecks:
    """solve_spd settles symmetry and refinement by one comparison over
    the whole stack and checks system by system only when that fails: it
    must decide, raise and answer exactly as checking every system
    does."""

    S = 4

    @staticmethod
    def cases(n, rng):
        """(name, a, b, slice) stacks of S systems: slice is the one the
        case changes."""
        s = TestWholeStackChecks.S
        a, b = spd_stack(rng, s, n, 3, 1)
        i = int(rng.integers(s))
        p, q = (int(v) for v in rng.choice(n, size=2, replace=False))
        scale = max(1.0, float(np.abs(a[i]).max()))
        out = [("symmetric", a, b, i)]
        near = a.copy()
        near[i, p, q] += 0.5e-12 * scale
        out.append(("asymmetric within 1e-12", near, b, i))
        far = a.copy()
        far[i, p, q] += 1e-9 * scale
        out.append(("asymmetric beyond 1e-12", far, b, i))
        for value in (np.nan, np.inf):
            for where in ("diagonal", "pair", "rhs"):
                a2, b2 = a.copy(), b.copy()
                if where == "diagonal":
                    a2[i, p, p] = value
                elif where == "pair":
                    a2[i, p, q] = a2[i, q, p] = value
                else:
                    b2[i, p, 0] = value
                out.append((f"{value} {where}", a2, b2, i))
        ill = a.copy()
        ill[i] = spd_stack(rng, 1, n, 3, 14)[0][0]
        out.append(("one slice refines", ill, b, i))
        out.append(("large right-hand side", a, b * 1e7, i))
        for name, a2, _, j in list(out):
            out.append((f"{name}, empty rhs", a2, np.zeros((s, n, 0)), j))
        return out

    @pytest.mark.parametrize("n", [6, 16, 17, 100])
    def test_same_decisions_messages_and_bits(self, n):
        rng = np.random.default_rng(n)
        seen = set()
        for name, a, b, i in self.cases(n, rng):
            got = outcome(solve_spd, a, b)
            assert got == outcome(per_system_solve_spd, a, b), name
            assert outcome(solve_spd, a[i], b[i]) == outcome(per_system_solve_spd, a[i], b[i]), name
            seen.add((name, got[0] == "NotSPD"))
        # the cases reach every branch they are named for
        assert ("asymmetric within 1e-12", False) in seen
        assert ("asymmetric beyond 1e-12", True) in seen
        assert ("asymmetric beyond 1e-12, empty rhs", True) in seen
        assert ("nan rhs", False) in seen
        for value in ("nan", "inf"):
            for where in ("diagonal", "pair", "diagonal, empty rhs", "pair, empty rhs"):
                assert (f"{value} {where}", True) in seen

    @pytest.mark.parametrize("n", [6, 16, 17, 100])
    def test_non_finite_a_raises_naming_the_system(self, n):
        # A NaN fails the symmetry test; an infinity that the factorization
        # passes leaves a residual that is not finite.
        rng = np.random.default_rng(n)
        cases = {name: (a, b, i) for name, a, b, i in self.cases(n, rng)}
        for name, (a, b, i) in cases.items():
            if name.split(" ")[0] in ("nan", "inf") and "rhs" not in name.split(",")[0]:
                with pytest.raises(NotSPD, match=f"matrix {i} of the stack is not"):
                    solve_spd(a, b)
                with pytest.raises(NotSPD, match="matrix is not"):
                    solve_spd(a[i], b[i])
        # Beside a slice that is not exactly symmetric, an infinite entry
        # still equals its mirror: it has no skew, as in its lone call.
        a, b, i = cases["inf diagonal"]
        mixed = a.copy()
        mixed[(i + 1) % self.S] = cases["asymmetric within 1e-12"][0][i]
        assert outcome(solve_spd, mixed, b) == outcome(per_system_solve_spd, mixed, b)
        with pytest.raises(NotSPD, match=f"matrix {i} of the stack is not finite"):
            solve_spd(mixed, b)

    @pytest.mark.parametrize("n", [6, 16, 17, 100])
    def test_refinement_cases_take_the_per_system_rule(self, n):
        # The ill-conditioned slice, and only it, refines; a large
        # right-hand side leaves residuals above 1e-10 that its relative
        # bound still accepts.
        rng = np.random.default_rng(n)
        cases = {name: (a, b, i) for name, a, b, i in self.cases(n, rng)}
        a, b, i = cases["one slice refines"]
        big = [raw_residual(a[j], b[j]) > 1e-10 * (1.0 + np.abs(b[j]).max()) for j in range(self.S)]
        assert big == [j == i for j in range(self.S)]
        a, b, _ = cases["large right-hand side"]
        residuals = [raw_residual(a[j], b[j]) for j in range(self.S)]
        assert max(residuals) > 1e-10
        assert all(r <= 1e-10 * (1.0 + np.abs(b[j]).max()) for j, r in enumerate(residuals))

    def test_residual_of_exactly_1e10_settles_on_the_whole_stack(self):
        # A residual of at most 1e-10 needs no per-system rule, so the
        # right-hand sides are never read; just above it, they are.
        from mvfed.numerics import _to_refine

        class Unread(np.ndarray):
            def __array_ufunc__(self, *args, **kwargs):
                raise AssertionError("the per-system rule read B")

        b = np.zeros((3, 6, 2)).view(Unread)
        residual = np.zeros((3, 6, 2))
        residual[1, 4, 0] = -1e-10
        assert [m.size for m in _to_refine(residual, b)] == [0, 0]
        residual[1, 4, 0] = np.nextafter(1e-10, 1.0)
        with pytest.raises(AssertionError, match="per-system rule"):
            _to_refine(residual, b)
        assert [m.tolist() for m in _to_refine(residual, np.zeros((3, 6, 2)))] == [[1], []]
        residual[1, 4, 0] = np.nan
        assert [m.tolist() for m in _to_refine(residual, np.zeros((3, 6, 2)))] == [[], [1]]


@pytest.mark.parametrize("n", [16, 17])
class TestEngineBoundary:
    """The orders on each side of the switch from numpy's gufuncs to
    per-system LAPACK keep every contract of solve_spd."""

    def test_slices_equal_lone_calls_within_bound(self, n):
        rng = np.random.default_rng(n)
        # Twelve decades of spectrum take the refinement branch; the
        # residual bound covers G^T G + delta I with delta >= 1e-6.
        ill, ill_b = spd_stack(rng, 8, n, 2, 12)
        g = rng.standard_normal((8, n, n))
        g[::2, :, : n // 2] = 0.0
        well = g.transpose(0, 2, 1) @ g + rng.uniform(1e-6, 1.0, (8, 1, 1)) * np.eye(n)
        well_b = rng.standard_normal((8, n, 3))
        refined = check_solve_spd(ill, ill_b) + check_solve_spd(well, well_b, bounded=range(8))
        assert 0 < sum(refined) < 16

    def test_bad_system_named_even_with_empty_rhs(self, n):
        rng = np.random.default_rng(n)
        a, b = spd_stack(rng, 4, n, 2, 2)
        indefinite = np.eye(n)
        indefinite[-1, -1] = -1.0
        asymmetric = np.eye(n)
        asymmetric[0, -1] = 0.5
        for bad in (indefinite, asymmetric):
            stack = a.copy()
            stack[2] = bad
            for rhs in (b, b[:, :, :0]):
                with pytest.raises(NotSPD, match="matrix 2 of the stack"):
                    solve_spd(stack, rhs)
                with pytest.raises(NotSPD):
                    solve_spd(bad, rhs[2])


class TestEngineDispatch:
    def test_dpotrf_runs_only_above_order_16(self, monkeypatch):
        # The LAPACK engine calls the wrappers that `_lapack` binds once,
        # so the recording wrapper stands in for that binding.
        dpotrf, dpotrs = mvfed.numerics._lapack()
        orders = []

        def recording(a, *args, **kwargs):
            orders.append(len(a))
            return dpotrf(a, *args, **kwargs)

        monkeypatch.setattr(mvfed.numerics, "_lapack", lambda: (recording, dpotrs))
        # One many_clients-shaped hfed round: clients of 10 rows and three
        # 6-wide views, so every IRLS solve is a stack of 6 x 6 systems.
        clients = partition_horizontal(blob_dataset(3, n=80, dims=(6, 6, 6)), 8, seed=0)
        hfed_train(clients, HyperParams.uniform(3), seed=0, rounds=1)
        assert orders == []
        for n in (16, 17):
            a, b = spd_stack(np.random.default_rng(n), 5, n, 2, 2)
            solve_spd(a, b)
            solve_spd(a[0], b[0])
        assert orders == [17] * 6


# Run in a fresh interpreter: the package and the CLI load without scipy,
# narrow trainings never load it, and the first order-17 solve does.
SCIPY_ON_DEMAND = """
import sys
import numpy as np
import mvfed
import mvfed.cli
assert mvfed.cli.main(["--help"]) == 0
assert "scipy" not in sys.modules, "importing mvfed or its CLI loaded scipy"
data = mvfed.gen_multiview(mvfed.GeneratorSpec(
    n_samples=90, dims=(6, 16), n_classes=3, noise=0.5, margin=3.0, seed=0))
hp = mvfed.HyperParams.uniform(2, max_outer=5)
mvfed.train_mvl(data, hp, seed=0)
mvfed.hfed_train(mvfed.partition_horizontal(data, 3, seed=0), hp, seed=0, rounds=2)
assert "scipy" not in sys.modules, "a problem of order <= 16 loaded scipy"
a, b = np.load(sys.argv[1]), np.load(sys.argv[2])
np.save(sys.argv[3], mvfed.numerics.solve_spd(a, b))
assert "scipy" in sys.modules
"""


class TestScipyOnDemand:
    def test_imported_at_first_order_above_16(self, tmp_path):
        a, b = spd_stack(np.random.default_rng(170), 1, 17, 2, 12)
        paths = [tmp_path / name for name in ("a.npy", "b.npy", "x.npy")]
        np.save(paths[0], a[0])
        np.save(paths[1], b[0])
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_ON_DEMAND, *map(str, paths)],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert np.array_equal(np.load(paths[2]), reference_solve_spd(a[0], b[0]))


class TestOrthonormalInit:
    def test_gram_is_identity(self):
        q = orthonormal_init(10, 3, 7)
        assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-10

    def test_deterministic(self):
        assert np.array_equal(orthonormal_init(10, 3, 7), orthonormal_init(10, 3, 7))

    def test_seed_changes_output(self):
        assert not np.array_equal(orthonormal_init(10, 3, 7), orthonormal_init(10, 3, 8))

    def test_key_changes_output(self):
        assert not np.array_equal(
            orthonormal_init(10, 3, 7, 1), orthonormal_init(10, 3, 7, 2)
        )

    def test_invalid_shape(self):
        with pytest.raises(InvalidShape):
            orthonormal_init(2, 3, 0)
        with pytest.raises(InvalidShape):
            orthonormal_init(4, 0, 0)

    def test_gram_property_up_to_256(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(1, 257))
            c = int(rng.integers(1, n + 1))
            q = orthonormal_init(n, c, int(rng.integers(0, 2**32)))
            assert np.max(np.abs(q.T @ q - np.eye(c))) <= 1e-10
        q = orthonormal_init(256, 256, 3)
        assert np.max(np.abs(q.T @ q - np.eye(256))) <= 1e-10

    def test_square_has_unit_determinant(self):
        q = orthonormal_init(5, 5, 11)
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-10

    @pytest.mark.parametrize("n, c", [(10, 2), (7, 7), (40, 3), (3, 1)])
    def test_stack_matches_each_block_alone(self, n, c):
        check_inits(n, c, 9, [(1, l, k) for l in range(6) for k in range(3)] + [(2, 4)])


class TestRowL2Norms:
    def test_three_four_five(self):
        assert np.array_equal(row_l2_norms(np.array([[3.0, 4.0]])), np.array([5.0]))

    def test_zero_matrix(self):
        assert np.array_equal(row_l2_norms(np.zeros((2, 2))), np.zeros(2))

    def test_identity(self):
        assert np.array_equal(row_l2_norms(np.eye(2)), np.ones(2))

    def test_rejects_1d(self):
        with pytest.raises(DimensionMismatch):
            row_l2_norms(np.ones(3))


class TestRng:
    def test_streams_deterministic(self):
        a = make_rng(42, 1, 2).standard_normal(5)
        b = make_rng(42, 1, 2).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_independent_across_keys(self):
        a = make_rng(42, 1).standard_normal(5)
        b = make_rng(42, 2).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidShape):
            make_rng(-1)

    @pytest.mark.parametrize("bad", [(-1,), (1.5,), (1, -1), (1, 0.5), (1, 2, "3")])
    def test_bad_seed_or_key_rejected(self, bad):
        with pytest.raises(InvalidShape):
            make_rng(*bad)
        with pytest.raises(InvalidShape):
            stream_states(bad[0], [(0,), bad[1:]])

    def test_gaussian_init_scale(self):
        m = gaussian_init(4, 3, 9, 0, scale=0.0)
        assert np.array_equal(m, np.zeros((4, 3)))
        m2 = gaussian_init(2000, 1, 9, scale=2.0)
        assert abs(float(np.std(m2)) - 2.0) < 0.2


class TestDrawStreams:
    """The batch path, `stream_states` and `_streams`, must give
    `make_rng(seed, *key)`'s streams bit for bit."""

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("keys", [[()], [(0,)], [(2**32,)], MIXED_KEYS])
    @pytest.mark.parametrize("draw", [
        lambda rng: rng.standard_normal((3, 4)),
        lambda rng: rng.permutation(17),
    ])
    def test_equals_make_rng(self, seed, keys, draw):
        check_streams(seed, keys, [draw])

    def test_many_keys(self):
        keys = [(1, l, k) for l in range(100) for k in range(4)] + MIXED_KEYS
        check_streams(5, keys, [lambda rng: rng.standard_normal(6)])

    def test_no_keys(self):
        check_streams(3, [])

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_states_equal_make_rng_state(self, seed):
        keys = MIXED_KEYS + [(4, l, 1, r) for r in range(3) for l in range(24)]
        check_streams(seed, keys, draws=())

    def test_orthonormal_inits_match_make_rng_reference(self):
        # hfed's client init keys for 128 clients of 3 views.
        keys = [(1, l, k) for l in range(128) for k in range(3)] + [(2, l) for l in range(128)]
        check_inits(10, 2, 7, keys)
