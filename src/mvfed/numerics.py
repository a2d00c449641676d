"""Shared numerical kernels: seeded RNG, SPD solves, orthonormal inits.

Every piece of randomness in the package flows through :func:`make_rng`,
which maps an unsigned integer seed plus a tuple of small integer labels
to an independent PCG64 stream.  Using fixed labels per role lets two
different drivers (e.g. a centralized trainer and a set of federated
parties) derive bitwise-identical initial states from one seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DimensionMismatch, InvalidShape, NotSPD

__all__ = [
    "KEY_TRANSFORM",
    "KEY_PSEUDO",
    "KEY_CONSENSUS",
    "KEY_ENCODER",
    "KEY_SHUFFLE",
    "KEY_DATA",
    "make_rng",
    "gaussian_init",
    "orthonormal_init",
    "orthonormal_inits",
    "row_l2_norms",
    "solve_spd",
]

# Stream labels (first element of the spawn key).  Keep these stable:
# reproducibility of every trainer in the package depends on them.
KEY_TRANSFORM = 0  # per-view transform matrices W_k
KEY_PSEUDO = 1  # per-view pseudo-label matrices
KEY_CONSENSUS = 2  # shared consensus matrix
KEY_ENCODER = 3  # sequence-encoder parameter vectors
KEY_SHUFFLE = 4  # minibatch shuffles
KEY_DATA = 5  # synthetic data generation


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a deterministic PCG64 generator for (seed, key).

    Distinct keys yield statistically independent streams; identical
    (seed, key) pairs always yield the same stream.
    """
    if seed < 0:
        raise InvalidShape(f"seed must be non-negative, got {seed}")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
    )


def gaussian_init(rows: int, cols: int, seed: int, *key: int, scale: float = 1.0) -> np.ndarray:
    """Seeded standard-normal matrix scaled by `scale`."""
    if rows < 0 or cols < 0:
        raise InvalidShape(f"invalid shape ({rows}, {cols})")
    rng = make_rng(seed, *key)
    return scale * rng.standard_normal((rows, cols))


def orthonormal_init(n: int, c: int, seed: int, *key: int) -> np.ndarray:
    """Seeded n-by-c matrix Q with Q^T Q = I_c.

    Built as the QR factor of a seeded Gaussian matrix.  Column signs are
    fixed so the triangular factor has a non-negative diagonal, which
    removes the sign ambiguity of QR and keeps the output stable for a
    given seed.
    """
    return orthonormal_inits(n, c, seed, [key])[0]


def orthonormal_inits(
    n: int, c: int, seed: int, keys: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """`orthonormal_init(n, c, seed, *key)` for every key, as one
    (len(keys), n, c) stack: each block is drawn from its own stream,
    and all of them are factored by one stacked QR."""
    if c < 1 or n < c:
        raise InvalidShape(f"need 1 <= c <= n, got n={n}, c={c}")
    g = np.stack([make_rng(seed, *key).standard_normal((n, c)) for key in keys])
    q, r = np.linalg.qr(g, mode="reduced")
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0.0] = 1.0
    return q * signs[:, None, :]


def row_l2_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    return np.sqrt(np.einsum("ij,ij->i", m, m))


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A via Cholesky.

    Parameters
    ----------
    a : (n, n) symmetric positive definite matrix, or an (s, n, n) stack
        of them.
    b : (n, m) right-hand side, or an (s, n, m) stack matching `a`.

    Returns
    -------
    X : (n, m) solution, or the (s, n, m) stack of per-system solutions,
        with max-norm residual ``<= 1e-8 * (1 + max|B|)`` per system.
        A single iterative-refinement pass (reusing the factorization)
        runs on each system whose raw solve leaves a residual above
        1e-10 relative, which keeps the bound comfortable for
        ill-conditioned inputs.  Every system of a stack goes through
        the same checks and LAPACK calls as a 2-D call, so each slice of
        the result is bit-identical to solving that system alone.

    Raises
    ------
    DimensionMismatch : shapes are incompatible.
    NotSPD : A (any system of a stack) is not symmetric within 1e-12
        relative, or the factorization hits a non-positive pivot.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 3:
        return _solve_spd_stack(a, b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"A must be square, got shape {a.shape}")
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"B must be 2-D with {a.shape[0]} rows, got shape {b.shape}"
        )
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if a.size and float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise NotSPD("matrix is not symmetric")
    # The LAPACK calls and flags of scipy.linalg.cho_factor/cho_solve,
    # without their per-call validation layers.
    factor, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise NotSPD(f"{info}-th leading minor of the array is not positive definite")
    if b.size == 0:
        return np.zeros(b.shape)
    x, _ = dpotrs(factor, b, lower=1)
    residual = b - a @ x
    b_scale = 1.0 + float(np.abs(b).max())
    if float(np.abs(residual).max()) > 1e-10 * b_scale:
        x = x + dpotrs(factor, residual, lower=1)[0]
    return np.ascontiguousarray(x)


def _solve_spd_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`solve_spd` over an (s, n, n) stack: the checks run on the whole
    stack at once, the LAPACK calls once per system."""
    s, n = a.shape[0], a.shape[1]
    if a.shape[2] != n:
        raise DimensionMismatch(f"A must be a stack of square matrices, got shape {a.shape}")
    if b.ndim != 3 or b.shape[:2] != (s, n):
        raise DimensionMismatch(
            f"B must be 3-D with leading shape {(s, n)}, got shape {b.shape}"
        )
    if a.size:
        scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
        skew = np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2))
        bad = np.flatnonzero(skew > 1e-12 * scale)
        if bad.size:
            raise NotSPD(f"matrix {bad[0]} of the stack is not symmetric")
    factors = [dpotrf(ai, lower=1, clean=0) for ai in a]
    for i, (_, info) in enumerate(factors):
        if info > 0:
            raise NotSPD(
                f"matrix {i} of the stack: {info}-th leading minor is not positive definite"
            )
    if b.size == 0:
        return np.zeros(b.shape)
    # dpotrs returns Fortran-ordered solutions; stacking their transposes
    # keeps that layout in every slice, so `a @ x` below makes the same
    # BLAS call as the 2-D residual does.
    x = np.stack(
        [dpotrs(factor, bi, lower=1)[0].T for (factor, _), bi in zip(factors, b)]
    ).transpose(0, 2, 1)
    residual = b - a @ x
    b_scale = 1.0 + np.abs(b).max(axis=(1, 2))
    for i in np.flatnonzero(np.abs(residual).max(axis=(1, 2)) > 1e-10 * b_scale):
        x[i] = x[i] + dpotrs(factors[i][0], residual[i], lower=1)[0]
    return np.ascontiguousarray(x)
