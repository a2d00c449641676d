"""Shared numerical kernels: seeded RNG, SPD solves, orthonormal inits.

Every piece of randomness in the package flows through :func:`make_rng`,
which maps an unsigned integer seed plus a tuple of small integer labels
to an independent PCG64 stream.  Using fixed labels per role lets two
different drivers (e.g. a centralized trainer and a set of federated
parties) derive bitwise-identical initial states from one seed.
:func:`stream_states` derives the same streams' start states for a
batch of keys in one pass, running numpy's `SeedSequence` hash as uint32
array operations over all keys, and :func:`draw_streams` draws from
them on one reused generator.  The pass has a fixed cost of about 150
array operations, so it pays off from about 30 keys: a caller that
knows many keys in advance derives them together (hfed's client inits,
one row-count group at a time; sfed's shuffles, every client and round
of a view's federation), and a lone stream stays on `make_rng`.

:func:`solve_spd` solves one SPD system or an (s, n, n) stack of them
on one of two engines, chosen by the order n alone: numpy's stacked
LAPACK gufuncs, one call per stack, up to ``_GUFUNC_MAX_ORDER`` (16),
where calling scipy's wrappers once per system cost more than the
arithmetic; scipy's ``dpotrf``/``dpotrs`` above it, where they beat
numpy's Cholesky plus LU solve.  Only that engine imports scipy, inside
its factor call, so a process whose systems are all of order <= 16
never loads it.  Its symmetry and refinement checks are each one
comparison over the whole stack, made system by system only when that
comparison fails.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import DimensionMismatch, InvalidShape, NotSPD

__all__ = [
    "KEY_TRANSFORM",
    "KEY_PSEUDO",
    "KEY_CONSENSUS",
    "KEY_ENCODER",
    "KEY_SHUFFLE",
    "KEY_DATA",
    "make_rng",
    "stream_states",
    "pcg64_state",
    "draw_streams",
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


def _entropy(seed, key: Sequence) -> list[int]:
    """[seed, *key] as Python ints; InvalidShape unless each is a
    non-negative integer."""
    try:
        ints = list(map(operator.index, (seed, *key)))
    except TypeError:
        ints = [-1]
    if min(ints) < 0:
        raise InvalidShape(
            "seed and key entries must be non-negative integers, "
            f"got seed={seed!r}, key={tuple(key)!r}"
        )
    return ints


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a deterministic PCG64 generator for (seed, key).

    Distinct keys yield statistically independent streams; identical
    (seed, key) pairs always yield the same stream.  The seed and every
    key entry must be non-negative integers (InvalidShape otherwise).
    """
    seed, *key = _entropy(seed, key)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key)))
    )


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit multiplier.  NEP 19 keeps both streams fixed across numpy
# versions, so `stream_states` can derive them a second way, bit for bit.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of one non-negative int, low first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def stream_states(seed: int, keys: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The start state of `make_rng(seed, *key).bit_generator` for every
    key, derived in one pass, as a (len(keys), 4) uint64 array of the
    PCG64 state's and increment's high and low words: 32 bytes a stream.
    `pcg64_state` turns a row into the generator's state."""
    words = [
        (state >> 64, state & _MASK64, inc >> 64, inc & _MASK64)
        for state, inc in _pcg64_states(seed, keys)
    ]
    return np.array(words, dtype=np.uint64).reshape(-1, 4)


def pcg64_state(words) -> dict:
    """The PCG64 `bit_generator.state` of one `stream_states` row."""
    state_hi, state_lo, inc_hi, inc_lo = map(int, words)
    return _state_dict((state_hi << 64) | state_lo, (inc_hi << 64) | inc_lo)


def _state_dict(state: int, inc: int) -> dict:
    return {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }


def _pcg64_states(seed: int, keys: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The (state, inc) of `make_rng(seed, *key).bit_generator` for every
    key, hashed together.

    SeedSequence pads the seed's words with zeros to its 4-word pool when
    the key is not empty, and hashing a missing pool word is hashing a 0,
    so every stream's entropy is the padded seed followed by its key
    words.  The hash's multiplier sequence depends only on word
    positions, so all keys step through it together; a word past a
    key's end leaves that key's pool as it is.
    """
    try:
        seed, *words = _entropy(seed, [v for key in keys for v in key])
    except InvalidShape:
        for key in keys:
            _entropy(seed, key)  # names the first bad key
        raise
    if not keys:
        return []
    lengths = [len(key) for key in keys]
    if words and max(words) > _MASK32:
        split = [[w for v in _entropy(seed, key)[1:] for w in _words(v)] for key in keys]
        lengths, words = [len(k) for k in split], [w for k in split for w in k]
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    lengths = len(run) + np.array(lengths, dtype=np.int64)
    width = int(lengths.max())
    entropy = np.zeros((len(keys), width), dtype=np.uint32)
    entropy[:, : len(run)] = run
    entropy[:, len(run):][np.arange(len(run), width) < lengths[:, None]] = words
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * _MULT_A) & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> 16)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        live = lengths > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(live, mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    # generate_state(4, np.uint64): eight words, little-endian pairs.
    const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = value * const
        words.append(value ^ (value >> 16))
    seeds = np.stack(words, axis=1).astype("<u4").view("<u8").tolist()
    states = []
    # PCG64 seeding: inc = 2 * initseq + 1; state = ((inc + initstate) * M + inc).
    for state_hi, state_lo, seq_hi, seq_lo in seeds:
        inc = ((((seq_hi << 64) | seq_lo) << 1) | 1) & _MASK128
        state = ((inc + ((state_hi << 64) | state_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


T = TypeVar("T")


def draw_streams(
    seed: int, keys: Sequence[tuple[int, ...]], draw: Callable[[np.random.Generator], T]
) -> list[T]:
    """`[draw(make_rng(seed, *key)) for key in keys]`, bit for bit.

    The streams are derived for all keys in one pass, as in
    `stream_states`, and each is set in turn on one reused generator, so
    `draw` must finish with its generator before it returns.  Worth it
    from about 30 keys.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    out = []
    for state, inc in _pcg64_states(seed, keys):
        bit_generator.state = _state_dict(state, inc)
        out.append(draw(rng))
    return out


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
    _check_init_shape(n, c)
    return _orthonormalize(make_rng(seed, *key).standard_normal((1, n, c)))[0]


def orthonormal_inits(
    n: int, c: int, seed: int, keys: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """`orthonormal_init(n, c, seed, *key)` for every key, as one
    (len(keys), n, c) stack: each block is drawn from its own stream,
    the streams derived together by `draw_streams`, and all of them are
    factored by one stacked QR."""
    _check_init_shape(n, c)
    g = draw_streams(seed, keys, lambda rng: rng.standard_normal((n, c)))
    return _orthonormalize(np.stack(g))


def _check_init_shape(n: int, c: int) -> None:
    if c < 1 or n < c:
        raise InvalidShape(f"need 1 <= c <= n, got n={n}, c={c}")


def _orthonormalize(g: np.ndarray) -> np.ndarray:
    """Q of each slice's QR, columns signed so R's diagonal is non-negative."""
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


# The largest order solved on numpy's gufuncs.  The crossover, measured at
# one BLAS thread on (128, n, n) stacks: they take 0.34x the time of the
# per-system LAPACK calls at n = 4, 0.52x at 8, 0.98x at 16 and 1.20x at 20
# (1.17x at 20 on 16-stacks), since numpy's Cholesky is only the check and
# its LU solve stands in for dpotrs.
_GUFUNC_MAX_ORDER = 16

_NONE = np.empty(0, dtype=np.intp)


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A.

    Parameters
    ----------
    a : (n, n) symmetric positive definite matrix, or an (s, n, n) stack
        of them.
    b : (n, m) right-hand side, or an (s, n, m) stack matching `a`.

    Returns
    -------
    X : (n, m) solution, or the (s, n, m) stack of per-system solutions,
        with max-norm residual ``<= 1e-8 * (1 + max|B|)`` per system.
        One iterative-refinement pass (a second solve, against the
        residual) runs on each system whose raw solve leaves a residual
        above 1e-10 relative, which keeps the bound comfortable for
        ill-conditioned inputs.

    The order n alone picks the engine.  For n <= 16, one
    ``np.linalg.cholesky`` over the whole stack is the positive
    definiteness check and one ``np.linalg.solve`` (LU) gives the
    solutions, so the per-call cost of numpy's gufuncs is paid once per
    stack instead of two scipy LAPACK wrapper calls per system; a lone
    system pays about 10-15 us more than on LAPACK.  Larger systems
    are factored and solved by scipy's ``dpotrf``/``dpotrs`` one at a
    time, which beats numpy's Cholesky plus LU there.  Each such
    factorization imports them from scipy, the first one loading scipy;
    a call with n <= 16 never does.  Both
    engines share the checks, the residual product and the refinement
    rule, and since the engine never depends on the stack size, each
    slice of a stack's result is bit-identical to solving that system
    alone.

    Each check is first settled for the whole stack (2-D or stacked) by
    one comparison, and measured system by system only when that fails:
    symmetry by ``A == A^T`` exactly, then by the skew of each system
    against max(1, its largest |entry|); refinement by a residual of at
    most 1e-10 everywhere, then by each system's residual against
    1e-10 (1 + max|B|).  Both per-system bounds are at least the
    whole-stack ones, so the comparison never changes a decision.  A
    non-finite A fails one of them and is rejected on the per-system
    path: a NaN fails the symmetry test, and an infinity leaves a
    residual that is not finite, so a system whose residual is not
    finite is checked for a non-finite A (with an empty B, every
    system is).

    Raises
    ------
    DimensionMismatch : shapes are incompatible.
    NotSPD : A (any system of a stack, which the message names) is not
        symmetric within 1e-12 relative, is not positive definite, or
        has an entry that is not finite.
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
    if _asymmetric(a[None]).size:
        raise NotSPD("matrix is not symmetric")
    failed, solve = _factor(a)
    if failed is not None:
        raise NotSPD("matrix is not positive definite")
    if b.size == 0:
        _reject_nonfinite(a[None], [0], stacked=False)
        return np.zeros(b.shape)
    x = solve(b)
    residual = _residual(a, x, b)
    rows, lost = _to_refine(residual[None], b[None])
    if lost.size:
        _reject_nonfinite(a[None], lost, stacked=False)
    if rows.size:
        x = x + solve(residual)
    return np.ascontiguousarray(x)


def _solve_spd_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`solve_spd` over an (s, n, n) stack: the same checks and rules,
    vectorized over the stack."""
    s, n = a.shape[0], a.shape[1]
    if a.shape[2] != n:
        raise DimensionMismatch(f"A must be a stack of square matrices, got shape {a.shape}")
    if b.ndim != 3 or b.shape[:2] != (s, n):
        raise DimensionMismatch(
            f"B must be 3-D with leading shape {(s, n)}, got shape {b.shape}"
        )
    bad = _asymmetric(a)
    if bad.size:
        raise NotSPD(f"matrix {bad[0]} of the stack is not symmetric")
    failed, solve = _factor(a)
    if failed is not None:
        raise NotSPD(f"matrix {failed} of the stack is not positive definite")
    if b.size == 0:
        _reject_nonfinite(a, range(s), stacked=True)
        return np.zeros(b.shape)
    x = solve(b)
    residual = _residual(a, x, b)
    rows, lost = _to_refine(residual, b)
    if lost.size:
        _reject_nonfinite(a, lost, stacked=True)
    if rows.size:
        x[rows] += solve(residual[rows], rows)
    return np.ascontiguousarray(x)


def _residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """B - A X.  An infinite entry of A that the factorization passed
    makes inf * 0 here, quietly: the residual is then not finite, and
    `_to_refine` hands its system to `_reject_nonfinite`."""
    with np.errstate(invalid="ignore"):
        return b - a @ x


def _asymmetric(a: np.ndarray) -> np.ndarray:
    """The indices of the systems of an (s, n, n) stack that are not
    symmetric within 1e-12 relative to max(1, their largest |entry|),
    measured one by one only if the stack is not exactly symmetric."""
    equal = a == a.transpose(0, 2, 1)
    if equal.all():
        return _NONE
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    # Equal entries have no skew, even infinite ones, whose difference is
    # NaN; a NaN is never equal and its skew is not within any bound.
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - a.transpose(0, 2, 1))
    skew = np.where(equal, 0.0, diff).max(axis=(1, 2))
    return np.flatnonzero(~(skew <= 1e-12 * scale))


def _to_refine(residual: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the systems of an (s, n, m) stack whose max-norm
    residual exceeds 1e-10 (1 + max|B|), B their right-hand sides, and
    those whose residual is not finite, measured one by one only if
    some residual entry is not <= 1e-10."""
    err = np.abs(residual)
    if err.max() <= 1e-10:
        return _NONE, _NONE
    worst = err.max(axis=(1, 2))
    return (
        np.flatnonzero(worst > 1e-10 * (1.0 + np.abs(b).max(axis=(1, 2)))),
        np.flatnonzero(~np.isfinite(worst)),
    )


def _reject_nonfinite(a: np.ndarray, systems, stacked: bool) -> None:
    """Raise NotSPD for the first of the given systems of an (s, n, n)
    stack with an entry that is not finite."""
    for i in systems:
        if not np.isfinite(a[i]).all():
            what = f"matrix {i} of the stack" if stacked else "matrix"
            raise NotSPD(f"{what} is not finite")


def _factor(a: np.ndarray):
    """Factor an (n, n) matrix or an (s, n, n) stack with the engine that
    owns its order.  Returns (the index of the first system that is not
    positive definite, or None; ``solve(rhs)``, which solves every system
    against its right-hand side, or for a stack ``solve(rhs, rows)``,
    which solves only the systems ``rows``)."""
    if a.shape[-1] <= _GUFUNC_MAX_ORDER:
        return _gufunc_factor(a)
    return _lapack_factor(a)


def _gufunc_factor(a: np.ndarray):
    """`_factor` through numpy: one Cholesky call over the whole stack as
    the check, one LU solve call per solve."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        for i, ai in enumerate(a.reshape((-1,) + a.shape[-2:])):
            try:
                np.linalg.cholesky(ai)
            except np.linalg.LinAlgError:
                return i, None
    return None, lambda rhs, rows=slice(None): np.linalg.solve(a[rows], rhs)


def _lapack_factor(a: np.ndarray):
    """`_factor` through scipy's dpotrf/dpotrs, once per system, with the
    LAPACK flags of scipy.linalg.cho_factor/cho_solve.  Imports both
    wrappers at call time, so its first call loads scipy."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    if a.ndim == 2:
        factor, info = dpotrf(a, lower=1, clean=0)
        if info > 0:
            return 0, None
        return None, lambda rhs: dpotrs(factor, rhs, lower=1)[0]
    factors = [dpotrf(ai, lower=1, clean=0) for ai in a]
    for i, (_, info) in enumerate(factors):
        if info > 0:
            return i, None

    def solve(rhs, rows=range(len(a))):
        # dpotrs returns Fortran-ordered solutions; stacking their
        # transposes keeps that layout in every slice, so the residual
        # product of a stack makes the same BLAS call as a lone system's.
        return np.stack(
            [dpotrs(factors[i][0], ri, lower=1)[0].T for i, ri in zip(rows, rhs)]
        ).transpose(0, 2, 1)

    return None, solve
