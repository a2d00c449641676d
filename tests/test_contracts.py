"""Stack equals solo: one contract for every stacked path.

mvfed computes linear systems, random streams, IRLS fits, grid
candidates, clients and views as stacks.  Each slice of a stack must
come out with the bytes of its solo run, the stack of one; otherwise a
federated client would not compute exactly its own update.  For each
stacked entry point, one `check_*` function runs a stack and every
slice alone, asserts that the bytes agree, and asserts the structural
facts of the path on the calls it records.  A seeded numpy generator,
in its test or a `draw_*` function, draws random stacks for it, and the
tests here assert that the draws hit the cases they exist for: primal
and dual slices, shared and per-slice X, ragged row counts with rows x
classes on both sides of 8, where numpy's pairwise sums change
association, mixed widths, and slices that stop at different iterations
or at the cap.  The other test modules feed the same checks their
fixed, hand-picked stacks.
"""

import contextlib
import dataclasses
import itertools
import types

import numpy as np
import pytest

from mvfed import experiments, fedcore, hfed, mvl, numerics, sfed
from mvfed.fedcore.messages import PAYLOADS
from suite_utils import (
    BATCH_SEEDS, MIXED_KEYS, ReferenceClient, assert_same_state, blob_dataset, client_state,
    fedavg_in_order, record_calls, reference_objective, refines, scaling_federation,
)


def assert_all_hit(hits):
    """Every case named in the per-draw dicts of hits was hit by a draw."""
    assert not [case for case in hits[0] if not any(h[case] for h in hits)]


def stops(runs, cap):
    """The stop cases of slices that ran the given iteration counts."""
    return dict(stops_differ=len(set(runs)) > 1, cap=cap in runs)


@contextlib.contextmanager
def recording(module, name, stacked_arg, group=False):
    """The stack sizes of the calls to module.<name> in the block (`record_calls`)."""
    with pytest.MonkeyPatch.context() as patch:
        yield record_calls(patch, module, name, stacked_arg, group)


# --- numerics.solve_spd ---------------------------------------------------


def check_solve_spd(a, b, bounded=()):
    """Each system of the stack solves as alone, bit for bit; those listed
    in bounded meet the residual bound.  Returns which ones refine."""
    x = numerics.solve_spd(a, b)
    assert x.shape == b.shape and x.flags.c_contiguous
    for i in range(len(a)):
        alone = numerics.solve_spd(a[i], b[i])
        assert x[i].tobytes() == alone.tobytes(), i
        if i in bounded and b.shape[2]:
            assert np.abs(a[i] @ alone - b[i]).max() <= 1e-8 * (1.0 + np.abs(b[i]).max())
    return [bool(b.shape[2]) and refines(a[i], b[i]) for i in range(len(a))]


def draw_spd(rng, n):
    """1-6 SPD systems of order n with 0-3 right-hand sides, and the
    indices of the well-conditioned ones (G^T G + delta I, delta >= 1e-6,
    at times half of G zero); the others span twelve decades."""
    s = int(rng.integers(1, 7))
    a, bounded = np.empty((s, n, n)), np.flatnonzero(rng.random(s) < 0.5).tolist()
    for i in range(s):
        if i in bounded:
            g = rng.standard_normal((n, n))
            g[:, : n // 2 * int(rng.random() < 0.5)] = 0.0
            a[i] = g.T @ g + rng.uniform(1e-6, 1.0) * np.eye(n)
        else:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a[i] = (q * 10.0 ** rng.uniform(-6.0, 6.0, n)) @ q.T
            a[i] = (a[i] + a[i].T) / 2.0
    return a, rng.standard_normal((s, n, int(rng.integers(0, 4)))), bounded


def test_solve_spd():
    rng = np.random.default_rng(1)
    hits = []
    for n in range(1, 25):  # numpy's gufuncs up to order 16, LAPACK above
        a, b, bounded = draw_spd(rng, n)
        refined = check_solve_spd(a, b, bounded)
        # Stacks of each engine that mix systems that refine and that do not.
        mixed = 0 < sum(refined) < len(a)
        hits.append(dict(
            empty_rhs=not b.shape[2], gufunc_mixed=mixed and n <= 16, lapack_mixed=mixed and n > 16
        ))
    assert_all_hit(hits)


# --- numerics streams: _streams, stream_states, orthonormal_inits ---------


DRAWS = (lambda g: g.standard_normal((3, 4)), lambda g: g.permutation(17))


def check_streams(seed, keys, draws=DRAWS):
    """`stream_states` (state, inc) pairs and `_streams` generators start
    and run as `make_rng(seed, *key)`, bit for bit."""
    states = numerics.stream_states(seed, keys)
    assert all(len(pair) == 2 and all(type(v) is int for v in pair) for pair in states)
    for key, pair, got in zip(keys, states, numerics._streams(seed, keys), strict=True):
        want = numerics.make_rng(seed, *key)
        assert numerics.pcg64_state(*pair) == got.bit_generator.state == want.bit_generator.state
        for draw in draws:
            assert draw(got).tobytes() == draw(want).tobytes()


def check_inits(n, c, seed, keys):
    """Each `orthonormal_inits` block is its key's `orthonormal_init` and
    the per-block recipe, one 2-D QR of the key's own draw."""
    stack = numerics.orthonormal_inits(n, c, seed, keys)
    assert stack.shape == (len(keys), n, c)
    for key, block in zip(keys, stack):
        q, r = np.linalg.qr(numerics.make_rng(seed, *key).standard_normal((n, c)), mode="reduced")
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        alone = numerics.orthonormal_init(n, c, seed, *key)
        assert block.tobytes() == (q * signs).tobytes() == alone.tobytes()


@pytest.mark.parametrize(
    "seed, shape", zip(BATCH_SEEDS, [(10, 2), (7, 7), (40, 3), (3, 1), (1, 1)])
)
def test_streams(seed, shape):
    # MIXED_KEYS and 40 random keys of 0-4 entries, at times past 2**32.
    rng = np.random.default_rng(seed % 2**32)
    keys = MIXED_KEYS + [
        tuple(rng.integers(0, 2**33 if rng.random() < 0.2 else 300, rng.integers(0, 5)).tolist())
        for _ in range(40)
    ]
    check_streams(seed, keys)
    check_inits(*shape, seed, keys)
    check_streams(seed, [])


# --- mvl._fit_stats width groups ------------------------------------------


def check_width_group(views, max_inner, tol):
    """`_fit_stats` over a width group, views[k] = (X, targets, beta, W
    inits, X^T X or None), returns uncut stacks over all its slices, view
    after view, that give each slice the outputs of its 2-D call, X W as
    `_fit_views` forms it (`_row_products`) included; and each solve
    covers exactly the slices whose own fit still runs.  Returns each
    slice's iteration count."""
    xs, targets, betas, w_inits, grams = (list(f) for f in zip(*views))
    with recording(mvl, "solve_spd", 0) as solves:
        w, a, res = mvl._fit_stats(xs, targets, betas, 1e-8, max_inner, tol, w_inits, grams)
    assert len(w) == len(a) == len(res) == sum(len(t) for t in targets)
    iterations = []
    for x, t, beta, w0, _ in views:
        start = len(iterations)
        for i, xw in enumerate(mvl._row_products(x, w[start : start + len(t)])):
            with recording(mvl, "solve_spd", 0) as solo:
                x_i = x if x.ndim == 2 else x[i]
                want = mvl._fit_stats(x_i, t[i], beta, 1e-8, max_inner, tol, w0[i])
            j = start + i
            assert w[j].tobytes() == want[0].tobytes() and a[j].tobytes() == want[1].tobytes()
            assert res[j] == want[2] and xw.tobytes() == want[3].tobytes()
            iterations.append(len(solo))
    assert solves == [sum(it > j for it in iterations) for j in range(max(iterations))]
    return iterations


def draw_width_group(rng):
    """One view wider than its n rows (dual form), or 1-3 views of one
    width d <= n; each with a beta, 1-4 slices, an X that they share (2-D)
    or one each, and X^T X given or not."""
    n, c = int(rng.integers(3, 16)), int(rng.integers(1, 4))
    dual = rng.random() < 0.4
    d = int(rng.integers(n + 1, 2 * n + 2)) if dual else int(rng.integers(1, n + 1))
    views = []
    for _ in range(1 if dual else int(rng.integers(1, 4))):
        s = int(rng.integers(1, 5))
        x = rng.standard_normal((n, d) if rng.random() < 0.5 else (s, n, d)) * rng.uniform(0.1, 3.0)
        gram = None if dual or rng.random() < 0.5 else mvl._grams([x])[0]
        t = rng.standard_normal((s, n, c)) * rng.uniform(0.1, 3.0, (s, 1, 1))
        w0 = rng.standard_normal((s, d, c)) / np.sqrt(d)
        views.append((x, t, float(rng.uniform(0.25, 4.0)), w0, gram))
    return views, int(rng.integers(2, 16)), float(10.0 ** rng.uniform(-6.0, -2.0))


def test_fit_stats_width_groups():
    rng = np.random.default_rng(2)
    hits = []
    for _ in range(16):
        views, max_inner, tol = draw_width_group(rng)
        iterations = check_width_group(views, max_inner, tol)
        ndims = {v[0].ndim for v in views}
        hits.append(dict(
            dual=views[0][0].shape[-1] > views[0][0].shape[-2], several_views=len(views) > 1,
            shared_x=2 in ndims, per_slice_x=3 in ndims, shared_and_per_slice_x=len(ndims) > 1,
            one_slice=len(iterations) == 1, **stops(iterations, max_inner),
        ))
    assert_all_hit(hits)


# --- mvl._passes ----------------------------------------------------------


def run_passes(p, slots):
    """`_passes` over the given slots of a problem (`draw_passes`), stacked
    as hfed stacks a block or as `_train_stack` stacks candidates."""
    weights = [q[slots] for q in p.zeta], p.eta[slots]
    if not p.layout:
        return mvl._passes(
            p.views, p.labels, [m[slots] for m in p.w],
            [m[slots] for m in p.zk], p.z[slots], *weights, p.hp, p.max_passes, p.fit_first,
        )
    starts = np.cumsum([0, *p.rows])
    idx = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in slots])
    return mvl._passes(
        [x[idx] for x in p.views], p.labels[idx],
        [m[slots] for m in p.w], [m[idx] for m in p.zk], p.z[idx], *weights,
        p.hp, p.max_passes, p.fit_first, mvl._layout(p.rows[slots].tolist()),
    )


def slot_reports(reports, i):
    """Slot i's objective, residual and W row norms, as bytes, in each
    `_passes` report while it runs."""
    out = []
    for live, value, norms, residual in reports:
        if i not in live:
            break
        at = live.tolist().index(i)
        out.append([value[at].tobytes(), residual[at].tobytes(), *(m[at].tobytes() for m in norms)])
    return out


def width_groups(views, n_rows):
    """The views of each `_fit_stats` call of `_fit_views`, in call order:
    those of one width up to n_rows together, each wider one alone."""
    keys = [-1 - k if x.shape[1] > n_rows else x.shape[1] for k, x in enumerate(views)]
    return [keys.count(q) for q in dict.fromkeys(keys)]


def check_passes(p):
    """`_passes` gives each slot the W, pseudo-labels, consensus and
    reports of its stack of one, starting from the slot's own
    `objective`, with one kernel call a pass per width group over the
    running slots.  Returns each slot's pass count."""
    s = len(p.eta)
    with recording(mvl, "_fit_stats", 1, group=True) as kernel:
        w, zk, z, reports = run_passes(p, list(range(s)))
    made = [len(slot_reports(reports, i)) - 1 for i in range(s)]
    groups = width_groups(p.views, p.rows.min())
    assert kernel == [g * sum(m > t for m in made) for t in range(max(made)) for g in groups]
    starts = np.cumsum([0, *p.rows])
    for i in range(s):
        rows = slice(starts[i], starts[i + 1]) if p.layout else i
        w_i, zk_i, z_i, alone = run_passes(p, [i])
        assert slot_reports(reports, i) == slot_reports(alone, 0)
        for k in range(len(p.views)):
            assert w[k][i].tobytes() == w_i[k][0].tobytes()
            assert zk[k][rows].tobytes() == zk_i[k].tobytes()
        assert z[rows].tobytes() == z_i.tobytes()
        own = rows if p.layout else slice(None)
        data = mvl.MultiViewDataset([x[own] for x in p.views], p.labels[own])
        start = mvl.MvlState([m[i] for m in p.w], [m[rows] for m in p.zk], p.z[rows])
        hp = dataclasses.replace(p.hp, zeta=[q[i] for q in p.zeta], eta=p.eta[i])
        assert reports[0][1][i] == mvl.objective(data, start, hp)
    return made


def draw_passes(rng):
    """Slots with their own zeta and eta: grid candidates over shared rows,
    at times with a view wider than them; a ragged hfed block, slots
    ascending by row count, views no wider than the fewest rows and 1-3
    classes, so rows x c falls on both sides of 8; or a block of one row
    count with a view wider than it (dual form)."""
    s, c, k = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    form = ("shared", "ragged", "dual")[int(rng.integers(3))]
    if form == "ragged":
        dims = rng.integers(1, 5, k)
        rows = np.sort(rng.integers(dims.max(), 13, s))
    else:
        n = int(rng.integers(3, 12))
        dims = rng.integers(1, n + 1, k)
        if form == "dual" or rng.random() < 0.3:
            dims[rng.integers(k)] = n + int(rng.integers(1, 6))
        rows = np.full(s, n)
    total = rows[0] if form == "shared" else rows.sum()
    y = rng.integers(0, c, total)
    block = (s, total, c) if form == "shared" else (total, c)
    return types.SimpleNamespace(
        form=form, layout=form != "shared", rows=rows, labels=np.eye(c)[y],
        views=[rng.standard_normal((total, d)) + y[:, None] for d in dims],
        w=[rng.standard_normal((s, d, c)) for d in dims],
        zk=[rng.standard_normal(block) for _ in dims], z=rng.standard_normal(block),
        zeta=[rng.uniform(0.25, 16.0, s) for _ in dims], eta=rng.uniform(0.25, 16.0, s),
        hp=mvl.HyperParams.uniform(
            k, beta=rng.uniform(0.5, 2.0, k), tol=float(10.0 ** rng.uniform(-5.0, -2.0)),
            max_inner=int(rng.integers(2, 8)),
        ),
        max_passes=int(rng.integers(1, 16)), fit_first=bool(rng.random() < 0.5),
    )


def test_passes():
    rng = np.random.default_rng(16)
    hits = []
    for _ in range(10):
        p = draw_passes(rng)
        made = check_passes(p)
        groups, cells = width_groups(p.views, p.rows.min()), p.rows * p.labels.shape[1]
        hits.append(dict(
            shared=p.form == "shared", ragged=p.form == "ragged", dual=p.form == "dual",
            fit_first=p.fit_first, fit_last=not p.fit_first,
            ragged_rows_x_classes_across_8=p.layout and cells.min() < 8 <= cells.max(),
            mixed_widths=len(groups) > 1, shared_width=max(groups) > 1, **stops(made, p.max_passes),
        ))
    assert_all_hit(hits)


# --- mvl._train_stack -----------------------------------------------------


def reference_train_mvl(data, hp, seed):
    """The per-candidate training loop before the candidate stack, kept
    as its reference: 2-D `_fit_stats` calls and the objective
    recomputed from the state for every trace row."""
    state = mvl.init_state(data.dims, data.n_samples, data.n_classes, seed)
    rows = []

    def record(t, value, residual):
        norms = [numerics.row_l2_norms(w) for w in state.W]
        rows.append(mvl.TraceRow(
            t, value, tuple(float(m.min()) for m in norms),
            tuple(float(m.max()) for m in norms), residual,
        ))

    prev = reference_objective(data, state, hp)
    record(0, prev, 0.0)
    for t in range(1, hp.max_outer + 1):
        max_residual = 0.0
        for i in range(data.n_views):
            w, _, res, xw = mvl._fit_stats(
                data.views[i], state.Zk[i], hp.beta[i], hp.epsilon,
                hp.max_inner, hp.tol, state.W[i],
            )
            state.W[i] = w
            max_residual = max(max_residual, res)
            state.Zk[i] = mvl.update_pseudo_labels(xw, state.Z, hp.zeta[i])
        state.Z = mvl.update_consensus(state.Zk, data.labels, hp.zeta, hp.eta)
        value = reference_objective(data, state, hp)
        record(t, value, max_residual)
        if abs(value - prev) / max(1.0, abs(prev)) < hp.tol:
            break
        prev = value
    return state, rows


def check_train_stack(data, hps, seed):
    """Each `_train_stack` candidate has the state and trace of its
    `train_mvl` and of the reference loop, with one kernel call an outer
    pass per width group over the running candidates.  Returns each
    candidate's outer pass count."""
    with recording(mvl, "_fit_stats", 1, group=True) as kernel:
        states, reports = mvl._train_stack(data, hps, seed)
    outer = []
    for i, hp in enumerate(hps):
        state, trace = mvl.train_mvl(data, hp, seed)
        ref_state, ref_rows = reference_train_mvl(data, hp, seed)
        assert_same_state(states[i], state)
        assert_same_state(state, ref_state)
        assert mvl._trace(reports, i).rows == trace.rows == ref_rows
        outer.append(len(ref_rows) - 1)
    groups = width_groups(data.views, data.n_samples)
    assert kernel == [g * sum(o > t for o in outer) for t in range(max(outer)) for g in groups]
    return outer


def draw_grid(rng):
    """1-3 views of widths 1-4, at times one wider than the rows, 1-6
    candidates that differ in zeta, per view, and eta, and a seed."""
    n, c, k = int(rng.integers(6, 30)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
    dims = rng.integers(1, 5, k)
    if rng.random() < 0.4:
        dims[rng.integers(k)] = n + int(rng.integers(1, 10))
    y = np.arange(n) % c
    rng.shuffle(y)
    data = mvl.MultiViewDataset.from_class_indices(
        [rng.standard_normal((n, d)) + y[:, None] for d in dims], y, c
    )
    shared = dict(
        beta=rng.uniform(0.5, 2.0, k), tol=float(10.0 ** rng.uniform(-4.0, -2.0)),
        max_outer=int(rng.integers(0, 25)) * int(rng.random() < 0.8),
        max_inner=int(rng.integers(2, 9)),
    )
    hps = [
        mvl.HyperParams(
            zeta=2.0 ** rng.integers(-3, 7, k), eta=2.0 ** float(rng.integers(-3, 6)), **shared
        )
        for _ in range(int(rng.integers(1, 7)))
    ]
    return data, hps, int(rng.integers(0, 100))


def test_train_stack():
    rng = np.random.default_rng(2)
    hits = []
    for _ in range(4):
        data, hps, seed = draw_grid(rng)
        outer = check_train_stack(data, hps, seed)
        hits.append(dict(
            one_candidate=len(hps) == 1, no_pass=hps[0].max_outer == 0,
            dual_view=max(data.dims) > data.n_samples,
            shared_width=max(width_groups(data.views, data.n_samples)) > 1,
            **stops(outer, hps[0].max_outer),
        ))
    assert_all_hit(hits)


# --- mvl._predict_stack ---------------------------------------------------


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


def check_predict_stack(views, transforms, zeta, tol, max_outer):
    """Each `_predict_stack` slice is its own `predict_mvl` and the loop
    over Python floats.  Returns each slice's round count."""
    stacked = mvl._predict_stack(views, transforms, zeta, tol, max_outer)
    assert stacked.shape == (len(zeta[0]), len(views[0]), transforms[0].shape[2])
    rounds = []
    for i, got in enumerate(stacked):
        w, z = [m[i] for m in transforms], [float(q[i]) for q in zeta]
        alone = mvl.predict_mvl(views, w, z, tol=tol, max_outer=max_outer)
        reference, r = reference_predict(views, w, z, tol, max_outer)
        assert got.tobytes() == alone.tobytes() == reference.tobytes()
        rounds.append(r)
    return rounds


def test_predict_stack():
    # 1-8 transform sets over 1-3 shared test views, per-set zeta, a tol
    # and a round cap, 0 and 1 included.
    rng = np.random.default_rng(26)
    hits = []
    for _ in range(8):
        n, c, s = int(rng.integers(1, 30)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        dims = rng.integers(1, 6, int(rng.integers(1, 4)))
        views = [rng.standard_normal((n, d)) for d in dims]
        transforms = [rng.standard_normal((s, d, c)) for d in dims]
        zeta = [2.0 ** rng.integers(-4, 6, s) for _ in dims]
        tol = float(10.0 ** -rng.uniform(4.0, 12.0))
        max_outer = int(rng.choice([0, 1, 2, 60, 100]))
        rounds = check_predict_stack(views, transforms, zeta, tol, max_outer)
        hits.append(dict(
            one_slice=s == 1, no_round=max_outer == 0, one_round=max_outer == 1,
            **stops(rounds, max_outer),
        ))
    assert_all_hit(hits)


# --- sfed._grads ----------------------------------------------------------


def check_grads(arch, sets, batches, w):
    """`_grads` over a batch stack, slice s's batch the sorted rows
    batches[s] of its (sequences, labels) set padded with row n, gives
    each slice its batch's own log-probabilities and gradient, bit for
    bit, signs of zero included."""
    padded = sfed._pad(sets)
    rows = np.full((len(sets), max(map(len, batches))), padded.n)
    for s, batch in enumerate(batches):
        rows[s, : len(batch)] = batch
    log_probs, grad = sfed._grads(arch, w, padded.gather(np.arange(len(sets)), rows))
    for s, ((seqs, y), batch) in enumerate(zip(sets, batches)):
        alone = sfed._pad([([seqs[i] for i in batch], y[batch])])
        one = alone.gather(np.zeros(1, dtype=np.int64), np.arange(len(batch))[None])
        want_lp, want_grad = sfed._grads(arch, w[s][None], one)
        assert log_probs[s, : len(batch)].tobytes() == want_lp[0, : len(batch)].tobytes()
        assert grad[s].tobytes() == want_grad[0].tobytes()


def draw_arch(rng):
    """An encoder of 1-3 features and units (one unit is widened to two in
    the kernel) and 2-3 classes."""
    return sfed.EncoderArch(*map(int, (rng.integers(1, 4), rng.integers(1, 4), rng.integers(2, 4))))


def draw_sequences(rng, n, arch):
    """n sequences of arch's width and 1-9 steps, labelled for its classes."""
    seqs = [rng.standard_normal((int(t), arch.n_features)) for t in rng.integers(1, 10, n)]
    return sfed.SequenceDataset(seqs, rng.integers(0, arch.n_classes, n), arch.n_classes)


def test_grads():
    rng = np.random.default_rng(8)
    hits = []
    for _ in range(10):
        arch = draw_arch(rng)
        sets = [
            draw_sequences(rng, int(rng.integers(1, 7)), arch) for _ in range(rng.integers(1, 5))
        ]
        batches = [
            np.sort(rng.permutation(d.n_samples)[: rng.integers(1, d.n_samples + 1)]) for d in sets
        ]
        w = rng.standard_normal((len(sets), arch.n_params))
        check_grads(arch, [(d.sequences, d.y) for d in sets], batches, w)
        hits.append(dict(
            one_unit=arch.embed_dim == 1, one_feature=arch.n_features == 1,
            one_row_batch=min(map(len, batches)) == 1,
            ragged_batches=len(set(map(len, batches))) > 1,
        ))
    assert_all_hit(hits)


# --- sfed._sgd: local_training_stack and isolated encoders ----------------


def check_local_stack(arch, datasets, starts, cfg, keys):
    """Each `local_training_stack` row is its dataset's `local_training`
    alone, with one kernel call a step over the slices with a batch."""
    with recording(sfed, "_grads", 1) as kernel:
        stacked = sfed.local_training_stack(datasets, arch, starts, cfg, keys)
    for data, start, key, row in zip(datasets, starts, keys, stacked, strict=True):
        assert row.tobytes() == sfed.local_training(data, arch, start, cfg, key).tobytes()
    n_batches = [-(-d.n_samples // cfg.batch_size) for d in datasets]
    steps = range(max(n_batches))
    assert kernel == [sum(b > j for b in n_batches) for _ in range(cfg.local_epochs) for j in steps]


def check_local_encoders(arch, datasets, cfg, view):
    """Isolated encoders, one stack: dataset l's row is its
    `local_training` over rounds x epochs, on its one stream (l, view, 0)."""
    got = experiments._local_encoders(datasets, arch, cfg, view)
    start = arch.init_params(cfg.seed, numerics.KEY_ENCODER, view)
    solo = dataclasses.replace(cfg, local_epochs=cfg.local_epochs * cfg.max_rounds)
    for l, (data, row) in enumerate(zip(datasets, got, strict=True)):
        assert row.tobytes() == sfed.local_training(data, arch, start, solo, (l, view, 0)).tobytes()


def test_local_training():
    rng = np.random.default_rng(9)
    hits = []
    for _ in range(8):
        # 1-4 datasets of 1-15 sequences, 0-2 epochs and rounds of batches of 1-6.
        arch = draw_arch(rng)
        datasets = [
            draw_sequences(rng, int(rng.integers(1, 16)), arch) for _ in range(rng.integers(1, 5))
        ]
        cfg = sfed.TrainerConfig(
            batch_size=int(rng.integers(1, 7)), local_epochs=int(rng.integers(0, 3)),
            learning_rate=float(rng.uniform(0.05, 0.3)), max_rounds=int(rng.integers(0, 3)),
            seed=int(rng.integers(0, 100)),
        )
        starts = rng.standard_normal((len(datasets), arch.n_params))
        keys = [tuple(rng.integers(0, 9, 3).tolist()) for _ in datasets]
        check_local_stack(arch, datasets, starts, cfg, keys)
        check_local_encoders(arch, datasets, cfg, int(rng.integers(0, 3)))
        hits.append(dict(
            no_epoch=cfg.local_epochs == 0, several_epochs=cfg.local_epochs > 1,
            several_slices=len(datasets) > 1,
            slices_run_out=len({-(-d.n_samples // cfg.batch_size) for d in datasets}) > 1,
        ))
    assert_all_hit(hits)


# --- sfed_train's views in lock-step --------------------------------------


def check_sfed_views(clients, cfg, embed_dim):
    """Each view of `sfed_train` has the encoder, frames and round records
    of its `train_view_encoder` alone, which is FedAvg, round by round, of
    each client's solo `local_training`; one `_sgd` a round and one
    padding per width cover all its views' slots.  Returns those counts."""
    framed = fedcore.FramedByteTransport(capture=True)
    with recording(sfed, "_sgd", 1) as sgd, recording(sfed, "_pad", 0) as padded:
        result = sfed.sfed_train(clients, cfg, embed_dim=embed_dim, transport=framed)
    widths = [v.n_features for v in clients[0].views]
    stacks = [widths.count(p) * len(clients) for p in dict.fromkeys(widths)]
    assert sgd == stacks * cfg.max_rounds and padded == stacks
    frames, records = {}, []
    for frame in framed.captured:
        frames.setdefault(fedcore.decode_message(frame).view, []).append(frame)
    for k, (arch, w) in enumerate(zip(result.archs, result.params)):
        datasets = [c.views[k] for c in clients]
        alone_framed, alone_log = fedcore.FramedByteTransport(capture=True), fedcore.RoundLog()
        alone = sfed.train_view_encoder(datasets, k, arch, cfg, alone_framed, alone_log)
        want = arch.init_params(cfg.seed, numerics.KEY_ENCODER, k)
        for rnd in range(cfg.max_rounds):
            replies = [
                sfed.local_training(d, arch, want, cfg, (l, k, rnd)) for l, d in enumerate(datasets)
            ]
            want = fedcore.fedavg_aggregate(replies, [d.n_samples for d in datasets])
        assert w.tobytes() == alone.tobytes() == want.tobytes()
        assert frames.get(k, []) == alone_framed.captured
        records += [(r.round, r.messages) for r in alone_log.records]
    assert [(r.round, r.messages) for r in result.log.records] == records  # in view order
    return stacks


def test_sfed_views():
    # 1-3 clients with 1-11 sequences in every one of 1-4 views of widths
    # 1, 3 or 5, 1-3 rounds and encoders of 1-3 units.
    rng = np.random.default_rng(47)
    hits = []
    for _ in range(4):
        widths = rng.choice([1, 3, 5], int(rng.integers(1, 5))).tolist()
        clients = []
        for _ in range(rng.integers(1, 4)):
            y = rng.integers(0, 2, int(rng.integers(1, 12)))
            views = []
            for p in widths:
                steps = rng.integers(1, 10, len(y))
                seqs = [rng.standard_normal((int(t), p)) for t in steps]
                views.append(sfed.SequenceDataset(seqs, y, 2))
            clients.append(sfed.SequenceClientData(views=views))
        cfg = sfed.TrainerConfig(
            batch_size=int(rng.integers(1, 7)), local_epochs=int(rng.integers(1, 3)),
            learning_rate=float(rng.uniform(0.05, 0.3)), max_rounds=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 100)),
        )
        embed_dim = int(rng.integers(1, 4))
        stacks = check_sfed_views(clients, cfg, embed_dim)
        hits.append(dict(
            mixed_widths=len(stacks) > 1, shared_width=max(stacks) > len(clients),
            one_unit=embed_dim == 1, one_feature=1 in widths, several_clients=len(clients) > 1,
        ))
    assert_all_hit(hits)


# --- hfed blocks against ReferenceClient ----------------------------------


def check_hfed(shards, hp, seed, max_local, rounds):
    """hfed over the shards sends, round by round, the frames of a
    federation of `ReferenceClient`s, each running `alg3_local` on its
    own rows, and leaves each client its reference's state, with one
    stack of local passes a round per block.  Returns the stack sizes."""
    ref_server, ref_clients = hfed.make_horizontal_parties(shards, hp, seed, max_local)
    reference = [
        ReferenceClient(c.party, d, hp, max_local, *client_state(c))
        for c, d in zip(ref_clients, shards)
    ]
    ref_framed, framed = (fedcore.FramedByteTransport(capture=True) for _ in range(2))
    fedcore.run_rounds(ref_server, reference, ref_framed, max_rounds=rounds)
    server, clients = hfed.make_horizontal_parties(shards, hp, seed, max_local)
    with recording(hfed, "_passes", 6) as passes:
        fedcore.run_rounds(server, clients, framed, max_rounds=rounds)
    assert framed.captured == ref_framed.captured
    for c, ref in zip(clients, reference):
        pseudo, consensus = client_state(c)
        assert [m.tobytes() for m in pseudo] == [m.tobytes() for m in ref.pseudo]
        assert consensus.tobytes() == ref.consensus.tobytes()
    # One block for every client in primal form, one per row count of the others.
    blocks = [None if max(d.dims) <= d.n_samples else d.n_samples for d in shards]
    assert passes == [blocks.count(b) for b in dict.fromkeys(blocks)] * rounds
    return passes


def test_hfed():
    # 1-11 shards of c to 24 rows of 1-3 views of widths 1-6: clients with
    # a view wider than their rows take the dual form.
    rng = np.random.default_rng(25)
    hits = []
    for _ in range(3):
        c, k = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        dims = tuple(int(d) for d in rng.integers(1, 7, k))
        sizes = rng.integers(c, 25, int(rng.integers(1, 12)))
        pool = blob_dataset(int(rng.integers(0, 1000)), n=int(sizes.sum()), dims=dims, n_classes=c)
        hp = mvl.HyperParams(
            beta=rng.uniform(0.5, 4.0, k), zeta=rng.uniform(0.5, 8.0, k),
            eta=float(rng.uniform(0.5, 8.0)),
            tol=float(10.0 ** rng.uniform(-5.0, -2.0)), max_inner=int(rng.integers(2, 8)),
        )
        bounds = itertools.pairwise(np.cumsum([0, *sizes]))
        shards = [pool.subset(np.arange(a, b)) for a, b in bounds]
        max_local = int(rng.integers(1, 9))
        check_hfed(shards, hp, int(rng.integers(0, 100)), max_local, int(rng.integers(1, 4)))
        blocks = [None if max(dims) <= n else n for n in sizes.tolist()]
        primal = [n * c for n, b in zip(sizes.tolist(), blocks) if b is None]
        hits.append(dict(
            dual_block=any(b is not None for b in blocks), several_blocks=len(set(blocks)) > 1,
            ragged_block=len(set(primal)) > 1,
            rows_x_classes_across_8=min(primal, default=8) < 8 <= max(primal, default=0),
        ))
    assert_all_hit(hits)


# --- fedcore: FedMessage.batch, stack_rows and fedavg, run_federations ----


def check_batch(rnd, senders, kind, fields):
    """`FedMessage.batch` gives each sender the constructor's message from
    its values, field for field: equal bytes, shapes and scalar types,
    every array read-only."""
    got = fedcore.FedMessage.batch(rnd, senders, kind, **fields)
    assert len(got) == len(senders)
    for i, (msg, sender) in enumerate(zip(got, senders)):
        own = {name: v if name in ("zeta", "view") else v[i] for name, v in fields.items()}
        want = fedcore.FedMessage(round=rnd, sender=sender, kind=kind, **own)
        assert type(msg) is fedcore.FedMessage and msg == want
        assert vars(msg).keys() == vars(want).keys()
        for name, value in vars(want).items():
            mine = getattr(msg, name)
            if isinstance(value, tuple):
                assert [(m.tobytes(), m.shape, m.flags.writeable) for m in mine] == [
                    (m.tobytes(), m.shape, False) for m in value
                ]
            elif isinstance(value, np.ndarray):
                assert (mine.tobytes(), mine.shape) == (value.tobytes(), value.shape)
                assert not mine.flags.writeable
            else:
                assert mine == value and type(mine) is type(value)


def test_batch():
    # One kind's replies from 0-5 senders: per-sender arrays cut from one
    # stack, sealed or plain, in order or not, and the kind's shared fields.
    rng = np.random.default_rng(12)
    hits = []
    for _ in range(30):
        kind = list(fedcore.MessageKind)[rng.integers(len(fedcore.MessageKind))]
        senders = [fedcore.PartyId.client(int(i)) for i in rng.permutation(9)[: rng.integers(0, 6)]]
        order = rng.permutation(len(senders))

        def rows(shape):
            stack = rng.standard_normal((len(senders), *shape))
            stack[rng.random(stack.shape) < 0.1] = -0.0
            cut = fedcore.seal_rows(stack) if rng.random() < 0.5 else list(stack)
            return [cut[i] for i in order]

        r, c = (int(v) for v in rng.integers(1, 6, 2))
        draws = {
            "zeta": lambda: float(rng.uniform(0.0, 32.0)), "view": lambda: int(rng.integers(0, 8)),
            "matrix": lambda: rows((r, c)), "vector": lambda: rows((r * c,)),
            "matrices": lambda: list(zip(*(rows((int(d), c)) for d in rng.integers(1, 6, 3)))),
        }
        fields = {name: draws[name]() for name in PAYLOADS[kind]}
        check_batch(int(rng.integers(0, 2**32)), senders, kind, fields)
        hits.append(dict(no_sender=not senders, several_senders=len(senders) > 1, **{
            k.name: k is kind for k in fedcore.MessageKind
        }))
    assert_all_hit(hits)


def check_replies(arrays, counts):
    """`stack_rows` of replies, rows of sealed stacks or plain arrays, is
    `np.stack` of plain copies, and `fedavg_aggregate` of them is that of
    the copies and the in-order sum, bit for bit."""
    plain = [a.copy() for a in arrays]
    stacked = fedcore.stack_rows(arrays)
    assert (stacked.tobytes(), stacked.shape) == (np.stack(plain).tobytes(), np.stack(plain).shape)
    got = fedcore.fedavg_aggregate(arrays, counts)
    assert got.tobytes() == fedcore.fedavg_aggregate(plain, counts).tobytes()
    assert got.tobytes() == fedavg_in_order(plain, counts).tobytes()


def draw_replies(rng, n, shape):
    """n replies of the given shape, rows of a sealed stack with signed
    zeros, and FedAvg inputs made of them, each with its counts: the rows
    in order, out of order, a subset, mixed with plain copies, one row
    repeated, and mixed with rows of a second sealed stack."""
    stacks = [rng.standard_normal((n, *shape)) * 10.0 ** rng.uniform(-8, 8) for _ in range(2)]
    for stack in stacks:
        stack[rng.random(stack.shape) < 0.2] = -0.0
    rows, other = fedcore.seal_rows(stacks[0]), fedcore.seal_rows(stacks[1])
    perm = rng.permutation(n).tolist()
    cases = [
        rows, [rows[i] for i in perm], [rows[i] for i in perm[: max(1, n // 2)]],
        [r if i % 2 else r.copy() for i, r in enumerate(rows)], [rows[0]] * n,
        [(rows, other)[i % 2][i] for i in range(n)],
    ]
    counts = rng.integers(1, 100, n).tolist()
    return stacks[0], rows, [(arrays, counts[: len(arrays)]) for arrays in cases]


def test_replies():
    rng = np.random.default_rng(13)
    for _ in range(8):
        n, shape = int(rng.integers(1, 20)), tuple(rng.integers(1, 7, rng.integers(1, 3)).tolist())
        stack, rows, cases = draw_replies(rng, n, shape)
        assert fedcore.stack_rows(rows) is stack
        for arrays, counts in cases:
            check_replies(arrays, counts)


def check_run_federations(specs, max_rounds):
    """Federations of `scaling_federation` (seed, clients, rounds until
    done or None) in lock-step end as they do alone, with equal round
    records, and each round's frames are every live federation's
    broadcasts, then each one's replies in turn, as each sent them
    alone.  Returns the client count of each `steps` call."""
    solo = []
    for seed, n, stop in specs:
        transport = fedcore.FramedByteTransport(capture=True)
        server, clients = scaling_federation(seed, n, [], stop)
        log = fedcore.run_rounds(server, clients, transport, max_rounds=max_rounds)
        solo.append((server.w, log, transport.captured))
    calls, shared = [], fedcore.FramedByteTransport(capture=True)
    feds = [scaling_federation(seed, n, calls, stop) for seed, n, stop in specs]
    logs = fedcore.run_federations([fedcore.Federation(s, c, shared) for s, c in feds], max_rounds)
    expected, per_round = [], []
    for (server, _), log, (w, solo_log, frames) in zip(feds, logs, solo, strict=True):
        assert server.w.tobytes() == w.tobytes()
        assert [(r.round, r.messages) for r in log.records] == [
            (r.round, r.messages) for r in solo_log.records
        ]
        bounds = np.cumsum([0, *(len(r.messages) for r in solo_log.records)])
        per_round.append([frames[a:b] for a, b in itertools.pairwise(bounds)])
    for rnd in range(max_rounds):
        now = [rounds[rnd] for rounds in per_round if rnd < len(rounds)]
        expected += [f for frames in now for f in frames[: len(frames) // 2]]
        expected += [f for frames in now for f in frames[len(frames) // 2 :]]
    assert shared.captured == expected
    return calls


def test_run_federations():
    rng = np.random.default_rng(14)
    hits = []
    for _ in range(6):
        specs = [
            (int(rng.integers(0, 100)), int(rng.integers(1, 5)), [None, 1, 2, 3][rng.integers(4)])
            for _ in range(rng.integers(1, 4))
        ]
        max_rounds = int(rng.integers(0, 5))
        live = [
            [n for _, n, stop in specs if stop is None or rnd < stop] for rnd in range(max_rounds)
        ]
        # One `steps` call a round over every live federation's clients.
        assert check_run_federations(specs, max_rounds) == [sum(ns) for ns in live if ns]
        early = any(0 < len(ns) < len(specs) for ns in live)
        hits.append(dict(several=len(specs) > 1, some_stop_early=early))
    assert_all_hit(hits)
