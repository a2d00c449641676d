"""Tests for the experiment runner, model persistence and embeddings."""

import dataclasses
import os

import numpy as np
import pytest

import mvfed.experiments
from mvfed.cli import RUN_KEYS, SCHEMA, build_run_config
from mvfed.data import (
    GeneratorSpec,
    SeqGeneratorSpec,
    gen_multiview,
    gen_sequences,
    partition_horizontal,
    partition_sequences,
)
from mvfed.errors import ConfigError, InvalidSpec, ParseError, ShapeError
from mvfed.experiments import (
    MODES,
    ModelBundle,
    RunConfig,
    compute_embeddings,
    evaluate_model,
    export_embeddings,
    load_embeddings,
    load_model,
    run_experiment,
    save_model,
    split_indices,
    train_once,
)
from mvfed.hfed import hfed_train
from mvfed.metrics import average_rows, compute_metrics
from mvfed.mvl import HyperParams, argmax_decode, predict_mvl
from mvfed.sfed import EncoderArch, TrainerConfig, extract_features
from suite_utils import reference_grid


def easy_spec(n=150, dims=(5, 4), seed=0, **kw):
    kw.setdefault("noise", 0.3)
    kw.setdefault("margin", 4.0)
    return GeneratorSpec(n_samples=n, dims=dims, seed=seed, **kw)


def quick_hp(k, **kw):
    kw.setdefault("max_outer", 15)
    return HyperParams.uniform(k, beta=2.0, zeta=4.0, eta=4.0, **kw)


def base_cfg(**kw):
    kw.setdefault("mode", "mvl")
    kw.setdefault("spec", easy_spec())
    kw.setdefault("hp", quick_hp(2))
    kw.setdefault("repeats", 2)
    kw.setdefault("rounds", 3)
    kw.setdefault("max_local", 5)
    kw.setdefault("seed", 3)
    return RunConfig(**kw)


class TestRunConfig:
    def test_field_validation(self):
        cases = [
            (dict(mode="boost"), "mode"),
            (dict(repeats=0), "repeats"),
            (dict(split=(0.5, 0.3, 0.3)), "split"),
            (dict(split=(0.8, 0.2, 0.0)), "split"),
            (dict(n_clients=0), "n_clients"),
            (dict(rounds=0), "rounds"),
            (dict(max_local=0), "max_local"),
            (dict(embed_dim=0), "embed_dim"),
            (dict(positive_class=-1), "positive_class"),
            (dict(view_mask=(1, 1)), "view_mask"),
            (dict(view_mask=(2, 0)), "view_mask"),
            (dict(view_mask=()), "view_mask"),
            (dict(mode="single_view", grid=True, view_mask=(0,)), "grid"),
            (dict(generator="lines"), "generator"),
        ]
        for overrides, field in cases:
            with pytest.raises(ConfigError) as err:
                base_cfg(**overrides)
            assert field in str(err.value), overrides

    # Each count is an integer at the boundary.  Before, a fractional
    # repeats or n_clients failed later with a TypeError from range, a
    # fractional positive_class was accepted, and a negative seed failed
    # only in make_rng, which the CLI reports as a run failure.
    @pytest.mark.parametrize("field, value", [
        ("repeats", 2.5), ("n_clients", 2.5), ("embed_dim", True), ("rounds", 3.0),
        ("max_local", "5"), ("positive_class", 0.5), ("seed", -1),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer >= [01], got"):
            base_cfg(mode="hfed", **{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = base_cfg(repeats=np.int64(2), seed=np.uint32(3), positive_class=np.int8(0))
        assert (cfg.repeats, cfg.seed, cfg.positive_class) == (2, 3, 0)

    def test_data_source_rules(self):
        with pytest.raises(ConfigError):
            base_cfg(spec=None)
        with pytest.raises(ConfigError):
            base_cfg(data_dir="somewhere")
        with pytest.raises(ConfigError):
            base_cfg(mode="sfed", spec=easy_spec())
        with pytest.raises(ConfigError):
            base_cfg(seq_spec=SeqGeneratorSpec(n_samples=20, step_dims=(3,)))

    def test_split_normalized(self):
        cfg = base_cfg(split=[0.5, 0.25, 0.25])
        assert cfg.split == (0.5, 0.25, 0.25)
        assert all(isinstance(f, float) for f in cfg.split)


class TestSplitIndices:
    def test_stratified_proportions(self):
        y = np.array([0] * 300 + [1] * 300)
        tr, va, te = split_indices(y, 2, (0.6, 0.2, 0.2), seed=4)
        for part, want in ((tr, 180), (va, 60), (te, 60)):
            counts = np.bincount(y[part], minlength=2)
            assert counts.tolist() == [want, want]

    def test_disjoint_covering_sorted(self):
        y = np.arange(101) % 3
        tr, va, te = split_indices(y, 3, (0.5, 0.25, 0.25), seed=9)
        merged = np.concatenate([tr, va, te])
        assert sorted(merged.tolist()) == list(range(101))
        for part in (tr, va, te):
            assert list(part) == sorted(part)

    def test_deterministic(self):
        y = np.arange(40) % 2
        a = split_indices(y, 2, (0.6, 0.2, 0.2), seed=5)
        b = split_indices(y, 2, (0.6, 0.2, 0.2), seed=5)
        c = split_indices(y, 2, (0.6, 0.2, 0.2), seed=6)
        for x, y_ in zip(a, b):
            assert np.array_equal(x, y_)
        assert any(not np.array_equal(x, z) for x, z in zip(a, c))

    def test_empty_part_rejected(self):
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ConfigError):
            split_indices(y, 2, (0.98, 0.01, 0.01), seed=0)


class TestModeAlgebra:
    def test_pairwise_is_masked_mvl(self):
        spec = easy_spec(dims=(5, 4, 3))
        hp = quick_hp(3)
        cfg_m = base_cfg(mode="mvl", spec=spec, hp=hp, view_mask=(0, 2))
        cfg_p = base_cfg(mode="pairwise", spec=spec, hp=hp, view_mask=(0, 2))
        res_m = run_experiment(cfg_m)
        res_p = run_experiment(cfg_p)
        assert res_m.report.rows == res_p.report.rows

    def test_vfed_report_equals_mvl_report(self):
        # Pinning the tolerance makes both runs use the full outer cap,
        # where the protocol is an exact replay of the centralized loop.
        hp = quick_hp(2, tol=1e-300, max_outer=20)
        cfg_m = base_cfg(mode="mvl", hp=hp)
        cfg_v = base_cfg(mode="vfed", hp=hp)
        res_m = run_experiment(cfg_m)
        res_v = run_experiment(cfg_v)
        assert res_m.report.rows == res_v.report.rows
        assert res_m.seeds == res_v.seeds

    def test_hfed_one_client_is_local_run(self):
        cfg_h = base_cfg(mode="hfed", n_clients=1, repeats=1)
        cfg_l = base_cfg(mode="mv_local", n_clients=1, repeats=1)
        res_h = run_experiment(cfg_h)
        res_l = run_experiment(cfg_l)
        assert res_h.report.rows == res_l.report.rows

    def test_one_view_mvl_matches_single_view_metrics(self):
        spec = easy_spec(n=150, dims=(5, 4), noise=0.2, margin=5.0)
        cfg_m = base_cfg(mode="mvl", spec=spec, view_mask=(0,), repeats=1)
        cfg_s = base_cfg(mode="single_view", spec=spec, view_mask=(0,), repeats=1)
        row_m = run_experiment(cfg_m).report.rows[0]
        row_s = run_experiment(cfg_s).report.rows[0]
        assert row_m.accuracy == 1.0
        assert row_m == row_s


class TestRepeats:
    def test_seed_bookkeeping(self):
        cfg = base_cfg(seed=7, repeats=3, spec=easy_spec(seed=40))
        res = run_experiment(cfg)
        assert res.seeds == [7, 8, 9]
        assert res.data_seeds == [40, 41, 42]
        assert len(res.report.rows) == 3

    def test_bitwise_deterministic(self):
        cfg = base_cfg(repeats=2)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.report.rows == b.report.rows

    def test_injected_dataset_reused(self):
        data = gen_multiview(easy_spec(seed=77))
        cfg = base_cfg(repeats=2)
        res = run_experiment(cfg, dataset=data)
        assert res.data_seeds == []
        assert len(res.report.rows) == 2

    def test_single_repeat_std_zero(self):
        cfg = base_cfg(repeats=1)
        res = run_experiment(cfg)
        assert res.report.std("accuracy") == 0.0


class TestGrid:
    def test_tied_grid_picks_smallest_exponents(self):
        # Every candidate separates this benchmark perfectly, so the
        # deterministic tie-break keeps the first (smallest) pair.
        cfg = base_cfg(grid=True, repeats=1, hp=quick_hp(2, max_outer=8))
        res = run_experiment(cfg)
        assert res.grid_choices == [(1.0, 1.0)]
        assert res.report.rows[0].accuracy == 1.0

    @pytest.mark.parametrize("mode, mask", [("mvl", None), ("pairwise", (0, 2))])
    def test_stacked_grid_equals_per_candidate_loop(self, monkeypatch, mode, mask):
        spec = easy_spec(n=90, dims=(4, 3, 5), n_classes=3, noise=3.0, margin=0.5, seed=11)
        cfg = base_cfg(
            mode=mode, spec=spec, hp=quick_hp(3, max_outer=20), view_mask=mask,
            grid=True, repeats=3,
        )
        stacks = []
        train_stack = mvfed.experiments._train_stack

        def counting_stack(train, hps, seed):
            stacks.append(len(hps))
            return train_stack(train, hps, seed)

        def single_fit(*args):
            raise AssertionError("the mvl grid trains its candidates as one stack")

        monkeypatch.setattr(mvfed.experiments, "_train_stack", counting_stack)
        monkeypatch.setattr(mvfed.experiments, "train_mvl", single_fit)
        res = run_experiment(cfg)
        monkeypatch.undo()
        assert stacks == [36] * 3
        for r in range(3):
            data = gen_multiview(dataclasses.replace(spec, seed=spec.seed + r))
            row, choice = reference_grid(cfg, data, cfg.seed + r)
            assert res.report.rows[r] == row
            assert res.grid_choices[r] == choice
        assert any(choice != (1.0, 1.0) for choice in res.grid_choices)

    def test_validation_scored_in_one_stacked_pass(self, monkeypatch):
        # Each repeat scores its 36 candidates with one stacked prediction
        # and calls predict_mvl once, for the chosen fit on the test part.
        cfg = base_cfg(grid=True, repeats=2, hp=quick_hp(2, max_outer=8))
        calls = []
        stacked, lone = mvfed.experiments._predict_stack, mvfed.mvl.predict_mvl
        monkeypatch.setattr(
            mvfed.experiments, "_predict_stack",
            lambda views, w, *args: calls.append(len(w[0])) or stacked(views, w, *args),
        )
        monkeypatch.setattr(
            mvfed.mvl, "predict_mvl",
            lambda *args, **kw: calls.append("predict_mvl") or lone(*args, **kw),
        )
        run_experiment(cfg)
        assert calls == [36, "predict_mvl"] * 2

    def test_grid_off_reports_none(self):
        res = run_experiment(base_cfg(repeats=1))
        assert res.grid_choices is None

    def test_grid_needs_validation_rows(self):
        cfg = base_cfg(
            grid=True, repeats=1, split=(0.7, 0.01, 0.29),
            spec=easy_spec(n=20, dims=(4,), seed=2), hp=quick_hp(1, max_outer=5),
        )
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestMvLocal:
    def test_matches_manual_pipeline(self):
        spec = easy_spec(n=120, dims=(4, 3), seed=21)
        hp = quick_hp(2, max_outer=10)
        cfg = base_cfg(
            mode="mv_local", spec=spec, hp=hp, n_clients=3,
            repeats=1, seed=5, rounds=3, max_local=5,
        )
        res = run_experiment(cfg)

        data = gen_multiview(spec)
        tr, va, te = split_indices(data.class_indices(), 2, cfg.split, 5)
        train, test = data.subset(tr), data.subset(te)
        shards = partition_horizontal(train, 3, stratified=True, seed=5)
        rows = []
        for shard in shards:
            w = hfed_train([shard], hp, 5, rounds=3, max_local=5).transforms
            scores = predict_mvl(
                test.views, w, hp.zeta, tol=hp.tol, max_outer=hp.max_outer
            )
            rows.append(
                compute_metrics(
                    argmax_decode(scores), test.class_indices(), positive_class=1
                )
            )
        assert res.report.rows[0] == average_rows(rows)


def seq_cfg(**kw):
    kw.setdefault("mode", "sfed")
    kw.setdefault(
        "seq_spec",
        SeqGeneratorSpec(
            n_samples=120, step_dims=(4, 3), t_range=(4, 8),
            drift=2.5, noise=0.4, seed=9,
        ),
    )
    kw.setdefault("hp", quick_hp(2, max_outer=10))
    kw.setdefault(
        "trainer",
        TrainerConfig(batch_size=8, local_epochs=1, learning_rate=0.1, max_rounds=4),
    )
    kw.setdefault("repeats", 1)
    kw.setdefault("n_clients", 3)
    kw.setdefault("rounds", 2)
    kw.setdefault("max_local", 4)
    kw.setdefault("embed_dim", 4)
    kw.setdefault("seed", 13)
    return RunConfig(**kw)


class TestSequentialModes:
    def test_sfed_learns_the_benchmark(self):
        res = run_experiment(seq_cfg())
        assert res.report.rows[0].accuracy >= 0.9

    @pytest.mark.parametrize(
        "mode", ["sfed", "local_seq_localmv", "local_seq_hfed", "central_seq_hfed"]
    )
    def test_deterministic(self, mode):
        cfg = seq_cfg(mode=mode)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.report.rows == b.report.rows

    def test_local_modes_average_per_client_rows(self):
        cfg = seq_cfg(mode="local_seq_localmv", n_clients=2)
        res = run_experiment(cfg)
        row = res.report.rows[0]
        n_test = row.true_pos + row.false_pos + row.false_neg + row.true_neg
        # Two clients each scored the same global test rows.
        assert n_test % 2 == 0 and n_test > 0

    @pytest.mark.parametrize(
        "mode, calls", [("sfed", 2), ("central_seq_hfed", 2), ("local_seq_hfed", 6)]
    )
    def test_each_encoder_set_embeds_its_rows_once_per_view(self, monkeypatch, mode, calls):
        # Shared encoders embed every client's and the test rows in one
        # call per view; local encoders, their client's and the test rows.
        sizes = []
        original = mvfed.sfed.extract_features

        def recording(arch, w, data):
            sizes.append(data.n_samples)
            return original(arch, w, data)

        monkeypatch.setattr(mvfed.sfed, "extract_features", recording)
        cfg = seq_cfg(mode=mode)
        run_experiment(cfg)
        y = gen_sequences(cfg.seq_spec).y
        train, _, test = (len(part) for part in split_indices(y, 2, cfg.split, cfg.seed))
        assert len(sizes) == calls
        assert sum(sizes) == 2 * (train + (calls // 2) * test)

    def test_one_call_gives_each_group_the_bits_of_its_own(self):
        bundle = gen_sequences(
            SeqGeneratorSpec(n_samples=60, step_dims=(3, 2), t_range=(1, 12), seed=4)
        )
        groups = [*partition_sequences(bundle.subset(range(44)), 3, seed=4), bundle.subset(range(44, 60))]
        archs = [EncoderArch(view.n_features, 4, 2) for view in bundle.views]
        params = [a.init_params(5, k) for k, a in enumerate(archs)]
        got = mvfed.experiments._feature_datasets(groups, archs, params, 2)
        for features, group in zip(got, groups):
            assert np.array_equal(features.class_indices(), group.y)
            for k, arch in enumerate(archs):
                alone = extract_features(arch, params[k], group.views[k])
                assert features.views[k].tobytes() == alone.tobytes()

    def test_rejects_flat_dataset(self):
        data = gen_multiview(easy_spec())
        with pytest.raises(ConfigError):
            run_experiment(seq_cfg(), dataset=data)
        with pytest.raises(ConfigError, match="needs sequence data"):
            compute_embeddings(seq_cfg(), dataset=data)

    def test_flat_mode_rejects_sequences(self):
        bundle = gen_sequences(seq_cfg().seq_spec)
        with pytest.raises(ConfigError):
            run_experiment(base_cfg(), sequences=bundle)
        with pytest.raises(ConfigError, match="needs flat view matrices"):
            compute_embeddings(base_cfg(), sequences=bundle)


SEQUENTIAL = {"sfed", "local_seq_localmv", "local_seq_hfed", "central_seq_hfed"}
GLOBAL_MODEL = {"mvl", "single_view", "pairwise", "vfed", "hfed"}
EMBEDS = {"mvl", "vfed", "sfed"}
GRID = {"mvl", "pairwise", "vfed", "hfed", "mv_local"}


def tiny_cfg(mode):
    if mode in SEQUENTIAL:
        return seq_cfg(
            mode=mode,
            seq_spec=SeqGeneratorSpec(
                n_samples=40, step_dims=(3, 2), t_range=(3, 5), seed=2
            ),
            trainer=TrainerConfig(batch_size=8, max_rounds=1),
            hp=quick_hp(2, max_outer=2),
            n_clients=2, rounds=1, max_local=1, embed_dim=2,
        )
    return base_cfg(
        mode=mode, spec=easy_spec(n=60, dims=(3, 2)), hp=quick_hp(2, max_outer=2),
        view_mask=(0,) if mode == "single_view" else None,
        repeats=1, rounds=1, max_local=1,
    )


class TestModeTable:
    def test_lists_the_ten_modes(self):
        assert set(MODES) == SEQUENTIAL | GLOBAL_MODEL | {"mv_local"}

    @pytest.mark.parametrize("mode", list(MODES))
    def test_entry_points_accept_exactly_their_modes(self, mode):
        cfg = tiny_cfg(mode)
        if mode in GLOBAL_MODEL:
            model, _ = train_once(cfg)
            assert model.single == (mode == "single_view")
        else:
            with pytest.raises(ConfigError, match="global model"):
                train_once(cfg)
        if mode in EMBEDS:
            matrix, y = compute_embeddings(cfg)
            assert matrix.shape[0] == y.shape[0] == (40 if mode == "sfed" else 60)
        else:
            with pytest.raises(ConfigError, match="embedding"):
                compute_embeddings(cfg)
        if mode in GRID:
            assert dataclasses.replace(cfg, grid=True).grid
        else:
            with pytest.raises(ConfigError, match="grid"):
                dataclasses.replace(cfg, grid=True)
        values = {key: SCHEMA[key][1] for key in RUN_KEYS}
        values["mode"] = mode
        assert build_run_config(values).is_sequential == (mode in SEQUENTIAL)


class TestModels:
    def test_train_save_load_round_trip(self, tmp_path):
        cfg = base_cfg(repeats=1)
        model, row = train_once(cfg)
        assert row.accuracy == 1.0
        path = os.path.join(tmp_path, "model")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.zeta == model.zeta
        assert loaded.single == model.single
        for a, b in zip(loaded.transforms, model.transforms):
            assert np.array_equal(a, b)
        data = gen_multiview(cfg.spec)
        assert evaluate_model(loaded, data) == evaluate_model(model, data)

    def test_single_view_model_predicts_by_scores(self, tmp_path):
        cfg = base_cfg(mode="single_view", view_mask=(0,), repeats=1)
        model, _ = train_once(cfg)
        assert model.single
        data = gen_multiview(cfg.spec)
        x = data.views[0]
        assert np.array_equal(
            model.predict([x]), argmax_decode(x @ model.transforms[0])
        )

    @pytest.mark.parametrize(
        "mode, mask", [("single_view", (1,)), ("mvl", (0, 2)), ("mvl", None)]
    )
    def test_view_subset_model_scores_its_source_data(self, tmp_path, mode, mask):
        cfg = base_cfg(
            mode=mode, view_mask=mask, spec=easy_spec(dims=(5, 4, 3)), hp=quick_hp(3), repeats=1,
        )
        model, row = train_once(cfg)
        assert model.views == (mask or (0, 1, 2))
        path = os.path.join(tmp_path, "model")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.views == model.views
        data = gen_multiview(cfg.spec)
        _, _, test = split_indices(data.class_indices(), data.n_classes, cfg.split, cfg.seed)
        assert evaluate_model(loaded, data.subset(test)) == row
        # Data that holds only the model's views is scored as it is.
        only = data.select_views(model.views).subset(test)
        assert evaluate_model(loaded, only) == row

    def test_model_without_source_views_needs_its_views(self, tmp_path):
        cfg = base_cfg(mode="single_view", view_mask=(1,), spec=easy_spec(dims=(5, 4)), repeats=1)
        model, _ = train_once(cfg)
        path = os.path.join(tmp_path, "model")
        save_model(dataclasses.replace(model, views=None), path)
        with open(os.path.join(path, "manifest.txt")) as fh:
            assert "source_view" not in fh.read()
        loaded = load_model(path)
        assert loaded.views is None
        data = gen_multiview(cfg.spec)
        with pytest.raises(ShapeError, match=r"\(5, 4\), model has \(4,\)"):
            evaluate_model(loaded, data)
        assert evaluate_model(loaded, data.select_views([1])) == evaluate_model(model, data)

    def test_bad_source_views_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="source views"):
            ModelBundle(transforms=GOLDEN_TRANSFORMS, zeta=(8.0, 0.1), single=False, views=(1, 1))
        with pytest.raises(ConfigError, match="source views"):
            ModelBundle(transforms=GOLDEN_TRANSFORMS, zeta=(8.0, 0.1), single=False, views=(0,))
        path = os.path.join(tmp_path, "model")
        model = ModelBundle(
            transforms=GOLDEN_TRANSFORMS, zeta=(8.0, 0.1), single=False, views=(0, 2)
        )
        save_model(model, path)
        manifest = os.path.join(path, "manifest.txt")
        with open(manifest) as fh:
            kept = [line for line in fh if not line.startswith("source_view_1=")]
        with open(manifest, "w") as fh:
            fh.writelines(kept)
        with pytest.raises(ParseError, match="missing source_view_1"):
            load_model(path)

    @pytest.mark.parametrize("zeta", [np.inf, np.nan, -1.0])
    def test_bad_zeta_rejected_at_construction(self, zeta):
        with pytest.raises(InvalidSpec, match="zeta must be finite and >= 0"):
            ModelBundle(transforms=GOLDEN_TRANSFORMS, zeta=(8.0, zeta), single=False)

    def test_bad_later_transform_leaves_nothing_on_disk(self, tmp_path):
        path = os.path.join(tmp_path, "model")
        bad = [GOLDEN_TRANSFORMS[0], np.array([[0.1, np.inf, 7.0]])]
        model = ModelBundle(transforms=bad, zeta=(8.0, 0.1), single=False)
        with pytest.raises(InvalidSpec, match="transform_1.csv: row 0, column 1 is non-finite"):
            save_model(model, path)
        assert not os.path.exists(path)

    def test_train_once_needs_global_model_mode(self):
        with pytest.raises(ConfigError):
            train_once(base_cfg(mode="mv_local"))

    def test_load_model_detects_corruption(self, tmp_path):
        cfg = base_cfg(repeats=1)
        model, _ = train_once(cfg)
        path = os.path.join(tmp_path, "model")
        save_model(model, path)

        target = os.path.join(path, "transform_0.csv")
        with open(target) as fh:
            lines = fh.readlines()
        with open(target, "w") as fh:
            fh.writelines(lines[:-1])
        with pytest.raises(ShapeError):
            load_model(path)

        with open(target, "w") as fh:
            fh.write(lines[0])
            fh.write(",".join(["oops"] * 2) + "\n")
            fh.writelines(lines[2:])
        with pytest.raises(ParseError):
            load_model(path)


def replace_cell(path, line_no, col, text):
    """Overwrite one CSV cell; line_no and col count from 1."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[line_no - 1].split(",")
    cells[col - 1] = text
    lines[line_no - 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class TestEmbeddings:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((9, 3))
        matrix[0, 0] = 1e-300
        matrix[1, 1] = -0.0
        y = rng.integers(0, 4, size=9)
        path = os.path.join(tmp_path, "emb.csv")
        export_embeddings(matrix, y, path)
        back, y_back = load_embeddings(path)
        assert np.array_equal(back, matrix)
        assert np.array_equal(y_back, y)

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ShapeError):
            export_embeddings(np.zeros((3, 2)), np.zeros(4, dtype=int), "unused")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = os.path.join(tmp_path, "emb.csv")
        export_embeddings(np.ones((3, 2)), np.array([0, 1, 0]), path)
        replace_cell(path, 3, 2, cell)
        with pytest.raises(ParseError, match="non-finite") as info:
            load_embeddings(path)
        assert f"{path}:3:2" in str(info.value)

    def test_writers_reject_non_finite_cells_before_opening_the_file(self, tmp_path):
        path = os.path.join(tmp_path, "emb.csv")
        with pytest.raises(InvalidSpec, match="emb.csv: row 1, column 0 is non-finite: nan"):
            export_embeddings(np.array([[0.0, 1.0], [np.nan, 2.0]]), np.array([0, 1]), path)
        model = ModelBundle(transforms=[np.array([[1.0, np.inf]])], zeta=(1.0,), single=True)
        with pytest.raises(InvalidSpec, match="transform_0.csv: row 0, column 1 is non-finite: inf"):
            save_model(model, os.path.join(tmp_path, "model"))
        assert [name for _, _, files in os.walk(tmp_path) for name in files] == []

    def test_load_requires_class_column(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write("e0,e1\n0.0,1.0\n")
        with pytest.raises(ShapeError):
            load_embeddings(path)

    def test_consensus_embeddings_shape(self):
        cfg = base_cfg(repeats=1)
        matrix, y = compute_embeddings(cfg)
        data = gen_multiview(cfg.spec)
        assert matrix.shape == (data.n_samples, data.n_classes)
        assert np.array_equal(y, data.class_indices())

    def test_sequence_embeddings_concatenate_views(self):
        cfg = seq_cfg()
        matrix, y = compute_embeddings(cfg)
        assert matrix.shape == (120, 2 * cfg.embed_dim)
        assert y.shape == (120,)

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ConfigError):
            compute_embeddings(base_cfg(mode="hfed"))


# Golden files: the exact bytes a model directory and an embeddings CSV
# hold for a tiny fixed input, with the cells -0.0, 1e-300 and 0.1 and
# three classes.
GOLDEN_TRANSFORMS = [
    np.array([[-0.0, 1e-300, 0.1], [2.5, -3.0, 1.0]]),
    np.array([[0.1, -0.0, 7.0]]),
]
GOLDEN_MODEL = {
    "manifest.txt": b"views=2\nclasses=3\nsingle=0\npositive_class=2\ndim_0=2\ndim_1=1\n",
    "transform_0.csv": b"c0,c1,c2\n-0.0,1e-300,0.1\n2.5,-3.0,1.0\n",
    "transform_1.csv": b"c0,c1,c2\n0.1,-0.0,7.0\n",
    "zeta.csv": b"z0,z1\n8.0,0.1\n",
}
GOLDEN_EMBEDDINGS = b"e0,e1,class\n-0.0,1e-300,0\n0.1,2.5,2\n1.0,-3.0,1\n"


def same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestGoldenFiles:
    def test_model_bytes(self, tmp_path):
        model = ModelBundle(
            transforms=GOLDEN_TRANSFORMS, zeta=(8.0, 0.1), single=False,
            positive_class=2,
        )
        save_model(model, str(tmp_path / "model"))
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / "model").iterdir())}
        assert files == GOLDEN_MODEL
        loaded = load_model(str(tmp_path / "model"))
        assert loaded.zeta == (8.0, 0.1)
        assert not loaded.single and loaded.positive_class == 2
        assert all(map(same_bits, loaded.transforms, GOLDEN_TRANSFORMS))

    def test_embeddings_bytes(self, tmp_path):
        matrix = np.array([[-0.0, 1e-300], [0.1, 2.5], [1.0, -3.0]])
        y = np.array([0, 2, 1])
        path = tmp_path / "emb.csv"
        export_embeddings(matrix, y, str(path))
        assert path.read_bytes() == GOLDEN_EMBEDDINGS
        back, y_back = load_embeddings(str(path))
        assert same_bits(back, matrix)
        assert np.array_equal(y_back, y)


MANIFEST_KEYS = ("views", "classes", "single", "positive_class", "dim_0", "dim_1")


class TestModelBoundary:
    """Malformed model directories are ParseError or ShapeError, never a
    KeyError or a silently scored model."""

    def saved(self, tmp_path):
        path = os.path.join(tmp_path, "model")
        save_model(
            ModelBundle(transforms=GOLDEN_TRANSFORMS, zeta=(8.0, 0.1), single=False),
            path,
        )
        return path

    @pytest.mark.parametrize("key", MANIFEST_KEYS)
    def test_missing_manifest_key(self, tmp_path, key):
        path = self.saved(tmp_path)
        manifest = os.path.join(path, "manifest.txt")
        with open(manifest) as fh:
            kept = [line for line in fh if not line.startswith(key + "=")]
        with open(manifest, "w") as fh:
            fh.writelines(kept)
        with pytest.raises(ParseError, match=f"missing {key}"):
            load_model(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "name, line_no, col",
        [("transform_0.csv", 3, 2), ("transform_1.csv", 2, 3), ("zeta.csv", 2, 1)],
    )
    def test_non_finite_cell(self, tmp_path, name, line_no, col, cell):
        path = self.saved(tmp_path)
        target = os.path.join(path, name)
        replace_cell(target, line_no, col, cell)
        with pytest.raises(ParseError, match="non-finite") as info:
            load_model(path)
        assert f"{target}:{line_no}:{col}" in str(info.value)

    @pytest.mark.parametrize("dims", [(2,), (2, 1, 1), (2, 2), (3, 1)])
    def test_evaluate_on_data_that_does_not_fit(self, dims):
        model = ModelBundle(transforms=GOLDEN_TRANSFORMS, zeta=(8.0, 0.1), single=False)
        data = gen_multiview(easy_spec(n=12, dims=dims))
        with pytest.raises(ShapeError) as info:
            evaluate_model(model, data)
        assert str(dims) in str(info.value) and "(2, 1)" in str(info.value)
