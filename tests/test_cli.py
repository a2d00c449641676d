"""End-to-end tests for the command line interface."""

import dataclasses
import os

import numpy as np
import pytest

from mvfed.cli import RUN_KEYS, SCHEMA, build_run_config, main, parse_config_file
from mvfed.data import gen_multiview, load_dataset, load_sequences, save_dataset
from mvfed.errors import ConfigError, NotSPD, PartyFailure
from mvfed.experiments import load_embeddings, load_model, split_indices
from suite_utils import read_report, reference_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_FLAT = (
    "--samples", "80", "--dims", "4,3", "--noise", "0.3", "--margin", "4.0",
)
QUICK_FIT = ("--max-outer", "8", "--rounds", "2", "--max-local", "4")


class TestGenData:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "flat")
        code, stdout, _ = run(
            capsys, "gen-data", "--out", out, *SMALL_FLAT, "--seed", "3"
        )
        assert code == 0
        assert "80 samples" in stdout and "2 views" in stdout
        data = load_dataset(out)
        assert data.n_samples == 80
        assert data.dims == (4, 3)

    def test_writes_sequences(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "seq")
        code, stdout, _ = run(
            capsys, "gen-data", "--out", out, "--kind", "sequences",
            "--samples", "30", "--step-dims", "3,2", "--t-range", "3,5",
        )
        assert code == 0
        bundle = load_sequences(out)
        assert bundle.n_samples == 30
        assert bundle.n_views == 2

    def test_bad_kind_is_config_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "gen-data", "--out", os.path.join(tmp_path, "x"),
            "--kind", "spirals",
        )
        assert code == 2
        assert "error:" in stderr

    @pytest.mark.parametrize("kind", ["complementary", "sequences"])
    def test_negative_seed_is_setup_error(self, tmp_path, capsys, kind):
        out = os.path.join(tmp_path, "x")
        code, _, stderr = run(capsys, "gen-data", "--out", out, "--kind", kind, "--seed", "-1")
        assert code == 2
        assert stderr.startswith("error:") and "seed" in stderr
        assert "Traceback" not in stderr
        assert not os.path.exists(out)


class TestTrainEvaluate:
    def test_train_prints_metrics_and_saves(self, tmp_path, capsys):
        data_dir = os.path.join(tmp_path, "data")
        assert main(["gen-data", "--out", data_dir, *SMALL_FLAT]) == 0
        capsys.readouterr()
        model_dir = os.path.join(tmp_path, "model")
        code, stdout, _ = run(
            capsys, "train", "--mode", "mvl", "--data", data_dir,
            *QUICK_FIT, "--model-out", model_dir,
        )
        assert code == 0
        assert "accuracy=" in stdout
        model = load_model(model_dir)
        assert len(model.transforms) == 2

        code, stdout, _ = run(
            capsys, "evaluate", "--model", model_dir, "--data", data_dir
        )
        assert code == 0
        assert "accuracy=" in stdout and "f1=" in stdout

    def test_evaluate_positive_class_flag(self, tmp_path, capsys):
        data_dir = os.path.join(tmp_path, "data")
        model_dir = os.path.join(tmp_path, "model")
        main(["gen-data", "--out", data_dir, *SMALL_FLAT])
        main(["train", "--mode", "mvl", "--data", data_dir, *QUICK_FIT,
              "--model-out", model_dir])
        capsys.readouterr()
        code, stdout, _ = run(
            capsys, "evaluate", "--model", model_dir, "--data", data_dir,
            "--positive-class", "0",
        )
        assert code == 0

    def test_train_rejects_per_client_mode(self, capsys):
        code, _, stderr = run(
            capsys, "train", "--mode", "mv_local", *SMALL_FLAT, *QUICK_FIT
        )
        assert code == 2
        assert "error:" in stderr

    def train_model(self, tmp_path, dims="4,3"):
        data_dir = os.path.join(tmp_path, "data")
        model_dir = os.path.join(tmp_path, "model")
        main(["gen-data", "--out", data_dir, *SMALL_FLAT, "--dims", dims])
        main(["train", "--mode", "mvl", "--data", data_dir, *QUICK_FIT,
              "--model-out", model_dir])
        return model_dir

    def test_evaluate_manifest_without_views_exits_2(self, tmp_path, capsys):
        model_dir = self.train_model(tmp_path)
        manifest = os.path.join(model_dir, "manifest.txt")
        with open(manifest) as fh:
            kept = [line for line in fh if not line.startswith("views=")]
        with open(manifest, "w") as fh:
            fh.writelines(kept)
        capsys.readouterr()
        code, _, stderr = run(
            capsys, "evaluate", "--model", model_dir,
            "--data", os.path.join(tmp_path, "data"),
        )
        assert code == 2
        assert stderr.startswith("error:") and "missing views" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("dims", ["4,3,2", "4,5"])
    def test_evaluate_on_data_that_does_not_fit_exits_2(self, tmp_path, capsys, dims):
        model_dir = self.train_model(tmp_path, dims=dims)
        other = os.path.join(tmp_path, "other")
        main(["gen-data", "--out", other, *SMALL_FLAT])
        capsys.readouterr()
        code, _, stderr = run(capsys, "evaluate", "--model", model_dir, "--data", other)
        assert code == 2
        assert "(4, 3)" in stderr and f"({dims.replace(',', ', ')})" in stderr

    @pytest.mark.parametrize("mode, views", [("single_view", "1"), ("mvl", "0,2")])
    def test_view_subset_model_evaluates_on_its_source_data(self, tmp_path, capsys, mode, views):
        data_dir = os.path.join(tmp_path, "data")
        model_dir = os.path.join(tmp_path, "model")
        main(["gen-data", "--out", data_dir, *SMALL_FLAT, "--dims", "4,3,2"])
        capsys.readouterr()
        code, trained, _ = run(
            capsys, "train", "--mode", mode, "--views", views, "--data", data_dir,
            *QUICK_FIT, "--model-out", model_dir,
        )
        assert code == 0
        code, _, stderr = run(capsys, "evaluate", "--model", model_dir, "--data", data_dir)
        assert code == 0, stderr
        # On the test rows of train's split, evaluate prints train's metrics.
        data = load_dataset(data_dir)
        cfg = build_run_config({key: SCHEMA[key][1] for key in RUN_KEYS})
        _, _, test = split_indices(data.class_indices(), data.n_classes, cfg.split, cfg.seed)
        test_dir = os.path.join(tmp_path, "test")
        save_dataset(data.subset(test), test_dir)
        code, scored, _ = run(capsys, "evaluate", "--model", model_dir, "--data", test_dir)
        assert code == 0
        assert "accuracy=" in scored and trained == scored + f"model -> {model_dir}\n"

    def test_evaluate_missing_model_dir(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "evaluate", "--model", os.path.join(tmp_path, "nope"),
            "--data", os.path.join(tmp_path, "nodata"),
        )
        assert code == 2


class TestReport:
    def report_args(self, out, *extra):
        return (
            "report", "--mode", "mvl", *SMALL_FLAT, "--repeats", "2",
            "--seed", "3", *QUICK_FIT, "--out", out, *extra,
        )

    def test_report_file_structure(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "report.csv")
        code, stdout, _ = run(capsys, *self.report_args(out))
        assert code == 0
        assert "report ->" in stdout
        provenance, rows, summary = read_report(out)
        assert provenance["mode"] == "mvl"
        assert provenance["seeds"] == "3,4"
        # The CLI's one --seed flag drives the generator too.
        assert provenance["data_seeds"] == "3,4"
        assert len(rows) == 2
        assert [r["repeat"] for r in rows] == [0, 1]
        assert all(r["mode"] == "mvl" for r in rows)
        for name in ("accuracy", "precision", "recall", "f1"):
            mean = sum(r[name] for r in rows) / 2
            assert summary[name][0] == pytest.approx(mean, rel=1e-15)

    def test_identical_configs_identical_bytes(self, tmp_path, capsys):
        a = os.path.join(tmp_path, "a.csv")
        b = os.path.join(tmp_path, "b.csv")
        assert main(list(self.report_args(a))) == 0
        assert main(list(self.report_args(b))) == 0
        capsys.readouterr()
        with open(a, "rb") as fh:
            bytes_a = fh.read()
        with open(b, "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b

    @pytest.mark.parametrize("mode, extra", [("mvl", ()), ("pairwise", ("--views", "0,2"))])
    def test_grid_report_bytes_and_choices(self, tmp_path, capsys, mode, extra):
        flags = {
            "mode": mode, "samples": "90", "dims": "4,3,5", "classes": "3",
            "noise": "3.0", "margin": "0.5", "repeats": "2", "seed": "5",
            "max-outer": "20",
        }
        argv = ["report", "--grid", *extra]
        for flag, value in flags.items():
            argv += [f"--{flag}", value]
        outs = [os.path.join(tmp_path, name) for name in ("a.csv", "b.csv")]
        for out in outs:
            assert main([*argv, "--out", out]) == 0
        capsys.readouterr()
        with open(outs[0], "rb") as fa, open(outs[1], "rb") as fb:
            assert fa.read() == fb.read()

        values = {key: SCHEMA[key][1] for key in RUN_KEYS}
        values.update(
            mode=mode, samples=90, dims=(4, 3, 5), classes=3, noise=3.0, margin=0.5,
            repeats=2, seed=5, max_outer=20, grid=True,
            views=(0, 2) if extra else None,
        )
        cfg = build_run_config(values)
        expected = []
        for r in range(2):
            data = gen_multiview(dataclasses.replace(cfg.spec, seed=cfg.spec.seed + r))
            expected += reference_grid(cfg, data, cfg.seed + r)[1]
        provenance, _, _ = read_report(outs[0])
        assert [float(v) for v in provenance["grid_choices"].split(",")] == expected

    def test_sequential_mode_report(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "seq.csv")
        code, _, _ = run(
            capsys, "report", "--mode", "sfed", "--samples", "60",
            "--step-dims", "3,2", "--t-range", "3,6", "--drift", "2.5",
            "--clients", "2", "--repeats", "1", "--enc-rounds", "2",
            "--embed-dim", "3", *QUICK_FIT, "--out", out,
        )
        assert code == 0
        provenance, rows, _ = read_report(out)
        assert provenance["generator"] == "sequences"
        assert len(rows) == 1


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = os.path.join(tmp_path, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(
                "# defaults for the small benchmark\n"
                "mode=mvl\n"
                "samples=60\n"
                "dims=4,3\n"
                "repeats=1\n"
                "max_outer=8\n"
                "rounds=2\n"
                "max_local=4\n"
                "noise=0.3\n"
            )
        out = os.path.join(tmp_path, "report.csv")
        code, _, _ = run(
            capsys, "report", "--config", cfg, "--samples", "90", "--out", out
        )
        assert code == 0
        provenance, rows, _ = read_report(out)
        assert provenance["samples"] == "90"
        assert provenance["dims"] == "4,3"
        assert len(rows) == 1

    def test_parse_config_file(self, tmp_path):
        path = os.path.join(tmp_path, "c.cfg")
        with open(path, "w") as fh:
            fh.write("# comment\n\nmode=vfed\n  seed = 5 \n")
        entries = parse_config_file(path)
        assert entries == {"mode": "vfed", "seed": "5"}

    def test_unknown_key_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "c.cfg")
        with open(path, "w") as fh:
            fh.write("momentum=0.9\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_bad_value_exits_2(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "c.cfg")
        with open(path, "w") as fh:
            fh.write("samples=plenty\n")
        code, _, stderr = run(
            capsys, "report", "--config", path,
            "--out", os.path.join(tmp_path, "r.csv"),
        )
        assert code == 2
        assert "samples" in stderr

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "report", "--config", os.path.join(tmp_path, "ghost.cfg"),
            "--out", os.path.join(tmp_path, "r.csv"),
        )
        assert code == 2

    def test_malformed_line_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "c.cfg")
        with open(path, "w") as fh:
            fh.write("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)


class TestExportEmbeddings:
    def test_consensus_export(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "emb.csv")
        code, stdout, _ = run(
            capsys, "export-embeddings", "--mode", "mvl", *SMALL_FLAT,
            "--max-outer", "8", "--out", out,
        )
        assert code == 0
        matrix, y = load_embeddings(out)
        assert matrix.shape == (80, 2)
        assert y.shape == (80,)

    def test_sequence_export(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "emb.csv")
        code, _, _ = run(
            capsys, "export-embeddings", "--mode", "sfed", "--samples", "40",
            "--step-dims", "3,2", "--t-range", "3,5", "--clients", "2",
            "--enc-rounds", "2", "--embed-dim", "3", "--out", out,
        )
        assert code == 0
        matrix, y = load_embeddings(out)
        assert matrix.shape == (40, 6)

    def test_unsupported_mode_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "export-embeddings", "--mode", "hfed", *SMALL_FLAT,
            "--out", os.path.join(tmp_path, "emb.csv"),
        )
        assert code == 2


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["report", "--mode", "mvl"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_mode(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "report", "--mode", "stacking",
            "--out", os.path.join(tmp_path, "r.csv"),
        )
        assert code == 2
        assert "mode" in stderr

    def test_missing_data_dir(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "train", "--mode", "mvl",
            "--data", os.path.join(tmp_path, "absent"),
        )
        assert code == 2

    @pytest.mark.parametrize("mode", ["mvl", "vfed", "hfed"])
    def test_non_finite_cell_exits_2(self, tmp_path, capsys, mode):
        data_dir = os.path.join(tmp_path, "data")
        assert run(capsys, "gen-data", "--out", data_dir, *SMALL_FLAT)[0] == 0
        view = os.path.join(data_dir, "view_1.csv")
        with open(view) as fh:
            lines = fh.read().splitlines()
        cells = lines[5].split(",")
        cells[1] = "nan"
        lines[5] = ",".join(cells)
        with open(view, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, _, stderr = run(
            capsys, "train", "--mode", mode, "--data", data_dir, "--seed", "2",
            *QUICK_FIT,
        )
        assert code == 2
        assert "non-finite" in stderr

    @pytest.mark.parametrize(
        "mode, extra",
        [("mvl", ()), ("vfed", ()), ("hfed", ()), ("single_view", ("--views", "0"))],
    )
    def test_zero_epsilon_exits_2(self, tmp_path, capsys, mode, extra):
        data_dir = os.path.join(tmp_path, "data")
        assert run(capsys, "gen-data", "--out", data_dir, *SMALL_FLAT)[0] == 0
        code, _, stderr = run(
            capsys, "train", "--mode", mode, "--data", data_dir, "--epsilon", "0",
            *extra, *QUICK_FIT,
        )
        assert code == 2
        assert "epsilon > 0" in stderr

    def test_non_finite_beta_exits_2(self, tmp_path, capsys):
        data_dir = os.path.join(tmp_path, "data")
        assert run(capsys, "gen-data", "--out", data_dir, *SMALL_FLAT)[0] == 0
        code, _, stderr = run(capsys, "train", "--data", data_dir, "--beta", "nan", *QUICK_FIT)
        assert code == 2
        assert "error:" in stderr and "beta must be finite" in stderr

    @pytest.mark.parametrize("mode", ["hfed", "mv_local"])
    def test_client_with_fewer_rows_than_classes_exits_2(self, tmp_path, capsys, mode):
        code, _, stderr = run(
            capsys, "report", "--mode", mode, "--samples", "30", "--dims", "4,3",
            "--classes", "3", "--clients", "12", "--seed", "0", "--rounds", "1",
            "--max-local", "1", "--out", os.path.join(tmp_path, "r.csv"),
        )
        assert code == 2
        assert "client 0 has 2 rows, fewer than its 3 classes" in stderr

    @pytest.mark.parametrize("mode, extra", [
        ("mv_local", ("--dims", "4,3")),
        ("local_seq_localmv", (
            "--step-dims", "3,2", "--t-range", "3,5", "--enc-rounds", "1",
            "--embed-dim", "2",
        )),
    ])
    def test_isolated_short_shard_names_its_own_index(self, tmp_path, capsys, mode, extra):
        # 27 train rows dealt to 12 clients: shards of 3, 3, 3, then 2 rows
        code, _, stderr = run(
            capsys, "report", "--mode", mode, "--samples", "45", *extra,
            "--classes", "3", "--clients", "12", "--seed", "0", "--repeats", "1",
            "--rounds", "1", "--max-local", "1", "--out", os.path.join(tmp_path, "r.csv"),
        )
        assert code == 2
        assert "client 3 has 2 rows, fewer than its 3 classes" in stderr

    def test_non_finite_sequence_step_exits_2(self, tmp_path, capsys):
        data_dir = os.path.join(tmp_path, "seq")
        code, _, _ = run(
            capsys, "gen-data", "--out", data_dir, "--kind", "sequences",
            "--samples", "30", "--step-dims", "3,2", "--t-range", "3,5",
        )
        assert code == 0
        view = os.path.join(data_dir, "sequences_view_0.csv")
        with open(view) as fh:
            lines = fh.read().splitlines()
        cells = lines[4].split(",")
        cells[-1] = "inf"
        lines[4] = ",".join(cells)
        with open(view, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, _, stderr = run(
            capsys, "export-embeddings", "--mode", "sfed", "--data", data_dir,
            "--clients", "2", "--enc-rounds", "1", "--embed-dim", "2",
            "--out", os.path.join(tmp_path, "emb.csv"),
        )
        assert code == 2
        assert f"{view}:5:5: non-finite 'inf'" in stderr

    def test_label_outside_int64_exits_2(self, tmp_path, capsys):
        data_dir = os.path.join(tmp_path, "data")
        assert run(capsys, "gen-data", "--out", data_dir, *SMALL_FLAT)[0] == 0
        labels = os.path.join(data_dir, "labels.csv")
        with open(labels) as fh:
            lines = fh.read().splitlines()
        lines[5] = "99999999999999999999"
        with open(labels, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, _, stderr = run(capsys, "train", "--mode", "mvl", "--data", data_dir, *QUICK_FIT)
        assert code == 2
        assert stderr.splitlines() == [
            f"error: {labels}:6:1: outside int64: '99999999999999999999'"
        ]

    def test_training_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise NotSPD("system matrix lost positive definiteness")

        monkeypatch.setattr("mvfed.cli.run_experiment", boom)
        code, _, stderr = run(
            capsys, "report", "--mode", "mvl", *SMALL_FLAT,
            "--out", os.path.join(tmp_path, "r.csv"),
        )
        assert code == 3
        assert "training failed" in stderr

    def test_party_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise PartyFailure(2, 1, ValueError("bad update"))

        monkeypatch.setattr("mvfed.cli.train_once", boom)
        code, _, _ = run(capsys, "train", "--mode", "mvl", *SMALL_FLAT)
        assert code == 3
