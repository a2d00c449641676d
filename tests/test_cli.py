"""End-to-end tests for the command line interface."""

import os

import numpy as np
import pytest

from mvfed.cli import main, parse_config_file, read_report
from mvfed.data import load_dataset, load_sequences
from mvfed.errors import ConfigError, NotSPD, PartyFailure
from mvfed.experiments import load_embeddings, load_model


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
        assert "non-finite" in stderr

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
