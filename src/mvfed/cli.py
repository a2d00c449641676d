"""Command line front end.

Five subcommands: gen-data writes a synthetic dataset directory, train
fits one model and optionally saves it, evaluate scores a saved model
against a dataset, report runs the full repeated experiment and writes
the metrics CSV, and export-embeddings dumps per-sample embedding rows.

Every run option can come from a flat key=value config file (--config)
with explicit flags taking precedence over the file and the file over
built-in defaults.  Exit codes: 0 on success, 2 for configuration
problems (bad flags, unreadable or malformed files, inconsistent specs,
data that does not fit the model), 3 when training itself fails.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .data import (
    GeneratorSpec,
    SeqGeneratorSpec,
    _read_manifest,
    gen_complementary,
    gen_multiview,
    gen_sequences,
    load_dataset,
    save_dataset,
    save_sequences,
)
from .errors import ConfigError, InvalidSpec, MvfedError, ParseError, ShapeError
from .experiments import (
    MODES,
    ExperimentResult,
    RunConfig,
    compute_embeddings,
    evaluate_model,
    export_embeddings,
    load_model,
    lookup_mode,
    run_experiment,
    save_model,
    train_once,
)
from .metrics import METRIC_NAMES
from .mvl import HyperParams
from .sfed import TrainerConfig

GEN_KINDS = ("multiview", "complementary", "sequences")


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _mask(text: str) -> tuple[int, ...] | None:
    if text.strip().lower() in ("", "all"):
        return None
    return _ints(text)


# One schema drives flag parsing, config-file parsing and defaults.
# Each entry: converter, default, help text.
SCHEMA = {
    "mode": (str, "mvl", f"training mode, one of {', '.join(MODES)}"),
    "data": (str, None, "dataset directory written by gen-data"),
    "kind": (str, "multiview", f"generator kind, one of {', '.join(GEN_KINDS)}"),
    "generator": (str, "multiview", "flat generator: multiview or complementary"),
    "samples": (int, 200, "number of samples to generate"),
    "dims": (_ints, (8, 6, 4), "per-view feature widths, comma-separated"),
    "classes": (int, 2, "number of classes"),
    "noise": (float, 0.5, "generator noise level"),
    "margin": (float, 3.0, "generator class separation"),
    "informative": (_mask, None, "informative-view mask, e.g. 1,0,1"),
    "step_dims": (_ints, (6, 6), "per-view sequence step widths"),
    "t_range": (_ints, (5, 15), "inclusive sequence length range lo,hi"),
    "drift": (float, 1.5, "per-class sequence drift strength"),
    "clients": (int, 4, "number of federated clients"),
    "views": (_mask, None, "view subset, e.g. 0,2 (default: all)"),
    "repeats": (int, 10, "number of repeats with shifted seeds"),
    "split": (_floats, (0.6, 0.2, 0.2), "train/validation/test fractions"),
    "seed": (int, 0, "base seed; repeat r uses seed + r"),
    "positive_class": (int, 1, "class treated as positive for P/R/F1"),
    "beta": (_floats, (4.0,), "row-sparsity weight per view (or one shared)"),
    "zeta": (_floats, (8.0,), "view-consensus coupling per view (or one shared)"),
    "eta": (float, 8.0, "consensus-label coupling"),
    "epsilon": (float, 1e-8, "smoothing constant for the row norms"),
    "tol": (float, 1e-6, "relative convergence tolerance"),
    "max_outer": (int, 100, "outer iteration cap"),
    "max_inner": (int, 20, "inner reweighting cap"),
    "rounds": (int, 20, "federated aggregation rounds"),
    "max_local": (int, 30, "local iterations per horizontal round"),
    "grid": (_bool, False, "tune zeta/eta on the validation split"),
    "embed_dim": (int, 8, "sequence embedding width"),
    "batch_size": (int, 16, "encoder minibatch size"),
    "epochs": (int, 1, "local encoder epochs per round"),
    "learning_rate": (float, 0.05, "encoder SGD step size"),
    "enc_rounds": (int, 10, "encoder aggregation rounds"),
}

GEN_KEYS = (
    "kind", "samples", "dims", "classes", "noise", "margin",
    "informative", "step_dims", "t_range", "drift", "seed",
)
RUN_KEYS = tuple(k for k in SCHEMA if k != "kind")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; # starts a comment, blank lines skipped."""
    entries: dict[str, str] = {}
    try:
        fh = open(path)
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}")
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(
                    f"config: {path}:{line_no}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in SCHEMA:
                raise ConfigError(f"config: {path}:{line_no}: unknown key {key!r}")
            entries[key] = value.strip()
    return entries


def _merge_options(args: argparse.Namespace, keys) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    values = {key: SCHEMA[key][1] for key in keys}
    config_path = getattr(args, "config", None)
    if config_path:
        raw = parse_config_file(config_path)
        for key, text in raw.items():
            if key not in values:
                raise ConfigError(
                    f"config: key {key!r} does not apply to this command"
                )
            convert = SCHEMA[key][0]
            try:
                values[key] = convert(text)
            except ValueError as err:
                raise ConfigError(f"config: {key}: {err}")
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return values


def _add_schema_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        convert, _, help_text = SCHEMA[key]
        flag = "--" + key.replace("_", "-")
        if convert is _bool:
            parser.add_argument(
                flag, dest=key, action="store_const", const=True,
                default=None, help=help_text,
            )
        else:
            parser.add_argument(
                flag, dest=key, type=convert, default=None,
                metavar=key.upper(), help=help_text,
            )


def _gen_specs(values: dict, sequences: bool):
    """Generator spec (flat or sequence) from merged option values."""
    if sequences:
        return SeqGeneratorSpec(
            n_samples=values["samples"],
            step_dims=tuple(values["step_dims"]),
            t_range=tuple(values["t_range"]),
            n_classes=values["classes"],
            drift=values["drift"],
            noise=values["noise"],
            seed=values["seed"],
        )
    return GeneratorSpec(
        n_samples=values["samples"],
        dims=tuple(values["dims"]),
        n_classes=values["classes"],
        noise=values["noise"],
        margin=values["margin"],
        informative=values["informative"],
        seed=values["seed"],
    )


def _view_count(values: dict, sequential: bool) -> int:
    """How many views the run's data carries (before any mask)."""
    if values["data"] is not None:
        return _read_manifest(values["data"], ("views",))["views"]
    return len(values["step_dims"]) if sequential else len(values["dims"])


def build_run_config(values: dict) -> RunConfig:
    """Assemble the RunConfig the experiment engine consumes."""
    sequential = lookup_mode(values["mode"]).sequential
    k = _view_count(values, sequential)
    beta = values["beta"] if len(values["beta"]) > 1 else values["beta"][0]
    zeta = values["zeta"] if len(values["zeta"]) > 1 else values["zeta"][0]
    try:
        hp = HyperParams.uniform(
            k, beta=beta, zeta=zeta, eta=values["eta"],
            epsilon=values["epsilon"], tol=values["tol"],
            max_outer=values["max_outer"], max_inner=values["max_inner"],
        )
        trainer = TrainerConfig(
            batch_size=values["batch_size"],
            local_epochs=values["epochs"],
            learning_rate=values["learning_rate"],
            max_rounds=values["enc_rounds"],
            seed=values["seed"],
        )
        spec = seq_spec = None
        if values["data"] is None:
            if sequential:
                seq_spec = _gen_specs(values, sequences=True)
            else:
                spec = _gen_specs(values, sequences=False)
    except InvalidSpec as err:
        raise ConfigError(str(err))
    return RunConfig(
        mode=values["mode"],
        hp=hp,
        trainer=trainer,
        spec=spec,
        generator=values["generator"],
        seq_spec=seq_spec,
        data_dir=values["data"],
        n_clients=values["clients"],
        view_mask=values["views"],
        repeats=values["repeats"],
        split=tuple(values["split"]),
        seed=values["seed"],
        positive_class=values["positive_class"],
        embed_dim=values["embed_dim"],
        rounds=values["rounds"],
        max_local=values["max_local"],
        grid=values["grid"],
    )


def _config_lines(result: ExperimentResult) -> list[str]:
    """Full provenance: the exact RunConfig plus every seed used."""
    cfg = result.config

    def fmt(value) -> str:
        if isinstance(value, bool):
            return str(int(value))
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, (tuple, list)):
            return ",".join(fmt(v) for v in value)
        return str(value)

    pairs = [
        ("mode", cfg.mode), ("seed", cfg.seed), ("repeats", cfg.repeats),
        ("split", cfg.split), ("clients", cfg.n_clients),
        ("views", "all" if cfg.view_mask is None else cfg.view_mask),
        ("positive_class", cfg.positive_class), ("grid", cfg.grid),
        ("rounds", cfg.rounds), ("max_local", cfg.max_local),
        ("embed_dim", cfg.embed_dim),
        ("beta", cfg.hp.beta), ("zeta", cfg.hp.zeta), ("eta", cfg.hp.eta),
        ("epsilon", cfg.hp.epsilon), ("tol", cfg.hp.tol),
        ("max_outer", cfg.hp.max_outer), ("max_inner", cfg.hp.max_inner),
        ("batch_size", cfg.trainer.batch_size),
        ("epochs", cfg.trainer.local_epochs),
        ("learning_rate", cfg.trainer.learning_rate),
        ("enc_rounds", cfg.trainer.max_rounds),
    ]
    if cfg.data_dir is not None:
        pairs.append(("data", cfg.data_dir))
    for spec in (cfg.spec, cfg.seq_spec):
        if spec is None:
            continue
        if isinstance(spec, GeneratorSpec):
            pairs += [
                ("generator", cfg.generator), ("samples", spec.n_samples),
                ("dims", spec.dims), ("classes", spec.n_classes),
                ("noise", spec.noise), ("margin", spec.margin),
                ("informative",
                 "all" if spec.informative is None
                 else tuple(int(b) for b in spec.informative)),
                ("data_seed", spec.seed),
            ]
        else:
            pairs += [
                ("generator", "sequences"), ("samples", spec.n_samples),
                ("step_dims", spec.step_dims), ("t_range", spec.t_range),
                ("classes", spec.n_classes), ("drift", spec.drift),
                ("noise", spec.noise), ("data_seed", spec.seed),
            ]
    pairs.append(("seeds", result.seeds))
    if result.data_seeds:
        pairs.append(("data_seeds", result.data_seeds))
    if result.grid_choices is not None:
        flat = [v for pair in result.grid_choices for v in pair]
        pairs.append(("grid_choices", flat))
    return [f"# {key}={fmt(value)}" for key, value in pairs]


def write_report(result: ExperimentResult, path: str) -> None:
    """Report CSV: provenance comments, per-repeat rows, summary block."""
    report = result.report
    lines = _config_lines(result)
    lines.append("mode,repeat,accuracy,precision,recall,f1")
    for r, row in enumerate(report.rows):
        cells = [report.mode, str(r)] + [
            repr(row.value(name)) for name in METRIC_NAMES
        ]
        lines.append(",".join(cells))
    lines.append("metric,mean,std")
    for name in METRIC_NAMES:
        mean, std = report.mean(name), report.std(name)
        lines.append(f"{name},{mean!r},{std!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvfed",
        description="Multi-view classification with federated training modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    gen.add_argument("--out", required=True, help="directory to create")
    gen.add_argument("--config", default=None, help="key=value defaults file")
    _add_schema_flags(gen, GEN_KEYS)

    def run_parser(name, help_text, needs_out):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value defaults file")
        if needs_out:
            p.add_argument("--out", required=True, help="output file")
        _add_schema_flags(p, RUN_KEYS)
        return p

    train = run_parser("train", "fit one model and print its test metrics", False)
    train.add_argument("--model-out", default=None, help="directory for the model")

    ev = sub.add_parser("evaluate", help="score a saved model on a dataset")
    ev.add_argument("--model", required=True, help="model directory")
    ev.add_argument("--data", required=True, help="dataset directory")
    ev.add_argument("--positive-class", dest="positive_class", type=int, default=None)

    run_parser("report", "run all repeats and write the metrics report", True)
    run_parser("export-embeddings", "write per-sample embeddings CSV", True)
    return parser


def _cmd_gen_data(args) -> int:
    values = _merge_options(args, GEN_KEYS)
    if values["kind"] not in GEN_KINDS:
        raise ConfigError(f"kind: unknown generator {values['kind']!r}")
    spec = _gen_specs(values, sequences=values["kind"] == "sequences")
    if values["kind"] == "sequences":
        bundle = gen_sequences(spec)
        save_sequences(bundle, args.out)
        n, k = bundle.n_samples, bundle.n_views
    else:
        gen = gen_complementary if values["kind"] == "complementary" else gen_multiview
        data = gen(spec)
        save_dataset(data, args.out)
        n, k = data.n_samples, data.n_views
    print(f"wrote {values['kind']} dataset: {n} samples, {k} views -> {args.out}")
    return 0


def _print_row(row) -> None:
    for name in METRIC_NAMES:
        print(f"{name}={row.value(name)!r}")
    if row.zero_division:
        print("note: a zero denominator was flagged while scoring")


def _cmd_train(args) -> int:
    cfg = build_run_config(_merge_options(args, RUN_KEYS))
    model, row = train_once(cfg)
    _print_row(row)
    if args.model_out:
        save_model(model, args.model_out)
        print(f"model -> {args.model_out}")
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    if args.positive_class is not None:
        model.positive_class = args.positive_class
    data = load_dataset(args.data)
    row = evaluate_model(model, data)
    _print_row(row)
    return 0


def _cmd_report(args) -> int:
    cfg = build_run_config(_merge_options(args, RUN_KEYS))
    result = run_experiment(cfg)
    write_report(result, args.out)
    for name in METRIC_NAMES:
        mean, std = result.report.mean(name), result.report.std(name)
        print(f"{name}: mean={mean:.4f} std={std:.4f}")
    print(f"report -> {args.out}")
    return 0


def _cmd_export(args) -> int:
    cfg = build_run_config(_merge_options(args, RUN_KEYS))
    matrix, y = compute_embeddings(cfg)
    export_embeddings(matrix, y, args.out)
    print(f"wrote {matrix.shape[0]} embedding rows ({matrix.shape[1]} dims) -> {args.out}")
    return 0


COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "export-embeddings": _cmd_export,
}

# Error classes that mean the run itself was misconfigured (exit 2)
# rather than a failure during training (exit 3).  Dataset and model
# files that fail to parse count as configuration, wherever they surface.
SETUP_ERRORS = (ConfigError, InvalidSpec, ParseError, ShapeError, OSError)


def _value_options(parser: argparse.ArgumentParser) -> frozenset[str]:
    """The long options, of any subcommand, that take a value (not
    ``--grid``, which takes none)."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return frozenset(
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        if action.nargs != 0
        for flag in action.option_strings
    )


def _join_dash_values(argv: list[str], value_options: frozenset[str]) -> list[str]:
    """``argv`` with each token that starts with one "-" joined to the
    option before it when that option takes a value: ``--margin -inf``
    reads as ``--margin=-inf``.

    argparse takes such a token for an option unless it looks like a
    negative number, so ``--margin -inf`` would fail as a missing
    argument before the setting's own check could name the value.
    """
    out: list[str] = []
    for token in argv:
        dash_led = token.startswith("-") and not token.startswith("--")
        if dash_led and out and out[-1] in value_options:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _join_dash_values(sys.argv[1:] if argv is None else argv, _value_options(parser))
        )
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return COMMANDS[args.command](args)
    except SETUP_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (MvfedError, np.linalg.LinAlgError, ValueError, ArithmeticError) as err:
        print(f"training failed: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
