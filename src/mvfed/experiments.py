"""Experiment runner: run configs, splits, training modes and reports.

A RunConfig names one training mode, a data source (generator recipe or
a dataset directory), the hyperparameters and the repeat schedule.
run_experiment executes every repeat with seed + r (repeat r regenerates
the data with the shifted seed and trains with it too, so repeats vary
both the draw and the initialization) and collects one metrics row per
repeat into a MetricsReport.  The MODES table says what each mode
does; every dispatch below reads its entries, never the mode names.

Flat modes train on the train split and score the held-out test split.
Per-client modes (mv_local and the local sequential baselines) evaluate
every client's model on the same global test split and average the
per-client rows, which is what the federated variants are compared
against.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import mvl
from .data import (
    GeneratorSpec,
    SeqGeneratorSpec,
    SequenceClientData,
    SequenceDataset,
    TrainerConfig,
    _finite_matrix,
    _read_manifest,
    _read_matrix,
    _write_manifest,
    _write_matrix,
    gen_complementary,
    gen_multiview,
    gen_sequences,
    load_dataset,
    load_sequences,
    partition_horizontal,
    partition_sequences,
)
from .errors import ConfigError, ShapeError
from .metrics import MetricsReport, MetricsRow, average_rows, compute_metrics
from .mvl import (
    DEFAULT_MAX_LOCAL,
    DEFAULT_ROUNDS,
    HyperParams,
    MultiViewDataset,
    _check_cap,
    _predict_stack,
    _train_stack,
    argmax_decode,
    predict_mvl,  # not called here; mvbench/tracer.py wraps this name
    train_mvl,
    train_single_view,
)
from .numerics import KEY_DATA, KEY_ENCODER, make_rng

if TYPE_CHECKING:
    from .sfed import EncoderArch


def __getattr__(name):
    # Not called here; mvbench/tracer.py wraps these names.  They resolve
    # through `sfed`, which a run loads only when it trains encoders, and
    # are then cached here, where the tracer's restore puts them back.
    if name not in ("local_training", "extract_features"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sfed

    value = globals()[name] = getattr(sfed, name)
    return value


@dataclass(frozen=True)
class Mode:
    """What one experiment mode does; the code branches on these fields.

    trainer fits and scores the views: "mvl" (train_mvl, consensus
    scores), "single_view" (one view, X @ W scores), "vfed" (vfed_train,
    vfed_predict) or "hfed" (hfed_train on client shards, consensus
    scores).  isolated gives every client its own consensus stage and
    averages the per-client rows.  encoders marks the sequential modes:
    their per-view encoders are "federated" (sfed), "pooled" (trained
    on all clients' rows) or "local" (one set per client).  A grid
    trains the 36 (zeta, eta) candidates of an "mvl" trainer together,
    as one stack over the shared train split (`mvl._train_stack`), and
    scores them on the validation part as one stack too
    (`mvl._predict_stack`); the protocol trainers, vfed and hfed, train
    and score one candidate at a time.

    Entries name trainers instead of holding functions.  The federated
    trainers (`vfed`, `hfed`, `sfed`) are imported in the branches that
    use them, so a run loads only its own, and are called through their
    modules at call time, where tests and the benchmark tracer can patch
    them.
    """

    trainer: str
    n_views: int | None = None  # exact number of views the mask must keep
    grid: bool = False  # the validation grid may tune zeta and eta
    embeds: bool = False  # export-embeddings supports the mode
    isolated: bool = False
    encoders: str | None = None

    @property
    def sequential(self) -> bool:
        return self.encoders is not None

    @property
    def global_model(self) -> bool:
        """Ends in one set of transforms that train_once can return."""
        return not (self.sequential or self.isolated)


# single_view has no zeta/eta, and the sequential pipelines bury the
# consensus stage behind encoder training, so neither takes the grid.
MODES = {
    "mvl": Mode("mvl", grid=True, embeds=True),
    "single_view": Mode("single_view", n_views=1),
    "pairwise": Mode("mvl", n_views=2, grid=True),
    "vfed": Mode("vfed", grid=True, embeds=True),
    "hfed": Mode("hfed", grid=True),
    "mv_local": Mode("hfed", grid=True, isolated=True),
    "sfed": Mode("hfed", embeds=True, encoders="federated"),
    "local_seq_localmv": Mode("hfed", isolated=True, encoders="local"),
    "local_seq_hfed": Mode("hfed", encoders="local"),
    "central_seq_hfed": Mode("hfed", encoders="pooled"),
}
GRID_EXPONENTS = tuple(range(6))

GENERATORS = ("multiview", "complementary")


def lookup_mode(name: str) -> Mode:
    """The table entry for a mode name; ConfigError for an unknown one."""
    if name not in MODES:
        raise ConfigError(f"mode: unknown mode {name!r}")
    return MODES[name]


def _increasing_views(prefix: str, views) -> tuple[int, ...]:
    """views as ints; ConfigError unless non-negative and strictly increasing."""
    views = tuple(int(k) for k in views)
    if any(b <= a for a, b in zip((-1, *views), views)):
        raise ConfigError(f"{prefix} {views} must be non-negative and strictly increasing")
    return views


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run depends on."""

    mode: str
    hp: HyperParams
    trainer: TrainerConfig = TrainerConfig()
    spec: GeneratorSpec | None = None
    generator: str = "multiview"
    seq_spec: SeqGeneratorSpec | None = None
    data_dir: str | None = None
    n_clients: int = 4
    view_mask: tuple[int, ...] | None = None
    repeats: int = 10
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    seed: int = 0
    positive_class: int = 1
    embed_dim: int = 8
    rounds: int = DEFAULT_ROUNDS
    max_local: int = DEFAULT_MAX_LOCAL
    grid: bool = False

    def __post_init__(self):
        mode = lookup_mode(self.mode)
        if self.generator not in GENERATORS:
            raise ConfigError(f"generator: unknown generator {self.generator!r}")
        for name, low in (
            ("repeats", 1), ("n_clients", 1), ("embed_dim", 1), ("rounds", 1),
            ("max_local", 1), ("positive_class", 0), ("seed", 0),
        ):
            _check_cap(f"{name}:", getattr(self, name), low, ConfigError)
        split = tuple(float(f) for f in self.split)
        if len(split) != 3 or not all(0 < f < np.inf for f in split):
            raise ConfigError(f"split: need three finite positive fractions, got {split}")
        if abs(sum(split) - 1.0) > 1e-9:
            raise ConfigError(f"split: fractions sum to {sum(split)!r}, not 1")
        object.__setattr__(self, "split", split)
        if self.view_mask is not None:
            mask = _increasing_views("view_mask: indices", self.view_mask)
            if not mask:
                raise ConfigError(f"view_mask: bad view indices {mask}")
            object.__setattr__(self, "view_mask", mask)
        if self.grid and not mode.grid:
            raise ConfigError(
                f"grid: mode {self.mode!r} has no coupling weights to tune"
            )
        if mode.sequential:
            if self.spec is not None:
                raise ConfigError(
                    f"spec: sequential mode {self.mode!r} takes seq_spec or data_dir"
                )
            sources = (self.seq_spec is not None) + (self.data_dir is not None)
        else:
            if self.seq_spec is not None:
                raise ConfigError(
                    f"seq_spec: flat mode {self.mode!r} takes spec or data_dir"
                )
            sources = (self.spec is not None) + (self.data_dir is not None)
        if sources != 1:
            raise ConfigError(
                "data source: exactly one of a generator spec and data_dir "
                f"is required, got {sources}"
            )

    @property
    def is_sequential(self) -> bool:
        return MODES[self.mode].sequential


@dataclass
class ExperimentResult:
    """Report plus the provenance needed to reproduce it."""

    config: RunConfig
    report: MetricsReport
    seeds: list[int]
    data_seeds: list[int]
    grid_choices: list[tuple[float, float]] | None


def split_indices(
    classes: np.ndarray, n_classes: int, fractions, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified train/validation/test index split, each sorted.

    Cut points round per class, so each class lands in each part in
    proportion to the fractions (up to one sample).
    """
    rng = make_rng(seed, KEY_DATA, 6)
    parts: tuple[list, list, list] = ([], [], [])
    for c in range(n_classes):
        members = np.flatnonzero(np.asarray(classes) == c)
        rng.shuffle(members)
        n_c = members.shape[0]
        c1 = int(round(fractions[0] * n_c))
        c2 = int(round((fractions[0] + fractions[1]) * n_c))
        parts[0].extend(members[:c1].tolist())
        parts[1].extend(members[c1:c2].tolist())
        parts[2].extend(members[c2:].tolist())
    train, val, test = (np.array(sorted(p), dtype=np.int64) for p in parts)
    if train.size == 0 or test.size == 0:
        raise ConfigError(
            f"split: {fractions} leaves an empty train or test part "
            f"on {len(classes)} samples"
        )
    return train, val, test


def _resolve_mask(cfg: RunConfig, n_views: int) -> tuple[int, ...]:
    mask = cfg.view_mask if cfg.view_mask is not None else tuple(range(n_views))
    if any(k >= n_views for k in mask):
        raise ConfigError(f"view_mask: {mask} out of range for {n_views} views")
    need = MODES[cfg.mode].n_views
    if need is not None and len(mask) != need:
        views = {1: "one view", 2: "two views"}[need]
        raise ConfigError(
            f"view_mask: {cfg.mode} needs exactly {views}, got {len(mask)}"
        )
    return mask


def _mask_hp(hp: HyperParams, mask: tuple[int, ...], n_views: int) -> HyperParams:
    """Align the hyperparameters with the selected views.

    Accepts weights given for the full view set (subset along the mask)
    or already matching the masked width.
    """
    if hp.n_views == n_views:
        if mask == tuple(range(n_views)):
            return hp
        return dataclasses.replace(
            hp,
            beta=tuple(hp.beta[k] for k in mask),
            zeta=tuple(hp.zeta[k] for k in mask),
        )
    if hp.n_views == len(mask):
        return hp
    raise ConfigError(
        f"hp: covers {hp.n_views} views, data has {n_views} and the mask "
        f"keeps {len(mask)}"
    )


def _select(cfg: RunConfig, data):
    """The configured views of data, and the hyperparameters for them."""
    mask = _resolve_mask(cfg, data.n_views)
    return data.select_views(mask), _mask_hp(cfg.hp, mask, data.n_views)


def _split(cfg: RunConfig, data, seed: int):
    """Stratified train, validation and test parts of data."""
    parts = split_indices(data.class_indices(), data.n_classes, cfg.split, seed)
    return tuple(data.subset(p) for p in parts)


def _given(cfg: RunConfig, dataset, sequences):
    """The data given for cfg's kind of mode; ConfigError if the other kind was."""
    given, wrong = (sequences, dataset) if cfg.is_sequential else (dataset, sequences)
    if wrong is not None:
        need = "sequence data" if cfg.is_sequential else "flat view matrices"
        raise ConfigError(f"data source: mode {cfg.mode!r} needs {need}")
    return given


def _source(cfg: RunConfig, given=None, r: int = 0):
    """given if set, else the data_dir contents, else repeat r's draw."""
    if given is not None:
        return given
    if cfg.data_dir is not None:
        if cfg.is_sequential:
            return load_sequences(cfg.data_dir)
        return load_dataset(cfg.data_dir)
    if cfg.is_sequential:
        return gen_sequences(
            dataclasses.replace(cfg.seq_spec, seed=cfg.seq_spec.seed + r)
        )
    spec_r = dataclasses.replace(cfg.spec, seed=cfg.spec.seed + r)
    if cfg.generator == "complementary":
        return gen_complementary(spec_r)
    return gen_multiview(spec_r)


def _eval_transforms(
    trainer: str, transforms, data: MultiViewDataset, hp: HyperParams, positive: int
) -> MetricsRow:
    views = data.views
    if trainer == "single_view":
        scores = views[0] @ transforms[0]
    elif trainer == "vfed":
        from . import vfed

        scores = vfed.vfed_predict(
            views, transforms, hp.zeta, tol=hp.tol, max_rounds=hp.max_outer
        )
    else:
        # Through `mvl`, for the tracer, as vfed calls `_fit_stats`.
        scores = mvl.predict_mvl(
            views, transforms, hp.zeta, tol=hp.tol, max_outer=hp.max_outer
        )
    return _metrics(scores, data, positive)


def _metrics(scores: np.ndarray, data: MultiViewDataset, positive: int) -> MetricsRow:
    """The metrics row of class scores for the rows of data."""
    return compute_metrics(argmax_decode(scores), data.class_indices(), positive_class=positive)


def _hfed(cfg: RunConfig, datasets, hp: HyperParams, seed: int) -> list[np.ndarray]:
    from . import hfed

    return hfed.hfed_train(
        datasets, hp, seed, rounds=cfg.rounds, max_local=cfg.max_local
    ).transforms


def _fit_flat(cfg: RunConfig, train: MultiViewDataset, hp: HyperParams, seed: int):
    """Global transforms for the single-model flat modes."""
    trainer = MODES[cfg.mode].trainer
    if trainer == "mvl":
        state, _ = train_mvl(train, hp, seed)
        return state.W
    if trainer == "single_view":
        w = train_single_view(
            train.views[0], train.labels, beta=hp.beta[0],
            epsilon=hp.epsilon, max_inner=hp.max_inner, tol=hp.tol,
        )
        return [w]
    if trainer == "vfed":
        from . import vfed

        return vfed.vfed_train(train, hp, seed).transforms
    shards = partition_horizontal(train, cfg.n_clients, stratified=True, seed=seed)
    return _hfed(cfg, shards, hp, seed)


def _flat_fits(cfg: RunConfig, train: MultiViewDataset, hp: HyperParams, seed: int):
    """Every set of transforms a flat mode trains: one per client shard
    in the isolated modes, else the one global set."""
    if MODES[cfg.mode].isolated:
        from . import hfed

        shards = partition_horizontal(train, cfg.n_clients, stratified=True, seed=seed)
        hfed._check_client_rows(shards)  # each shard trains alone, as client 0
        return [_hfed(cfg, [shard], hp, seed) for shard in shards]
    return [_fit_flat(cfg, train, hp, seed)]


def _score(cfg: RunConfig, fits, data: MultiViewDataset, hp: HyperParams) -> MetricsRow:
    """The mean metrics row of every set of transforms on data."""
    trainer = MODES[cfg.mode].trainer
    return average_rows(
        [_eval_transforms(trainer, w, data, hp, cfg.positive_class) for w in fits]
    )


def _grid_candidates(hp: HyperParams):
    for ze, ee in product(GRID_EXPONENTS, GRID_EXPONENTS):
        yield dataclasses.replace(
            hp, zeta=(2.0 ** ze,) * hp.n_views, eta=2.0 ** ee
        )


def _flat_repeat(
    cfg: RunConfig, data: MultiViewDataset, seed: int
) -> tuple[MetricsRow, tuple[float, float] | None]:
    """One repeat of a flat mode.  With the grid, every candidate is
    trained and scored on the validation part; the first with the best
    accuracy is the one whose fit is scored on the test part.  An "mvl"
    trainer's candidates are trained as one stack and scored in one
    stacked prediction pass (`mvl._predict_stack`), each slice equal to
    its own `predict_mvl`."""
    masked, hp = _select(cfg, data)
    train, val, test = _split(cfg, masked, seed)
    if not cfg.grid:
        return _score(cfg, _flat_fits(cfg, train, hp, seed), test, hp), None
    if val.n_samples == 0:
        raise ConfigError("split: the grid needs a non-empty validation part")
    candidates = list(_grid_candidates(hp))
    if MODES[cfg.mode].trainer == "mvl":
        transforms = [state.W for state in _train_stack(train, candidates, seed)[0]]
        fits = [[w] for w in transforms]
        scores = _predict_stack(
            val.views, [np.stack(ws) for ws in zip(*transforms)],
            [np.array([c.zeta[k] for c in candidates]) for k in range(hp.n_views)],
            hp.tol, hp.max_outer,
        )
        accuracy = [_metrics(m, val, cfg.positive_class).accuracy for m in scores]
    else:
        fits = [_flat_fits(cfg, train, candidate, seed) for candidate in candidates]
        accuracy = [_score(cfg, f, val, c).accuracy for f, c in zip(fits, candidates)]
    best = max(range(len(candidates)), key=accuracy.__getitem__)  # the first of equals
    chosen = candidates[best]
    return _score(cfg, fits[best], test, chosen), (chosen.zeta[0], chosen.eta)


def _local_encoders(
    datasets: Sequence[SequenceDataset],
    arch: EncoderArch,
    trainer: TrainerConfig,
    view: int,
) -> list[np.ndarray]:
    """Train one encoder per dataset with no communication, matching the
    federated compute budget (rounds times local epochs) and
    initialization.  Dataset l shuffles with key (l, view, 0); all of
    them train as one stack."""
    from . import sfed

    w = arch.init_params(trainer.seed, KEY_ENCODER, view)
    stack = np.repeat(w[None], len(datasets), axis=0)
    solo = dataclasses.replace(trainer, local_epochs=trainer.local_epochs * trainer.max_rounds)
    keys = [(l, view, 0) for l in range(len(datasets))]
    return list(sfed.local_training_stack(datasets, arch, stack, solo, keys))


def _feature_datasets(
    groups: Sequence[SequenceClientData], archs, params, n_classes: int
) -> list[MultiViewDataset]:
    """Each group's features under one set of encoders: one
    `extract_features` call per view over the rows of every group, split
    back by group.  Padding leaves each row's bits as a call on its
    group alone gives them."""
    from . import sfed

    y = np.concatenate([g.y for g in groups])
    ends = np.cumsum([g.n_samples for g in groups])[:-1]
    views = []
    for k, arch in enumerate(archs):
        rows = SequenceDataset([s for g in groups for s in g.views[k].sequences], y, n_classes)
        views.append(np.split(sfed.extract_features(arch, params[k], rows), ends))
    return [
        MultiViewDataset.from_class_indices([v[i] for v in views], g.y, n_classes=n_classes)
        for i, g in enumerate(groups)
    ]


def _seq_repeat(cfg: RunConfig, bundle: SequenceClientData, seed: int) -> MetricsRow:
    from . import hfed, sfed

    mode = MODES[cfg.mode]
    masked, hp = _select(cfg, bundle)
    train_b, _, test_b = _split(cfg, masked, seed)
    n_classes = masked.n_classes
    clients = partition_sequences(train_b, cfg.n_clients, stratified=True, seed=seed)
    if mode.isolated:
        hfed._check_client_rows(clients)  # each client's consensus trains alone, as client 0
    trainer = dataclasses.replace(cfg.trainer, seed=seed)
    k_views = train_b.n_views
    archs = [
        sfed.EncoderArch(
            n_features=train_b.views[k].n_features,
            embed_dim=cfg.embed_dim,
            n_classes=n_classes,
        )
        for k in range(k_views)
    ]

    if mode.encoders == "federated":
        params = sfed.sfed_train(clients, trainer, embed_dim=cfg.embed_dim).params
    elif mode.encoders == "pooled":
        pooled = [
            SequenceDataset(
                sequences=[s for c in clients for s in c.views[k].sequences],
                y=np.concatenate([c.y for c in clients]),
                n_classes=n_classes,
            )
            for k in range(k_views)
        ]
        params = [
            _local_encoders([pooled[k]], archs[k], trainer, view=k)[0]
            for k in range(k_views)
        ]
    else:
        by_view = [
            _local_encoders([c.views[k] for c in clients], archs[k], trainer, view=k)
            for k in range(k_views)
        ]
        # Every client embeds its rows and the test rows with its own encoders.
        feature_sets, test_sets = zip(*(
            _feature_datasets([c, test_b], archs, params, n_classes)
            for c, params in zip(clients, zip(*by_view))
        ))
    if mode.encoders != "local":
        # The clients and the test rows share the encoders, so each view's
        # rows are padded and embedded once.
        *feature_sets, test_set = _feature_datasets([*clients, test_b], archs, params, n_classes)
        test_sets = [test_set] * len(clients)
    if mode.isolated:
        fits = [_hfed(cfg, [f], hp, seed) for f in feature_sets]
    else:
        fits = [_hfed(cfg, feature_sets, hp, seed)] * len(clients)
    # Clients that share the encoders and the consensus score as one.
    shared = mode.encoders != "local" and not mode.isolated
    n_scored = 1 if shared else len(clients)
    rows = [
        _eval_transforms(mode.trainer, fits[l], test_sets[l], hp, cfg.positive_class)
        for l in range(n_scored)
    ]
    return average_rows(rows)


def run_experiment(
    cfg: RunConfig, dataset=None, sequences=None
) -> ExperimentResult:
    """Execute every repeat of the configured experiment.

    A dataset (or sequence bundle) passed in directly, or loaded from
    cfg.data_dir, is reused across repeats with varying splits; with a
    generator spec each repeat regenerates at the shifted seed.
    """
    given = _given(cfg, dataset, sequences)
    generated = given is None and cfg.data_dir is None
    if not generated:
        given = _source(cfg, given)
    rows: list[MetricsRow] = []
    seeds: list[int] = []
    data_seeds: list[int] = []
    choices: list[tuple[float, float]] = []
    for r in range(cfg.repeats):
        seed_r = cfg.seed + r
        seeds.append(seed_r)
        data = _source(cfg, given, r)
        if cfg.is_sequential:
            rows.append(_seq_repeat(cfg, data, seed_r))
        else:
            row, chosen = _flat_repeat(cfg, data, seed_r)
            rows.append(row)
            if chosen is not None:
                choices.append(chosen)
        if generated:
            base = cfg.spec.seed if cfg.spec is not None else cfg.seq_spec.seed
            data_seeds.append(base + r)
    report = MetricsReport(mode=cfg.mode, rows=rows)
    return ExperimentResult(
        config=cfg,
        report=report,
        seeds=seeds,
        data_seeds=data_seeds,
        grid_choices=choices if cfg.grid else None,
    )


@dataclass
class ModelBundle:
    """A trained set of view transforms plus what prediction needs.

    views, when known, are the indices of the source data's views the
    transforms were trained on, one per transform, ascending.
    """

    transforms: list[np.ndarray]
    zeta: tuple[float, ...]
    single: bool
    positive_class: int = 1
    views: tuple[int, ...] | None = None

    def __post_init__(self):
        self.zeta = tuple(float(z) for z in self.zeta)
        mvl._check_zeta(self.zeta)  # as prediction will
        if len(self.transforms) != len(self.zeta):
            raise ConfigError(
                f"model: {len(self.transforms)} transforms vs "
                f"{len(self.zeta)} zeta entries"
            )
        if self.single and len(self.transforms) != 1:
            raise ConfigError("model: a single-view model holds one transform")
        if self.views is not None:
            self.views = _increasing_views("model: source views", self.views)
            if len(self.views) != len(self.transforms):
                raise ConfigError(
                    f"model: source views {self.views} for "
                    f"{len(self.transforms)} transforms"
                )

    def predict(self, views) -> np.ndarray:
        if self.single:
            scores = views[0] @ self.transforms[0]
        else:
            scores = mvl.predict_mvl(views, self.transforms, self.zeta)
        return argmax_decode(scores)


def train_once(cfg: RunConfig, dataset=None) -> tuple[ModelBundle, MetricsRow]:
    """One train/test repeat at cfg.seed, returning the fitted model.

    Only the flat modes that end in one global model support this; the
    per-client and sequential pipelines have no single artifact to save.
    """
    mode = MODES[cfg.mode]
    if not mode.global_model:
        raise ConfigError(f"mode: {cfg.mode!r} does not produce one global model")
    data = _source(cfg, dataset)
    masked, hp = _select(cfg, data)
    train, _, test = _split(cfg, masked, cfg.seed)
    model = ModelBundle(
        transforms=_fit_flat(cfg, train, hp, cfg.seed),
        zeta=hp.zeta,
        single=mode.trainer == "single_view",
        positive_class=cfg.positive_class,
        views=_resolve_mask(cfg, data.n_views),
    )
    return model, evaluate_model(model, test)


def evaluate_model(model: ModelBundle, data: MultiViewDataset) -> MetricsRow:
    """Metrics of the model's predictions on data.  A model that knows
    its source views scores those views of data when data has them all;
    otherwise data's views must be the model's, in order."""
    if model.views is not None and data.n_views > model.views[-1]:
        data = data.select_views(model.views)
    dims = tuple(w.shape[0] for w in model.transforms)
    if data.dims != dims:
        raise ShapeError(f"model: data has view widths {data.dims}, model has {dims}")
    pred = model.predict(data.views)
    return compute_metrics(pred, data.class_indices(), model.positive_class)


def save_model(model: ModelBundle, path: str) -> None:
    """Persist a model as one CSV per transform, zeta.csv and a manifest.
    Every matrix is checked before any file or directory is made."""
    k = len(model.transforms)
    classes = model.transforms[0].shape[1]
    entries = {"views": k, "classes": classes, "single": int(model.single),
               "positive_class": model.positive_class}
    files = []
    for i, w in enumerate(model.transforms):
        if w.ndim != 2 or w.shape[1] != classes:
            raise ShapeError(f"transform {i} has shape {w.shape}")
        entries[f"dim_{i}"] = w.shape[0]
        if model.views is not None:
            entries[f"source_view_{i}"] = model.views[i]
        files.append((f"transform_{i}.csv", "c", w))
    files.append(("zeta.csv", "z", [model.zeta]))
    for name, _, m in files:
        _finite_matrix(os.path.join(path, name), m)
    os.makedirs(path, exist_ok=True)
    for name, prefix, m in files:
        _write_matrix(os.path.join(path, name), prefix, m)
    _write_manifest(path, entries)


def load_model(path: str) -> ModelBundle:
    """Read a model directory written by save_model.  The source view
    entries are optional, as in models saved before they were kept."""
    manifest = _read_manifest(
        path, ("views", "classes", "single", "positive_class"), "dim"
    )
    k, classes = manifest["views"], manifest["classes"]
    views = None
    if "source_view_0" in manifest:
        keys = [f"source_view_{i}" for i in range(k)]
        views = tuple(map(_read_manifest(path, keys).get, keys))  # ParseError names a gap
    transforms = [
        _read_matrix(os.path.join(path, f"transform_{i}.csv"), "c", classes,
                     manifest[f"dim_{i}"])
        for i in range(k)
    ]
    (zeta,) = _read_matrix(os.path.join(path, "zeta.csv"), "z", k, 1)
    return ModelBundle(
        transforms=transforms,
        zeta=tuple(zeta),
        single=bool(manifest["single"]),
        positive_class=manifest["positive_class"],
        views=views,
    )


def export_embeddings(matrix: np.ndarray, y: np.ndarray, path: str) -> None:
    """Write per-sample embedding rows with a trailing class column."""
    matrix = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if matrix.ndim != 2 or y.ndim != 1 or matrix.shape[0] != y.shape[0]:
        raise ShapeError(
            f"embeddings {matrix.shape} do not align with labels {y.shape}"
        )
    _write_matrix(path, "e", matrix, y)


def load_embeddings(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of export_embeddings; exact for finite doubles."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\n").split(",")
    if header[-1] != "class":
        raise ShapeError(f"{path}: expected a trailing class column")
    return _read_matrix(path, "e", len(header) - 1, None, classes=True)


def compute_embeddings(
    cfg: RunConfig, dataset=None, sequences=None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample embedding matrix and labels for the export command.

    mvl and vfed train on the full dataset and export the consensus
    rows; sfed trains the federated encoders and exports the per-view
    features side by side.
    """
    mode = MODES[cfg.mode]
    if not mode.embeds:
        raise ConfigError(f"mode: {cfg.mode!r} has no per-sample embedding to export")
    data = _source(cfg, _given(cfg, dataset, sequences))
    if mode.sequential:
        from . import sfed

        masked = data.select_views(_resolve_mask(cfg, data.n_views))
        clients = partition_sequences(
            masked, cfg.n_clients, stratified=True, seed=cfg.seed
        )
        trainer = dataclasses.replace(cfg.trainer, seed=cfg.seed)
        res = sfed.sfed_train(clients, trainer, embed_dim=cfg.embed_dim)
        feats = [
            sfed.extract_features(res.archs[k], res.params[k], masked.views[k])
            for k in range(masked.n_views)
        ]
        return np.hstack(feats), masked.y.copy()
    masked, hp = _select(cfg, data)
    if mode.trainer == "vfed":
        from . import vfed

        consensus = vfed.vfed_train(masked, hp, cfg.seed).consensus
    else:
        state, _ = train_mvl(masked, hp, cfg.seed)
        consensus = state.Z
    return consensus, masked.class_indices()
