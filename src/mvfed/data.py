"""Synthetic data generation, partitioning and every on-disk format.

This module owns the sequence dataset types, `SequenceDataset` and
`SequenceClientData` (the flat `MultiViewDataset` is `mvl`'s), and the
encoder's SGD settings, `TrainerConfig`, so a run configuration can be
built and its data loaded without loading the encoder in `sfed` or
`fedcore`.
Generators draw class-conditional structure with a controllable noise
level and seed, so every benchmark in the test suite and the demos is
reproducible from a couple of integers.  Partitioners split a dataset
by rows (for horizontal training) or by views (for vertical training).
Sequence data is drawn and checked a view at a time: `gen_sequences`
fills one buffer per view and `SequenceDataset` checks all steps at once.
Every on-disk format is a key=value manifest.txt beside CSV tables that
go through one codec: dataset directories (view_k.csv, labels.csv),
sequence directories (sequences_view_k.csv, one step per row: sample_id,
t, then the features; labels.csv), model directories (transform_i.csv,
zeta.csv) and embedding CSVs (a trailing class column).  A table is a
header row, then cells as repr(float), so save/load is bitwise faithful,
or as str(int) under the names sample_id, t and class.  The writer,
`_write_tables`, checks every cell of every file before it makes a
directory or opens a file: a non-finite cell is InvalidSpec.  The
reader, `_read_table`, converts a whole column at a time and walks a
failing file once, in file order, to name its first bad cell: a bad or
non-finite cell or a missing manifest key is a ParseError, a wrong count
or a sample_id outside the samples a ShapeError.
The class-count rule, at least two classes and, for a generator, enough
samples for one of each, is `_check_classes`, which the generator specs,
`SequenceDataset` and sfed's `EncoderArch` call; the dataset types take
their label and view selection rules from `mvl` (`_class_indices`,
`_check_view_indices`).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptySequence,
    InvalidSpec,
    ParseError,
    ShapeError,
)
from .mvl import MultiViewDataset, _check_cap, _check_view_indices, _class_indices
from .numerics import KEY_DATA, make_rng, orthonormal_init


def _check_classes(n_classes: int, n_samples: int | None = None) -> None:
    """At least two classes and, given n_samples, enough samples for one of each."""
    if n_classes < 2:
        raise InvalidSpec("need at least two classes")
    if n_samples is not None and n_samples < n_classes:
        raise InvalidSpec(f"{n_samples} samples cannot cover {n_classes} classes")


@dataclass
class SequenceDataset:
    """Variable-length sequences with one class index per sequence."""

    sequences: list[np.ndarray]
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 1 or len(self.sequences) != y.shape[0]:
            raise DimensionMismatch(f"{len(self.sequences)} sequences, label shape {y.shape}")
        _check_classes(self.n_classes)
        self.y, _ = _class_indices(y, self.n_classes)
        # Shapes and finiteness checked whole; a failing dataset walks its
        # samples to name the first fault, in the order below.
        seqs = self.sequences
        if not any(
            s.ndim != 2 or not s.shape[0] or s.shape[1] != seqs[0].shape[1] for s in seqs
        ) and (not seqs or np.isfinite(np.concatenate(seqs)).all()):
            return
        for i, seq in enumerate(seqs):
            if seq.ndim != 2:
                raise DimensionMismatch(f"sample {i}: expected 2-D steps array")
            if seq.shape[0] < 1:
                raise EmptySequence(f"sample {i} has no time steps")
            if not np.isfinite(seq).all():
                raise InvalidSpec(f"sample {i} contains non-finite entries")
            if seq.shape[1] != seqs[0].shape[1]:
                raise DimensionMismatch(
                    f"sample {i}: {seq.shape[1]} features, first sample has {seqs[0].shape[1]}"
                )

    @property
    def n_samples(self) -> int:
        return len(self.sequences)

    @property
    def n_features(self) -> int:
        if not self.sequences:
            raise EmptyDataset("no sequences to infer the feature width from")
        return self.sequences[0].shape[1]

    def subset(self, indices) -> "SequenceDataset":
        """Dataset restricted to the given sample indices (copied)."""
        idx = np.asarray(indices, dtype=np.int64)
        return SequenceDataset(
            sequences=[self.sequences[i].copy() for i in idx],
            y=self.y[idx],
            n_classes=self.n_classes,
        )


@dataclass
class SequenceClientData:
    """One client's sequences for every view, sharing the label vector."""

    views: list[SequenceDataset]

    def __post_init__(self):
        if not self.views:
            raise InvalidSpec("client needs at least one view")
        first = self.views[0]
        for k, view in enumerate(self.views[1:], start=1):
            if view.n_samples != first.n_samples or not np.array_equal(
                view.y, first.y
            ):
                raise DimensionMismatch(f"view {k} disagrees on sample labels")
            if view.n_classes != first.n_classes:
                raise DimensionMismatch(f"view {k} disagrees on class count")

    @property
    def n_samples(self) -> int:
        return self.views[0].n_samples

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def y(self) -> np.ndarray:
        return self.views[0].y

    @property
    def n_classes(self) -> int:
        return self.views[0].n_classes

    def class_indices(self) -> np.ndarray:
        return self.y

    def subset(self, indices) -> "SequenceClientData":
        return SequenceClientData(views=[v.subset(indices) for v in self.views])

    def select_views(self, view_indices) -> "SequenceClientData":
        _check_view_indices(view_indices, self.n_views)
        return SequenceClientData(views=[self.views[k] for k in view_indices])


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a flat multi-view dataset."""

    n_samples: int
    dims: tuple[int, ...]
    n_classes: int = 2
    noise: float = 0.5
    margin: float = 3.0
    informative: tuple[bool, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        _check_cap("seed", self.seed)
        _check_classes(self.n_classes, self.n_samples)
        if len(self.dims) < 1 or any(d < 1 for d in self.dims):
            raise InvalidSpec(f"bad view widths {self.dims}")
        if not 0 <= self.noise < np.inf:
            raise InvalidSpec(f"noise must be finite and >= 0, got {self.noise!r}")
        if not np.isfinite(self.margin):
            raise InvalidSpec(f"margin must be finite, got {self.margin!r}")
        if self.informative is not None:
            if len(self.informative) != len(self.dims):
                raise InvalidSpec(
                    f"{len(self.informative)} mask entries for "
                    f"{len(self.dims)} views"
                )
            if not any(self.informative):
                raise InvalidSpec("at least one view must carry class signal")

    @property
    def mask(self) -> tuple[bool, ...]:
        if self.informative is None:
            return tuple(True for _ in self.dims)
        return self.informative


@dataclass(frozen=True)
class SeqGeneratorSpec:
    """Recipe for per-view sequence collections with shared labels."""

    n_samples: int
    step_dims: tuple[int, ...]
    t_range: tuple[int, int] = (5, 15)
    n_classes: int = 2
    drift: float = 1.5
    noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_cap("seed", self.seed)
        _check_classes(self.n_classes, self.n_samples)
        if len(self.step_dims) < 1 or any(p < 1 for p in self.step_dims):
            raise InvalidSpec(f"bad step widths {self.step_dims}")
        lo, hi = self.t_range
        if lo < 1 or hi < lo:
            raise InvalidSpec(f"bad length range {self.t_range}")
        for name, value in (("noise", self.noise), ("drift", self.drift)):
            if not 0 <= value < np.inf:
                raise InvalidSpec(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class TrainerConfig:
    """Minibatch SGD settings for the federated encoder rounds."""

    batch_size: int = 16
    local_epochs: int = 1
    learning_rate: float = 0.05
    max_rounds: int = 10
    seed: int = 0

    def __post_init__(self):
        # Counts are integers at the boundary: a float or bool here would
        # fail later, inside a client's round or as a bare TypeError.
        for name, low in (("batch_size", 1), ("local_epochs", 0), ("max_rounds", 0), ("seed", 0)):
            _check_cap(name, getattr(self, name), low)
        if not 0 < self.learning_rate < np.inf:
            raise InvalidSpec(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")


def _balanced_labels(rng, n: int, c: int) -> np.ndarray:
    y = np.arange(n) % c
    rng.shuffle(y)
    return y


def gen_multiview(spec: GeneratorSpec) -> MultiViewDataset:
    """Class blobs pushed through per-view linear maps.

    Latent class centers sit margin apart on orthonormal directions;
    each informative view observes them through its own random map plus
    Gaussian noise.  Views flagged uninformative are unit-scale noise
    with no class dependence.
    """
    rng = make_rng(spec.seed, KEY_DATA)
    n, c = spec.n_samples, spec.n_classes
    y = _balanced_labels(rng, n, c)
    latent_dim = max(2, c)
    centers = spec.margin * orthonormal_init(latent_dim, c, spec.seed, KEY_DATA, 1).T
    latent = centers[y]
    views = []
    for k, (d, informative) in enumerate(zip(spec.dims, spec.mask)):
        if informative:
            view_map = rng.standard_normal((latent_dim, d)) / np.sqrt(latent_dim)
            views.append(latent @ view_map + spec.noise * rng.standard_normal((n, d)))
        else:
            views.append(rng.standard_normal((n, d)))
    return MultiViewDataset.from_class_indices(views, y, n_classes=c)


def gen_complementary(spec: GeneratorSpec) -> MultiViewDataset:
    """Binary dataset where each view separates only its own sample fold.

    Samples are dealt into K folds; view k carries a signed class
    direction only for fold k and pure noise elsewhere.  Any single
    view therefore tops out near 1/2 + 1/(2K) accuracy while all views
    together separate everything.
    """
    k_views = len(spec.dims)
    if k_views < 2:
        raise InvalidSpec("complementary construction needs at least two views")
    if spec.n_classes != 2:
        raise InvalidSpec("complementary construction is binary")
    rng = make_rng(spec.seed, KEY_DATA, 2)
    n = spec.n_samples
    y = _balanced_labels(rng, n, 2)
    fold = rng.permutation(n) % k_views
    signs = np.where(y == 1, 1.0, -1.0)
    views = []
    for k, d in enumerate(spec.dims):
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        x = rng.standard_normal((n, d))
        informative = fold == k
        x[informative] = (
            spec.margin * signs[informative, None] * direction[None, :]
            + spec.noise * rng.standard_normal((int(informative.sum()), d))
        )
        views.append(x)
    return MultiViewDataset.from_class_indices(views, y, n_classes=2)


def gen_sequences(spec: SeqGeneratorSpec) -> SequenceClientData:
    """Sequences whose per-step mean carries the class, plus step noise.

    Every view gets its own class drift directions and its own length
    draw per sample, so batches are ragged within and across views.
    """
    rng = make_rng(spec.seed, KEY_DATA, 3)
    n, c = spec.n_samples, spec.n_classes
    y = _balanced_labels(rng, n, c)
    lo, hi = spec.t_range
    views = []
    for p in spec.step_dims:
        directions = rng.standard_normal((c, p))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means = spec.drift * directions
        # Per sample, its length and then its noise: drawing every length
        # first would change the draws (PCG64 keeps half a 64-bit word).
        noise, ends = np.empty((n * hi, p)), [0]
        for _ in range(n):
            ends.append(ends[-1] + int(rng.integers(lo, hi + 1)))
            rng.standard_normal(out=noise[ends[-2] : ends[-1]])
        steps = noise[: ends[-1]]
        steps *= spec.noise
        steps += means[np.repeat(y, np.diff(ends))]
        seqs = [steps[a:b] for a, b in zip(ends, ends[1:])]
        views.append(SequenceDataset(seqs, y.copy(), c))
    return SequenceClientData(views=views)


def _deal_rows(
    classes: np.ndarray, n_classes: int, m: int, stratified: bool, rng
) -> list[np.ndarray]:
    """Sorted index arrays for M near-equal shards of len(classes) rows."""
    n = classes.shape[0]
    _check_cap("m", m, 1)
    if m > n:
        raise InvalidSpec(f"{m} clients cannot all receive one of {n} samples")
    if stratified:
        stream = []
        for c in range(n_classes):
            members = np.flatnonzero(classes == c)
            rng.shuffle(members)
            stream.extend(members.tolist())
    else:
        stream = rng.permutation(n).tolist()
    return [np.array(sorted(stream[l::m]), dtype=np.int64) for l in range(m)]


def partition_horizontal(
    data: MultiViewDataset, m: int, stratified: bool = True, seed: int = 0
) -> list[MultiViewDataset]:
    """Split rows into M near-equal client datasets.

    Stratified mode deals each class's shuffled indices round-robin in
    one continuous stream, so per-class counts and total sizes both
    stay within one sample of an exact split.
    """
    rng = make_rng(seed, KEY_DATA, 4)
    rows = _deal_rows(data.class_indices(), data.n_classes, m, stratified, rng)
    return [data.subset(r) for r in rows]


def partition_sequences(
    bundle: SequenceClientData, m: int, stratified: bool = True, seed: int = 0
) -> list[SequenceClientData]:
    """Split a sequence bundle's samples into M near-equal client bundles.

    Same dealing scheme as partition_horizontal, so stratified shards
    stay within one sample per class of an exact split.
    """
    rng = make_rng(seed, KEY_DATA, 4)
    rows = _deal_rows(bundle.y, bundle.views[0].n_classes, m, stratified, rng)
    return [bundle.subset(r) for r in rows]


_INT_COLUMNS = ("sample_id", "t", "class")


def _names(prefix: str, k: int) -> list[str]:
    return [f"{prefix}{j}" for j in range(k)]


def _table_text(path: str, header: list[str], m, ints=()) -> str:
    """The CSV text of a table: header, then one row per row of m.  The
    cells under _INT_COLUMNS names come, in order, from ints, as
    str(int); the others are m's columns, as repr(float), which reads
    back bit for bit.  A non-finite cell of m is InvalidSpec naming path
    and the cell's row and column in the file."""
    m = np.asarray(m, dtype=np.float64)
    floats = [j for j, name in enumerate(header) if name not in _INT_COLUMNS]
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0].tolist()
        raise InvalidSpec(f"{path}: row {i}, column {floats[j]} is non-finite: {m[i, j].item()!r}")
    cells, ints = iter(m.T.tolist()), iter(ints)
    columns = [
        map(str, np.asarray(next(ints), dtype=np.int64).tolist()) if name in _INT_COLUMNS
        else map(repr, next(cells))
        for name in header
    ]
    rows = zip(*columns) if columns else [()] * len(m)
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _write_tables(tables, path: str | None = None, manifest: dict[str, int] | None = None) -> None:
    """Write each (file, header, m, ints) of tables as by _table_text
    and, given a directory path, manifest as its key=value manifest.txt.
    Every cell of every table is checked before path is made and before
    any file is opened, so a bad cell writes nothing."""
    texts = {table[0]: _table_text(*table) for table in tables}
    if path is not None:
        os.makedirs(path, exist_ok=True)
        texts[os.path.join(path, "manifest.txt")] = "".join(
            f"{key}={value}\n" for key, value in manifest.items()
        )
    for name, text in texts.items():
        with open(name, "w", newline="") as fh:
            fh.write(text)


def _parse(kind, where: str, text: str):
    """kind(text), kind float or int; ParseError naming where (path:line:col)."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ParseError(f"{where}: not {what}: {text!r}") from None


def _read_table(path: str, header, rows: int | None = None, n: int = 0):
    """(m, ints), the float matrix and the int columns of a table that
    _write_tables wrote.  header is the expected first line, or a
    function of the file's first line that returns it; rows, if given,
    is the row count.  A bad header or field count is a ParseError, a
    wrong row count a ShapeError.  The cells are converted a whole
    column at a time, with Python's float and int, and checked by their
    column's rule (see _first_bad_cell); a file that fails is walked to
    name its first bad cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None:
            raise ParseError(f"{path}:1: empty file")
        if callable(header):
            header = header(got)
        if got != header:
            raise ParseError(f"{path}:1: header {got!r}, expected {header!r}")
        lines = []
        for line_no, line in enumerate(reader, start=2):
            if len(line) != len(header):
                raise ParseError(f"{path}:{line_no}: {len(line)} fields, expected {len(header)}")
            lines.append(line)
    if rows is not None and len(lines) != rows:
        raise ShapeError(f"{path}: {len(lines)} rows, expected {rows}")
    columns = dict(zip(header, zip(*lines))) if lines else dict.fromkeys(header, ())
    floats = [name for name in header if name not in _INT_COLUMNS]
    m = np.empty((len(lines), len(floats)))
    try:
        for j, name in enumerate(floats):
            m[:, j] = list(map(float, columns[name]))
        ints = {
            name: np.array(list(map(int, columns[name])), dtype=np.int64)
            for name in header if name in _INT_COLUMNS
        }
        good = bool(np.isfinite(m).all())
        if "sample_id" in ints:
            ids = ints["sample_id"]
            order = np.argsort(ids, kind="stable")  # each sample's rows, in file order
            ranks = np.arange(len(ids)) - np.searchsorted(ids[order], ids[order])
            good &= bool(((ids >= 0) & (ids < n)).all() and (ints["t"][order] == ranks).all())
    except (ValueError, OverflowError):
        good = False
    if not good:
        _first_bad_cell(path, header, lines, n)
    return m, list(ints.values())


def _first_bad_cell(path: str, header: list[str], lines, n: int) -> None:
    """Raise the error of the first bad cell of lines, walked in file
    order and each line from the left.  A feature cell must be a finite
    float, a class cell an int64 (else ParseError), a sample_id in
    0..n-1 (else ShapeError, whatever its size) and t its sample's count
    of earlier rows (else ParseError)."""
    seen = [0] * n
    for line_no, line in enumerate(lines, start=2):
        where = f"{path}:{line_no}"
        for col, (name, text) in enumerate(zip(header, line), start=1):
            value = _parse(int if name in _INT_COLUMNS else float, f"{where}:{col}", text)
            if name not in _INT_COLUMNS and not math.isfinite(value):
                raise ParseError(f"{where}:{col}: non-finite {text!r}")
            if name == "class" and not -(2**63) <= value < 2**63:
                raise ParseError(f"{where}:{col}: outside int64: {text!r}")
            if name == "sample_id":
                if not 0 <= value < n:
                    raise ShapeError(f"{where}: sample_id {value} outside 0..{n - 1}")
                sample = value
            if name == "t":
                if value != seen[sample]:
                    raise ParseError(f"{where}: step {value} out of order, expected {seen[sample]}")
                seen[sample] += 1


def _labels_table(path: str, y):
    """labels.csv: a class column beside zero feature columns."""
    return os.path.join(path, "labels.csv"), ["class"], np.empty((len(y), 0)), [y]


def _read_labels(path: str, n: int, c: int) -> np.ndarray:
    labels_path = os.path.join(path, "labels.csv")
    _, (y,) = _read_table(labels_path, ["class"], n)
    bad = np.flatnonzero((y < 0) | (y >= c))
    if bad.size:
        i = bad[0]
        raise ShapeError(f"{labels_path}:{i + 2}: class {y[i]} outside 0..{c - 1}")
    return y


def _read_manifest(path: str, required, per_view: str | None = None) -> dict[str, int]:
    """The key=value entries of path/manifest.txt.  ParseError names the
    first missing key of required, then of {per_view}_k for each view k."""
    name = os.path.join(path, "manifest.txt")
    entries = {}
    with open(name) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{name}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = _parse(int, f"{name}:{line_no}:1", value.strip())
    views = range(entries.get("views", 0)) if per_view else ()
    for key in chain(required, (f"{per_view}_{k}" for k in views)):
        if key not in entries:
            raise ParseError(f"{name}: missing {key}")
    return entries


def save_dataset(data: MultiViewDataset, path: str) -> None:
    """Write one CSV per view (header f0..f{d-1}), the class indices
    (labels.csv) and a manifest."""
    manifest = {"views": data.n_views, "samples": data.n_samples, "classes": data.n_classes}
    manifest.update((f"dim_{k}", d) for k, d in enumerate(data.dims))
    tables = [
        (os.path.join(path, f"view_{k}.csv"), _names("f", d), view)
        for k, (d, view) in enumerate(zip(data.dims, data.views))
    ]
    _write_tables([*tables, _labels_table(path, data.class_indices())], path, manifest)


def load_dataset(path: str) -> MultiViewDataset:
    """Read a dataset directory written by save_dataset."""
    manifest = _read_manifest(path, ("views", "samples", "classes"), "dim")
    n, c = manifest["samples"], manifest["classes"]
    views = [
        _read_table(os.path.join(path, f"view_{k}.csv"), _names("f", manifest[f"dim_{k}"]), n)[0]
        for k in range(manifest["views"])
    ]
    y = _read_labels(path, n, c)
    return MultiViewDataset.from_class_indices(views, y, n_classes=c)


def save_sequences(bundle: SequenceClientData, path: str) -> None:
    """Write per-view sequence CSVs plus labels and a manifest.
    Sequence records are one step per row: sample_id, t, then the step
    features; lengths are implicit in the step counts."""
    manifest = {
        "views": bundle.n_views,
        "samples": bundle.n_samples,
        "classes": bundle.views[0].n_classes,
    }
    tables = []
    for k, view in enumerate(bundle.views):
        width = view.sequences[0].shape[1] if view.n_samples else 0
        manifest[f"step_dim_{k}"] = width
        lengths = np.array([len(seq) for seq in view.sequences], dtype=np.int64)
        steps = np.concatenate([np.empty((0, width)), *view.sequences], dtype=np.float64)
        ids = np.repeat(np.arange(len(lengths)), lengths)
        t = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        header = ["sample_id", "t", *_names("f", width)]
        tables.append((os.path.join(path, f"sequences_view_{k}.csv"), header, steps, [ids, t]))
    _write_tables([*tables, _labels_table(path, bundle.y)], path, manifest)


def load_sequences(path: str) -> SequenceClientData:
    """Read a sequence directory written by save_sequences."""
    manifest = _read_manifest(path, ("views", "samples", "classes"), "step_dim")
    n, c = manifest["samples"], manifest["classes"]
    y = _read_labels(path, n, c)
    views = []
    for k in range(manifest["views"]):
        name = os.path.join(path, f"sequences_view_{k}.csv")
        header = ["sample_id", "t", *_names("f", manifest[f"step_dim_{k}"])]
        steps, (ids, _) = _read_table(name, header, n=n)
        counts = np.bincount(ids, minlength=n)
        if not counts.all():
            raise ShapeError(f"{name}: sample {np.argmin(counts)} has no steps")
        steps, ends = steps[np.argsort(ids, kind="stable")], [0, *np.cumsum(counts).tolist()]
        views.append(SequenceDataset([steps[a:b] for a, b in zip(ends, ends[1:])], y.copy(), c))
    return SequenceClientData(views=views)
