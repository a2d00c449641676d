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
Sequence data is drawn, checked and stored a view at a time:
`gen_sequences` fills one buffer per view, `SequenceDataset` checks all
steps at once, and the sequences_view_k.csv files (one step per row:
sample_id, t, then the features) are formatted and converted a whole
column at a time by their own writer and reader, which walks the rows
only to name the first bad line.  The other formats go through one CSV
matrix codec (a header row, then cells as repr(float), so save/load is
bitwise faithful) and a key=value manifest.txt: dataset directories
(view_k.csv, labels.csv), a sequence directory's labels.csv, model
directories (transform_i.csv, zeta.csv) and embedding CSVs (a trailing
class column).  A bad or non-finite cell or a missing manifest key is a
ParseError, a wrong count a ShapeError; the matrix writer rejects a
non-finite cell (InvalidSpec) before it opens the file.
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


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path: str, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise ParseError(f"{path}:1: empty file") from None
        if got != header:
            raise ParseError(f"{path}:1: header {got!r}, expected {header!r}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{line_no}: {len(row)} fields, expected {len(header)}"
                )
            rows.append(row)
    return rows


def _parse(kind, path: str, line_no: int, col: int, text: str):
    """kind(text), kind float or int; ParseError naming path:line:col."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ParseError(f"{path}:{line_no}:{col + 1}: not {what}: {text!r}") from None


def _parse_finite(path: str, line_no: int, col: int, text: str) -> float:
    """`_parse(float, ...)` that also rejects nan and inf."""
    value = _parse(float, path, line_no, col, text)
    if not math.isfinite(value):
        raise ParseError(f"{path}:{line_no}:{col + 1}: non-finite {text!r}")
    return value


def _parse_int64(path: str, line_no: int, col: int, text: str) -> int:
    """`_parse(int, ...)` that also rejects values outside int64."""
    value = _parse(int, path, line_no, col, text)
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"{path}:{line_no}:{col + 1}: outside int64: {text!r}")
    return value


def _finite_matrix(path: str, m) -> np.ndarray:
    """m as a float matrix; InvalidSpec names path and a non-finite cell."""
    m = np.asarray(m, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0].tolist()
        raise InvalidSpec(f"{path}: row {i}, column {j} is non-finite: {m[i, j].item()!r}")
    return m


def _write_matrix(path: str, prefix: str, m, classes=None) -> None:
    """m's rows under the header {prefix}0..{prefix}{cols-1}, each cell
    as repr(float) so it reads back bit for bit; with classes, a
    trailing integer class column.  A non-finite cell is InvalidSpec."""
    m = _finite_matrix(path, m)
    header = [f"{prefix}{j}" for j in range(m.shape[1])]
    rows = ([repr(v) for v in row] for row in m.tolist())
    if classes is not None:
        header.append("class")
        rows = (row + [str(int(c))] for row, c in zip(rows, classes))
    _write_csv(path, header, rows)


def _read_matrix(path: str, prefix: str, cols: int, rows, classes: bool = False):
    """Inverse of _write_matrix; rows None takes any row count."""
    lines = _read_csv(path, [f"{prefix}{j}" for j in range(cols)] + ["class"] * classes)
    if rows is not None and len(lines) != rows:
        raise ShapeError(f"{path}: {len(lines)} rows, expected {rows}")
    m = np.empty((len(lines), cols))
    for i, line in enumerate(lines):
        for j in range(cols):
            m[i, j] = _parse_finite(path, i + 2, j, line[j])
    if not classes:
        return m
    y = [_parse_int64(path, i + 2, cols, line[cols]) for i, line in enumerate(lines)]
    return m, np.array(y, dtype=np.int64)


def _write_labels(path: str, y) -> None:
    """labels.csv: a class column beside zero feature columns."""
    _write_matrix(os.path.join(path, "labels.csv"), "", np.empty((len(y), 0)), y)


def _read_labels(path: str, n: int, c: int) -> np.ndarray:
    labels_path = os.path.join(path, "labels.csv")
    _, y = _read_matrix(labels_path, "", 0, n, classes=True)
    bad = np.flatnonzero((y < 0) | (y >= c))
    if bad.size:
        i = bad[0]
        raise ShapeError(f"{labels_path}:{i + 2}: class {y[i]} outside 0..{c - 1}")
    return y


def _write_manifest(path: str, entries: dict[str, int]) -> None:
    with open(os.path.join(path, "manifest.txt"), "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


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
            entries[key.strip()] = _parse(int, name, line_no, 0, value.strip())
    views = range(entries.get("views", 0)) if per_view else ()
    for key in chain(required, (f"{per_view}_{k}" for k in views)):
        if key not in entries:
            raise ParseError(f"{name}: missing {key}")
    return entries


def save_dataset(data: MultiViewDataset, path: str) -> None:
    """Write one CSV per view, the class indices, and a manifest."""
    os.makedirs(path, exist_ok=True)
    for k, view in enumerate(data.views):
        _write_matrix(os.path.join(path, f"view_{k}.csv"), "f", view)
    _write_labels(path, data.class_indices())
    manifest = {
        "views": data.n_views,
        "samples": data.n_samples,
        "classes": data.n_classes,
    }
    for k, d in enumerate(data.dims):
        manifest[f"dim_{k}"] = d
    _write_manifest(path, manifest)


def load_dataset(path: str) -> MultiViewDataset:
    """Read a dataset directory written by save_dataset."""
    manifest = _read_manifest(path, ("views", "samples", "classes"), "dim")
    n, c = manifest["samples"], manifest["classes"]
    views = [
        _read_matrix(os.path.join(path, f"view_{k}.csv"), "f", manifest[f"dim_{k}"], n)
        for k in range(manifest["views"])
    ]
    y = _read_labels(path, n, c)
    return MultiViewDataset.from_class_indices(views, y, n_classes=c)


def save_sequences(bundle: SequenceClientData, path: str) -> None:
    """Write per-view sequence CSVs plus labels and a manifest.

    Sequence records are one step per row: sample_id, t, then the step
    features; lengths are implicit in the step counts.  Each column is
    formatted whole, its cells as str(int) and repr(float).
    """
    os.makedirs(path, exist_ok=True)
    manifest = {
        "views": bundle.n_views,
        "samples": bundle.n_samples,
        "classes": bundle.views[0].n_classes,
    }
    for k, view in enumerate(bundle.views):
        width = view.sequences[0].shape[1] if view.n_samples else 0
        manifest[f"step_dim_{k}"] = width
        header = ["sample_id", "t"] + [f"f{j}" for j in range(width)]
        lengths = np.array([len(seq) for seq in view.sequences], dtype=np.int64)
        steps = np.concatenate([np.empty((0, width)), *view.sequences], dtype=np.float64)
        ids = np.repeat(np.arange(len(lengths)), lengths)
        t = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        columns = [map(str, ids.tolist()), map(str, t.tolist())]
        columns += [map(repr, column) for column in steps.T.tolist()]
        _write_csv(os.path.join(path, f"sequences_view_{k}.csv"), header, zip(*columns))
    _write_labels(path, bundle.y)
    _write_manifest(path, manifest)


def _read_steps(path: str, n: int, p: int) -> list[np.ndarray]:
    """Each sample's (t, p) steps in a sequence file of n samples, read
    a whole column at a time; a bad file's rows are walked in order to
    name its first bad line."""
    rows = _read_csv(path, ["sample_id", "t"] + [f"f{j}" for j in range(p)])
    columns = list(zip(*rows)) or [()] * (p + 2)
    try:
        ids, t = (np.array(list(map(int, column)), dtype=np.int64) for column in columns[:2])
        steps = np.array([list(map(float, column)) for column in columns[2:]])
        good = bool(((ids >= 0) & (ids < n)).all())
    except (ValueError, OverflowError):
        good = False
    if good:
        counts = np.bincount(ids, minlength=n)
        order = np.argsort(ids, kind="stable")  # each sample's rows, in file order
        ranks = np.arange(len(ids)) - np.repeat(np.cumsum(counts) - counts, counts)
        good = (t[order] == ranks).all() and np.isfinite(steps).all()
    if not good:
        seen = [0] * n
        for line_no, row in enumerate(rows, start=2):
            sample = _parse(int, path, line_no, 0, row[0])
            step = _parse(int, path, line_no, 1, row[1])
            if sample < 0 or sample >= n:
                raise ShapeError(f"{path}:{line_no}: sample_id {sample} outside 0..{n - 1}")
            if step != seen[sample]:
                raise ParseError(
                    f"{path}:{line_no}: step {step} out of order, expected {seen[sample]}"
                )
            seen[sample] += 1
            for j, v in enumerate(row[2:], start=2):
                _parse_finite(path, line_no, j, v)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ShapeError(f"{path}: sample {empty[0]} has no steps")
    ends = [0, *np.cumsum(counts).tolist()]
    steps = steps.reshape(p, len(rows)).T[order]
    return [steps[a:b] for a, b in zip(ends, ends[1:])]


def load_sequences(path: str) -> SequenceClientData:
    """Read a sequence directory written by save_sequences."""
    manifest = _read_manifest(path, ("views", "samples", "classes"), "step_dim")
    n, c = manifest["samples"], manifest["classes"]
    y = _read_labels(path, n, c)
    views = [
        SequenceDataset(
            _read_steps(os.path.join(path, f"sequences_view_{k}.csv"), n, manifest[f"step_dim_{k}"]),
            y.copy(), c,
        )
        for k in range(manifest["views"])
    ]
    return SequenceClientData(views=views)
