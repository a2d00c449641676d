"""Synthetic data generation, partitioning and dataset file formats.

Generators draw class-conditional structure with a controllable noise
level and seed, so every benchmark in the test suite and the demos is
reproducible from a couple of integers.  Partitioners split a dataset
by rows (for horizontal training) or by views (for vertical training).
Datasets persist as one CSV per view plus a labels file and a flat
key=value manifest; floats are printed with round-trip-exact decimal
formatting so save/load is bitwise faithful.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSpec, ParseError, ShapeError
from .mvl import MultiViewDataset
from .numerics import KEY_DATA, make_rng, orthonormal_init
from .sfed import SequenceClientData, SequenceDataset


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
        if self.n_classes < 2:
            raise InvalidSpec("need at least two classes")
        if self.n_samples < self.n_classes:
            raise InvalidSpec(
                f"{self.n_samples} samples cannot cover {self.n_classes} classes"
            )
        if len(self.dims) < 1 or any(d < 1 for d in self.dims):
            raise InvalidSpec(f"bad view widths {self.dims}")
        if self.noise < 0:
            raise InvalidSpec(f"noise {self.noise} < 0")
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
        if self.n_classes < 2:
            raise InvalidSpec("need at least two classes")
        if self.n_samples < self.n_classes:
            raise InvalidSpec(
                f"{self.n_samples} samples cannot cover {self.n_classes} classes"
            )
        if len(self.step_dims) < 1 or any(p < 1 for p in self.step_dims):
            raise InvalidSpec(f"bad step widths {self.step_dims}")
        lo, hi = self.t_range
        if lo < 1 or hi < lo:
            raise InvalidSpec(f"bad length range {self.t_range}")
        if self.noise < 0 or self.drift < 0:
            raise InvalidSpec("noise and drift must be nonnegative")


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
        seqs = []
        for i in range(n):
            t = int(rng.integers(lo, hi + 1))
            seqs.append(means[y[i]] + spec.noise * rng.standard_normal((t, p)))
        views.append(SequenceDataset(seqs, y.copy(), c))
    return SequenceClientData(views=views)


def _deal_rows(
    classes: np.ndarray, n_classes: int, m: int, stratified: bool, rng
) -> list[np.ndarray]:
    """Sorted index arrays for M near-equal shards of len(classes) rows."""
    n = classes.shape[0]
    if m < 1:
        raise InvalidSpec(f"cannot split across {m} clients")
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


def _parse_float(path: str, line_no: int, col: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}:{col + 1}: not a number: {text!r}"
        ) from None


def _parse_int(path: str, line_no: int, col: int, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}:{col + 1}: not an integer: {text!r}"
        ) from None


def _write_manifest(path: str, entries: dict[str, int]) -> None:
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def _read_manifest(path: str) -> dict[str, int]:
    entries = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = _parse_int(path, line_no, 0, value.strip())
    return entries


def _float_rows(matrix: np.ndarray):
    for row in matrix:
        yield [repr(float(v)) for v in row]


def save_dataset(data: MultiViewDataset, path: str) -> None:
    """Write one CSV per view, the class indices, and a manifest."""
    os.makedirs(path, exist_ok=True)
    for k, view in enumerate(data.views):
        header = [f"f{j}" for j in range(view.shape[1])]
        _write_csv(os.path.join(path, f"view_{k}.csv"), header, _float_rows(view))
    _write_csv(
        os.path.join(path, "labels.csv"), ["class"],
        ([str(int(c))] for c in data.class_indices()),
    )
    manifest = {
        "views": data.n_views,
        "samples": data.n_samples,
        "classes": data.n_classes,
    }
    for k, d in enumerate(data.dims):
        manifest[f"dim_{k}"] = d
    _write_manifest(os.path.join(path, "manifest.txt"), manifest)


def load_dataset(path: str) -> MultiViewDataset:
    """Read a dataset directory written by save_dataset."""
    manifest = _read_manifest(os.path.join(path, "manifest.txt"))
    for key in ("views", "samples", "classes"):
        if key not in manifest:
            raise ParseError(f"{path}/manifest.txt: missing {key}")
    k_views, n, c = manifest["views"], manifest["samples"], manifest["classes"]
    views = []
    for k in range(k_views):
        if f"dim_{k}" not in manifest:
            raise ParseError(f"{path}/manifest.txt: missing dim_{k}")
        d = manifest[f"dim_{k}"]
        file_path = os.path.join(path, f"view_{k}.csv")
        header = [f"f{j}" for j in range(d)]
        rows = _read_csv(file_path, header)
        if len(rows) != n:
            raise ShapeError(
                f"{file_path}: {len(rows)} rows, manifest says {n}"
            )
        matrix = np.empty((n, d))
        for i, row in enumerate(rows):
            for j, text in enumerate(row):
                matrix[i, j] = _parse_float(file_path, i + 2, j, text)
        views.append(matrix)
    labels_path = os.path.join(path, "labels.csv")
    rows = _read_csv(labels_path, ["class"])
    if len(rows) != n:
        raise ShapeError(f"{labels_path}: {len(rows)} rows, manifest says {n}")
    y = np.empty(n, dtype=np.int64)
    for i, row in enumerate(rows):
        y[i] = _parse_int(labels_path, i + 2, 0, row[0])
        if y[i] < 0 or y[i] >= c:
            raise ShapeError(
                f"{labels_path}:{i + 2}: class {y[i]} outside 0..{c - 1}"
            )
    return MultiViewDataset.from_class_indices(views, y, n_classes=c)


def save_sequences(bundle: SequenceClientData, path: str) -> None:
    """Write per-view sequence CSVs plus labels and a manifest.

    Sequence records are one step per row: sample_id, t, then the step
    features; lengths are implicit in the step counts.
    """
    os.makedirs(path, exist_ok=True)
    for k, view in enumerate(bundle.views):
        width = view.sequences[0].shape[1] if view.n_samples else 0
        header = ["sample_id", "t"] + [f"f{j}" for j in range(width)]

        def records(view=view):
            for i, seq in enumerate(view.sequences):
                for t, step in enumerate(seq):
                    yield [str(i), str(t)] + [repr(float(v)) for v in step]

        _write_csv(os.path.join(path, f"sequences_view_{k}.csv"), header, records())
    _write_csv(
        os.path.join(path, "labels.csv"), ["class"],
        ([str(int(c))] for c in bundle.y),
    )
    manifest = {
        "views": bundle.n_views,
        "samples": bundle.n_samples,
        "classes": bundle.views[0].n_classes,
    }
    for k, view in enumerate(bundle.views):
        manifest[f"step_dim_{k}"] = (
            view.sequences[0].shape[1] if view.n_samples else 0
        )
    _write_manifest(os.path.join(path, "manifest.txt"), manifest)


def load_sequences(path: str) -> SequenceClientData:
    """Read a sequence directory written by save_sequences."""
    manifest = _read_manifest(os.path.join(path, "manifest.txt"))
    for key in ("views", "samples", "classes"):
        if key not in manifest:
            raise ParseError(f"{path}/manifest.txt: missing {key}")
    k_views, n, c = manifest["views"], manifest["samples"], manifest["classes"]
    labels_path = os.path.join(path, "labels.csv")
    rows = _read_csv(labels_path, ["class"])
    if len(rows) != n:
        raise ShapeError(f"{labels_path}: {len(rows)} rows, manifest says {n}")
    y = np.empty(n, dtype=np.int64)
    for i, row in enumerate(rows):
        y[i] = _parse_int(labels_path, i + 2, 0, row[0])
        if y[i] < 0 or y[i] >= c:
            raise ShapeError(
                f"{labels_path}:{i + 2}: class {y[i]} outside 0..{c - 1}"
            )
    views = []
    for k in range(k_views):
        if f"step_dim_{k}" not in manifest:
            raise ParseError(f"{path}/manifest.txt: missing step_dim_{k}")
        p = manifest[f"step_dim_{k}"]
        file_path = os.path.join(path, f"sequences_view_{k}.csv")
        header = ["sample_id", "t"] + [f"f{j}" for j in range(p)]
        rows = _read_csv(file_path, header)
        steps: list[list[np.ndarray]] = [[] for _ in range(n)]
        for i, row in enumerate(rows):
            line_no = i + 2
            sample = _parse_int(file_path, line_no, 0, row[0])
            t = _parse_int(file_path, line_no, 1, row[1])
            if sample < 0 or sample >= n:
                raise ShapeError(
                    f"{file_path}:{line_no}: sample_id {sample} outside 0..{n - 1}"
                )
            if t != len(steps[sample]):
                raise ParseError(
                    f"{file_path}:{line_no}: step {t} out of order, "
                    f"expected {len(steps[sample])}"
                )
            steps[sample].append(
                np.array(
                    [_parse_float(file_path, line_no, j + 2, v)
                     for j, v in enumerate(row[2:])]
                )
            )
        for sample, collected in enumerate(steps):
            if not collected:
                raise ShapeError(f"{file_path}: sample {sample} has no steps")
        views.append(
            SequenceDataset([np.stack(s) for s in steps], y.copy(), c)
        )
    return SequenceClientData(views=views)
