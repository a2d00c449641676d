import hashlib
import re

import numpy as np
import pytest

from mvfed.data import (
    GeneratorSpec,
    SeqGeneratorSpec,
    SequenceClientData,
    SequenceDataset,
    gen_complementary,
    gen_multiview,
    gen_sequences,
    load_dataset,
    load_sequences,
    partition_horizontal,
    partition_sequences,
    save_dataset,
    save_sequences,
)
from mvfed.errors import DimensionMismatch, InvalidSpec, ParseError, ShapeError
from mvfed.mvl import (
    HyperParams,
    MultiViewDataset,
    argmax_decode,
    predict_mvl,
    train_mvl,
    train_single_view,
)
from mvfed.sfed import EncoderArch, loss_and_grad


def single_view_accuracy(x, labels, beta=1.0):
    w = train_single_view(x, labels, beta=beta)
    return float(np.mean(argmax_decode(x @ w) == np.argmax(labels, axis=1)))


def nearest_centroid_accuracy(x, y):
    centroids = np.stack([x[y == c].mean(axis=0) for c in np.unique(y)])
    d = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d, axis=1) == y))


class TestGenMultiview:
    def test_noiseless_views_separable(self):
        spec = GeneratorSpec(
            n_samples=80, dims=(6, 5), n_classes=3, noise=0.0, margin=10.0, seed=1
        )
        data = gen_multiview(spec)
        for view in data.views:
            assert single_view_accuracy(view, data.labels) == 1.0

    def test_uninformative_views_carry_no_signal(self):
        spec = GeneratorSpec(
            n_samples=200, dims=(5, 3), noise=0.2, margin=8.0,
            informative=(True, False), seed=2,
        )
        data = gen_multiview(spec)
        assert single_view_accuracy(data.views[0], data.labels) >= 0.95
        assert single_view_accuracy(data.views[1], data.labels) < 0.8

    def test_all_uninformative_rejected(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n_samples=10, dims=(3, 3), informative=(False, False))

    def test_seed_determinism(self):
        spec = GeneratorSpec(n_samples=30, dims=(4, 3), seed=7)
        a, b = gen_multiview(spec), gen_multiview(spec)
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va, vb)
        assert np.array_equal(a.labels, b.labels)
        c = gen_multiview(GeneratorSpec(n_samples=30, dims=(4, 3), seed=8))
        assert not np.array_equal(a.views[0], c.views[0])

    def test_balanced_labels(self):
        data = gen_multiview(GeneratorSpec(n_samples=90, dims=(3,), n_classes=3))
        counts = np.bincount(data.class_indices(), minlength=3)
        assert counts.tolist() == [30, 30, 30]

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n_samples=1, dims=(3,))
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n_samples=10, dims=())
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n_samples=10, dims=(3,), noise=-0.5)
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n_samples=10, dims=(3, 3), informative=(True,))


class TestGenComplementary:
    def test_half_informative_ceilings(self):
        spec = GeneratorSpec(
            n_samples=400, dims=(5, 5), noise=0.0, margin=4.0, seed=3
        )
        data = gen_complementary(spec)
        y = data.class_indices()
        singles = [nearest_centroid_accuracy(v, y) for v in data.views]
        for acc in singles:
            assert abs(acc - 0.75) < 0.08
        combined = nearest_centroid_accuracy(np.hstack(data.views), y)
        assert combined >= 0.97

    def test_rejects_single_view_and_multiclass(self):
        with pytest.raises(InvalidSpec):
            gen_complementary(GeneratorSpec(n_samples=20, dims=(4,)))
        with pytest.raises(InvalidSpec):
            gen_complementary(
                GeneratorSpec(n_samples=21, dims=(4, 4), n_classes=3)
            )

    def test_seed_determinism(self):
        spec = GeneratorSpec(n_samples=40, dims=(3, 4), seed=9)
        a, b = gen_complementary(spec), gen_complementary(spec)
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va, vb)

    def test_single_never_beats_combined(self):
        hp = HyperParams.uniform(3, beta=1.0, zeta=4.0, eta=4.0)
        hp_small = type(hp)(
            beta=hp.beta, zeta=hp.zeta, eta=hp.eta, epsilon=hp.epsilon,
            tol=1e-7, max_outer=10, max_inner=10,
        )
        gaps = []
        for seed in range(10):
            spec = GeneratorSpec(
                n_samples=200, dims=(4, 4, 4), noise=0.3, margin=4.0, seed=seed
            )
            data = gen_complementary(spec)
            y = data.class_indices()
            singles = [
                single_view_accuracy(v, data.labels, beta=1.0)
                for v in data.views
            ]
            state, _ = train_mvl(data, hp_small, seed=seed)
            scores = predict_mvl(data.views, state.W, hp_small.zeta)
            combined = float(np.mean(argmax_decode(scores) == y))
            gaps.append(combined - max(singles))
        assert float(np.mean(gaps)) >= 0.0


class TestPartitionHorizontal:
    def test_single_client_whole_dataset(self):
        data = gen_multiview(GeneratorSpec(n_samples=25, dims=(3, 4), seed=4))
        (shard,) = partition_horizontal(data, 1)
        for va, vb in zip(shard.views, data.views):
            assert np.array_equal(va, vb)
        assert np.array_equal(shard.labels, data.labels)

    def test_equal_sizes(self):
        data = gen_multiview(GeneratorSpec(n_samples=100, dims=(3,), seed=5))
        shards = partition_horizontal(data, 4)
        assert [s.n_samples for s in shards] == [25, 25, 25, 25]

    def test_stratified_histograms(self):
        y = np.array([0] * 60 + [1] * 40)
        rng = np.random.default_rng(6)
        rng.shuffle(y)
        data = MultiViewDataset.from_class_indices(
            [rng.standard_normal((100, 3))], y
        )
        shards = partition_horizontal(data, 4, stratified=True, seed=1)
        for shard in shards:
            counts = np.bincount(shard.class_indices(), minlength=2)
            assert abs(counts[0] - 15) <= 1
            assert abs(counts[1] - 10) <= 1
            assert abs(shard.n_samples - 25) <= 1

    def test_disjoint_and_covering(self):
        data = gen_multiview(GeneratorSpec(n_samples=53, dims=(3,), seed=7))
        shards = partition_horizontal(data, 5, seed=2)
        rows = np.vstack([s.views[0] for s in shards])
        assert rows.shape[0] == 53
        original = {tuple(r) for r in data.views[0]}
        assert {tuple(r) for r in rows} == original
        total = sum(np.bincount(s.class_indices(), minlength=2) for s in shards)
        assert np.array_equal(
            total, np.bincount(data.class_indices(), minlength=2)
        )

    def test_unstratified_deal_covers_every_row_once(self):
        ids, y = np.arange(23.0), np.arange(23) % 2  # each row carries its own index
        flat = MultiViewDataset.from_class_indices([ids[:, None]], y)
        bundle = SequenceClientData([SequenceDataset([np.full((1, 1), i) for i in ids], y, 2)])
        for partition, whole, rows_of in (
            (partition_horizontal, flat, lambda d: d.views[0][:, 0].tolist()),
            (partition_sequences, bundle, lambda d: [s[0, 0] for s in d.views[0].sequences]),
        ):
            dealt = [rows_of(s) for s in partition(whole, 5, stratified=False, seed=3)]
            assert sorted(r for shard in dealt for r in shard) == ids.tolist()
            assert max(map(len, dealt)) - min(map(len, dealt)) <= 1
            again = partition(whole, 5, stratified=False, seed=3)
            assert [rows_of(s) for s in again] == dealt

    def test_more_clients_than_samples_rejected(self):
        data = gen_multiview(GeneratorSpec(n_samples=4, dims=(3,), seed=8))
        with pytest.raises(InvalidSpec):
            partition_horizontal(data, 5)
        with pytest.raises(InvalidSpec):
            partition_horizontal(data, 0)


class TestIndicesAtTheBoundary:
    """Labels, client counts and view indices are checked where they
    enter.  Before, a label of -1 one-hot encoded the last class, 5 of 2
    classes raised a bare IndexError and 0.5 became class 0; a client
    count of 1.5 raised TypeError; view index -1 picked the last view,
    5 raised IndexError and an index array raised numpy's ValueError.
    Sequence labels of 0.5 became class 0 and NaN warned, and the
    encoder loss scored -1 as the last class; sequence views rejected
    an empty selection with another error type."""

    VIEWS = [np.zeros((4, 2))]
    ARCH = EncoderArch(n_features=2, embed_dim=2, n_classes=2)

    @pytest.mark.parametrize("bad", [-1, 2, 5, 0.5, np.nan, np.inf, -np.inf])
    def test_label_outside_the_classes_is_rejected_naming_its_sample(self, bad):
        y = np.array([0, 1, bad, -1])  # float64 for a float label, else int64
        steps = [np.zeros((1, 2))] * 4
        for build in (
            lambda: MultiViewDataset.from_class_indices(self.VIEWS, y, n_classes=2),
            lambda: SequenceDataset(steps, y, 2),
            lambda: loss_and_grad(self.ARCH, np.zeros(self.ARCH.n_params), steps, y),
        ):
            with pytest.raises(InvalidSpec, match=r"label of sample 2 must be an integer in \[0, 2\)"):
                build()

    def test_integral_labels_of_any_dtype_encode_alike(self):
        want = MultiViewDataset.from_class_indices(self.VIEWS, [0, 2, 1, 2]).labels  # 3 classes
        for y in ([0.0, 2.0, 1.0, 2.0], np.array([0, 2, 1, 2], dtype=np.int32)):
            got = MultiViewDataset.from_class_indices(self.VIEWS, y, n_classes=3)
            assert got.labels.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1.5, 2.0, True, np.float64(2), 0])
    def test_client_count_must_be_a_positive_integer(self, m):
        data = gen_multiview(GeneratorSpec(n_samples=8, dims=(3,), seed=8))
        bundle = gen_sequences(SeqGeneratorSpec(n_samples=8, step_dims=(2,), seed=8))
        message = re.escape(f"m must be an integer >= 1, got {m!r}")
        for partition, whole in ((partition_horizontal, data), (partition_sequences, bundle)):
            with pytest.raises(InvalidSpec, match=message):
                partition(whole, m)

    @pytest.mark.parametrize("index", [2, 5, -1, 1.0, True])
    def test_view_index_outside_the_views_is_rejected(self, index):
        data = gen_multiview(GeneratorSpec(n_samples=8, dims=(3, 2), seed=8))
        bundle = gen_sequences(SeqGeneratorSpec(n_samples=8, step_dims=(3, 2), seed=8))
        message = re.escape(f"view index {index!r} is not one of the 2 views")
        for whole in (data, bundle):
            with pytest.raises(DimensionMismatch, match=message):
                whole.select_views((0, index))
        assert data.select_views(np.array([0, 1])).dims == (3, 2)

    def test_empty_view_selection_is_rejected(self):
        data = gen_multiview(GeneratorSpec(n_samples=8, dims=(3, 2), seed=8))
        bundle = gen_sequences(SeqGeneratorSpec(n_samples=8, step_dims=(3, 2), seed=8))
        for whole in (data, bundle):
            with pytest.raises(DimensionMismatch, match="view selection must keep at least one view"):
                whole.select_views([])


class TestDatasetFiles:
    def test_round_trip_bitwise(self, tmp_path):
        data = gen_multiview(
            GeneratorSpec(n_samples=17, dims=(3, 2), n_classes=3, seed=10)
        )
        save_dataset(data, str(tmp_path / "ds"))
        loaded = load_dataset(str(tmp_path / "ds"))
        for va, vb in zip(loaded.views, data.views):
            assert np.array_equal(va, vb)
        assert np.array_equal(loaded.labels, data.labels)

    def test_header_mismatch(self, tmp_path):
        data = gen_multiview(GeneratorSpec(n_samples=5, dims=(2,), seed=11))
        root = tmp_path / "ds"
        save_dataset(data, str(root))
        view = root / "view_0.csv"
        text = view.read_text().splitlines()
        text[0] = "a,b"
        view.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError):
            load_dataset(str(root))

    def test_short_row(self, tmp_path):
        data = gen_multiview(GeneratorSpec(n_samples=5, dims=(3,), seed=12))
        root = tmp_path / "ds"
        save_dataset(data, str(root))
        view = root / "view_0.csv"
        lines = view.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:2])
        view.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_dataset(str(root))
        assert ":3" in str(info.value)

    def test_bad_float(self, tmp_path):
        data = gen_multiview(GeneratorSpec(n_samples=4, dims=(2,), seed=13))
        root = tmp_path / "ds"
        save_dataset(data, str(root))
        view = root / "view_0.csv"
        lines = view.read_text().splitlines()
        parts = lines[3].split(",")
        parts[1] = "oops"
        lines[3] = ",".join(parts)
        view.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_dataset(str(root))
        assert ":4:2" in str(info.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        data = gen_multiview(GeneratorSpec(n_samples=4, dims=(2,), seed=13))
        root = tmp_path / "ds"
        save_dataset(data, str(root))
        view = root / "view_0.csv"
        lines = view.read_text().splitlines()
        lines[3] = lines[3].split(",")[0] + "," + cell
        view.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite") as info:
            load_dataset(str(root))
        assert f"{view}:4:2" in str(info.value)

    def test_missing_manifest_key(self, tmp_path):
        data = gen_multiview(GeneratorSpec(n_samples=4, dims=(2, 3), seed=13))
        root = tmp_path / "ds"
        save_dataset(data, str(root))
        manifest = root / "manifest.txt"
        lines = manifest.read_text().splitlines(True)
        for key in ("views", "samples", "classes", "dim_1"):
            manifest.write_text(
                "".join(line for line in lines if not line.startswith(key + "="))
            )
            with pytest.raises(ParseError, match=f"missing {key}"):
                load_dataset(str(root))

    def test_label_out_of_range(self, tmp_path):
        data = gen_multiview(GeneratorSpec(n_samples=4, dims=(2,), seed=14))
        root = tmp_path / "ds"
        save_dataset(data, str(root))
        labels = root / "labels.csv"
        lines = labels.read_text().splitlines()
        lines[1] = "9"
        labels.write_text("\n".join(lines) + "\n")
        with pytest.raises(ShapeError):
            load_dataset(str(root))

    @pytest.mark.parametrize("cell", ["99999999999999999999", "-9223372036854775809"])
    def test_label_outside_int64_rejected(self, tmp_path, cell):
        data = gen_multiview(GeneratorSpec(n_samples=4, dims=(2,), seed=14))
        root = tmp_path / "ds"
        save_dataset(data, str(root))
        labels = root / "labels.csv"
        lines = labels.read_text().splitlines()
        lines[3] = cell
        labels.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="outside int64") as info:
            load_dataset(str(root))
        assert f"{labels}:4:1" in str(info.value)

    def test_row_count_mismatch(self, tmp_path):
        data = gen_multiview(GeneratorSpec(n_samples=5, dims=(2,), seed=15))
        root = tmp_path / "ds"
        save_dataset(data, str(root))
        view = root / "view_0.csv"
        lines = view.read_text().splitlines()
        view.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ShapeError):
            load_dataset(str(root))


class TestSequences:
    def test_generation_shapes_and_determinism(self):
        spec = SeqGeneratorSpec(
            n_samples=24, step_dims=(3, 2), t_range=(4, 7), seed=16
        )
        bundle = gen_sequences(spec)
        assert bundle.n_views == 2 and bundle.n_samples == 24
        for view in bundle.views:
            for seq in view.sequences:
                assert 4 <= seq.shape[0] <= 7
        again = gen_sequences(spec)
        for va, vb in zip(bundle.views, again.views):
            for sa, sb in zip(va.sequences, vb.sequences):
                assert np.array_equal(sa, sb)

    def test_class_signal_in_step_means(self):
        spec = SeqGeneratorSpec(
            n_samples=60, step_dims=(4,), drift=3.0, noise=0.3, seed=17
        )
        bundle = gen_sequences(spec)
        means = np.stack([s.mean(axis=0) for s in bundle.views[0].sequences])
        assert nearest_centroid_accuracy(means, bundle.y) >= 0.95

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            SeqGeneratorSpec(n_samples=10, step_dims=(3,), t_range=(0, 5))
        with pytest.raises(InvalidSpec):
            SeqGeneratorSpec(n_samples=10, step_dims=(3,), t_range=(6, 5))
        with pytest.raises(InvalidSpec):
            SeqGeneratorSpec(n_samples=10, step_dims=())

    def test_round_trip_bitwise(self, tmp_path):
        bundle = gen_sequences(
            SeqGeneratorSpec(n_samples=9, step_dims=(3, 2), t_range=(2, 5), seed=18)
        )
        save_sequences(bundle, str(tmp_path / "seq"))
        loaded = load_sequences(str(tmp_path / "seq"))
        assert np.array_equal(loaded.y, bundle.y)
        for va, vb in zip(loaded.views, bundle.views):
            for sa, sb in zip(va.sequences, vb.sequences):
                assert np.array_equal(sa, sb)

    def test_step_order_enforced(self, tmp_path):
        bundle = gen_sequences(
            SeqGeneratorSpec(n_samples=4, step_dims=(2,), t_range=(2, 3), seed=19)
        )
        root = tmp_path / "seq"
        save_sequences(bundle, str(root))
        seq_file = root / "sequences_view_0.csv"
        lines = seq_file.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        seq_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_sequences(str(root))

    def test_missing_sample_rejected(self, tmp_path):
        bundle = gen_sequences(
            SeqGeneratorSpec(n_samples=3, step_dims=(2,), t_range=(2, 2), seed=20)
        )
        root = tmp_path / "seq"
        save_sequences(bundle, str(root))
        seq_file = root / "sequences_view_0.csv"
        lines = [
            line for line in seq_file.read_text().splitlines()
            if not line.startswith("2,")
        ]
        seq_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ShapeError):
            load_sequences(str(root))

    def test_generated_steps_match_their_golden_hash(self):
        # Taken when the generator drew one standard_normal((t, p)) per
        # sample; the draws and their order must not change.
        bundle = gen_sequences(SeqGeneratorSpec(
            n_samples=40, step_dims=(3, 2, 3), t_range=(1, 9), n_classes=3, seed=23
        ))
        digest = hashlib.sha256()
        for view in bundle.views:
            digest.update(np.array([len(s) for s in view.sequences], dtype=np.int64).tobytes())
            digest.update(np.concatenate(view.sequences).tobytes())
        digest.update(bundle.y.astype(np.int64).tobytes())
        assert digest.hexdigest() == (
            "76726c0e0ac27b772193f76276fa49ef1502024ffbdc8f7024071fc970668d95"
        )

    @pytest.mark.parametrize(
        "col, cell, error, message",
        [
            (1, "60", ShapeError, "150: sample_id 60 outside 0..59"),
            (1, "-1", ShapeError, "150: sample_id -1 outside 0..59"),
            (1, "9" * 30, ShapeError, f"150: sample_id {'9' * 30} outside 0..59"),
            (1, "1" + "0" * 12, ShapeError, "150: sample_id 1000000000000 outside 0..59"),
            (1, "x", ParseError, "150:1: not an integer: 'x'"),
            (2, "99", ParseError, "150: step 99 out of order, expected "),
            (4, "nan", ParseError, "150:4: non-finite 'nan'"),
            (3, "1e", ParseError, "150:3: not a number: '1e'"),
        ],
    )
    def test_first_bad_line_of_a_long_file_is_named(self, tmp_path, col, cell, error, message):
        # Rows are read a whole column at a time; the error still names
        # the first bad line, line 150, ahead of a non-finite cell further on.
        bundle = gen_sequences(
            SeqGeneratorSpec(n_samples=60, step_dims=(2,), t_range=(4, 8), seed=22)
        )
        root = tmp_path / "seq"
        save_sequences(bundle, str(root))
        seq_file = root / "sequences_view_0.csv"
        lines = seq_file.read_text().splitlines()
        assert len(lines) > 200
        for line_no, col_no, text in ((150, col, cell), (len(lines), 3, "inf")):
            cells = lines[line_no - 1].split(",")
            cells[col_no - 1] = text
            lines[line_no - 1] = ",".join(cells)
        seq_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(error) as info:
            load_sequences(str(root))
        assert f"{seq_file}:{message}" in str(info.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_step_rejected(self, tmp_path, cell):
        bundle = gen_sequences(
            SeqGeneratorSpec(n_samples=4, step_dims=(2,), t_range=(2, 3), seed=21)
        )
        root = tmp_path / "seq"
        save_sequences(bundle, str(root))
        seq_file = root / "sequences_view_0.csv"
        lines = seq_file.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:3] + [cell])
        seq_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_sequences(str(root))
        assert f"{seq_file}:4:4: non-finite {cell!r}" in str(info.value)


# Golden files: the exact bytes each on-disk format writes for a tiny
# fixed input, with the cells -0.0, 1e-300 and 0.1 and three classes.
GOLDEN_VIEWS = [
    np.array([[-0.0, 1e-300], [0.1, 2.5], [1.0, -3.0]]),
    np.array([[0.1], [-0.0], [7.0]]),
]
GOLDEN_Y = np.array([0, 2, 1])
GOLDEN_DATASET = {
    "labels.csv": b"class\n0\n2\n1\n",
    "manifest.txt": b"views=2\nsamples=3\nclasses=3\ndim_0=2\ndim_1=1\n",
    "view_0.csv": b"f0,f1\n-0.0,1e-300\n0.1,2.5\n1.0,-3.0\n",
    "view_1.csv": b"f0\n0.1\n-0.0\n7.0\n",
}
GOLDEN_SEQUENCES = {
    "labels.csv": b"class\n0\n2\n1\n",
    "manifest.txt": b"views=2\nsamples=3\nclasses=3\nstep_dim_0=2\nstep_dim_1=1\n",
    "sequences_view_0.csv": (
        b"sample_id,t,f0,f1\n0,0,-0.0,1e-300\n1,0,0.1,2.5\n1,1,1.0,-3.0\n"
        b"2,0,0.5,0.25\n"
    ),
    "sequences_view_1.csv": b"sample_id,t,f0\n0,0,0.1\n1,0,-0.0\n2,0,7.0\n2,1,1e-300\n",
}


def read_tree(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestGoldenFiles:
    def test_dataset_bytes(self, tmp_path):
        data = MultiViewDataset.from_class_indices(GOLDEN_VIEWS, GOLDEN_Y, n_classes=3)
        save_dataset(data, str(tmp_path / "ds"))
        assert read_tree(tmp_path / "ds") == GOLDEN_DATASET
        loaded = load_dataset(str(tmp_path / "ds"))
        for va, vb in zip(loaded.views, GOLDEN_VIEWS):
            assert np.array_equal(va, vb)
            assert np.array_equal(np.signbit(va), np.signbit(vb))
        assert np.array_equal(loaded.class_indices(), GOLDEN_Y)

    def test_sequence_bytes(self, tmp_path):
        views = [
            [GOLDEN_VIEWS[0][:1], GOLDEN_VIEWS[0][1:], np.array([[0.5, 0.25]])],
            [GOLDEN_VIEWS[1][:1], GOLDEN_VIEWS[1][1:2], np.array([[7.0], [1e-300]])],
        ]
        bundle = SequenceClientData(
            views=[SequenceDataset(seqs, GOLDEN_Y, 3) for seqs in views]
        )
        save_sequences(bundle, str(tmp_path / "seq"))
        assert read_tree(tmp_path / "seq") == GOLDEN_SEQUENCES
        loaded = load_sequences(str(tmp_path / "seq"))
        assert np.array_equal(loaded.y, GOLDEN_Y)
        for va, seqs in zip(loaded.views, views):
            for sa, sb in zip(va.sequences, seqs):
                assert np.array_equal(sa, sb)
                assert np.array_equal(np.signbit(sa), np.signbit(sb))
