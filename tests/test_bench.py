import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdmi import bench as bench_mod
from scdmi.bench import (
    ALL_KINDS,
    DESCRIPTOR_DIMS,
    DatasetItem,
    DescriptorKind,
    FeatureCache,
    LabeledDataset,
    baseline_descriptor,
    chi_square_distance,
    feature_normalize,
    generate_classification_dataset,
    generate_retrieval_dataset,
    knn_classify,
    precision_recall,
    run_benchmark,
)
from scdmi.engine import RasterImage
from scdmi.synthetic import blob_image
from scdmi.transforms import ColorAffine, apply_color_affine


def random_image(seed, h=24, w=24):
    rng = np.random.default_rng(seed)
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)))


class TestChiSquare:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert chi_square_distance(v, v) == 0.0

    def test_orthogonal_unit_vectors(self):
        d = chi_square_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert d == pytest.approx(2.0, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            chi_square_distance(np.zeros(3), np.zeros(4))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_symmetry_and_nonnegativity(self, vals):
        a = np.array(vals)
        b = a[::-1].copy()
        assert chi_square_distance(a, b) == pytest.approx(chi_square_distance(b, a))
        assert chi_square_distance(a, b) >= 0.0


class TestFeatureNormalize:
    def test_zero_dimension_stays_zero(self):
        raw = np.zeros((4, 2))
        raw[:, 1] = [1.0, 2.0, 3.0, 4.0]
        out = feature_normalize(raw)
        assert np.all(out[:, 0] == 0.0)

    def test_per_dimension_independence(self):
        # rescaling one raw dimension touches at most that output dimension;
        # the median scale actually absorbs uniform rescaling entirely
        raw = np.abs(np.random.default_rng(0).normal(size=(6, 3))) + 0.1
        scaled = raw.copy()
        scaled[:, 1] *= 10.0
        a = feature_normalize(raw)
        b = feature_normalize(scaled)
        assert np.allclose(a[:, 0], b[:, 0])
        assert np.allclose(a[:, 2], b[:, 2])
        assert np.allclose(a[:, 1], b[:, 1])
        # a non-uniform change to one dimension stays confined to it
        bumped = raw.copy()
        bumped[0, 1] *= 10.0
        c = feature_normalize(bumped)
        assert np.allclose(a[:, 0], c[:, 0])
        assert np.allclose(a[:, 2], c[:, 2])
        assert not np.allclose(a[:, 1], c[:, 1])

    def test_median_maps_to_log2(self):
        raw = np.array([[1.0], [2.0], [4.0]])
        out = feature_normalize(raw)
        assert out[1, 0] == pytest.approx(np.log(2.0))

    def test_invalid_entries_zeroed(self):
        raw = np.array([[5.0], [7.0]])
        valid = np.array([[True], [False]])
        out = feature_normalize(raw, valid)
        assert out[1, 0] == 0.0


class TestBaselines:
    def test_dimensions_match_kinds(self):
        img = random_image(0)
        for kind in ALL_KINDS:
            if kind.name.startswith("SCDMI"):
                continue
            assert baseline_descriptor(img, kind).shape == (DESCRIPTOR_DIMS[kind],)

    def test_hu_on_constant_gray_is_zero(self):
        img = RasterImage.from_array(np.full((16, 16, 3), 0.5))
        assert np.all(baseline_descriptor(img, DescriptorKind.HU7) == 0.0)

    def test_rg_histogram_invariant_to_uniform_scaling(self):
        img = random_image(1)
        scaled = apply_color_affine(img, ColorAffine(2.0 * np.eye(3)), clamp=False)
        a = baseline_descriptor(img, DescriptorKind.RG_HISTOGRAM)
        b = baseline_descriptor(scaled, DescriptorKind.RG_HISTOGRAM)
        assert np.array_equal(a, b)

    def test_transformed_color_dist_invariant_to_channel_affine(self):
        rng = np.random.default_rng(2)
        rgb = rng.integers(0, 256, size=(20, 20, 3)).astype(float) / 256.0
        img = RasterImage.from_array(rgb)
        t = ColorAffine(np.diag([2.0, 0.5, 1.25]), np.array([0.25, -0.1, 0.05]))
        moved = apply_color_affine(img, t, clamp=False)
        a = baseline_descriptor(img, DescriptorKind.TRANSFORMED_COLOR_DIST)
        b = baseline_descriptor(moved, DescriptorKind.TRANSFORMED_COLOR_DIST)
        assert np.allclose(a, b)

    def test_color_moments_values(self):
        img = RasterImage.from_array(np.full((8, 8, 3), 0.5))
        cm = baseline_descriptor(img, DescriptorKind.COLOR_MOMENTS)
        assert np.allclose(cm, [0.5, 0.0, 0.0] * 3)


def tiny_dataset(n_classes=2, per_class=6):
    items = []
    for c in range(n_classes):
        for i in range(per_class):
            items.append(
                DatasetItem(
                    label=f"c{c}",
                    split="train" if i < 2 else "test",
                    image=blob_image(100 * c + i // 3, size=24),
                )
            )
    return LabeledDataset(items)


class TestProtocols:
    def test_dataset_needs_two_classes(self):
        with pytest.raises(ValueError):
            LabeledDataset([DatasetItem(label="only", split="train", image=random_image(0))])

    def test_test_equals_train_gives_perfect_accuracy(self):
        images = [blob_image(s, size=24) for s in range(4)]
        items = []
        for c, img in enumerate(images):
            items.append(DatasetItem(label=f"c{c}", split="train", image=img))
            items.append(DatasetItem(label=f"c{c}", split="test", image=img))
        acc = knn_classify(LabeledDataset(items), DescriptorKind.COLOR_MOMENTS)
        assert acc == 1.0

    def test_missing_split_raises(self):
        items = [
            DatasetItem(label="a", split="train", image=random_image(0)),
            DatasetItem(label="a", split="test", image=random_image(1)),
            DatasetItem(label="b", split="train", image=random_image(2)),
        ]
        with pytest.raises(ValueError):
            knn_classify(LabeledDataset(items), DescriptorKind.COLOR_MOMENTS)

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(3)
        items = []
        for i in range(120):
            items.append(
                DatasetItem(
                    label=f"c{rng.integers(0, 2)}",
                    split="train" if i < 12 else "test",
                    image=random_image(1000 + i),
                )
            )
        ds = LabeledDataset(items)
        acc = knn_classify(ds, DescriptorKind.COLOR_MOMENTS)
        assert 0.3 <= acc <= 0.7

    def test_tight_clusters_give_perfect_pr(self):
        items = []
        for c in range(3):
            base = blob_image(c + 50, size=24)
            for i in range(4):
                noise = np.random.default_rng(1000 * c + i).normal(0, 1e-4, (24, 24))
                img = RasterImage(
                    np.clip(base.red + noise, 0, 1),
                    np.clip(base.green + noise, 0, 1),
                    np.clip(base.blue + noise, 0, 1),
                    base.mask,
                )
                items.append(DatasetItem(label=f"c{c}", split="test", image=img))
        curve = precision_recall(LabeledDataset(items), DescriptorKind.COLOR_MOMENTS)
        assert np.allclose(curve.precision, 1.0)
        assert 0.0 <= curve.area() <= 1.0

    def test_pr_curve_monotone_nonincreasing(self):
        ds = tiny_dataset()
        curve = precision_recall(ds, DescriptorKind.RG_HISTOGRAM)
        assert np.all(np.diff(curve.precision) <= 1e-12)
        assert np.all((curve.precision >= 0) & (curve.precision <= 1))

    def test_pr_needs_two_members_per_class(self):
        items = [
            DatasetItem(label="a", split="test", image=random_image(0)),
            DatasetItem(label="b", split="test", image=random_image(1)),
            DatasetItem(label="b", split="test", image=random_image(2)),
        ]
        with pytest.raises(ValueError):
            precision_recall(LabeledDataset(items), DescriptorKind.COLOR_MOMENTS)

    def test_scdmi_kinds_slice_the_same_cache(self):
        ds = tiny_dataset()
        cache = FeatureCache()
        from scdmi.bench import descriptor_matrix

        full, v_full = descriptor_matrix(ds, DescriptorKind.SCDMI50, cache)
        k0, v0 = descriptor_matrix(ds, DescriptorKind.SCDMI0_25, cache)
        k1, v1 = descriptor_matrix(ds, DescriptorKind.SCDMI1_25, cache)
        assert np.array_equal(full[:, :25], k0)
        assert np.array_equal(full[:, 25:], k1)
        assert np.array_equal(v_full[:, :25], v0)
        assert np.array_equal(v_full[:, 25:], v1)

    def test_run_benchmark_computes_each_baseline_once_per_image(self, monkeypatch):
        ds = tiny_dataset()
        calls = []
        real = bench_mod.baseline_descriptor

        def counting(img, kind):
            calls.append(kind)
            return real(img, kind)

        monkeypatch.setattr(bench_mod, "baseline_descriptor", counting)
        run_benchmark(ds)
        assert len(calls) == 4 * len(ds.items)


class TestGenerators:
    def test_classification_dataset_counts_and_splits(self):
        ds = generate_classification_dataset(n_classes=3, n_transforms=4, size=48, seed=1)
        assert len(ds.items) == 15
        labels = ds.labels()
        splits = ds.splits()
        for label in np.unique(labels):
            sel = splits[labels == label]
            assert "train" in sel and "test" in sel

    def test_retrieval_dataset_counts(self):
        ds = generate_retrieval_dataset(
            n_classes=2, n_views=2, n_color_transforms=3, size=48, seed=1
        )
        assert len(ds.items) == 12

    def test_generator_determinism(self):
        a = generate_classification_dataset(n_classes=2, n_transforms=2, size=48, seed=9)
        b = generate_classification_dataset(n_classes=2, n_transforms=2, size=48, seed=9)
        for ia, ib in zip(a.items, b.items):
            assert np.array_equal(ia.image.red, ib.image.red)
            assert np.array_equal(ia.image.mask, ib.image.mask)
