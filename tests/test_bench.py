import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdmi import bench as bench_mod
from scdmi.bench import (
    ALL_KINDS,
    DescriptorKind,
    Features,
    baseline_rows,
    chi2_matrix,
    classification_class,
    descriptor_rows,
    feature_normalize,
    featurize,
    knn_classify,
    precision_recall,
    retrieval_class,
    run_benchmark,
)
from scdmi.cli import main
import scdmi.cli as cli_mod
from scdmi.engine import RasterImage, stable_sum
from scdmi.ppm import write_ppm
from scdmi.synthetic import blob_image, disk_masked_image
from scdmi.transforms import ColorAffine, apply_color_affine


def random_image(seed, h=24, w=24):
    rng = np.random.default_rng(seed)
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)))


class TestChiSquare:
    """Properties of the all-pairs chi-square matrix the protocols rank by."""

    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        d = chi2_matrix(np.array([v, v, -v]))
        assert d[0, 0] == d[0, 1] == d[1, 0] == d[2, 2] == 0.0

    def test_orthogonal_unit_vectors(self):
        d = chi2_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert d[0, 1] == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_no_elements_give_the_zero_matrix(self, shape):
        # each distance is an empty sum; the block size divided by the element count
        d = chi2_matrix(np.zeros(shape))
        assert d.shape == (shape[0], shape[0]) and not d.any()

    @given(st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_symmetry_and_nonnegativity(self, rows):
        d = chi2_matrix(np.array(rows))
        assert np.array_equal(d, d.T)
        assert (np.diag(d) == 0.0).all()
        assert (d >= 0.0).all()


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

    def test_overflowing_ratio_stays_finite(self):
        # the median of |v| is 0, so s floors at 1e-12 and 1e300 / s overflows:
        # the entry reads log|v| - log s, and the others are log1p(|v| / s) as before
        raw = np.array([[1e300, 1.0], [0.0, 2.0], [0.0, 4.0], [-1e290, -1e300], [0.0, 3.0]])
        out = feature_normalize(raw)
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(np.log(1e300) - np.log(1e-12), rel=1e-15)
        assert out[3, 0] == -np.log1p(1e290 / 1e-12)
        assert out[:, 1].tolist() == (np.sign(raw[:, 1]) * np.log1p(np.abs(raw[:, 1]) / 3.0)).tolist()
        assert np.isfinite(chi2_matrix(out)).all()

    def test_invalid_entries_zeroed(self):
        raw = np.array([[5.0], [7.0]])
        valid = np.array([[True], [False]])
        out = feature_normalize(raw, valid)
        assert out[1, 0] == 0.0

    def test_nonfinite_entries_are_invalid_by_default(self):
        # an inf counted as valid gave inf / inf and a RuntimeWarning
        raw = np.array([[np.inf, 1.0], [1.0, 2.0], [np.nan, -np.inf]])
        out = feature_normalize(raw)
        assert out.tolist() == feature_normalize(raw, np.isfinite(raw)).tolist()
        assert out[0, 0] == out[2, 0] == out[2, 1] == 0.0
        assert out[1, 0] == np.log(2.0)


class TestBaselines:
    def test_dimensions_match_kinds(self):
        dims = {
            DescriptorKind.HU7: 7,
            DescriptorKind.COLOR_MOMENTS: 9,
            DescriptorKind.RG_HISTOGRAM: 2 * bench_mod.RG_BINS,
            DescriptorKind.TRANSFORMED_COLOR_DIST: 3 * bench_mod.TCD_BINS,
        }
        rows = baseline_rows(random_image(0))
        assert {kind: row.shape for kind, row in rows.items()} == {kind: (dim,) for kind, dim in dims.items()}

    def test_hu_on_constant_gray_is_zero(self):
        img = RasterImage.from_array(np.full((16, 16, 3), 0.5))
        assert np.all(baseline_rows(img)[DescriptorKind.HU7] == 0.0)

    def test_rg_histogram_invariant_to_uniform_scaling(self):
        img = random_image(1)
        scaled = apply_color_affine(img, ColorAffine(2.0 * np.eye(3)), clamp=False)
        a = baseline_rows(img)[DescriptorKind.RG_HISTOGRAM]
        b = baseline_rows(scaled)[DescriptorKind.RG_HISTOGRAM]
        assert np.array_equal(a, b)

    def test_transformed_color_dist_invariant_to_channel_affine(self):
        rng = np.random.default_rng(2)
        rgb = rng.integers(0, 256, size=(20, 20, 3)).astype(float) / 256.0
        img = RasterImage.from_array(rgb)
        t = ColorAffine(np.diag([2.0, 0.5, 1.25]), np.array([0.25, -0.1, 0.05]))
        moved = apply_color_affine(img, t, clamp=False)
        a = baseline_rows(img)[DescriptorKind.TRANSFORMED_COLOR_DIST]
        b = baseline_rows(moved)[DescriptorKind.TRANSFORMED_COLOR_DIST]
        assert np.allclose(a, b)

    def test_color_moments_values(self):
        img = RasterImage.from_array(np.full((8, 8, 3), 0.5))
        cm = baseline_rows(img)[DescriptorKind.COLOR_MOMENTS]
        assert np.allclose(cm, [0.5, 0.0, 0.0] * 3)

    def test_third_moment_by_multiplication_matches_power(self):
        # (c * c) * c rounds twice and c**3 once: the sums differ by a few ulp of sum |c|^3
        img = random_image(5, 31, 29)
        cm = baseline_rows(img)[DescriptorKind.COLOR_MOMENTS]
        for plane, mu3 in zip(img.channels, cm[2::3]):
            c = plane.ravel() - stable_sum(plane) / plane.size
            bound = 4 * np.finfo(float).eps * float(np.sum(np.abs(c) ** 3)) / plane.size
            assert abs(mu3 - stable_sum(c**3) / plane.size) <= bound

    def test_unmasked_pixels_are_never_read(self):
        # 1e308 overflows any sum over the whole frame; the masked pixels alone are gathered
        masked = disk_masked_image(3, size=24, radius_frac=0.3)
        rows = []
        for fill in (0.0, 1e308):
            channels = np.where(masked.mask, masked.channels, fill)
            rows.append(baseline_rows(RasterImage(channels, masked.mask)))
        assert not masked.mask.all()
        for kind in rows[0]:
            assert rows[0][kind].tobytes() == rows[1][kind].tobytes(), kind

    @pytest.mark.parametrize(
        "case, moments_valid, tcd_valid",
        [
            # squared deviations overflow: each mean is finite, each spread is not
            ("channels-1e200", [True, False, False] * 3, [False] * 60),
            # a nan green pixel: the green statistics are undefined, and the
            # pixel carries no chromaticity, so RG_HISTOGRAM skips it
            ("nan-pixel", [True] * 3 + [False] * 3 + [True] * 3, [True] * 20 + [False] * 20 + [True] * 20),
        ],
        ids=["channels-1e200", "nan-pixel"],
    )
    def test_nonfinite_entries_are_invalid(self, case, moments_valid, tcd_valid):
        # without a warning, which the test configuration turns into an error
        img = random_image(4)
        if case == "channels-1e200":
            img = RasterImage(img.channels * 1e200, img.mask)
        else:
            img.channels[1, 3, 4] = np.nan
        rows = descriptor_rows(img)
        for kind in (DescriptorKind.HU7, DescriptorKind.COLOR_MOMENTS, DescriptorKind.RG_HISTOGRAM,
                     DescriptorKind.TRANSFORMED_COLOR_DIST):
            values, valid = rows[kind]
            assert np.array_equal(valid, np.isfinite(values)), kind
        assert not rows[DescriptorKind.HU7][1].any()
        assert rows[DescriptorKind.COLOR_MOMENTS][1].tolist() == moments_valid
        assert rows[DescriptorKind.RG_HISTOGRAM][1].all()
        assert rows[DescriptorKind.TRANSFORMED_COLOR_DIST][1].tolist() == tcd_valid


def tiny_items(n_classes=2, per_class=6):
    return [
        (f"c{c}", "train" if i < 2 else "test", blob_image(100 * c + i // 3, size=24))
        for c in range(n_classes)
        for i in range(per_class)
    ]


def kind_distances(features, kind):
    return chi2_matrix(feature_normalize(*features.matrices[kind]))


def knn_of(items, kind):
    features = featurize(items)
    return knn_classify(kind_distances(features, kind), features.labels, features.splits)


def pr_of(items, kind):
    features = featurize(items)
    return precision_recall(kind_distances(features, kind), features.labels)


class TestProtocols:
    def test_dataset_needs_two_classes(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            featurize([("only", "train", random_image(0)), ("only", "test", random_image(1))])

    def test_test_equals_train_gives_perfect_accuracy(self):
        images = [blob_image(s, size=24) for s in range(4)]
        items = []
        for c, img in enumerate(images):
            items.append((f"c{c}", "train", img))
            items.append((f"c{c}", "test", img))
        assert knn_of(items, DescriptorKind.COLOR_MOMENTS) == 1.0

    def test_missing_split_raises(self):
        items = [
            ("a", "train", random_image(0)),
            ("a", "test", random_image(1)),
            ("b", "train", random_image(2)),
        ]
        with pytest.raises(ValueError, match="missing from one split"):
            knn_of(items, DescriptorKind.COLOR_MOMENTS)

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(3)
        items = [
            (f"c{rng.integers(0, 2)}", "train" if i < 12 else "test", random_image(1000 + i))
            for i in range(120)
        ]
        acc = knn_of(items, DescriptorKind.COLOR_MOMENTS)
        assert 0.3 <= acc <= 0.7

    def test_tight_clusters_give_perfect_pr(self):
        items = []
        for c in range(3):
            base = blob_image(c + 50, size=24)
            for i in range(4):
                noise = np.random.default_rng(1000 * c + i).normal(0, 1e-4, (24, 24))
                img = RasterImage(np.clip(base.channels + noise, 0, 1), base.mask)
                items.append((f"c{c}", "test", img))
        curve = pr_of(items, DescriptorKind.COLOR_MOMENTS)
        assert np.allclose(curve.precision, 1.0)
        assert 0.0 <= curve.area() <= 1.0

    def test_pr_curve_monotone_nonincreasing(self):
        curve = pr_of(tiny_items(), DescriptorKind.RG_HISTOGRAM)
        assert np.all(np.diff(curve.precision) <= 1e-12)
        assert np.all((curve.precision >= 0) & (curve.precision <= 1))

    def test_pr_needs_two_members_per_class(self):
        items = [
            ("a", "test", random_image(0)),
            ("b", "test", random_image(1)),
            ("b", "test", random_image(2)),
        ]
        with pytest.raises(ValueError, match="at least 2 members"):
            pr_of(items, DescriptorKind.COLOR_MOMENTS)

    def test_scdmi_kinds_slice_the_same_cache(self):
        # the two 25-entry kinds are the halves of the SCDMI50 rows
        matrices = featurize(tiny_items()).matrices
        full, v_full = matrices[DescriptorKind.SCDMI50]
        k0, v0 = matrices[DescriptorKind.SCDMI0_25]
        k1, v1 = matrices[DescriptorKind.SCDMI1_25]
        assert np.array_equal(full[:, :25], k0)
        assert np.array_equal(full[:, 25:], k1)
        assert np.array_equal(v_full[:, :25], v0)
        assert np.array_equal(v_full[:, 25:], v1)

    def test_run_benchmark_computes_each_baseline_once_per_image(self, monkeypatch):
        items = tiny_items()
        calls = []
        real = bench_mod.baseline_rows

        def counting(img):
            calls.append(img)
            return real(img)

        monkeypatch.setattr(bench_mod, "baseline_rows", counting)
        run_benchmark(featurize(items))
        assert [id(img) for img in calls] == [id(img) for _, _, img in items]

    def test_manifest_images_load_once_and_are_not_kept(self, tmp_path, monkeypatch):
        paths = []
        with (tmp_path / "manifest.csv").open("w") as fh:
            for c in range(2):
                for i in range(4):
                    path = tmp_path / f"im_{c}_{i}.ppm"
                    write_ppm(path, blob_image(10 * c + i, size=24))
                    paths.append(str(path))
                    fh.write(f"{path.name},c{c},{'train' if i == 0 else 'test'}\n")
        # the reads happen in the bench's worker processes: each appends its pid and path to a log
        log = tmp_path / "reads.log"
        real_read = cli_mod.read_ppm

        def reading(path):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {path}\n")
            return real_read(path)

        monkeypatch.setattr(cli_mod, "read_ppm", reading)
        assert main(["bench", str(tmp_path / "manifest.csv"), "--out", str(tmp_path / "out")]) == 0
        reads = [line.split(" ", 1) for line in log.read_text().splitlines()]
        # each PPM is read once, by a worker, never by the bench's own process
        assert sorted(path for _, path in reads) == sorted(paths)
        assert all(int(pid) != os.getpid() for pid, _ in reads)

        # a worker's job reads one image, keeps its descriptor rows and lets the image go
        # (RasterImage is an unhashable dataclass: a list of weak references, not a WeakSet)
        loaded = []

        def keeping(path):
            img = real_read(path)
            loaded.append(weakref.ref(img))
            return img

        monkeypatch.setattr(cli_mod, "read_ppm", keeping)
        rows = cli_mod._manifest_job(paths[0])
        assert set(rows) == set(ALL_KINDS)
        assert len(loaded) == 1 and loaded[0]() is None


def chi2_to_gallery(query, gallery, eps=bench_mod.CHI2_EPS):
    diff = gallery - query[None, :]
    return np.sum(diff * diff / (np.abs(gallery) + np.abs(query)[None, :] + eps), axis=1)


def knn_reference(features, kind):
    """1-NN accuracy by one distance row per test query."""
    labels, splits = features.labels, features.splits
    train = np.nonzero(splits == "train")[0]
    test = np.nonzero(splits == "test")[0]
    normed = feature_normalize(*features.matrices[kind])
    correct = 0
    for ti in test:
        d = chi2_to_gallery(normed[ti], normed[train])
        correct += bool(labels[train[int(np.argmin(d))]] == labels[ti])
    return correct / int(test.size)


def precision_recall_reference(features, kind, levels):
    """Interpolated PR curve by one ranking per query."""
    labels = features.labels
    normed = feature_normalize(*features.matrices[kind])
    n = len(labels)
    recall_levels = np.linspace(0.0, 1.0, levels)
    acc = np.zeros(levels)
    for qi in range(n):
        others = np.concatenate([np.arange(qi), np.arange(qi + 1, n)])
        d = chi2_to_gallery(normed[qi], normed[others])
        order = others[np.argsort(d, kind="stable")]
        rel = (labels[order] == labels[qi]).astype(np.float64)
        n_rel = rel.sum()
        cum = np.cumsum(rel)
        ranks = np.arange(1, order.size + 1)
        precision = cum / ranks
        recall = cum / n_rel
        best_to_right = np.maximum.accumulate(precision[::-1])[::-1]
        for li, r in enumerate(recall_levels):
            pos = int(np.searchsorted(recall, r, side="left"))
            acc[li] += best_to_right[min(pos, order.size - 1)]
    return acc / n


def random_features(seed, n, dims=5):
    """Uneven classes over precomputed HU7 features: few distinct values make
    tied distances, and about a fifth of the entries are invalid."""
    rng = np.random.default_rng(seed)
    sizes = []
    while sum(sizes) < n:
        sizes.append(int(rng.integers(2, 9)))
    sizes[-1] -= sum(sizes) - n
    if sizes[-1] < 2:
        sizes[-2:] = [sizes[-2] + sizes[-1]]
    labels, splits = [], []
    for c, size in enumerate(sizes):
        # each class's first member trains and its last is tested
        middle = ["train" if rng.random() < 0.2 else "test" for _ in range(size - 2)]
        labels += [f"c{c:02d}"] * size
        splits += ["train", *middle, "test"]
    feats = rng.integers(-2, 3, size=(n, dims)) * rng.choice([1e-3, 1.0, 1e3], size=dims)
    feats[rng.integers(0, n, size=n // 4)] = feats[rng.integers(0, n, size=n // 4)]
    valid = rng.random((n, dims)) > 0.2
    return Features(np.array(labels), np.array(splits), {DescriptorKind.HU7: (feats, valid)})


class TestRankingExactness:
    """The blocked ranking equals the per-query loop bit for bit."""

    CASES = [(0, 17), (1, 32), (2, 33), (3, 70), (4, 101), (5, 131)]

    @pytest.fixture(params=[1, 7, None], ids=["1-query", "7-query", "default"])
    def block(self, request, monkeypatch):
        # distance blocks of 1 or 7 queries against the largest gallery, or the default;
        # the 1-query budget splits every case into blocks with a partial last one, and
        # ranking blocks hold 1 or 3 queries of 131 at 11 recall levels
        if request.param is not None:
            monkeypatch.setattr(bench_mod, "RANK_BLOCK_ELEMENTS", request.param * 131 * 5)

    @pytest.mark.parametrize("seed,n", CASES)
    def test_knn_equals_per_query_loop(self, seed, n, block):
        features = random_features(seed, n)
        kind = DescriptorKind.HU7
        got = knn_classify(kind_distances(features, kind), features.labels, features.splits)
        assert got == knn_reference(features, kind)

    @pytest.mark.parametrize("seed,n", CASES)
    def test_precision_recall_equals_per_query_loop(self, seed, n, block, monkeypatch):
        features = random_features(seed, n)
        kind = DescriptorKind.HU7
        for levels in (11, 21):
            monkeypatch.setattr(bench_mod, "PR_LEVELS", levels)
            curve = precision_recall(kind_distances(features, kind), features.labels)
            assert curve.precision.tolist() == precision_recall_reference(features, kind, levels).tolist()

    @pytest.mark.parametrize("seed,n", CASES)
    def test_distance_matrix_equals_per_query_rows(self, seed, n, block):
        features = random_features(seed, n)
        kind = DescriptorKind.HU7
        d = kind_distances(features, kind)
        normed = feature_normalize(*features.matrices[kind])
        for q in range(n):
            assert np.array_equal(d[q].view(np.int64), chi2_to_gallery(normed[q], normed).view(np.int64))

    def test_one_distance_matrix_per_kind_held_one_at_a_time(self, monkeypatch):
        built, held = [], []
        real = bench_mod.chi2_matrix

        def recording(normed):
            held.append(sum(ref() is not None for ref in built))
            out = real(normed)
            built.append(weakref.ref(out))
            return out

        monkeypatch.setattr(bench_mod, "chi2_matrix", recording)
        run_benchmark(featurize(tiny_items()))
        # knn and retrieval share each kind's matrix, and the last one is dropped before the next is built
        assert held == [0] * len(ALL_KINDS)

    def test_datasets_have_ties(self):
        features = random_features(3, 70)
        normed = feature_normalize(*features.matrices[DescriptorKind.HU7])
        d = chi2_to_gallery(normed[0], normed[1:])
        assert len(np.unique(d)) < d.size

    def test_normalizes_once_per_kind(self, monkeypatch):
        calls = []
        real = bench_mod.feature_normalize

        def counting(raw, valid=None):
            calls.append(raw.shape)
            return real(raw, valid)

        monkeypatch.setattr(bench_mod, "feature_normalize", counting)
        run_benchmark(featurize(tiny_items()))
        assert len(calls) == len(ALL_KINDS)


def classification_items(n_classes, *args, **kwargs):
    return [item for c in range(n_classes) for item in classification_class(c, *args, **kwargs)]


def retrieval_items(n_classes, *args, **kwargs):
    return [item for c in range(n_classes) for item in retrieval_class(c, *args, **kwargs)]


class TestGenerators:
    def test_classification_dataset_counts_and_splits(self):
        items = classification_items(3, n_transforms=4, size=48, seed=1)
        assert len(items) == 15
        labels = np.array([label for label, _, _ in items])
        splits = np.array([split for _, split, _ in items])
        for label in np.unique(labels):
            sel = splits[labels == label]
            assert "train" in sel and "test" in sel

    def test_retrieval_dataset_counts(self):
        items = retrieval_items(2, n_views=2, n_color_transforms=3, size=48, seed=1)
        assert len(items) == 12
        # every class is in both splits, its base view's first image in train
        for c in range(2):
            splits = [split for label, split, _ in items if label == f"class{c:03d}"]
            assert splits == ["train"] + ["test"] * 5

    def test_per_class_generators_give_the_dataset_items(self):
        # featurizing a generator that holds one class at a time gives the
        # features of the whole dataset held in memory, bit for bit
        for per_class, args in (
            (classification_class, (4, 48, 1, True)),
            (retrieval_class, (2, 3, 48, 1)),
        ):
            held = featurize([item for c in range(3) for item in per_class(c, *args)])
            streamed = featurize(item for c in range(3) for item in per_class(c, *args))
            assert held.labels.tolist() == streamed.labels.tolist()
            assert held.splits.tolist() == streamed.splits.tolist()
            for kind in ALL_KINDS:
                for a, b in zip(held.matrices[kind], streamed.matrices[kind]):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_generator_determinism(self):
        a = classification_items(2, n_transforms=2, size=48, seed=9)
        b = classification_items(2, n_transforms=2, size=48, seed=9)
        for (la, sa, ia), (lb, sb, ib) in zip(a, b):
            assert (la, sa) == (lb, sb)
            assert np.array_equal(ia.channels[0], ib.channels[0])
            assert np.array_equal(ia.mask, ib.mask)
