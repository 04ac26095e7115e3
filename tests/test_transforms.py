import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdmi
import scdmi.bench as bench_mod
import scdmi.transforms as transforms_mod
from scdmi.bench import featurize, invariance_report, retrieval_class
from scdmi.cli import main
from scdmi.engine import RasterImage, scdmi50
from scdmi.errors import InvalidImage, InvalidTransform, ScdmiError, Singular
from scdmi.synthetic import blob_image, disk_masked_image
from scdmi.transforms import (
    ColorAffine,
    ShapeAffine,
    apply_color_affine,
    apply_shape_affine,
    feature_deviations,
    relative_deviation,
    sample_color_affine,
    sample_shape_affine,
    upsample_nearest,
)


def random_image(seed, h=16, w=16):
    rng = np.random.default_rng(seed)
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)))


def two_index_warp(img, t):
    """The bilinear warp with one two-index gather per tap and plane."""
    w_in, h_in = img.width, img.height
    a = t.matrix
    det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    gx = np.arange(w_in, dtype=np.float64)[None, :] - t.offset[0]
    gy = np.arange(h_in, dtype=np.float64)[:, None] - t.offset[1]
    sx = inv[0, 0] * gx + inv[0, 1] * gy
    sy = inv[1, 0] * gx + inv[1, 1] * gy
    x0f = np.floor(sx)
    y0f = np.floor(sy)
    fx = sx - x0f
    fy = sy - y0f
    x0 = x0f.astype(np.int64)
    y0 = y0f.astype(np.int64)
    x1 = x0 + (fx > 0)
    y1 = y0 + (fy > 0)
    inb = (x0 >= 0) & (x1 <= w_in - 1) & (y0 >= 0) & (y1 <= h_in - 1)
    x0c = np.clip(x0, 0, w_in - 1)
    x1c = np.clip(x1, 0, w_in - 1)
    y0c = np.clip(y0, 0, h_in - 1)
    y1c = np.clip(y1, 0, h_in - 1)
    mask = img.mask
    out_mask = inb & mask[y0c, x0c] & mask[y0c, x1c] & mask[y1c, x0c] & mask[y1c, x1c]
    w00 = (1.0 - fx) * (1.0 - fy)
    w01 = fx * (1.0 - fy)
    w10 = (1.0 - fx) * fy
    w11 = fx * fy
    planes = []
    for plane in img.channels:
        out = (
            w00 * plane[y0c, x0c]
            + w01 * plane[y0c, x1c]
            + w10 * plane[y1c, x0c]
            + w11 * plane[y1c, x1c]
        )
        planes.append(np.where(out_mask, out, 0.0))
    return RasterImage(np.stack(planes), out_mask)


class TestWarpGatherExactness:
    """apply_shape_affine equals the two-index-gather warp bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "src,out", [((24, 24), None), ((31, 19), None), ((20, 26), (33, 15)), ((40, 36), (17, 22))]
    )
    def test_random_maps_and_partial_masks(self, seed, src, out):
        # ``out``, when given, is a frame the map fixes the center of in place of the image's own
        rng = np.random.default_rng(seed)
        w, h = src
        img = RasterImage.from_array(rng.uniform(-1.0, 2.0, size=(h, w, 3)), rng.random((h, w)) > 0.25)
        t = sample_shape_affine(seed + 50, det_range=(0.5, 2.0), max_condition=3.0, src_size=out or src)
        # a random shift moves part of the domain out of frame
        t = ShapeAffine(t.matrix, t.offset + rng.uniform(-4.0, 4.0, size=2))
        assert 0 < self.assert_same_warp(img, t) < img.mask.size

    @staticmethod
    def assert_same_warp(img, t):
        """Asserts that both warps give the same planes and mask, bit for
        bit, and returns the number of masked output pixels."""
        got = apply_shape_affine(img, t)
        ref = two_index_warp(img, t)
        for a, b in zip((*got.channels, got.mask), (*ref.channels, ref.mask)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)
        return int(ref.mask.sum())

    @pytest.mark.parametrize("size", [11, 48, 96])
    @pytest.mark.parametrize(
        "det_range, max_condition", [((0.65, 1.55), 2.0), ((0.7, 1.45), 1.8)], ids=["classification", "retrieval"]
    )
    def test_bench_disks(self, size, det_range, max_condition):
        # the bench's base images and its two protocols' sampler ranges
        for seed in range(4):
            img = disk_masked_image(seed, size=size, radius_frac=0.26)
            t = sample_shape_affine(
                2 * seed + 1, det_range=det_range, max_condition=max_condition, src_size=(size, size)
            )
            assert self.assert_same_warp(img, t) > 0

    @pytest.mark.parametrize("edge", ["left", "right", "top", "bottom"])
    def test_masks_touching_each_frame_edge(self, edge):
        h, w = 18, 23
        rng = np.random.default_rng(7)
        img = RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)), np.zeros((h, w), dtype=bool))
        rows, cols = {
            "left": (slice(4, 14), slice(0, 6)),
            "right": (slice(4, 14), slice(w - 6, w)),
            "top": (slice(0, 6), slice(5, 17)),
            "bottom": (slice(h - 6, h), slice(5, 17)),
        }[edge]
        img.mask[rows, cols] = True
        maps = [ShapeAffine(np.eye(2), np.array(shift)) for shift in ([0.0, 0.0], [1.0, -1.0], [-0.5, 0.25])]
        maps += [sample_shape_affine(s, det_range=(0.8, 1.25), max_condition=1.5, src_size=(w, h)) for s in range(4)]
        counts = [self.assert_same_warp(img, t) for t in maps]
        # the identity keeps every masked pixel, taps on the frame edge included
        assert counts[0] == img.mask.sum() and all(counts)

    @pytest.mark.parametrize("domain", ["single-pixel", "empty", "all-true"])
    def test_degenerate_masks(self, domain):
        rng = np.random.default_rng(3)
        img = RasterImage.from_array(rng.uniform(0.0, 1.0, size=(13, 16, 3)), np.zeros((13, 16), dtype=bool))
        if domain == "single-pixel":
            img.mask[5, 9] = True
        elif domain == "all-true":
            img.mask[:] = True
        maps = [ShapeAffine.identity(), ShapeAffine(np.eye(2), np.array([-3.0, 2.0]))]
        maps += [sample_shape_affine(s, src_size=(16, 13)) for s in range(3)]
        counts = [self.assert_same_warp(img, t) for t in maps]
        # a single pixel survives only grid-exact maps; the integer shift moves 3 of 16 columns and 2 of 13 rows out
        expected = {"single-pixel": [1, 1], "empty": [0, 0], "all-true": [13 * 16, 11 * 13]}[domain]
        assert counts[:2] == expected
        if domain == "all-true":
            assert all(counts)

    @pytest.mark.parametrize("h, w", [(7, 30), (45, 12), (1, 9), (9, 1)])
    def test_non_square_frames(self, h, w):
        rng = np.random.default_rng(h * w)
        img = RasterImage.from_array(rng.uniform(-1.0, 2.0, size=(h, w, 3)), rng.random((h, w)) > 0.2)
        for s in range(4):
            self.assert_same_warp(img, sample_shape_affine(s, max_condition=2.0, src_size=(w, h)))
        self.assert_same_warp(img, ShapeAffine(np.eye(2), np.array([1.0, 0.0])))

    @pytest.mark.parametrize("shift", [(0.5, 0.0), (0.0, -0.5), (-0.4, 0.6), (1.5, 0.0), (0.0, 2.0), (-3.0, -3.0)])
    def test_maps_moving_the_footprint_out_of_frame(self, shift):
        # a shift by a fraction of the frame crops the transported disk; by more than the frame, it leaves none
        size = 40
        img = disk_masked_image(5, size=size, radius_frac=0.3)
        for s in range(3):
            t = sample_shape_affine(s, det_range=(0.7, 1.4), max_condition=1.8, src_size=(size, size))
            whole = self.assert_same_warp(img, t)
            count = self.assert_same_warp(img, ShapeAffine(t.matrix, t.offset + size * np.array(shift)))
            assert count == 0 if max(map(abs, shift)) > 1.2 else 0 < count < whole

    @pytest.mark.parametrize("protocol", ["classification", "retrieval"])
    def test_bench_outputs_match_two_index_warp(self, tmp_path, monkeypatch, protocol):
        # the bench's forked workers inherit the patched warp
        args = ["bench", "--synthetic", "--protocol", protocol, "--classes", "2", "--transforms", "2",
                "--size", "48", "--seed", "1"]
        assert main([*args, "--out", str(tmp_path / "warp")]) == 0
        monkeypatch.setattr(bench_mod, "apply_shape_affine", two_index_warp)
        assert main([*args, "--out", str(tmp_path / "ref")]) == 0

        def outputs(folder: Path) -> dict[str, bytes]:
            return {p.relative_to(folder).as_posix(): p.read_bytes() for p in sorted(folder.rglob("*")) if p.is_file()}

        got, ref = outputs(tmp_path / "warp"), outputs(tmp_path / "ref")
        names = {"accuracy.csv", "pr_curves.csv", "dataset_manifest.csv"}
        assert names < set(ref) and sum(name.endswith(".ppm") for name in ref) >= 2 * 3
        assert got.keys() == ref.keys()
        for name in ref:
            assert got[name] == ref[name], name


class TestShapeAffine:
    def test_singular_matrix_rejected(self):
        with pytest.raises(Singular):
            ShapeAffine(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_identity_is_bit_identical(self):
        img = random_image(0)
        out = apply_shape_affine(img, ShapeAffine.identity())
        assert np.array_equal(out.channels[0], img.channels[0])
        assert np.array_equal(out.channels[1], img.channels[1])
        assert np.array_equal(out.channels[2], img.channels[2])
        assert np.array_equal(out.mask, img.mask)

    def test_integer_translation_is_exact_shift(self):
        img = random_image(1)
        img.mask[:] = False
        img.mask[2:10, 3:11] = True
        out = apply_shape_affine(img, ShapeAffine(np.eye(2), np.array([4.0, 2.0])))
        assert np.array_equal(out.channels[0, 4:12, 7:15], img.channels[0, 2:10, 3:11])
        assert np.array_equal(out.mask[4:12, 7:15], img.mask[2:10, 3:11])
        assert out.mask.sum() == img.mask.sum()

    def test_quarter_turn_is_exact_permutation(self):
        img = random_image(2, 9, 9)
        c = (9 - 1) / 2.0
        rot = ShapeAffine(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([2 * c, 0.0]))
        out = apply_shape_affine(img, rot)
        assert out.mask.all()
        assert sorted(out.channels[0].ravel()) == sorted(img.channels[0].ravel())
        # (x, y) -> (c - (y - c), x): column of output = W-1-y
        assert np.array_equal(out.channels[0, :, 8 - 3], img.channels[0, 3, :])

    def test_mask_soundness_under_poison(self):
        # unmasked pixels carry sentinels; they must never leak through taps
        img = random_image(3, 24, 24)
        img.mask[:] = False
        img.mask[6:18, 6:18] = True
        for plane in img.channels:
            plane[~img.mask] = 1e12
        t = sample_shape_affine(99, det_range=(0.8, 1.2), max_condition=2.0, src_size=(24, 24))
        out = apply_shape_affine(img, t)
        assert np.abs(out.channels[0, out.mask]).max() < 1e6
        assert np.all(out.channels[0, ~out.mask] == 0.0)

    def test_out_size(self):
        # the output has the input's frame: a map that halves the image leaves the rest of it masked
        img = random_image(4, 8, 12)
        out = apply_shape_affine(img, ShapeAffine(0.5 * np.eye(2)))
        assert (out.width, out.height) == (12, 8)
        assert out.mask[:4, :6].all() and np.array_equal(out.channels[0, :4, :6], img.channels[0, ::2, ::2])
        assert out.mask.sum() == 4 * 6

    @pytest.mark.parametrize(
        "matrix, offset",
        [
            (np.eye(2), [1e300, 0.0]),  # source x of -1e300, past int64
            (np.eye(2), [0.0, -1e300]),
            (0.01 * np.eye(2), [1e307, 0.0]),  # source x overflows to -inf
            (0.01 * np.array([[1.0, 1.0], [-1.0, 1.0]]), [-1e307, 1e307]),  # source y is inf - inf = nan
        ],
    )
    def test_huge_offsets_warp_out_of_frame(self, matrix, offset):
        # every source tap is far off the frame: an empty mask and zero
        # channels, with no numpy warning on the way
        out = apply_shape_affine(random_image(0, 6, 7), ShapeAffine(np.array(matrix), np.array(offset)))
        assert out.mask.shape == (6, 7) and not out.mask.any()
        assert not any(plane.any() for plane in out.channels)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps, singular", [(2.0**-52, True), (2.0**-40, False)], ids=["singular", "warps"])
    def test_huge_entries_with_finite_determinant(self, eps, singular):
        # the entries' products overflow although the determinant is finite,
        # so the map forms determinant and inverse on the matrix scaled by a
        # power of two; with eps = 2^-52 the scaled determinant cancels to 0
        # (numpy's LU determinant reads 1.56e304) and the map is a typed
        # Singular, never a numpy warning, both when it is built and when a
        # matrix set after construction is applied
        matrix = np.array([[1e160, 1e160], [1e160 * (1.0 - eps), 1e160]])
        img = random_image(0, 6, 6)
        if singular:
            with pytest.raises(Singular):
                ShapeAffine(matrix)
            t = ShapeAffine.identity()
            t.matrix = matrix
            with pytest.raises(Singular):
                apply_shape_affine(img, t)
            return
        t = ShapeAffine(matrix)
        # source (x, y) is about 1e-160 (x - y, y - (1 - eps) x): only the
        # diagonal reads inside the frame, all from pixel (0, 0)
        out = apply_shape_affine(img, t)
        diagonal = np.eye(6, dtype=bool)
        assert np.array_equal(out.mask, diagonal)
        for plane, source in zip(out.channels, img.channels):
            assert np.all(plane[diagonal] == source[0, 0]) and not plane[~diagonal].any()


class TestColorAffine:
    def test_identity(self):
        img = random_image(5)
        out = apply_color_affine(img, ColorAffine.identity())
        assert np.array_equal(out.channels[0], img.channels[0])

    def test_diagonal_doubling_unclamped(self):
        img = random_image(6)
        out = apply_color_affine(img, ColorAffine(2.0 * np.eye(3)), clamp=False)
        assert np.array_equal(out.channels[0], 2.0 * img.channels[0])
        assert np.array_equal(out.channels[2], 2.0 * img.channels[2])

    def test_channel_swap_permutes_planes(self):
        img = random_image(7)
        perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        out = apply_color_affine(img, ColorAffine(perm))
        assert np.array_equal(out.channels[0], img.channels[1])
        assert np.array_equal(out.channels[1], img.channels[2])
        assert np.array_equal(out.channels[2], img.channels[0])

    def test_map_does_not_depend_on_source_layout(self):
        # an (H, W, 3) array and the stack of its planes make one image,
        # stored C-contiguous either way, so the map's einsum rounds alike
        rgb = np.random.default_rng(12).uniform(size=(30, 30, 3))
        stacked = RasterImage(np.stack([rgb[:, :, c] for c in range(3)]), np.ones((30, 30), bool))
        t = sample_color_affine(9)
        a = apply_color_affine(RasterImage.from_array(rgb), t)
        assert np.array_equal(a.channels, apply_color_affine(stacked, t).channels)

    def test_clamp_flag(self):
        img = random_image(8)
        out = apply_color_affine(img, ColorAffine(3.0 * np.eye(3)), clamp=True)
        assert out.channels[0].max() <= 1.0

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            ColorAffine(np.zeros((3, 3)))


class TestTransformValidation:
    """Both affine maps reject a wrong shape or a non-finite entry with a typed
    error, before any determinant is formed, and a determinant that
    overflows."""

    @pytest.mark.parametrize("cls, n", [(ShapeAffine, 2), (ColorAffine, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_rejected(self, cls, n, bad):
        matrix = np.eye(n)
        matrix[0, n - 1] = bad
        offset = np.zeros(n)
        offset[-1] = bad
        for args in ((matrix, np.zeros(n)), (np.eye(n), offset)):
            with pytest.raises(InvalidTransform, match="finite"):
                cls(*args)

    @pytest.mark.parametrize("cls, n", [(ShapeAffine, 2), (ColorAffine, 3)])
    def test_wrong_shapes_rejected(self, cls, n):
        for args in ((np.eye(n + 1), np.zeros(n)), (np.eye(n), np.zeros(n + 1)), (np.ones(n), np.zeros(n))):
            with pytest.raises(InvalidTransform, match=f"{n}x{n} matrix"):
                cls(*args)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ShapeAffine("x"),
            lambda: ShapeAffine([[1, 0], [0]]),
            lambda: ColorAffine(np.eye(3), ["a", "b", "c"]),
        ],
        ids=["string-matrix", "ragged-matrix", "string-offset"],
    )
    def test_unconvertible_entries_rejected(self, make):
        # numpy's conversion raised a bare ValueError
        with pytest.raises(InvalidTransform, match="numeric matrix and offset"):
            make()

    @pytest.mark.parametrize("cls, n, scale", [(ShapeAffine, 2, 1e200), (ColorAffine, 3, 1e120)])
    def test_overflowing_determinant_rejected(self, cls, n, scale):
        # finite entries whose determinant overflows to inf (1e400, 1e360)
        with pytest.raises(InvalidTransform, match="determinant"):
            cls(scale * np.eye(n))

    def test_typed_and_exported(self):
        assert issubclass(InvalidTransform, ScdmiError) and issubclass(InvalidTransform, ValueError)
        assert scdmi.InvalidTransform is InvalidTransform
        # a singular map stays Singular, not InvalidTransform
        with pytest.raises(Singular) as info:
            ShapeAffine(np.zeros((2, 2)))
        assert not isinstance(info.value, InvalidTransform)


class TestSamplers:
    def test_shape_sampler_deterministic(self):
        a = sample_shape_affine(42, (0.5, 2.0), 3.0)
        b = sample_shape_affine(42, (0.5, 2.0), 3.0)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.offset, b.offset)

    def test_pure_rotation_case(self):
        t = sample_shape_affine(7, det_range=(1.0, 1.0), max_condition=1.0)
        assert np.linalg.det(t.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(t.matrix.T @ t.matrix, np.eye(2), atol=1e-12)

    def test_shape_dets_within_range(self):
        for seed in range(1000):
            t = sample_shape_affine(seed, det_range=(0.5, 2.0), max_condition=3.0)
            det = float(np.linalg.det(t.matrix))
            assert 0.5 - 1e-9 <= det <= 2.0 + 1e-9
            svals = np.linalg.svd(t.matrix, compute_uv=False)
            assert svals[0] / svals[1] <= 3.0 + 1e-9

    def test_color_sampler_deterministic_and_positive(self):
        a = sample_color_affine(13)
        b = sample_color_affine(13)
        assert np.array_equal(a.matrix, b.matrix)
        for seed in range(1000):
            t = sample_color_affine(seed)
            assert np.linalg.det(t.matrix) >= 1e-6

    def test_color_condition_one_is_scalar_identity(self):
        t = sample_color_affine(3, max_condition=1.0, offset_range=(0.0, 0.0))
        lam = t.matrix[0, 0]
        assert lam > 0
        assert np.allclose(t.matrix, lam * np.eye(3), atol=1e-12)
        assert np.all(t.offset == 0.0)
        # an empty offset range is valid, a reversed one is not
        with pytest.raises(ValueError, match="offset_range"):
            sample_color_affine(3, max_condition=1.0, offset_range=(1.0, -1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"det_range": (1.0, math.inf)},
            {"det_range": (0.5, math.nan)},
            {"max_condition": math.inf},
            {"max_condition": math.nan},
        ],
    )
    def test_shape_sampler_rejects_nonfinite_bounds(self, kwargs):
        # numpy's uniform draw raised a bare OverflowError on an infinite range
        with pytest.raises(ValueError, match="det_range|max_condition"):
            sample_shape_affine(0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_condition": math.inf},
            {"max_condition": math.nan},
            {"offset_range": (0.0, math.inf)},
            {"offset_range": (-math.inf, 0.0)},
            {"offset_range": (math.nan, 0.0)},
            {"offset_range": (-1e308, 1e308)},
        ],
    )
    def test_color_sampler_rejects_nonfinite_bounds(self, kwargs):
        # an infinite range, or finite bounds whose width overflows, is not drawn from
        with pytest.raises(ValueError, match="offset_range|max_condition"):
            sample_color_affine(0, **kwargs)


class TestFeatureInvariance:
    def test_color_exactness_on_masked_image(self):
        img = disk_masked_image(1, size=64, radius_frac=0.4)
        base = scdmi50(img)
        for seed in range(3):
            ct = sample_color_affine(seed + 100, max_condition=6.0, offset_range=(-0.3, 0.3))
            fv = scdmi50(apply_color_affine(img, ct))
            devs, both = feature_deviations(base, fv)
            assert both.any()
            assert devs[both].max() <= 1e-9

    def test_composition_consistency(self):
        img = disk_masked_image(2, size=64, radius_frac=0.28)
        st_ = sample_shape_affine(5, det_range=(0.8, 1.3), max_condition=1.6, src_size=(64, 64))
        ct = sample_color_affine(6, max_condition=4.0)
        ab = scdmi50(apply_color_affine(apply_shape_affine(img, st_), ct))
        ba = scdmi50(apply_shape_affine(apply_color_affine(img, ct), st_))
        devs, both = feature_deviations(ab, ba)
        assert both.any()
        assert devs[both].max() <= 1e-9

    def test_upsample_nearest_replicates(self):
        img = random_image(9, 6, 6)
        big = upsample_nearest(img, 2)
        assert big.width == 12 and big.height == 12
        assert np.array_equal(big.channels[0, ::2, ::2], img.channels[0])
        assert np.array_equal(big.channels[0, 1::2, 1::2], img.channels[0])


class TestInputBounds:
    @pytest.mark.parametrize("make", [blob_image, disk_masked_image])
    @pytest.mark.parametrize("size", [0, -1, -7])
    def test_image_size_below_one_is_typed(self, make, size):
        # numpy would raise a bare ValueError: a zero-size reduction at 0, negative dimensions below
        with pytest.raises(InvalidImage, match="size must be >= 1") as info:
            make(3, size=size)
        assert isinstance(info.value, ScdmiError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda bad: blob_image(0, size=8, spread=bad), "spread"),
            (lambda bad: disk_masked_image(0, size=8, radius_frac=bad), "radius_frac"),
        ],
        ids=["spread", "radius_frac"],
    )
    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_negative_or_nonfinite_extent_is_typed(self, make, match, bad):
        # numpy's uniform draw raised a bare OverflowError, or ValueError for a negative range
        with pytest.raises(InvalidImage, match=match):
            make(bad)

    @pytest.mark.parametrize("make", [blob_image, disk_masked_image])
    def test_one_pixel_image(self, make):
        img = make(3, size=1)
        assert (img.width, img.height) == (1, 1) and np.isfinite(img.channels).all()

    @pytest.mark.parametrize("factor", [0, -2])
    def test_upsample_factor_below_one_is_typed(self, factor):
        with pytest.raises(InvalidTransform, match="factor") as info:
            upsample_nearest(random_image(0, 4, 4), factor)
        assert isinstance(info.value, ScdmiError) and isinstance(info.value, ValueError)


class TestInvarianceReport:
    """The bench's reduction of a dataset's feature rows: each item against
    its class's first item."""

    def test_identity_only_gives_zero_deviations(self):
        rows = [scdmi50(blob_image(seed, size=32)) for seed in (3, 4)]
        values = np.array([rows[0].values] * 3 + [rows[1].values] * 2)
        valid = np.array([rows[0].valid] * 3 + [rows[1].valid] * 2)
        report = invariance_report(values, valid, np.array(["a"] * 3 + ["b"] * 2))
        assert rows[0].valid.all() and rows[1].valid.all()
        assert report.n_valid.tolist() == [3] * 50
        assert np.max(report.max_rel_dev) == 0.0

    def test_csv_layout(self):
        fv = scdmi50(blob_image(4, size=32))
        report = invariance_report(np.array([fv.values] * 2), np.array([fv.valid] * 2), np.array(["a", "a"]))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "id,k,median_rel_dev,max_rel_dev,n_valid"
        assert len(lines) == 51
        assert [line.split(",")[:2] for line in lines[1:]] == [[str(i), str(k)] for k in (0, 1) for i in range(1, 26)]
        assert lines[1].split(",")[2:] == ["0.0", "0.0", "1"]

    def test_each_item_is_compared_with_its_class_first_item(self):
        # classes interleaved: b's reference is item 0, a's is item 1
        labels = np.array(["b", "a", "b", "a", "b"])
        values = np.array([[2.0, 1.0], [4.0, 0.0], [3.0, 1.0], [5.0, 1.0], [1.0, 1.0]])
        valid = np.ones(values.shape, dtype=bool)
        report = invariance_report(values, valid, labels)
        # column 0: b pairs 0.5 and 0.5, a pairs 0.25; column 1: 0, 0 and 1 / 1e-12
        assert report.median_rel_dev.tolist() == [0.5, 0.0]
        assert report.max_rel_dev.tolist() == [0.5, 1e12]
        assert report.n_valid.tolist() == [3, 3]

    def test_invalid_pairs_are_not_counted(self):
        labels = np.array(["a", "a", "a", "b", "b"])
        values = np.array([[1.0, 1.0, np.nan], [2.0, 3.0, 1.0], [np.inf, 1.5, 1.0], [1.0, 0.0, 1.0], [1.0, 5.0, 1.0]])
        valid = np.isfinite(values)
        valid[4, 1] = False  # an invalid item side
        valid[3, 2] = False  # column 2: every pair has an invalid side
        report = invariance_report(values, valid, labels)
        assert report.n_valid.tolist() == [2, 2, 0]
        assert report.median_rel_dev[:2].tolist() == [0.5, 1.25]
        assert report.max_rel_dev[:2].tolist() == [1.0, 2.0]
        assert np.isnan(report.median_rel_dev[2]) and np.isnan(report.max_rel_dev[2])
        assert report.to_csv().splitlines()[3] == "3,0,nan,nan,0"

    def test_runs_no_warp_and_no_scdmi50(self, monkeypatch):
        features = featurize([*retrieval_class(0, 2, 2, size=32), *retrieval_class(1, 2, 2, size=32)])
        expected = invariance_report(*features.matrices[bench_mod.DescriptorKind.SCDMI50], features.labels).to_csv()

        def refuse(*args, **kwargs):
            raise AssertionError("the report recomputed a feature row")

        for module in (bench_mod, transforms_mod, scdmi):
            monkeypatch.setattr(module, "scdmi50", refuse, raising=False)
            monkeypatch.setattr(module, "apply_shape_affine", refuse, raising=False)
        report = invariance_report(*features.matrices[bench_mod.DescriptorKind.SCDMI50], features.labels)
        assert report.to_csv() == expected

    def test_color_only_report_is_exact(self):
        # one view: a class is its base image under channel maps alone, which are exact
        features = featurize([item for c in (4, 5) for item in retrieval_class(c, n_views=1, n_color_transforms=3, size=64)])
        report = invariance_report(*features.matrices[bench_mod.DescriptorKind.SCDMI50], features.labels)
        assert report.n_valid.min() > 0
        assert np.max(report.max_rel_dev) <= 1e-9


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@settings(max_examples=100)
def test_relative_deviation_nonnegative(a, b):
    d = relative_deviation(np.array([a]), np.array([b]))
    assert d[0] >= 0.0
