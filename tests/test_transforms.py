import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdmi
import scdmi.transforms as transforms_mod
from scdmi.engine import RasterImage, scdmi50
from scdmi.errors import InvalidTransform, ScdmiError, Singular
from scdmi.synthetic import blob_image, disk_masked_image
from scdmi.transforms import (
    ColorAffine,
    ShapeAffine,
    apply_color_affine,
    apply_shape_affine,
    feature_deviations,
    invariance_report,
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
    for plane in img.channels():
        out = (
            w00 * plane[y0c, x0c]
            + w01 * plane[y0c, x1c]
            + w10 * plane[y1c, x0c]
            + w11 * plane[y1c, x1c]
        )
        planes.append(np.where(out_mask, out, 0.0))
    return RasterImage(planes[0], planes[1], planes[2], out_mask)


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
        got = apply_shape_affine(img, t)
        ref = two_index_warp(img, t)
        assert 0 < ref.mask.sum() < ref.mask.size
        for a, b in zip((*got.channels(), got.mask), (*ref.channels(), ref.mask)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestShapeAffine:
    def test_singular_matrix_rejected(self):
        with pytest.raises(Singular):
            ShapeAffine(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_identity_is_bit_identical(self):
        img = random_image(0)
        out = apply_shape_affine(img, ShapeAffine.identity())
        assert np.array_equal(out.red, img.red)
        assert np.array_equal(out.green, img.green)
        assert np.array_equal(out.blue, img.blue)
        assert np.array_equal(out.mask, img.mask)

    def test_integer_translation_is_exact_shift(self):
        img = random_image(1)
        img.mask[:] = False
        img.mask[2:10, 3:11] = True
        out = apply_shape_affine(img, ShapeAffine(np.eye(2), np.array([4.0, 2.0])))
        assert np.array_equal(out.red[4:12, 7:15], img.red[2:10, 3:11])
        assert np.array_equal(out.mask[4:12, 7:15], img.mask[2:10, 3:11])
        assert out.mask.sum() == img.mask.sum()

    def test_quarter_turn_is_exact_permutation(self):
        img = random_image(2, 9, 9)
        c = (9 - 1) / 2.0
        rot = ShapeAffine(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([2 * c, 0.0]))
        out = apply_shape_affine(img, rot)
        assert out.mask.all()
        assert sorted(out.red.ravel()) == sorted(img.red.ravel())
        # (x, y) -> (c - (y - c), x): column of output = W-1-y
        assert np.array_equal(out.red[:, 8 - 3], img.red[3, :])

    def test_mask_soundness_under_poison(self):
        # unmasked pixels carry sentinels; they must never leak through taps
        img = random_image(3, 24, 24)
        img.mask[:] = False
        img.mask[6:18, 6:18] = True
        for plane in img.channels():
            plane[~img.mask] = 1e12
        t = sample_shape_affine(99, det_range=(0.8, 1.2), max_condition=2.0, src_size=(24, 24))
        out = apply_shape_affine(img, t)
        assert np.abs(out.red[out.mask]).max() < 1e6
        assert np.all(out.red[~out.mask] == 0.0)

    def test_out_size(self):
        # the output has the input's frame: a map that halves the image leaves the rest of it masked
        img = random_image(4, 8, 12)
        out = apply_shape_affine(img, ShapeAffine(0.5 * np.eye(2)))
        assert (out.width, out.height) == (12, 8)
        assert out.mask[:4, :6].all() and np.array_equal(out.red[:4, :6], img.red[::2, ::2])
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
        assert not any(plane.any() for plane in out.channels())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps, singular", [(2.0**-52, True), (2.0**-40, False)], ids=["singular", "warps"])
    def test_huge_entries_with_finite_determinant(self, eps, singular):
        # the entries' products overflow although the determinant is finite,
        # so the warp forms determinant and inverse on the matrix scaled by a
        # power of two; with eps = 2^-52 the scaled determinant cancels to 0
        # and the map is a typed Singular, never a numpy warning
        t = ShapeAffine(np.array([[1e160, 1e160], [1e160 * (1.0 - eps), 1e160]]))
        img = random_image(0, 6, 6)
        if singular:
            with pytest.raises(Singular):
                apply_shape_affine(img, t)
            return
        # source (x, y) is about 1e-160 (x - y, y - (1 - eps) x): only the
        # diagonal reads inside the frame, all from pixel (0, 0)
        out = apply_shape_affine(img, t)
        diagonal = np.eye(6, dtype=bool)
        assert np.array_equal(out.mask, diagonal)
        for plane, source in zip(out.channels(), img.channels()):
            assert np.all(plane[diagonal] == source[0, 0]) and not plane[~diagonal].any()


class TestColorAffine:
    def test_identity(self):
        img = random_image(5)
        out = apply_color_affine(img, ColorAffine.identity())
        assert np.array_equal(out.red, img.red)

    def test_diagonal_doubling_unclamped(self):
        img = random_image(6)
        out = apply_color_affine(img, ColorAffine(2.0 * np.eye(3)), clamp=False)
        assert np.array_equal(out.red, 2.0 * img.red)
        assert np.array_equal(out.blue, 2.0 * img.blue)

    def test_channel_swap_permutes_planes(self):
        img = random_image(7)
        perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        out = apply_color_affine(img, ColorAffine(perm))
        assert np.array_equal(out.red, img.green)
        assert np.array_equal(out.green, img.blue)
        assert np.array_equal(out.blue, img.red)

    def test_clamp_flag(self):
        img = random_image(8)
        out = apply_color_affine(img, ColorAffine(3.0 * np.eye(3)), clamp=True)
        assert out.red.max() <= 1.0

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
        assert np.array_equal(big.red[::2, ::2], img.red)
        assert np.array_equal(big.red[1::2, 1::2], img.red)


class TestInvarianceReport:
    def test_identity_only_gives_zero_deviations(self):
        img = blob_image(3, size=32)
        report = invariance_report(img, (ShapeAffine.identity(),), (ColorAffine.identity(),))
        assert np.all(report.n_valid >= 1)
        assert np.nanmax(report.max_rel_dev) == 0.0

    def test_csv_layout(self):
        img = blob_image(4, size=32)
        report = invariance_report(img, (), (ColorAffine.identity(),))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "id,k,median_rel_dev,max_rel_dev,n_valid"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"

    def test_warps_each_shape_once(self, monkeypatch):
        calls = []

        def counting(img, t):
            calls.append(t)
            return apply_shape_affine(img, t)

        monkeypatch.setattr(transforms_mod, "apply_shape_affine", counting)
        img = blob_image(6, size=32)
        sts = tuple(sample_shape_affine(s, src_size=(32, 32)) for s in range(2))
        cts = tuple(sample_color_affine(s + 40) for s in range(3))
        invariance_report(img, sts, cts)
        assert [id(t) for t in calls] == [id(t) for t in sts]

    def test_color_only_report_is_exact(self):
        img = disk_masked_image(5, size=64, radius_frac=0.4)
        cts = tuple(sample_color_affine(s + 30, max_condition=6.0) for s in range(3))
        report = invariance_report(img, (), cts)
        valid = report.n_valid > 0
        assert np.nanmax(report.max_rel_dev[valid]) <= 1e-9


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@settings(max_examples=100)
def test_relative_deviation_nonnegative(a, b):
    d = relative_deviation(np.array([a]), np.array([b]))
    assert d[0] >= 0.0
