import gc
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdmi import compiled, engine
from scdmi.algebra import CoreSpec, MomentIndex, MomentPolynomial, MonomialTerm, catalogue_specs
from scdmi.engine import (
    FeatureVector,
    RasterImage,
    centred_values,
    compiled_catalogue,
    core_sums,
    evaluate_table,
    moment_tables,
    moment_vector,
    scdmi50,
    stable_sum,
    stencil_eroded_mask,
)
from scdmi.errors import EmptyDomain, InvalidImage, InvalidSpec, ScdmiError
from scdmi.oracle import brute_force_core_integral, brute_force_features
from scdmi.synthetic import blob_image, disk_masked_image
from scdmi.transforms import ShapeAffine, apply_shape_affine, relative_deviation
from scdmi.verify import ORACLE_TOL, oracle_deviations


#: pixels per summation block
BLOCK = 1 << 16
#: most pixels per leaf of a block's pairwise split in moment_vector
LEAF = engine._LEAF


def random_image(seed, h, w):
    rng = np.random.default_rng(seed)
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)))


def slot(idx):
    return compiled_catalogue().indices.index(idx)


@pytest.mark.parametrize(
    "build",
    [
        lambda plane: RasterImage(np.zeros((3, 4, 5)), plane == 0),
        lambda plane: RasterImage(np.stack([plane[0]] * 3), plane[0] == 0),
        lambda plane: RasterImage.from_array(np.zeros((4, 4, 4))),
        lambda plane: RasterImage.from_array(plane),
        lambda plane: RasterImage.from_array(np.zeros((4, 4, 3)), mask=np.ones((3, 4), bool)),
        lambda plane: RasterImage(np.stack([plane] * 2), plane == 0),
        lambda plane: RasterImage(plane, plane == 0),
        lambda plane: RasterImage(np.stack([plane] * 3), np.stack([plane == 0] * 3)),
        lambda plane: moment_vector([plane[0]] * 4),
        lambda plane: moment_vector([plane[0]] * 4 + [plane[0, :3]]),
        lambda plane: moment_vector([plane] * 5),
        lambda plane: moment_vector([plane[0]] * 6),
        lambda plane: RasterImage(np.full((3, 4, 4), "a"), plane == 0),
        lambda plane: RasterImage([[[0.0] * 4] * 4] * 2 + [[[0.0] * 3] * 4], plane == 0),
        lambda plane: RasterImage(np.stack([plane] * 3) + 1j, plane == 0),
        lambda plane: RasterImage([[[None] * 4] * 4] * 3, plane == 0),
        lambda plane: RasterImage(np.stack([plane] * 3), np.full((4, 4), "a")),
        lambda plane: RasterImage(np.stack([plane] * 3), [[True] * 4] * 3 + [[True] * 3]),
        lambda plane: RasterImage(np.stack([plane] * 3), plane + 1j),
        lambda plane: RasterImage.from_array("x"),
        lambda plane: RasterImage.from_array(np.stack([plane] * 3, axis=2).astype(complex)),
        lambda plane: moment_vector(["a"] * 5),
        lambda plane: moment_vector([[1.0, [2.0]]] * 5),
        lambda plane: moment_vector([plane[0] + 1j] * 5),
        lambda plane: moment_vector(5),
        lambda plane: FeatureVector(np.zeros(49), np.zeros(49, bool)),
        lambda plane: FeatureVector(np.zeros(50), np.zeros(25, bool)),
        lambda plane: FeatureVector(["a"] * 50, np.zeros(50, bool)),
        lambda plane: FeatureVector(np.zeros(50) + 1j, np.zeros(50, bool)),
    ],
    ids=[
        "planes-differ",
        "planes-1d",
        "four-channels",
        "no-channel-axis",
        "mask-differs",
        "two-channels",
        "channels-2d",
        "mask-has-channel-axis",
        "values-four-arrays",
        "values-unequal-lengths",
        "values-2d",
        "values-six-arrays",
        "channels-strings",
        "channels-ragged",
        "channels-complex",
        "channels-none",
        "mask-strings",
        "mask-ragged",
        "mask-complex",
        "array-string",
        "array-complex",
        "values-strings",
        "values-ragged",
        "values-complex",
        "values-not-a-sequence",
        "features-49",
        "features-flags-25",
        "features-strings",
        "features-complex",
    ],
)
@pytest.mark.filterwarnings("error")
def test_malformed_image_raises_typed_error(build):
    # a typed ScdmiError that is still a ValueError, never a bare ValueError; numpy's
    # ComplexWarning, which dropped an imaginary part, counts as an error here
    with pytest.raises(InvalidImage) as info:
        build(np.zeros((4, 4)))
    assert isinstance(info.value, ScdmiError) and isinstance(info.value, ValueError)


class TestCentroid:
    def test_full_mask_5x3(self):
        img = RasterImage.from_array(np.zeros((3, 5, 3)))
        xc, yc, *_ = centred_values(img, 0)
        assert xc.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0] * 3
        assert yc.tolist() == [-1.0] * 5 + [0.0] * 5 + [1.0] * 5

    def test_constant_channels(self):
        img = RasterImage.from_array(np.full((4, 4, 3), 0.25))
        _, _, rc, gc, bc = centred_values(img, 0)
        # every channel mean is exactly 0.25
        assert np.all(rc == 0.0) and np.all(gc == 0.0) and np.all(bc == 0.0)

    def test_empty_mask(self):
        # the one case that raises: the mask itself is empty, whatever k
        img = RasterImage.from_array(np.zeros((4, 4, 3)), mask=np.zeros((4, 4), bool))
        calls = [lambda: centred_values(img, 0), lambda: centred_values(img, 1)]
        for call in calls + [lambda: scdmi50(img), lambda: brute_force_features(img)]:
            with pytest.raises(EmptyDomain, match="^mask has no pixels$"):
                call()

    @pytest.mark.parametrize("k", [2, -1, 7, "0", "1", 1.0, 0.0, True, False, None])
    def test_k_other_than_0_or_1_raises(self, k):
        # each of these once read as one of the two domains: 0.0 and False as the mask, the others,
        # "0" among them, as the eroded k=1 domain
        img = random_image(0, 6, 6)
        for call in (lambda: centred_values(img, k), lambda: brute_force_core_integral(img, CoreSpec(), k)):
            with pytest.raises(InvalidSpec, match="^k must be the integer 0 or 1, got "):
                call()
        assert centred_values(img, np.int64(1))[0].size == 4


class TestDerivatives:
    def test_ramp_derivative_is_12(self):
        h, w = 7, 9
        yy, xx = np.mgrid[0:h, 0:w].astype(float)
        img = RasterImage(np.stack([xx, yy, xx]), np.ones((h, w), bool))
        xc, yc, rc, gc, _ = centred_values(img, 1)
        # dC/dx = 12 and dC/dy = 0 on an x ramp; the reverse on a y ramp
        assert np.allclose(rc, 12.0 * xc)
        assert np.allclose(gc, 12.0 * yc)

    def test_constant_channel_zero_derivative(self):
        img = RasterImage.from_array(np.full((6, 6, 3), 0.7))
        _, _, *channels = centred_values(img, 1)
        # the stencil of a constant cancels to rounding noise
        assert np.allclose(channels, 0.0, atol=1e-13)

    def test_too_small(self):
        # a 4x4 frame is too small for the stencil: the k=1 domain is empty
        values = centred_values(RasterImage.from_array(np.zeros((4, 4, 3))), 1)
        assert len(values) == 5 and all(a.shape == (0,) for a in values)

    def test_eroded_mask_margin(self):
        mask = np.ones((8, 8), bool)
        eroded = stencil_eroded_mask(mask)
        expected = np.zeros((8, 8), bool)
        expected[2:6, 2:6] = True
        assert np.array_equal(eroded, expected)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 0.8, 0.95]))
    def test_eroded_mask_is_the_stencil_cross_rule(self, h, w, seed, density):
        # a pixel survives when it and its 8 stencil neighbours are masked,
        # a neighbour off the frame counting as unmasked
        mask = np.random.default_rng(seed).random((h, w)) < density

        def masked(y, x):
            return 0 <= y < h and 0 <= x < w and bool(mask[y, x])

        expected = np.zeros((h, w), bool)
        for y, x in np.ndindex(h, w):
            expected[y, x] = masked(y, x) and all(masked(y + d, x) and masked(y, x + d) for d in (-2, -1, 1, 2))
        eroded = stencil_eroded_mask(mask)
        assert eroded.dtype == bool and np.array_equal(eroded, expected)

    def test_scdmi50_erodes_once(self, monkeypatch):
        calls = []

        def counting(mask):
            calls.append(mask)
            return stencil_eroded_mask(mask)

        monkeypatch.setattr(engine, "stencil_eroded_mask", counting)
        scdmi50(random_image(17, 12, 12))
        assert len(calls) == 1


class TestF1Channels:
    def test_linear_ramp_gives_12_xc(self):
        h = w = 9
        x = np.tile(np.arange(w, dtype=float), (h, 1))
        img = RasterImage(np.stack([x, x, x]), np.ones((h, w), bool))
        xc, _, rc, _, _ = centred_values(img, 1)
        # k=1 is centred on the eroded mask's own centroid
        _, xs = np.nonzero(stencil_eroded_mask(img.mask))
        assert np.array_equal(xc, xs - xs.mean())
        assert np.allclose(rc, 12.0 * xc)

    def test_euler_relation_on_radial_quadratic(self):
        # the stencil is exact on quadratics, so F1 of |P - center|^2 equals
        # 12 * 2 * C on the eroded domain
        h = w = 11
        yy, xx = np.mgrid[0:h, 0:w].astype(float)
        mask = np.ones((h, w), bool)
        eroded = stencil_eroded_mask(mask)
        xbar, ybar = xx[eroded].mean(), yy[eroded].mean()
        c = (xx - xbar) ** 2 + (yy - ybar) ** 2
        img = RasterImage(np.stack([c, c, c]), mask)
        _, _, rc, _, _ = centred_values(img, 1)
        assert np.allclose(rc, 24.0 * c[eroded], rtol=1e-12)

    def test_means_are_zero(self):
        # k=1 channels are not mean-subtracted: each is the stencil formula itself
        img = random_image(0, 7, 7)
        xc, yc, rc, _, _ = centred_values(img, 1)
        p = img.channels[0]
        expected = [
            (p[y, x - 2] - 8.0 * p[y, x - 1] + 8.0 * p[y, x + 1] - p[y, x + 2]) * dx
            + (p[y - 2, x] - 8.0 * p[y - 1, x] + 8.0 * p[y + 1, x] - p[y + 2, x]) * dy
            for (y, x), dx, dy in zip(zip(*np.nonzero(stencil_eroded_mask(img.mask))), xc, yc)
        ]
        assert np.array_equal(rc, expected)


class TestMomentTable:
    def test_m00_is_masked_count(self):
        img = random_image(1, 6, 7)
        img.mask[0, :] = False
        assert compiled_catalogue().indices[0] == MomentIndex(0, 0, 0, 0, 0)
        assert moment_vector(centred_values(img, 0))[0] == 35.0

    def test_first_central_moments_vanish(self):
        # no term reads m10 or m01, so they are checked on the centred coordinates
        img = random_image(2, 8, 8)
        img.mask[0, :3] = False
        for k in (0, 1):
            xc, yc, *_ = centred_values(img, k)
            assert abs(stable_sum(xc)) <= 1e-12 * xc.size
            assert abs(stable_sum(yc)) <= 1e-12 * yc.size

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize(
        "img", [random_image(4, 9, 11), disk_masked_image(5, size=96, radius_frac=0.26), blob_image(6, size=272)]
    )
    def test_plan_equals_walk_over_all_axes(self, img, k):
        values = centred_values(img, k)
        assert moment_vector(values).tolist() == _walk_over_all_axes(values)

    @pytest.mark.parametrize(
        "n",
        sorted(
            {1, 7, BLOCK // 4 - 1, BLOCK // 4, BLOCK // 4 + 1, BLOCK // 2 - 1, BLOCK // 2, BLOCK // 2 + 1}
            | {BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1}
            | {LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 9, BLOCK + 3 * LEAF + 5}
        ),
    )
    def test_walk_at_chunk_and_block_boundaries(self, n):
        # numpy's pairwise sum splits its input in halves, so sizes either
        # side of a power of two; a second block starts at BLOCK + 1 and a
        # third at 2 * BLOCK + 1; a block of more than LEAF pixels is split
        # into leaves at n // 2 rounded down to a multiple of 8, which the
        # last block of 2 * LEAF + 9 or BLOCK + 3 * LEAF + 5 pixels puts off
        # its middle whenever it is split; magnitudes spread over decades
        rng = np.random.default_rng(n)
        values = [rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n) for _ in range(5)]
        expected = np.array(_walk_over_all_axes(values))
        assert np.array_equal(moment_vector(values).view(np.int64), expected.view(np.int64))

    def test_against_naive_double_loop(self):
        img = random_image(3, 8, 8)
        vec = moment_vector(centred_values(img, 0))
        xbar = ybar = 3.5
        r, g, b = img.channels
        rbar, gbar, bbar = r.mean(), g.mean(), b.mean()
        for idx, value in zip(compiled_catalogue().indices, vec):
            total = 0.0
            for y in range(8):
                for x in range(8):
                    total += (
                        (x - xbar) ** idx.p
                        * (y - ybar) ** idx.q
                        * (r[y, x] - rbar) ** idx.alpha
                        * (g[y, x] - gbar) ** idx.beta
                        * (b[y, x] - bbar) ** idx.gamma
                    )
            assert value == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestEvaluate:
    def test_grayscale_gives_invalid(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(0, 1, (6, 6))
        img = RasterImage(np.stack([g, g, g]), np.ones((6, 6), bool))
        fv = scdmi50(img)
        assert not fv.valid.any()
        assert np.all(fv.values == 0.0)
        assert np.isfinite(fv.values).all()

    def test_constant_gives_invalid(self):
        img = RasterImage.from_array(np.full((8, 8, 3), 0.4))
        fv = scdmi50(img)
        assert not fv.valid.any()
        assert np.isfinite(fv.values).all()

    def test_identity_copy_bit_identical(self):
        img = random_image(6, 12, 12)
        copy = apply_shape_affine(img, ShapeAffine.identity())
        a, b = scdmi50(img), scdmi50(copy)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.valid, b.valid)

    def test_integer_translation(self):
        rng = np.random.default_rng(7)
        img = RasterImage.from_array(rng.uniform(0, 1, (20, 20, 3)))
        img.mask[:] = False
        img.mask[4:14, 5:15] = True
        shifted = apply_shape_affine(img, ShapeAffine(np.eye(2), np.array([3.0, 2.0])))
        assert shifted.mask.sum() == img.mask.sum()
        a, b = scdmi50(img), scdmi50(shifted)
        both = a.valid & b.valid
        assert both.any()
        dev = np.abs(b.values - a.values) / np.maximum(np.abs(a.values), 1e-12)
        assert dev[both].max() <= 1e-9

    def test_determinism(self):
        bytes_ = np.random.default_rng(8).uniform(0, 1, (10, 10, 3))
        a = scdmi50(RasterImage.from_array(bytes_.copy()))
        b = scdmi50(RasterImage.from_array(bytes_.copy()))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.valid, b.valid)

    def test_validity_flag_matches_spec_claim(self):
        # valid=False exactly when the k-domain is empty or the quadratic
        # core underflows its floor
        fv = scdmi50(random_image(9, 7, 7))
        assert fv.valid.all()
        assert np.isfinite(fv.values).all()
        stripe = scdmi50(_stripe_image(16))
        assert stripe.valid[:25].all() and not stripe.valid[25:].any()
        assert np.all(stripe.values[25:] == 0.0)
        big = blob_image(11, size=272)
        assert big.mask.sum() > BLOCK and scdmi50(big).valid.all()


@given(st.integers(0, 10000), st.integers(5, 9), st.integers(5, 9))
@settings(max_examples=25, deadline=None)
def test_moment_table_matches_naive_on_random_images(seed, h, w):
    img = random_image(seed, h, w)
    idx = MomentIndex(2, 1, 1, 0, 0)
    value = moment_vector(centred_values(img, 0))[slot(idx)]
    xs = np.arange(w) - (w - 1) / 2
    ys = np.arange(h) - (h - 1) / 2
    naive = float(
        np.sum(
            xs[None, :] ** 2 * ys[:, None] ** 1 * (img.channels[0] - img.channels[0].mean())
        )
    )
    assert value == pytest.approx(naive, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# summation policy: pairwise sums of 2^16-element blocks merged by fsum

def _walk_over_all_axes(values):
    """Every index walked over its five axes, each power built on demand, one
    np.sum per product vector and block, the blocks merged by fsum."""
    partials = [[] for _ in compiled_catalogue().indices]
    for lo in range(0, values[0].size, BLOCK):
        pows = [[None, v[lo : lo + BLOCK]] for v in values]
        for idx, sums in zip(compiled_catalogue().indices, partials):
            vec = None
            for ladder, e in zip(pows, idx):
                while len(ladder) <= e:
                    ladder.append(ladder[-1] * ladder[1])
                if e:
                    vec = ladder[e] if vec is None else vec * ladder[e]
            if vec is not None:
                sums.append(float(np.sum(vec)))
    return [math.fsum(sums) if sums else float(values[0].size) for sums in partials]


def _ill_conditioned(seed, n):
    """Terms spread over 16 decades whose exact sum nearly cancels to zero."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    x[-1] -= math.fsum(x)
    return x


def _grayscale(seed, n):
    """Equal channels: the quadratic core vanishes, so all 50 entries are invalid."""
    g = np.random.default_rng(seed).uniform(0.0, 1.0, (n, n))
    return RasterImage(np.stack([g, g, g]), np.ones((n, n), bool))


def _plane_centred(img, k):
    """(xc, yc, rc, gc, bc) built on whole planes: the stencil over the full
    frame, the k=1 channels as planes, each gathered at the domain last."""
    mask = img.mask if k == 0 else stencil_eroded_mask(img.mask)
    n = np.count_nonzero(mask)
    ys, xs = np.nonzero(mask)
    xbar, ybar = stable_sum(xs) / n, stable_sum(ys) / n
    if k == 0:
        planes = [p - stable_sum(p[mask]) / n for p in img.channels]
    else:
        h, w = mask.shape
        xc = np.arange(w, dtype=np.float64) - xbar
        yc = np.arange(h, dtype=np.float64) - ybar
        planes = []
        for p in img.channels:
            ddx, ddy = np.zeros((h, w)), np.zeros((h, w))
            ddx[:, 2 : w - 2] = p[:, 0 : w - 4] - 8.0 * p[:, 1 : w - 3] + 8.0 * p[:, 3 : w - 1] - p[:, 4:w]
            ddy[2 : h - 2, :] = p[0 : h - 4, :] - 8.0 * p[1 : h - 3, :] + 8.0 * p[3 : h - 1, :] - p[4:h, :]
            planes.append(ddx * xc[None, :] + ddy * yc[:, None])
    return [xs - xbar, ys - ybar] + [p[mask] for p in planes]


def _masked(seed, size, mask):
    img = random_image(seed, size, size)
    img.mask[:] = mask
    return img


def _crop_case(name):
    """A 40 px image whose mask exercises the bounding-box crop."""
    size = 40
    yy, xx = np.mgrid[0:size, 0:size]
    if name.startswith("edge-"):
        # a 12 x 16 block flush against one frame edge
        y0, x0 = {"edge-top": (0, 11), "edge-bottom": (size - 12, 7), "edge-left": (9, 0), "edge-right": (13, size - 16)}[name]
        mask = (yy >= y0) & (yy < y0 + 12) & (xx >= x0) & (xx < x0 + 16)
    elif name == "cross":
        # touches all four edges at once
        mask = (abs(yy - 17) <= 3) | (abs(xx - 22) <= 4)
    elif name == "hole":
        r2 = (yy - 19.5) ** 2 + (xx - 21) ** 2
        mask = (r2 <= 13.0**2) & (r2 >= 4.0**2)
    elif name == "two-blobs":
        mask = ((yy - 9) ** 2 + (xx - 10) ** 2 <= 36) | ((yy - 29) ** 2 + (xx - 30) ** 2 <= 49)
    elif name == "irregular":
        # no symmetry, so the centroid is not a short binary fraction and a
        # coordinate left in box units would round differently
        mask = ((yy - 14.3) ** 2 + (xx - 19.1) ** 2 <= 41) | ((yy - 21.7) ** 2 / 2 + (xx - 27.4) ** 2 <= 30)
        mask[16, 12:30:3] = False
    return _masked(sum(map(ord, name)), size, mask)


def _whole_array_table(base):
    """Moments summed by one np.sum over each whole product vector, the
    powers built by repeated multiplication in axis order, in
    compiled_catalogue().indices order."""
    npix = float(base[0].size)
    entries = []
    for idx in compiled_catalogue().indices:
        vec = None
        for b, e in zip(base, idx):
            if e:
                p = b
                for _ in range(e - 1):
                    p = p * b
                vec = p if vec is None else vec * p
        entries.append(npix if vec is None else float(np.sum(vec)))
    return np.array(entries)


class TestBoundingBoxCrop:
    """centred_values crops to the mask's bounding box: the values must be
    those of the whole-frame computation, bit for bit."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize(
        "name", ["edge-top", "edge-bottom", "edge-left", "edge-right", "cross", "hole", "two-blobs", "irregular"]
    )
    def test_equals_whole_frame(self, name, k):
        img = _crop_case(name)
        got, expected = centred_values(img, k), _plane_centred(img, k)
        for a, b in zip(got, expected):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_three_pixel_square_on_large_frame(self):
        mask = np.zeros((128, 128), bool)
        mask[60:63, 70:73] = True
        img = _masked(3, 128, mask)
        got, expected = centred_values(img, 0), _plane_centred(img, 0)
        for a, b in zip(got, expected):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        # the 3x3 crop erodes to nothing: a k=1 domain of zero pixels
        assert [a.size for a in centred_values(img, 1)] == [0] * 5
        fv = scdmi50(img)
        assert not fv.valid[25:].any() and np.all(fv.values[25:] == 0.0)

    def test_small_frame_is_still_too_small(self):
        # a whole 4x4 frame keeps its k=0 values but is too small for k=1
        img = random_image(4, 4, 4)
        got, expected = centred_values(img, 0), _plane_centred(img, 0)
        for a, b in zip(got, expected):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert [a.size for a in centred_values(img, 1)] == [0] * 5
        fv = scdmi50(img)
        assert fv.valid[:25].all()
        assert not fv.valid[25:].any() and np.all(fv.values[25:] == 0.0)


def _small_domain(name):
    """Random channels on a domain that stencil erosion empties."""
    if name == "3x3-on-128px":
        mask = np.zeros((128, 128), bool)
        mask[60:63, 70:73] = True
        return _masked(3, 128, mask)
    h, w = map(int, name.split("x"))
    return random_image(h * w, h, w)


class TestZeroPixelDomain:
    """A k-domain of no pixels is a moment vector of zero pixels, whose 25
    entries are invalid; the other k's entries stand."""

    @pytest.mark.parametrize("name", ["1x1", "2x9", "3x7", "4x4", "3x3-on-128px"])
    def test_empty_k1_domain(self, name):
        img = _small_domain(name)
        k1 = moment_tables(img)[1]
        assert k1[0] == 0.0 and not k1.any()
        values = centred_values(img, 1)
        assert len(values) == 5 and all(a.shape == (0,) for a in values)
        fv, ref = scdmi50(img), brute_force_features(img)
        assert np.all(fv.values[25:] == 0.0) and not fv.valid[25:].any() and not ref.valid[25:].any()
        # every k=0 entry stands, save on one pixel, which has no colour spread
        assert fv.valid[:25].all() == (name != "1x1")
        assert fv.valid[:25].tolist() == ref.valid[:25].tolist()
        assert oracle_deviations(fv.values, ref.values)[:25].max() <= ORACLE_TOL


class TestStableSum:
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK])
    def test_one_block_is_plain_numpy_sum(self, n):
        x = np.random.default_rng(n).standard_normal(n) * 1e3
        assert stable_sum(x) == float(np.sum(x))

    @pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK - 1, 3 * BLOCK + 7])
    def test_blocks_are_numpy_sums_merged_by_fsum(self, n):
        # blocks of more than LEAF elements are summed a leaf at a time, split
        # off their middle at 2 * BLOCK - 1, and must still be numpy's sums
        x = np.random.default_rng(n).standard_normal(n) * 10.0 ** np.random.default_rng(n + 1).uniform(-3, 3, n)
        expected = math.fsum(float(np.sum(x[i : i + BLOCK])) for i in range(0, n, BLOCK))
        assert np.float64(stable_sum(x)).view(np.int64) == np.float64(expected).view(np.int64)

    @pytest.mark.parametrize("n", [BLOCK + 1, 3 * BLOCK + 7])
    def test_error_bound_across_blocks(self, n):
        x = _ill_conditioned(n, n)
        assert abs(stable_sum(x) - math.fsum(x)) <= 1e-14 * float(np.sum(np.abs(x)))

    def test_empty(self):
        assert stable_sum(np.zeros(0)) == 0.0

    @pytest.mark.parametrize("n", [0, 1, LEAF])
    def test_one_block_sums_read_as_fsum_of_one_value(self, n):
        # one block's sums need no merge, but read as fsum of each one value
        # reads it, bit for bit: -0.0 reads 0.0, and ±inf and nan stay
        values = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -2.5])
        sums = engine._sums(n, values.size, lambda lo, hi: values.copy())
        expected = np.array([math.fsum([v]) for v in values.tolist()])
        assert sums.dtype == np.float64 and sums.shape == values.shape
        assert np.array_equal(np.isnan(sums), np.isnan(expected))
        assert np.array_equal(sums.view(np.int64)[:4], expected.view(np.int64)[:4])
        assert sums[5] == -2.5

    @pytest.mark.parametrize(
        "x, expected",
        [([], 0.0), ([np.inf, 1.0], np.inf), ([-np.inf], -np.inf), ([np.inf, -np.inf], np.nan), ([np.nan, 2.0], np.nan)],
        ids=["empty", "inf", "minus-inf", "inf-minus-inf", "nan"],
    )
    @np.errstate(invalid="ignore")
    def test_one_block_special_values(self, x, expected):
        got = stable_sum(np.array(x, dtype=np.float64))
        assert type(got) is float
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_summed_arrays_are_freed_on_return(self):
        # no reference cycle outlives a sum: with the collector off, the
        # arrays summed are freed as soon as the caller drops them
        x = np.ones(BLOCK + LEAF + 1)
        values = [np.ones(LEAF + 1) for _ in range(5)]
        refs = [weakref.ref(a) for a in (x, *values)]
        gc.disable()
        try:
            stable_sum(x)
            moment_vector(values)
            del x, values
            assert [r() for r in refs] == [None] * 6
        finally:
            gc.enable()

    def test_nonfinite_blocks_merge_to_ieee_result(self):
        # fsum raises on these block sums; one block would give nan and inf
        x = np.zeros(BLOCK + 1)
        x[0], x[-1] = np.inf, -np.inf
        assert math.isnan(stable_sum(x))
        assert stable_sum(np.full(2 * BLOCK, 2.5e303)) == np.inf

    @pytest.mark.parametrize("k", [0, 1])
    def test_moment_table_above_one_block(self, k):
        img = blob_image(11, size=272)
        base = centred_values(img, k)
        assert base[0].size > BLOCK
        vec = moment_vector(base)
        for idx, value in zip(compiled_catalogue().indices, vec):
            if not any(idx):
                assert value == float(base[0].size)
                continue
            terms = np.prod([b**e for b, e in zip(base, idx)], axis=0)
            bound = 1e-14 * float(np.sum(np.abs(terms)))
            assert abs(value - math.fsum(terms)) <= bound, idx

    @pytest.mark.parametrize(
        "img",
        [
            random_image(12, 12, 12),
            disk_masked_image(13, size=128, radius_frac=0.26),
            blob_image(14, size=256),
            _grayscale(15, 12),
        ],
        ids=["random-12px", "disk-128px", "full-256px", "grayscale-12px"],
    )
    def test_features_up_to_one_block_unchanged(self, img):
        # the path before block sums and the one centring step: whole planes,
        # one np.sum per moment
        expected = [evaluate_table(_whole_array_table(_plane_centred(img, k))) for k in (0, 1)]
        fv = scdmi50(img)
        assert img.mask.sum() <= BLOCK
        values = np.concatenate([v for v, _ in expected])
        assert np.array_equal(fv.values.view(np.int64), values.view(np.int64))
        assert fv.valid.tolist() == np.concatenate([ok for _, ok in expected]).tolist()


# ---------------------------------------------------------------------------
# compiled evaluation: one gather-product per moment vector


def _stripe_image(seed):
    """Random channels on a 4-column stripe, which stencil erosion empties."""
    img = random_image(seed, 24, 24)
    img.mask[:] = False
    img.mask[:, 10:14] = True
    return img


class TestCompiledCatalogue:
    def test_term_counts(self):
        prog = compiled_catalogue()
        assert prog.factors.shape == (4, 2207)
        assert prog.coefficients.shape == (2207,)
        assert len(prog.bounds) == 27 and prog.bounds[-1] == 2207
        assert prog.bounds[25] == sum(len(s.numerator) for s in catalogue_specs()) == 2202
        assert len(prog.indices) == 75
        assert [prog.indices[i] for i in prog.squares] == [
            MomentIndex(0, 0, 2, 0, 0), MomentIndex(0, 0, 0, 2, 0), MomentIndex(0, 0, 0, 0, 2)
        ]

    @pytest.mark.parametrize(
        "extra",
        [
            [MomentIndex(1, 4, 0, 0, 0), MomentIndex(1, 2, 0, 0, 0)],
            [MomentIndex(1, 1, 1, 1, 0)],
            [
                MomentIndex(2, 1, 2, 0, 1), MomentIndex(0, 0, 1, 0, 3), MomentIndex(5, 3, 0, 0, 0),
                MomentIndex(7, 3, 0, 1, 0),
            ],
        ],
        ids=["gap-in-second-factors", "four-factors", "prefix-powers-and-p-jumps"],
    )
    def test_steps_build_any_catalogue(self, extra, monkeypatch):
        # indices the catalogue lacks, added as terms of the denominator: a
        # gap in the y powers beside one x power; four factors; and a prefix
        # times r squared, a channel power after a channel, a later p that
        # needs more y powers than the p before it, and a jump of two in p at
        # an unchanged q
        honest = compiled.denominator_polynomial()
        padded = MomentPolynomial(honest.terms + tuple(MonomialTerm(1, (idx,)) for idx in extra))
        monkeypatch.setattr(compiled, "denominator_polynomial", lambda: padded)
        compiled_catalogue.cache_clear()
        try:
            assert set(extra) <= set(compiled_catalogue().indices)
            for img, k in [(random_image(8, 9, 11), 0), (blob_image(9, size=200), 1)]:
                values = centred_values(img, k)
                expected = np.array(_walk_over_all_axes(values))
                assert np.array_equal(moment_vector(values).view(np.int64), expected.view(np.int64))
        finally:
            monkeypatch.undo()
            compiled_catalogue.cache_clear()

    @pytest.mark.parametrize("k", [0, 1])
    def test_d2_is_six_gram_determinants(self, k):
        values = centred_values(disk_masked_image(13, size=128, radius_frac=0.26), k)
        c = np.stack(values[2:])
        expected = 6.0 * np.linalg.det(c @ c.T)
        assert abs(core_sums(moment_vector(values))[-1] - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize(
        "case", ["inf-pixel", "channels-1e60", "red-1e110", "pm-inf-two-blocks", "mean-overflow-two-blocks"]
    )
    def test_overflow_gives_invalid_entries(self, case):
        img = blob_image(1, size=64)
        if case == "inf-pixel":
            img.channels[0, 32, 32] = np.inf
        elif case == "channels-1e60":
            img = RasterImage(img.channels * 1e60, img.mask)
        elif case == "red-1e110":
            # the core stays finite, but the degeneracy floor's cube of the
            # channel scale overflows: the floor reads inf, and no core passes it
            img.channels[0] *= 1e110
        else:
            # 272 px is more than one 2^16-pixel block; fsum raised on the block sums
            img = blob_image(1, size=272)
            if case == "pm-inf-two-blocks":
                img.channels[0, 10, 10], img.channels[0, 260, 260] = np.inf, -np.inf
            else:
                img.channels[0] = 2.5e303 + 1e300 * img.channels[0]
        fv = scdmi50(img)
        assert np.isfinite(fv.values).all()
        assert np.all(fv.values[~fv.valid] == 0.0)
        if case.endswith("two-blocks") or case == "red-1e110":
            assert not fv.valid.any()

    def test_sum_that_overflows_from_finite_terms_gives_invalid_entries(self):
        # a real k=1 vector times 2^236: every expanded term is finite, but one
        # range's exactly rounded sum passes the float maximum and fsum raises
        moments = np.ldexp(moment_tables(blob_image(0, size=24))[1], 236)
        prog = compiled_catalogue()
        factors = np.append(moments, 1.0)[prog.factors]
        terms = prog.coefficients * factors[0]
        for row in factors[1:]:
            terms = terms * row
        assert np.isfinite(terms).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = core_sums(moments)
            values, valid = evaluate_table(moments)
        assert sums.shape == (26,) and np.isnan(sums).all()
        assert valid.shape == (25,) and not valid.any() and not values.any()


# ---------------------------------------------------------------------------
# exactly rounded core sums: one vectorised pass equals math.fsum range by range


def _runs(lengths):
    """The starts, lengths and scales 2^M (M least with 2^M >= n + 2) of runs laid end to end."""
    lengths = np.array(lengths, dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.intp)
    return starts, lengths, np.array([2.0 ** (int(n) + 1).bit_length() for n in lengths])


def _fsum_runs(terms, lengths):
    """math.fsum of each run, nan where fsum raises."""
    sums, lo = [], 0
    for n in lengths:
        try:
            sums.append(math.fsum(terms[lo : lo + n]))
        except OverflowError:
            sums.append(math.nan)
        lo += n
    return np.array(sums)


def _same_bits(a, b):
    """Equal bit for bit, every nan counting as one value."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(np.isnan(a), np.isnan(b)) and np.array_equal(
        a[~np.isnan(a)].view(np.int64), b[~np.isnan(b)].view(np.int64)
    )


def _kernel(terms, lengths):
    return compiled._exact_sums(np.array(terms, dtype=np.float64), *_runs(lengths))


class _CountingMath:
    """The math module, counting the calls of math.fsum."""

    def __init__(self):
        self.fsum_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        self.fsum_calls += 1
        return math.fsum(values)


@st.composite
def term_runs(draw):
    """One to three runs of 1 to 400 finite terms (the catalogue's longest run
    holds 372): magnitudes from subnormal up to 2^1015 over a span of 0 to all
    2,089 binades, of mixed signs or all of one sign, with exact x, -x pairs
    and signed zeros mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 400))
        top = draw(st.integers(-1073, 1015))
        span = draw(st.sampled_from([0, 3, 11, 34, 60, 200, 2089]))
        t = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(max(top - span, -1073), top + 1, n))
        t *= rng.choice(draw(st.sampled_from([[-1.0, 1.0], [1.0], [-1.0]])), n)
        half = n // 2
        pairs = rng.random(half) < draw(st.sampled_from([0.0, 0.5, 1.0]))
        t[half : 2 * half][pairs] = -t[:half][pairs]
        zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))
        t[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
        runs.append(rng.permutation(t))
    return runs


class TestExactSums:
    @settings(max_examples=300, deadline=None)
    @given(term_runs())
    def test_equals_fsum_of_each_run(self, runs):
        terms = np.concatenate(runs)
        lengths = [len(r) for r in runs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _same_bits(_kernel(terms, lengths), _fsum_runs(terms.tolist(), lengths))

    @pytest.mark.parametrize(
        "terms, expected",
        [
            # three binades 53 apart: 1 + 2^-53 ties to 1, but 2^-106 lifts the exact sum past the tie
            ([1.0, 2.0**-53, 2.0**-106], 1.0 + 2.0**-52),
            ([2.0**-106, -1.0, 2.0**-53], -1.0 + 2.0**-53),
            ([2.0**600, 1.0, 2.0**-600, -(2.0**600)], 1.0),
            ([5e-324, 1.0, 2.0**-1000], 1.0),
        ],
    )
    def test_more_than_two_levels_are_rounded_by_fsum(self, terms, expected, monkeypatch):
        spy = _CountingMath()
        monkeypatch.setattr(compiled, "math", spy)
        got = _kernel(terms + [3.0, -3.0], [len(terms), 2])
        assert _same_bits(got, [expected, 0.0]) and _same_bits(got, _fsum_runs(terms + [3.0, -3.0], [len(terms), 2]))
        assert spy.fsum_calls == 2  # once per run

    @pytest.mark.parametrize(
        "terms, expected",
        [
            ([2.0**1020, 1.0, -(2.0**1020)], 1.0),
            ([2.0**1023, 2.0**1022, -(2.0**1023)], 2.0**1022),
            ([1e308, 1e308], math.nan),  # fsum raises: the sum passes the float range
            ([1e308, math.inf], math.nan),
            ([math.nan, 1.0], math.nan),
            ([math.inf, -math.inf], math.nan),
        ],
    )
    def test_runs_past_the_sigma_range_are_summed_aside(self, terms, expected, monkeypatch):
        # sigma = 2^(M + e) would pass the float range, or a term is not
        # finite: that run is summed by fsum alone, and the other runs are not
        spy = _CountingMath()
        monkeypatch.setattr(compiled, "math", spy)
        got = _kernel([0.5, 0.25] + terms + [-0.0], [2, len(terms), 1])
        assert _same_bits(got, [0.75, expected, 0.0])
        assert spy.fsum_calls == (1 if all(map(math.isfinite, terms)) else 0)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("scale", [-236, -100, 0, 100, 234, 236])
    def test_core_sums_equal_fsum_of_each_range(self, k, scale, monkeypatch):
        # real tables times 2^scale: the k=1 table's largest term reaches 2^1014
        # at 2^234, so some of its ranges are summed aside, and at 2^236 one
        # range's sum passes the float range and every sum reads nan
        moments = np.ldexp(moment_tables(blob_image(0, size=24))[k], scale)
        prog = compiled_catalogue()
        factors = np.append(moments, 1.0)[prog.factors]
        terms = prog.coefficients * factors[0]
        for row in factors[1:]:
            terms = terms * row
        expected = _fsum_runs(terms.tolist(), np.diff(prog.bounds))
        if np.isnan(expected).any():
            expected[:] = np.nan
        spy = _CountingMath()
        monkeypatch.setattr(compiled, "math", spy)
        assert _same_bits(core_sums(moments), expected)
        assert (spy.fsum_calls > 0) == (k == 1 and scale >= 234)

    def test_both_tables_in_one_pass_equal_each_alone(self):
        k0, k1 = moment_tables(disk_masked_image(13, size=128, radius_frac=0.26))
        for tables in ([k0, k1], [k1, np.zeros(75)], [np.full(75, np.inf), k0]):
            together = compiled.core_sum_rows(tables)
            assert together.shape == (2, 26)
            for moments, sums in zip(tables, together):
                assert _same_bits(sums, core_sums(moments))
        assert _same_bits(compiled.core_sum_rows([k1, np.zeros(75)])[1], np.zeros(26))
        assert np.isnan(compiled.core_sum_rows([np.full(75, np.inf), k0])[0]).all()

    def test_run_tables(self):
        prog = compiled_catalogue()
        lengths = np.tile(np.diff(prog.bounds), 2)
        assert prog.run_lengths.tolist() == lengths.tolist()
        assert prog.run_starts.tolist() == [0, *np.cumsum(lengths)[:-1]]
        assert (prog.run_scales >= lengths + 2).all()
        assert (prog.run_scales / 2 < lengths + 2).all()
        assert (np.frexp(prog.run_scales)[0] == 0.5).all()


class TestNormaliserRange:
    @pytest.mark.parametrize("scale", [-200, -100, 100, 233])
    def test_normaliser_out_of_float_range_gives_invalid_entries(self, scale):
        # the k=1 vector of a 24 px blob times 2^scale: below, m00**e * D2**d
        # underflowed to 0 and the division raised a bare ZeroDivisionError;
        # above, m00**e raised a bare OverflowError
        base = moment_tables(blob_image(0, size=24))[1]
        expected, expected_ok = evaluate_table(base)
        assert expected_ok.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, valid = evaluate_table(np.ldexp(base, scale))
        assert values.shape == valid.shape == (25,) and valid.dtype == bool
        assert not valid.all() and np.isfinite(values).all() and not values[~valid].any()
        # a numerator of r moments over m00**e * D2**d, D2 of 3 moments, is
        # 2^(scale * (r - e - 3d)) times the entry of the unscaled vector
        assert valid.any() == (scale in (-100, 100))
        for spec, value, ok, reference in zip(catalogue_specs(), values, valid, expected):
            if ok:
                r = len(spec.numerator.terms[0].factors)
                shift = scale * (r - float(spec.area_exponent) - 3 * float(spec.denom_exponent))
                assert value / reference > 0 and abs(math.log2(value / reference) - shift) <= 1e-11

    @pytest.mark.parametrize("log2_m00, log2_shape", [(-223, 0), (-231, -200)])
    def test_m00_far_below_a_pixel_count_gives_invalid_entries(self, log2_m00, log2_shape):
        # the k=1 vector of a 24 px blob with m00 set to 2^-223: m00**4.5 is
        # normal, but the quotients pass the float range. With m00 at 2^-231
        # and every moment of a shape power scaled by 2^-200, the quotients
        # are finite and m00**4.5 * D2**0.5 is normal, but m00**4.5 is
        # subnormal, so it has lost bits
        prog = compiled_catalogue()
        moments = moment_tables(blob_image(0, size=24))[1].copy()
        moments[[idx.p + idx.q > 0 for idx in prog.indices]] *= 2.0**log2_shape
        moments[0] = 2.0**log2_m00
        *nums, d2 = core_sums(moments).tolist()
        area = float(moments[0]) ** 4.5
        assert (area >= sys.float_info.min) == (log2_shape == 0)
        assert sys.float_info.min <= area * d2**0.5 <= sys.float_info.max
        assert (abs(nums[0] / (area * d2**0.5)) <= sys.float_info.max) == (log2_shape != 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, valid = evaluate_table(moments)
        assert not valid.any() and not values.any()

    def test_malformed_moment_vector_raises_typed_error(self):
        for bad in (np.zeros(74), np.zeros((2, 75)), np.zeros(75, dtype=complex), None, "moments"):
            with pytest.raises(InvalidImage):
                evaluate_table(bad)


def _gram_vector(base, x):
    """``base`` with its colour second moments set to the Gram matrix diag(1, 1, x)."""
    v = base.copy()
    for idx, value in [((0, 0, 2, 0, 0), 1.0), ((0, 0, 0, 2, 0), 1.0), ((0, 0, 0, 0, 2), x)]:
        v[slot(MomentIndex(*idx))] = value
    for idx in [(0, 0, 1, 1, 0), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)]:
        v[slot(MomentIndex(*idx))] = 0.0
    return v


class TestDegeneracyFloor:
    def test_hand_computed_level(self):
        assert engine.DEGENERACY_EPS == 1e-12
        assert engine.degeneracy_floor(10.0, [3.0, 3.0, 3.0]) == 1e-12 * 10**3 * 0.3**3
        assert engine.degeneracy_floor(10.0, [-3.0, 0.0, 0.0]) == 0.0
        assert engine.degeneracy_floor(0.0, [3.0, 3.0, 3.0]) == engine.degeneracy_floor(-1.0, [1.0] * 3) == math.inf
        assert engine.degeneracy_floor(1e200, [1e200] * 3) == math.inf

    def test_core_just_above_or_below_the_floor_flips_every_entry(self):
        # with the Gram matrix diag(1, 1, x), D2 = 6x and the floor is
        # 1e-12 * ((2 + x) / 3)^3, so D2 meets it near x = 1e-12 * 8 / 162
        base = moment_tables(random_image(9, 12, 12))[0]
        prog = compiled_catalogue()

        def above(x):
            v = _gram_vector(base, x)
            return core_sums(v)[-1] > engine.degeneracy_floor(v[0], v[list(prog.squares)].tolist())

        lo, hi = 0.0, 1.0
        while np.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        assert abs(hi - 1e-12 * 8 / 162) <= 1e-9 * hi
        _, valid_below = evaluate_table(_gram_vector(base, lo))
        _, valid_above = evaluate_table(_gram_vector(base, hi))
        assert not valid_below.any() and valid_above.all()


# ---------------------------------------------------------------------------
# full affine invariance, exactly, on the point set


def _rotation(rng, dim):
    """A random rotation of R^dim, det +1."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _random_map(rng, dim, max_condition):
    """Rotation times diagonal times rotation: det > 0, condition under max_condition."""
    s = np.exp(rng.uniform(0.0, np.log(max_condition), dim))
    return _rotation(rng, dim) @ np.diag(s) @ _rotation(rng, dim)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("seed", range(6))
def test_point_set_full_affine_invariance(seed, k):
    """The moments are sums over points, so the paper's invariance holds on
    the point set with no resampling. Each domain point's coordinates are
    mapped by A (a shear in general, det 2) and its channels by M; it then
    stands for an area of det A, so the mapped moment vector is multiplied by
    det A. At k=0 the channels also take an offset and are recentred; at k=1
    the radial channel x·∇C is unchanged by a linear map of the coordinates,
    so only M acts on it. This is the exact check of the k=1 area exponents."""
    img = disk_masked_image(seed, size=48, radius_frac=0.3) if seed % 2 else blob_image(seed, size=32)
    rng = np.random.default_rng([seed, k])
    xc, yc, *channels = centred_values(img, k)
    a = _random_map(rng, 2, 5.0)
    a *= np.sqrt(2.0 / np.linalg.det(a))
    coords = a @ np.stack([xc, yc])
    coords -= coords.mean(axis=1, keepdims=True)
    colours = _random_map(rng, 3, 10.0) @ np.stack(channels)
    if k == 0:
        colours += rng.uniform(-0.3, 0.3, (3, 1))
        colours -= colours.mean(axis=1, keepdims=True)
    ref, ok = evaluate_table(moment_vector((xc, yc, *channels)))
    mapped = moment_vector((*coords, *colours))
    got, got_ok = evaluate_table(np.linalg.det(a) * mapped)
    assert ok.any() and got_ok.tolist() == ok.tolist()
    assert relative_deviation(ref, got)[ok].max() <= ORACLE_TOL
    # negative control: without the area factor every valid entry moves
    off, off_ok = evaluate_table(mapped)
    assert off_ok.tolist() == ok.tolist()
    assert relative_deviation(ref, off)[ok].min() > 1.0


_OPENBLAS = pytest.mark.skipif(
    np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].find("openblas") < 0,
    reason="only OpenBLAS reads OPENBLAS_NUM_THREADS, so both runs would share one configuration",
)


@_OPENBLAS
def test_features_do_not_depend_on_blas_threads(parallelism_probe):
    # nothing in scdmi50 may depend on how many threads numpy's BLAS runs: a
    # 128 px disk, and a 272 px frame and a 512 px disk of more than 2^16
    # pixels, each in the probe's fresh process per thread count
    runs = [parallelism_probe("all", threads)["frames"] for threads in ("1", "2")]
    assert len(runs[0]) == 3 and runs[0] == runs[1]


@_OPENBLAS
def test_verify_report_does_not_depend_on_blas_threads(parallelism_probe):
    # the oracle runs its matrix-shaped contraction steps as np.matmul, a
    # BLAS product, and the rest in numpy's C einsum loop: verify writes the
    # same report at seed 3 byte for byte whatever the number of BLAS threads
    reports = [parallelism_probe("all", threads)["verify"] for threads in ("1", "2")]
    assert len(reports[0]) == 323 and reports[0] == reports[1]


# ---------------------------------------------------------------------------
# moment_tables: the k=1 pass beside the k=0 pass on masks of more than a leaf


def _large_images():
    return [blob_image(11, size=272), disk_masked_image(16, size=512, radius_frac=0.45)]


@pytest.mark.parametrize("img", _large_images(), ids=["full-272px", "disk-512px"])
def test_concurrent_tables_equal_each_pass(img, monkeypatch):
    # with more than one CPU the k=1 pass runs off the calling thread, and
    # either way scdmi50 reads each pass exactly as it is computed alone
    assert img.mask.sum() > LEAF
    off_main = []
    source = engine._DomainSource

    def spy(img, k):
        if k == 1:
            off_main.append(threading.current_thread() is not threading.main_thread())
        return source(img, k)

    monkeypatch.setattr(engine, "_DomainSource", spy)
    fv = scdmi50(img)
    assert off_main == [engine._cpu_count() > 1]
    expected = [evaluate_table(moment_vector(centred_values(img, k))) for k in (0, 1)]
    values = np.concatenate([v for v, _ in expected])
    assert np.array_equal(fv.values.view(np.int64), values.view(np.int64))
    assert fv.valid.tolist() == np.concatenate([ok for _, ok in expected]).tolist()


def test_k1_error_propagates_with_its_type(monkeypatch):
    # a failure in the pass off the calling thread (k=1) or on it (k=0)
    # reaches the caller with its type, and no worker thread outlives it
    source = engine._DomainSource
    img = _large_images()[0]

    class K0Failure(Exception):
        pass

    for failing_k, error in ((1, RuntimeError), (0, K0Failure)):

        def failing(img, k):
            if k == failing_k:
                raise error(f"k={k} centring failed")
            return source(img, k)

        monkeypatch.setattr(engine, "_DomainSource", failing)
        threads = threading.active_count()
        with pytest.raises(error, match=f"k={failing_k} centring failed"):
            scdmi50(img)
        assert threading.active_count() == threads


def test_large_mask_that_erosion_empties():
    # 4-pixel stripes, 4 apart: more than a leaf of pixels, none of them
    # with the stencil's whole cross on the mask
    img = random_image(17, 272, 272)
    img.mask[:] = (np.arange(272) // 4 % 2 == 0)[None, :]
    assert img.mask.sum() > LEAF and not stencil_eroded_mask(img.mask).any()
    assert not moment_tables(img)[1].any()
    fv = scdmi50(img)
    assert fv.valid[:25].all() and not fv.valid[25:].any()
    values, _ = evaluate_table(moment_vector(centred_values(img, 0)))
    assert np.array_equal(fv.values[:25].view(np.int64), values.view(np.int64))


# ---------------------------------------------------------------------------
# the domain source: moment_tables streams each pass's centred values leaf by leaf


def _raster_domain(n, width, gaps=()):
    """A frame whose domain is n pixels filled in raster order into rows
    ``width`` wide, from row 4 and column 3; rows 4 + g for g in ``gaps``
    stay empty."""
    count = -(-n // width)
    rows = [4 + r for r in range(count + len(gaps)) if r not in gaps][:count]
    domain = np.zeros((rows[-1] + 5, width + 8), bool)
    domain[rows, 3 : 3 + width] = True
    domain[rows[-1], 3 + width - (len(rows) * width - n) :] = False
    return domain


def _stream_case(n, k, width, gaps=()):
    """A random image whose k-domain is exactly ``_raster_domain(n, width, gaps)``."""
    domain = _raster_domain(n, width, gaps)
    mask = domain.copy()
    if k == 1:
        # the stencil's cross around every domain pixel, which erodes back to the domain
        for d in (1, 2):
            mask[d:] |= domain[:-d]
            mask[:-d] |= domain[d:]
            mask[:, d:] |= domain[:, :-d]
            mask[:, :-d] |= domain[:, d:]
        assert np.array_equal(stencil_eroded_mask(mask), domain)
    return RasterImage(np.random.default_rng(n + k).uniform(0.0, 1.0, (3, *mask.shape)), mask)


def _spy_leaves(monkeypatch):
    """Record each (lo, hi) that a domain source is asked for, per k."""
    spans = {0: [], 1: []}
    values = engine._DomainSource.values

    def spy(self, lo, hi):
        spans[self.k].append((lo, hi))
        return values(self, lo, hi)

    monkeypatch.setattr(engine._DomainSource, "values", spy)
    return spans


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize(
    "n, width, gaps",
    [
        (LEAF - 1, 300, ()),
        (LEAF, 300, (*range(7, 12), *range(50, 55))),
        (LEAF + 1, 300, ()),
        (BLOCK - 1, 300, range(1, 6)),
        (BLOCK + 1, 300, range(108, 113)),
        (2 * BLOCK + 1, 300, (*range(2, 7), *range(300, 305))),
        (LEAF + 1, 5, range(6000, 6005)),
    ],
    ids=["leaf-1", "leaf-gaps", "leaf+1", "block-1", "block+1-gaps", "2block+1-gaps", "strip-5px"],
)
def test_streamed_moments_equal_whole_arrays(n, width, gaps, k, monkeypatch):
    # leaf and block boundaries fall mid-row (300 and 5 divide no power of
    # two), runs of 5 empty rows, which erosion keeps empty, sit inside the
    # box, and at k=1 the first and last leaves' halo rows are the box's top
    # and bottom rows; the pass asks for the pixels in order, a leaf at a time
    img = _stream_case(n, k, width, gaps)
    spans = _spy_leaves(monkeypatch)
    streamed = engine._moments(img, k)
    los, his = zip(*spans[k])
    assert los[0] == 0 and his[-1] == n and los[1:] == his[:-1]
    assert max(hi - lo for lo, hi in spans[k]) <= LEAF
    for whole in (centred_values(img, k), _plane_centred(img, k)):
        assert whole[0].size == n
        assert np.array_equal(streamed.view(np.int64), moment_vector(whole).view(np.int64))


def test_working_set_does_not_grow_with_the_image():
    # one scdmi50 on a 512 px frame holds about one leaf per pass, not the
    # five centred arrays of both passes (about 27 MB at 512 px)
    img = blob_image(19, size=512)
    scdmi50(img)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scdmi50(img)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
