import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdmi.algebra import MomentIndex, catalogue_specs
from scdmi.engine import (
    ChannelSet,
    MomentTable,
    RasterImage,
    centroid_and_means,
    compiled_catalogue,
    compute_moment_table,
    derivative_channels,
    evaluate_invariant,
    f1_channels,
    masked_centroid,
    moment_tables,
    raw_channels,
    required_indices,
    scdmi50,
    stable_sum,
    stencil_eroded_mask,
)
from scdmi.errors import EmptyDomain, TooSmall
from scdmi.synthetic import blob_image, disk_masked_image
from scdmi.transforms import ShapeAffine, apply_shape_affine


def random_image(seed, h, w):
    rng = np.random.default_rng(seed)
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)))


class TestCentroid:
    def test_full_mask_5x3(self):
        img = RasterImage.from_array(np.zeros((3, 5, 3)))
        xbar, ybar, *_ = centroid_and_means(img)
        assert (xbar, ybar) == (2.0, 1.0)

    def test_constant_channels(self):
        img = RasterImage.from_array(np.full((4, 4, 3), 0.25))
        _, _, rbar, gbar, bbar = centroid_and_means(img)
        assert (rbar, gbar, bbar) == (0.25, 0.25, 0.25)

    def test_empty_mask(self):
        img = RasterImage.from_array(np.zeros((4, 4, 3)), mask=np.zeros((4, 4), bool))
        with pytest.raises(EmptyDomain):
            centroid_and_means(img)


class TestDerivatives:
    def test_ramp_derivative_is_12(self):
        h, w = 7, 9
        x = np.tile(np.arange(w, dtype=float), (h, 1))
        img = RasterImage(x, x, x, np.ones((h, w), bool))
        ddx, ddy, eroded = derivative_channels(img)
        assert np.allclose(ddx[0][eroded], 12.0)
        assert np.allclose(ddy[0][eroded], 0.0)

    def test_constant_channel_zero_derivative(self):
        img = RasterImage.from_array(np.full((6, 6, 3), 0.7))
        ddx, ddy, eroded = derivative_channels(img)
        # the stencil of a constant cancels to rounding noise
        assert np.allclose(ddx[:, eroded], 0.0, atol=1e-13)
        assert np.allclose(ddy[:, eroded], 0.0, atol=1e-13)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            derivative_channels(RasterImage.from_array(np.zeros((4, 4, 3))))

    def test_eroded_mask_margin(self):
        mask = np.ones((8, 8), bool)
        eroded = stencil_eroded_mask(mask)
        expected = np.zeros((8, 8), bool)
        expected[2:6, 2:6] = True
        assert np.array_equal(eroded, expected)


class TestF1Channels:
    def test_linear_ramp_gives_12_xc(self):
        h = w = 9
        x = np.tile(np.arange(w, dtype=float), (h, 1))
        img = RasterImage(x, x, x, np.ones((h, w), bool))
        _, _, eroded = derivative_channels(img)
        xbar, ybar = masked_centroid(eroded)
        cs = f1_channels(img, xbar, ybar)
        xc = np.tile(np.arange(w, dtype=float), (h, 1)) - xbar
        assert np.allclose(cs.red[eroded], 12.0 * xc[eroded])

    def test_euler_relation_on_radial_quadratic(self):
        # the stencil is exact on quadratics, so F1 of |P - center|^2 equals
        # 12 * 2 * C on the eroded domain
        h = w = 11
        yy, xx = np.mgrid[0:h, 0:w].astype(float)
        mask = np.ones((h, w), bool)
        eroded = stencil_eroded_mask(mask)
        xbar, ybar = masked_centroid(eroded)
        c = (xx - xbar) ** 2 + (yy - ybar) ** 2
        img = RasterImage(c, c, c, mask)
        cs = f1_channels(img, xbar, ybar)
        assert np.allclose(cs.red[eroded], 24.0 * c[eroded], rtol=1e-12)

    def test_means_are_zero(self):
        cs = f1_channels(random_image(0, 7, 7), 3.0, 3.0)
        assert cs.means == (0.0, 0.0, 0.0)
        assert cs.k == 1


class TestMomentTable:
    def test_m00_is_masked_count(self):
        img = random_image(1, 6, 7)
        img.mask[0, :] = False
        cs, xbar, ybar = raw_channels(img)
        table = compute_moment_table(cs, xbar, ybar, [MomentIndex(0, 0, 0, 0, 0)])
        assert table.m00 == 35.0
        assert table.entries[MomentIndex(0, 0, 0, 0, 0)] == 35.0

    def test_first_central_moments_vanish(self):
        img = random_image(2, 8, 8)
        cs, xbar, ybar = raw_channels(img)
        table = compute_moment_table(
            cs, xbar, ybar, [MomentIndex(1, 0, 0, 0, 0), MomentIndex(0, 1, 0, 0, 0)]
        )
        assert abs(table.entries[MomentIndex(1, 0, 0, 0, 0)]) <= 1e-9 * table.m00
        assert abs(table.entries[MomentIndex(0, 1, 0, 0, 0)]) <= 1e-9 * table.m00

    def test_against_naive_double_loop(self):
        img = random_image(3, 8, 8)
        cs, xbar, ybar = raw_channels(img)
        required = sorted(required_indices(0))
        table = compute_moment_table(cs, xbar, ybar, required)
        rbar, gbar, bbar = cs.means
        for idx in required:
            total = 0.0
            for y in range(8):
                for x in range(8):
                    total += (
                        (x - xbar) ** idx.p
                        * (y - ybar) ** idx.q
                        * (img.red[y, x] - rbar) ** idx.alpha
                        * (img.green[y, x] - gbar) ** idx.beta
                        * (img.blue[y, x] - bbar) ** idx.gamma
                    )
            assert table.entries[idx] == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestEvaluate:
    def test_grayscale_gives_invalid(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(0, 1, (6, 6))
        img = RasterImage(g, g.copy(), g.copy(), np.ones((6, 6), bool))
        fv = scdmi50(img)
        assert not fv.valid.any()
        assert np.all(fv.values == 0.0)
        assert np.isfinite(fv.values).all()

    def test_constant_gives_invalid(self):
        img = RasterImage.from_array(np.full((8, 8, 3), 0.4))
        fv = scdmi50(img)
        assert not fv.valid.any()
        assert np.isfinite(fv.values).all()

    def test_too_small_image(self):
        with pytest.raises(TooSmall):
            scdmi50(RasterImage.from_array(np.zeros((4, 9, 3))))

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
        # valid=False exactly when the quadratic core underflows its floor
        img = random_image(9, 7, 7)
        t0, t1 = moment_tables(img)
        for spec in catalogue_specs():
            value, ok = evaluate_invariant(spec, t0 if spec.k == 0 else t1)
            assert ok
            assert np.isfinite(value)


@given(st.integers(0, 10000), st.integers(5, 9), st.integers(5, 9))
@settings(max_examples=25, deadline=None)
def test_moment_table_matches_naive_on_random_images(seed, h, w):
    img = random_image(seed, h, w)
    cs, xbar, ybar = raw_channels(img)
    idx = MomentIndex(2, 1, 1, 0, 0)
    table = compute_moment_table(cs, xbar, ybar, [idx])
    xs = np.arange(w) - xbar
    ys = np.arange(h) - ybar
    naive = float(
        np.sum(
            xs[None, :] ** 2 * ys[:, None] ** 1 * (img.red - cs.means[0])
        )
    )
    assert table.entries[idx] == pytest.approx(naive, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# summation policy: pairwise sums of 2^16-element blocks merged by fsum

BLOCK = 1 << 16


def _ill_conditioned(seed, n):
    """Terms spread over 16 decades whose exact sum nearly cancels to zero."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    x[-1] -= math.fsum(x)
    return x


def _grayscale(seed, n):
    """Equal channels: the quadratic core vanishes, so all 50 entries are invalid."""
    g = np.random.default_rng(seed).uniform(0.0, 1.0, (n, n))
    return RasterImage(g, g.copy(), g.copy(), np.ones((n, n), bool))


def _centred(cs, xbar, ybar):
    """(xc, yc, rc, gc, bc) over the masked pixels of a channel set."""
    ys, xs = np.nonzero(cs.mask)
    return [xs - xbar, ys - ybar] + [
        plane[cs.mask] - m for plane, m in zip((cs.red, cs.green, cs.blue), cs.means)
    ]


def _whole_array_table(cs, xbar, ybar, k):
    """Moment table summed by one np.sum over each whole product vector, the
    powers built by repeated multiplication in axis order."""
    base = _centred(cs, xbar, ybar)
    npix = float(base[0].size)
    entries = {}
    for idx in required_indices(k):
        vec = None
        for b, e in zip(base, idx):
            if e:
                p = b
                for _ in range(e - 1):
                    p = p * b
                vec = p if vec is None else vec * p
        entries[idx] = npix if vec is None else float(np.sum(vec))
    return MomentTable(k, entries, npix, (xbar, ybar))


class TestStableSum:
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK])
    def test_one_block_is_plain_numpy_sum(self, n):
        x = np.random.default_rng(n).standard_normal(n) * 1e3
        assert stable_sum(x) == float(np.sum(x))

    @pytest.mark.parametrize("n", [BLOCK + 1, 3 * BLOCK + 7])
    def test_error_bound_across_blocks(self, n):
        x = _ill_conditioned(n, n)
        assert abs(stable_sum(x) - math.fsum(x)) <= 1e-14 * float(np.sum(np.abs(x)))

    def test_empty(self):
        assert stable_sum(np.zeros(0)) == 0.0

    @pytest.mark.parametrize("k", [0, 1])
    def test_moment_table_above_one_block(self, k):
        img = blob_image(11, size=272)
        if k == 0:
            cs, xbar, ybar = raw_channels(img)
        else:
            xbar, ybar = masked_centroid(stencil_eroded_mask(img.mask))
            cs = f1_channels(img, xbar, ybar)
        assert np.count_nonzero(cs.mask) > BLOCK
        table = compute_moment_table(cs, xbar, ybar, required_indices(k))
        base = _centred(cs, xbar, ybar)
        for idx, value in table.entries.items():
            if not any(idx):
                assert value == table.m00 == float(base[0].size)
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
        # the path before block sums and the single stencil pass: one np.sum
        # per moment, on the mask that derivative_channels erodes
        cs0, xbar, ybar = raw_channels(img)
        t0 = _whole_array_table(cs0, xbar, ybar, 0)
        _, _, eroded = derivative_channels(img)
        x1, y1 = masked_centroid(eroded)
        t1 = _whole_array_table(f1_channels(img, x1, y1), x1, y1, 1)
        expected = [evaluate_invariant(s, t0 if s.k == 0 else t1) for s in catalogue_specs()]
        fv = scdmi50(img)
        assert img.mask.sum() <= BLOCK
        assert np.array_equal(fv.values.view(np.int64), np.array([v for v, _ in expected]).view(np.int64))
        assert fv.valid.tolist() == [ok for _, ok in expected]


# ---------------------------------------------------------------------------
# compiled evaluation: one gather-product per table against the spec-by-spec path


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
        assert prog.bounds[25] == sum(len(s.numerator) for s in catalogue_specs()[:25]) == 2202
        assert prog.indices == tuple(sorted(required_indices(0))) == tuple(sorted(required_indices(1)))

    @pytest.mark.parametrize(
        "img", [blob_image(11, size=272), _stripe_image(16)], ids=["full-272px", "stripe-eroded-empty"]
    )
    def test_bit_identical_to_evaluate_invariant(self, img):
        t0, t1 = moment_tables(img)
        expected = [
            (0.0, False) if table is None else evaluate_invariant(s, table)
            for s in catalogue_specs()
            for table in [t0 if s.k == 0 else t1]
        ]
        fv = scdmi50(img)
        assert np.array_equal(fv.values.view(np.int64), np.array([v for v, _ in expected]).view(np.int64))
        assert fv.valid.tolist() == [ok for _, ok in expected]
        if t1 is None:
            assert fv.valid[:25].all() and not fv.valid[25:].any()
        else:
            assert img.mask.sum() > BLOCK and fv.valid.all()

    @pytest.mark.parametrize("case", ["inf-pixel", "channels-1e60"])
    def test_overflow_gives_invalid_entries(self, case):
        img = blob_image(1, size=64)
        if case == "inf-pixel":
            img.red[32, 32] = np.inf
        else:
            img = RasterImage(img.red * 1e60, img.green * 1e60, img.blue * 1e60, img.mask)
        fv = scdmi50(img)
        assert np.isfinite(fv.values).all()
        assert np.all(fv.values[~fv.valid] == 0.0)
