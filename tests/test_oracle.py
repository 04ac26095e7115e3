from itertools import permutations

import numpy as np
import pytest

from scdmi import verify as verify_mod
from scdmi.algebra import _PERM_SIGNS, CoreSpec, catalogue_specs
from scdmi.engine import (
    FeatureVector,
    RasterImage,
    centred_values,
    compiled_catalogue,
    evaluate_invariant,
    moment_tables,
    scdmi50,
    stable_sum,
)
from scdmi.errors import Degenerate, TooLarge
from scdmi.oracle import brute_force_core_integral, brute_force_features, brute_force_invariant
from scdmi.transforms import ShapeAffine, apply_shape_affine


def moment_maps(img):
    """The k=0 and k=1 moment vectors keyed by index."""
    return [dict(zip(compiled_catalogue().indices, v)) for v in moment_tables(img)]


def random_image(seed, h=6, w=6):
    rng = np.random.default_rng(seed)
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)))


DENOM_CORE = CoreSpec(color_triples=((1, 2, 3, 2),))


class TestBruteForceCore:
    def test_single_pixel_image_gives_zero(self):
        img = RasterImage.from_array(np.full((1, 1, 3), 0.5))
        spec = CoreSpec(shape_factors=((1, 2, 1), (1, 3, 2)), color_triples=((1, 2, 3, 1),), k=0)
        assert brute_force_core_integral(img, spec) == 0.0

    def test_denominator_core_nonnegative(self):
        for seed in range(4):
            img = random_image(seed)
            assert brute_force_core_integral(img, DENOM_CORE) >= 0.0

    def test_empty_core_is_pixel_count(self):
        img = random_image(1)
        assert brute_force_core_integral(img, CoreSpec()) == 36.0

    def test_tuple_guard(self):
        img = random_image(0, 60, 60)
        spec = catalogue_specs()[5].source  # 4 integration points
        with pytest.raises(TooLarge):
            brute_force_core_integral(img, spec)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_specs_match_polynomial_path(self, seed):
        img = random_image(seed)
        t0, t1 = moment_maps(img)
        for spec in catalogue_specs():
            table = t0 if spec.k == 0 else t1
            bf = brute_force_core_integral(img, spec.source)
            poly = spec.numerator.evaluate(table)
            assert abs(poly - bf) <= 1e-9 * max(1.0, abs(bf))

    def test_denominator_matches_both_k(self):
        img = random_image(2)
        t0, t1 = moment_maps(img)
        from scdmi.algebra import denominator_polynomial

        for k, table in ((0, t0), (1, t1)):
            bf = brute_force_core_integral(img, CoreSpec(color_triples=((1, 2, 3, 2),), k=k))
            poly = denominator_polynomial().evaluate(table)
            assert abs(poly - bf) <= 1e-9 * max(1.0, abs(bf))

    def test_invariant_values_match(self):
        img = random_image(3)
        t0, t1 = moment_maps(img)
        for spec in catalogue_specs():
            table = t0 if spec.k == 0 else t1
            value, ok = evaluate_invariant(spec, table)
            assert ok
            reference = brute_force_invariant(img, spec)
            assert abs(value - reference) <= 1e-9 * max(1.0, abs(reference))


class TestBruteForceInvariant:
    def test_grayscale_is_degenerate(self):
        rng = np.random.default_rng(4)
        g = rng.uniform(0, 1, (6, 6))
        img = RasterImage(g, g.copy(), g.copy(), np.ones((6, 6), bool))
        with pytest.raises(Degenerate):
            brute_force_invariant(img, catalogue_specs()[0])

    def test_quarter_turn_rotation_invariance(self):
        img = random_image(5, 7, 7)
        c = (7 - 1) / 2.0
        rot = ShapeAffine(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([2 * c, 0.0]))
        rotated = apply_shape_affine(img, rot)
        assert rotated.mask.all()
        for spec in catalogue_specs()[:6]:
            a = brute_force_invariant(img, spec)
            b = brute_force_invariant(rotated, spec)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def naive_core_sum(values, spec):
    """The whole integrand as one w**t tensor, each factor power multiplied in
    one at a time, then summed: the reference for the oracle's plan."""
    xc, yc, rc, gc, bc = values
    w, t = xc.size, spec.width

    def view(vec, axis):
        shape = [1] * t
        shape[axis - 1] = w
        return vec.reshape(shape)

    acc = np.ones((w,) * t)
    for i, j, exp in spec.shape_factors:
        for _ in range(exp):
            acc = acc * (view(xc, i) * view(yc, j) - view(yc, i) * view(xc, j))
    for p, q, r, exp in spec.color_triples:
        det = sum(
            sign * view(rc, a) * view(gc, b) * view(bc, c)
            for (a, b, c), sign in zip(permutations((p, q, r)), _PERM_SIGNS)
        )
        for _ in range(exp):
            acc = acc * det
    return stable_sum(acc), float(np.sum(np.abs(acc)))


def corner_masked_image(seed):
    """7x7 with its four corners masked off: 45 px at k=0, a 3x3 k=1 domain."""
    rng = np.random.default_rng(seed)
    mask = np.ones((7, 7), dtype=bool)
    mask[[0, 0, -1, -1], [0, -1, 0, -1]] = False
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(7, 7, 3)), mask)


class TestBruteForceFeatures:
    @pytest.mark.parametrize("img", [random_image(6), corner_masked_image(7)], ids=["6x6", "7x7-corners"])
    def test_equals_per_spec_invariant(self, img):
        fv = brute_force_features(img)
        assert fv.valid.all()
        for pos, spec in enumerate(catalogue_specs()):
            reference = brute_force_invariant(img, spec)
            assert abs(fv.values[pos] - reference) <= 1e-12 * abs(reference)

    def test_empty_erosion_and_grayscale_are_invalid(self):
        rgb = np.random.default_rng(8).uniform(0.0, 1.0, size=(6, 6, 3))
        mask = np.zeros((6, 6), dtype=bool)
        mask[:4] = True  # four rows: the stencil erosion leaves nothing
        stripe = RasterImage.from_array(rgb, mask)
        fv = brute_force_features(stripe)
        assert fv.valid[:25].all() and not fv.valid[25:].any()
        gray = RasterImage.from_array(rgb[:, :, :1].repeat(3, axis=2))
        assert not brute_force_features(gray).valid.any()

    def test_core_sum_matches_full_tensor(self):
        img = random_image(9, 4, 4)
        values = centred_values(img, 0)
        cores = [spec.source for spec in catalogue_specs()[:25]] + [
            DENOM_CORE,
            CoreSpec(),
            CoreSpec(shape_factors=((1, 2, 2),)),
            CoreSpec(shape_factors=((1, 3, 2),)),
            CoreSpec(shape_factors=((2, 3, 1),), color_triples=((1, 2, 4, 1),)),
        ]
        for spec in cores:
            reference, scale = naive_core_sum(values, spec)
            assert abs(brute_force_core_integral(img, spec) - reference) <= 1e-12 * scale


class TestOracleGate:
    def test_engine_matches_oracle_on_masked_domain(self):
        img = corner_masked_image(7)
        assert [centred_values(img, k)[0].size for k in (0, 1)] == [45, 9]
        fv, ref = scdmi50(img), brute_force_features(img)
        assert fv.valid.all() and ref.valid.all()
        assert verify_mod.oracle_deviations(fv.values, ref.values).max() <= verify_mod.ORACLE_TOL

    def test_one_percent_error_fails_every_nonzero_row(self, monkeypatch):
        honest = verify_mod.scdmi50

        def off_by_one_percent(img):
            fv = honest(img)
            return FeatureVector(fv.values * 1.01, fv.valid)

        monkeypatch.setattr(verify_mod, "scdmi50", off_by_one_percent)
        rows = verify_mod.oracle_suite(seed=0, n_images=5)
        nonzero = set()
        for i in range(5):
            ref = brute_force_features(random_image(i)).values
            for pos, spec in enumerate(catalogue_specs()):
                s_k = np.abs(ref[25 * spec.k : 25 * spec.k + 25]).max()
                if abs(ref[pos]) > 1e-12 * s_k:
                    nonzero.add((f"img{i}_inst{spec.id}", spec.k))
        assert len(nonzero) == 175
        assert {(r.id, r.k) for r in rows if not r.passed} == nonzero
