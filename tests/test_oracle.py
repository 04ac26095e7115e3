import numpy as np
import pytest

from scdmi.algebra import CoreSpec, catalogue_specs
from scdmi.engine import RasterImage, compiled_catalogue, evaluate_invariant, moment_tables
from scdmi.errors import Degenerate, TooLarge
from scdmi.oracle import brute_force_core_integral, brute_force_invariant
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
