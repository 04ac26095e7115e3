import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from numpy._core import einsumfunc

from scdmi import oracle as oracle_mod
from scdmi import verify as verify_mod
from scdmi.algebra import _PERM_SIGNS, CoreSpec, catalogue_specs
from scdmi.engine import (
    FeatureVector,
    RasterImage,
    centred_values,
    core_sums,
    moment_tables,
    scdmi50,
    stable_sum,
)
from scdmi.errors import TooLarge
from scdmi.oracle import _contraction, brute_force_core_integral, brute_force_features
from scdmi.transforms import ShapeAffine, apply_shape_affine


def random_image(seed, h=6, w=6):
    rng = np.random.default_rng(seed)
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)))


DENOM_CORE = CoreSpec(color_triples=((1, 2, 3, 2),))


class TestBruteForceCore:
    def test_single_pixel_image_gives_zero(self):
        img = RasterImage.from_array(np.full((1, 1, 3), 0.5))
        spec = CoreSpec(shape_factors=((1, 2, 1), (1, 3, 2)), color_triples=((1, 2, 3, 1),))
        assert brute_force_core_integral(img, spec, 0) == 0.0

    def test_empty_k1_domain_gives_zero(self):
        # stencil erosion empties a 4x4 frame: every core, the pixel count
        # (the empty core) too, sums to 0 over no points
        img = random_image(2, 4, 4)
        for spec in (CoreSpec(), DENOM_CORE, catalogue_specs()[5].source):
            assert brute_force_core_integral(img, spec, 1) == 0.0

    def test_denominator_core_nonnegative(self):
        for seed in range(4):
            img = random_image(seed)
            assert brute_force_core_integral(img, DENOM_CORE, 0) >= 0.0

    def test_empty_core_is_pixel_count(self):
        img = random_image(1)
        assert brute_force_core_integral(img, CoreSpec(), 0) == 36.0

    def test_tuple_guard(self):
        img = random_image(0, 60, 60)
        spec = catalogue_specs()[5].source  # 4 integration points
        with pytest.raises(TooLarge):
            brute_force_core_integral(img, spec, 0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_specs_match_polynomial_path(self, seed):
        img = random_image(seed)
        sums = [core_sums(v) for v in moment_tables(img)]
        for k in (0, 1):
            for pos, spec in enumerate(catalogue_specs()):
                bf = brute_force_core_integral(img, spec.source, k)
                poly = sums[k][pos]
                assert abs(poly - bf) <= 1e-9 * max(1.0, abs(bf))

    def test_denominator_matches_both_k(self):
        img = random_image(2)
        for k, moments in enumerate(moment_tables(img)):
            bf = brute_force_core_integral(img, DENOM_CORE, k)
            poly = core_sums(moments)[-1]
            assert abs(poly - bf) <= 1e-9 * max(1.0, abs(bf))

    def test_invariant_values_match(self):
        img = random_image(3)
        fv, ref = scdmi50(img), brute_force_features(img)
        assert fv.valid.all() and ref.valid.all()
        for value, reference in zip(fv.values, ref.values):
            assert abs(value - reference) <= 1e-9 * max(1.0, abs(reference))


class TestBruteForceInvariant:
    """The brute-force invariants, as brute_force_features gives them."""

    def test_grayscale_is_degenerate(self):
        rng = np.random.default_rng(4)
        g = rng.uniform(0, 1, (6, 6))
        img = RasterImage(np.stack([g, g, g]), np.ones((6, 6), bool))
        fv = brute_force_features(img)
        assert not fv.valid.any()
        assert not fv.values.any()

    def test_overflow_gives_invalid_entries(self):
        # at 1e60 the colour determinant's square and the degeneracy floor
        # leave the float range: every entry comes back invalid, as from
        # scdmi50, with no warning and no OverflowError
        img = RasterImage(random_image(6).channels * 1e60, np.ones((6, 6), bool))
        fv = brute_force_features(img)
        assert not fv.valid.any() and not scdmi50(img).valid.any()
        assert not fv.values.any()

    def test_quarter_turn_rotation_invariance(self):
        img = random_image(5, 7, 7)
        c = (7 - 1) / 2.0
        rot = ShapeAffine(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([2 * c, 0.0]))
        rotated = apply_shape_affine(img, rot)
        assert rotated.mask.all()
        a, b = brute_force_features(img), brute_force_features(rotated)
        assert a.valid.all() and b.valid.all()
        for va, vb in zip(a.values, b.values):
            assert abs(va - vb) <= 1e-9 * max(1.0, abs(va))


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


def corner_masked_image(seed, size=7, cut=1):
    """size x size with a triangle of cut diagonals masked off at each corner:
    at size 7 and cut 1, 45 px at k=0 and a 3x3 k=1 domain; at size 9 and
    cut 3, 57 px at k=0 and a 21 px k=1 domain, a 5x5 square without its
    corners."""
    rng = np.random.default_rng(seed)
    mask = np.ones((size, size), dtype=bool)
    for i in range(cut):
        for j in range(cut - i):
            mask[[i, i, -1 - i, -1 - i], [j, -1 - j, j, -1 - j]] = False
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(size, size, 3)), mask)


class TestBruteForceFeatures:
    @pytest.mark.parametrize("img", [random_image(6), corner_masked_image(7)], ids=["6x6", "7x7-corners"])
    def test_equals_per_spec_invariant(self, img):
        # each entry against its own numerator core over n**e * D2**d, every
        # core summed on its own by brute_force_core_integral
        fv = brute_force_features(img)
        assert fv.valid.all()
        sizes = [centred_values(img, k)[0].size for k in (0, 1)]
        for k in (0, 1):
            d2 = brute_force_core_integral(img, DENOM_CORE, k)
            for pos, spec in enumerate(catalogue_specs(), start=25 * k):
                numer = brute_force_core_integral(img, spec.source, k)
                norm = float(sizes[k]) ** float(spec.area_exponent) * d2 ** float(spec.denom_exponent)
                reference = numer / norm
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
        cores = [spec.source for spec in catalogue_specs()] + [
            DENOM_CORE,
            CoreSpec(),
            CoreSpec(shape_factors=((1, 2, 2),)),
            CoreSpec(shape_factors=((1, 3, 2),)),
            CoreSpec(shape_factors=((2, 3, 1),), color_triples=((1, 2, 4, 1),)),
            CoreSpec(color_triples=((1, 2, 4, 1), (1, 3, 4, 1), (2, 3, 4, 1))),
        ]
        notched = np.ones((4, 4), dtype=bool)
        notched[0, 0] = notched[3, 1] = notched[1, 3] = False
        domains = [
            (random_image(9, 4, 4), 0, 16),
            (RasterImage.from_array(np.random.default_rng(10).uniform(0.0, 1.0, (4, 4, 3)), notched), 0, 13),
            (corner_masked_image(11), 1, 9),
        ]
        for img, k, size in domains:
            values = centred_values(img, k)
            assert values[0].size == size
            for spec in cores:
                reference, scale = naive_core_sum(values, spec)
                assert abs(brute_force_core_integral(img, spec, k) - reference) <= 1e-12 * scale

    def test_contractions_are_built_on_first_use(self):
        # importing scdmi builds no contraction; one brute_force_features call
        # builds each of the 26 cores' contractions once per domain size (36 px
        # at k=0, 16 px at k=1), and a second image of those sizes builds none
        script = (
            "import numpy as np\n"
            "import scdmi\n"
            "from scdmi.oracle import _contraction\n"
            "print(_contraction.cache_info().misses)\n"
            "for seed in (0, 1):\n"
            "    rgb = np.random.default_rng(seed).uniform(size=(6, 6, 3))\n"
            "    scdmi.brute_force_features(scdmi.RasterImage.from_array(rgb))\n"
            "    print(_contraction.cache_info().misses)\n"
        )
        src = str(Path(oracle_mod.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["0", "52", "52"]

    def test_no_array_holds_more_than_three_points(self):
        # every step of a core's contraction takes at most two operands, each
        # read with the subscripts it was built with, and every operand and
        # every array a step forms carries at most three point subscripts:
        # w**3 values at most, on domains up to the tuple guard's 100 points
        # for 4-point cores
        cores = [spec.source for spec in catalogue_specs()] + [
            DENOM_CORE,
            CoreSpec(),
            CoreSpec(shape_factors=((1, 2, 2),)),
            CoreSpec(shape_factors=((1, 3, 2),)),
            CoreSpec(shape_factors=((2, 3, 1),), color_triples=((1, 2, 4, 1),)),
            CoreSpec(color_triples=((1, 2, 4, 1), (1, 3, 4, 1), (2, 3, 4, 1))),
        ]
        for spec, size in product(cores, [2, 9, 16, 36, 100]):
            factors, steps = _contraction(spec, size)
            held = [None] * len(factors)  # an operand's subscripts, once a step has formed them
            for taken, subscripts, _ in steps:
                inputs, out = subscripts.split("->")
                inputs = inputs.split(",")
                assert len(taken) == len(inputs) <= 2
                for n, read in zip(taken, inputs):
                    assert held.pop(n) in (None, read)
                assert max(map(len, inputs + [out])) <= 3
                held.append(out)
            assert held == [""]

    def test_seen_sizes_reach_einsum_path_no_more(self, monkeypatch):
        # once a domain size's contractions are built, an image of that size
        # never reaches numpy's path search, neither the oracle's own call nor
        # one inside np.einsum
        brute_force_features(random_image(12))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return honest(*args, **kwargs)

        honest = einsumfunc.einsum_path
        monkeypatch.setattr(einsumfunc, "einsum_path", counted)
        monkeypatch.setattr(np, "einsum_path", counted)
        brute_force_features(random_image(13))
        assert calls == []


def exact_core_sum(values, spec):
    """The core summed over every point tuple in exact arithmetic, and the
    exact sum over every tuple of its magnitude: each factor's expansion
    (two products for a shape primitive, six for a colour determinant) with
    every product taken by its absolute value. Fractions both; every float
    is an integer times a power of two, so the values scaled by one power of
    two are integers, and every term carries the same power."""
    shift = 53 - min(math.frexp(v)[1] for vec in values for v in vec.tolist() if v)
    x, y, red, green, blue = [[int(Fraction(v) * 2**shift) for v in vec.tolist()] for vec in values]
    w = len(x)
    shape = {
        (i, j): (x[i] * y[j] - y[i] * x[j], abs(x[i] * y[j]) + abs(y[i] * x[j]))
        for i, j in product(range(w), repeat=2)
    }
    det = {}
    for triple in product(range(w), repeat=3):
        terms = [red[a] * green[b] * blue[c] for a, b, c in permutations(triple)]
        det[triple] = (sum(sign * t for sign, t in zip(_PERM_SIGNS, terms)), sum(map(abs, terms)))
    total = magnitude = 0
    for pts in product(range(w), repeat=spec.width):
        factors = [shape[pts[i - 1], pts[j - 1]] + (exp,) for i, j, exp in spec.shape_factors]
        factors += [det[pts[p - 1], pts[q - 1], pts[r - 1]] + (exp,) for p, q, r, exp in spec.color_triples]
        term = size = 1
        for value, bound, exp in factors:
            term, size = term * value**exp, size * bound**exp
        total, magnitude = total + term, magnitude + size
    degree = sum(2 * e for *_, e in spec.shape_factors) + sum(3 * e for *_, e in spec.color_triples)
    return Fraction(total, 2 ** (shift * degree)), Fraction(magnitude, 2 ** (shift * degree))


def few_point_domain(k, n):
    """An image whose k-domain holds n points, 3 <= n <= 6, in no rectangle.

    At k=0 the mask is n seeded pixels of a 6x6 frame. At k=1 the frame is
    full but for a pixel or two on its rim, each of which erodes one point
    off the frame's stencil-eroded rectangle: 2x2 less one (6x6), 2x3 less
    two or one (6x7), 2x4 less two (6x8).
    """
    rng = np.random.default_rng(10 * k + n)
    if k == 0:
        mask = np.zeros(36, dtype=bool)
        mask[rng.choice(36, n, replace=False)] = True
        return RasterImage.from_array(rng.uniform(0.0, 1.0, (6, 6, 3)), mask.reshape(6, 6))
    (h, w), cuts = {3: ((6, 6), [(0, 2)]), 4: ((6, 7), [(0, 2), (5, 4)]),
                    5: ((6, 7), [(0, 2)]), 6: ((6, 8), [(0, 2), (5, 5)])}[n]
    mask = np.ones((h, w), dtype=bool)
    for cut in cuts:
        mask[cut] = False
    return RasterImage.from_array(rng.uniform(0.0, 1.0, (h, w, 3)), mask)


class TestExactCoreSums:
    @pytest.mark.parametrize("k, n", [(k, n) for k in (0, 1) for n in (3, 4, 5, 6)])
    def test_every_core_matches_exact_sum(self, k, n):
        # each catalogue core and the quadratic colour core against the
        # exact sum over every point tuple, which catches a wrong axis
        # permutation in any step: within 1e-12 of the exact value, plus one
        # unit roundoff of the exact magnitude, the rounding any float sum of
        # these products carries where they cancel (on 3 or 4 points the
        # colour determinants nearly vanish, and the exact value can be
        # under 1e-60 of the magnitude)
        img = few_point_domain(k, n)
        values = centred_values(img, k)
        assert values[0].size == n
        if k == 0:  # stencil erosion leaves a k=1 domain of no points
            assert [a.size for a in centred_values(img, 1)] == [0] * 5
        for spec in [spec.source for spec in catalogue_specs()] + [DENOM_CORE]:
            exact, magnitude = exact_core_sum(values, spec)
            got = Fraction(brute_force_core_integral(img, spec, k))
            assert abs(got - exact) <= Fraction(1e-12) * abs(exact) + Fraction(2.0**-53) * magnitude, spec


class TestBlasProducts:
    def test_products_read_views(self, monkeypatch):
        # every matmul step reads both operands as views: the transposes and
        # reshapes planned from the subscripts copy nothing
        honest = np.matmul
        read = []

        def recording(a, b):
            read.extend((a, b))
            return honest(a, b)

        monkeypatch.setattr(np, "matmul", recording)
        brute_force_features(random_image(15))
        assert read and not any(operand.flags.owndata for operand in read)

    def test_features_do_not_depend_on_blas_threads(self, parallelism_probe):
        # the same bits from one BLAS thread and from two: the four 6x6 images
        # of seeds 0-3 and the 57-pixel domain, in the probe's fresh processes
        outputs = [parallelism_probe("all", threads)["oracle"] for threads in ("1", "2")]
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1]


class TestOracleGate:
    def test_engine_matches_oracle_on_masked_domain(self):
        # the 9x9 frame's k=1 domain is real and non-rectangular, and its
        # 4-point cores stay within the tuple guard at k=0 (57**4 < 10**8)
        for img, sizes in [(corner_masked_image(7), [45, 9]), (corner_masked_image(14, size=9, cut=3), [57, 21])]:
            assert [centred_values(img, k)[0].size for k in (0, 1)] == sizes
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
            for k in (0, 1):
                s_k = np.abs(ref[25 * k : 25 * k + 25]).max()
                for pos, spec in enumerate(catalogue_specs(), start=25 * k):
                    if abs(ref[pos]) > 1e-12 * s_k:
                        nonzero.add((f"img{i}_inst{spec.id}", k))
        assert len(nonzero) == 175
        assert {(r.id, r.k) for r in rows if not r.passed} == nonzero
