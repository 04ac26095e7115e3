import hashlib
import re
from collections import Counter
from itertools import combinations, permutations
from math import comb
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdmi.algebra import (
    _B,
    _G,
    _PERM_SIGNS,
    _R,
    _X,
    _Y,
    _color_factor,
    _shape_factor,
    CoreSpec,
    MomentIndex,
    MomentPolynomial,
    MonomialTerm,
    denominator_polynomial,
    expand_core,
    normalization_exponents,
    serialize_polynomial,
    catalogue_specs,
)
from scdmi.engine import compiled_catalogue, core_sums
from scdmi.errors import InvalidSpec
from fractions import Fraction


def test_perm_signs_are_permutation_parities():
    # the expansion and the oracle both read the determinant's signs from this tuple
    perms = list(permutations((0, 1, 2)))
    assert len(_PERM_SIGNS) == len(perms)
    for perm, sign in zip(perms, _PERM_SIGNS):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        assert sign == (-1) ** inversions


def _neg(factor: dict) -> dict:
    return {m: -c for m, c in factor.items()}


class TestPrimitives:
    @pytest.mark.parametrize("pair", [(2, 2), (3, 1), (0, 1)])
    def test_shape_primitive_rejects_bad_pairs(self, pair):
        with pytest.raises(InvalidSpec):
            CoreSpec(shape_factors=((*pair, 1),))

    @pytest.mark.parametrize("triple", [(1, 1, 2), (2, 1, 3), (1, 3, 3)])
    def test_color_primitive_rejects_bad_triples(self, triple):
        with pytest.raises(InvalidSpec):
            CoreSpec(color_triples=((*triple, 1),))

    @pytest.mark.parametrize("swap", [(0, 1), (0, 2), (1, 2)])
    def test_determinant_antisymmetry(self, swap):
        cols = [1, 2, 3]
        cols[swap[0]], cols[swap[1]] = cols[swap[1]], cols[swap[0]]
        assert _color_factor(3, *cols) == _neg(_color_factor(3, 1, 2, 3))

    def test_shape_antisymmetry(self):
        assert _shape_factor(2, 2, 1) == _neg(_shape_factor(2, 1, 2))


class TestCoreSpec:
    def test_derived_counts(self):
        spec = CoreSpec(shape_factors=((1, 2, 1), (1, 3, 2)), color_triples=((1, 2, 3, 1),))
        assert spec.shape_point_count == 3
        assert spec.shape_degree == 3
        assert spec.color_point_count == 3
        assert spec.color_degree == 1
        assert spec.width == 3

    def test_invalid_specs(self):
        # bad point orders are covered by TestPrimitives
        with pytest.raises(InvalidSpec):
            CoreSpec(shape_factors=((1, 2, 0),))
        with pytest.raises(InvalidSpec):
            CoreSpec(color_triples=((1, 2, 3, 0),))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"shape_factors": ((1, 2),)}, "must be (i, j, exponent)"),
            ({"shape_factors": ((1, 2, 3, 1),)}, "must be (i, j, exponent)"),
            ({"color_triples": ((1, 2, 3),)}, "must be (p, q, r, exponent)"),
            ({"color_triples": ((1, 2, 3, 1, 1),)}, "must be (p, q, r, exponent)"),
        ],
        ids=["shape-short", "shape-long", "color-short", "color-long"],
    )
    def test_factor_of_wrong_length(self, kwargs, message):
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            CoreSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"color_triples": ((1, 2, 3.5, 1),)}, "entries must be integers"),
            ({"color_triples": ((1, 2, 3.0, 1),)}, "entries must be integers"),
            ({"shape_factors": (("a", 2, 1),)}, "entries must be integers"),
            ({"shape_factors": ((True, 2, 1),)}, "entries must be integers"),
            ({"shape_factors": ((1, 2, None),)}, "entries must be integers"),
            ({"shape_factors": 3}, "must be a sequence of integer tuples"),
            ({"color_triples": (1, 2, 3, 1)}, "must be a sequence of integer tuples"),
        ],
        ids=["fraction", "float", "string", "bool", "none", "not-iterable", "not-nested"],
    )
    def test_entries_that_are_not_integers(self, kwargs, message):
        # 3.5 was truncated to 3, "a" raised a bare ValueError and 3 a bare TypeError
        with pytest.raises(InvalidSpec, match=message):
            CoreSpec(**kwargs)

    def test_numpy_integers_become_ints(self):
        spec = CoreSpec(shape_factors=((np.int64(1), np.uint8(2), 1),))
        assert spec == CoreSpec(shape_factors=((1, 2, 1),)) and type(spec.shape_factors[0][1]) is int


class TestMonomialTerm:
    def test_zero_coefficient(self):
        with pytest.raises(InvalidSpec, match="zero-coefficient term"):
            MonomialTerm(0, (MomentIndex(0, 0, 0, 0, 0),))

    def test_unsorted_factors(self):
        factors = (MomentIndex(1, 0, 0, 0, 0), MomentIndex(0, 1, 0, 0, 0))
        with pytest.raises(InvalidSpec, match="sorted order"):
            MonomialTerm(1, factors)
        assert MonomialTerm(1, factors[::-1]).factors == factors[::-1]


WORKED_NUMERATOR = [
    (6, ((0, 2, 0, 0, 1), (1, 1, 0, 1, 0), (2, 0, 1, 0, 0))),
    (-6, ((0, 2, 0, 0, 1), (1, 1, 1, 0, 0), (2, 0, 0, 1, 0))),
    (-6, ((0, 2, 0, 1, 0), (1, 1, 0, 0, 1), (2, 0, 1, 0, 0))),
    (6, ((0, 2, 0, 1, 0), (1, 1, 1, 0, 0), (2, 0, 0, 0, 1))),
    (6, ((0, 2, 1, 0, 0), (1, 1, 0, 0, 1), (2, 0, 0, 1, 0))),
    (-6, ((0, 2, 1, 0, 0), (1, 1, 0, 1, 0), (2, 0, 0, 0, 1))),
]

WORKED_DENOMINATOR = [
    (6, ((0, 0, 0, 0, 2), (0, 0, 0, 2, 0), (0, 0, 2, 0, 0))),
    (-6, ((0, 0, 0, 0, 2), (0, 0, 1, 1, 0), (0, 0, 1, 1, 0))),
    (-6, ((0, 0, 0, 1, 1), (0, 0, 0, 1, 1), (0, 0, 2, 0, 0))),
    (12, ((0, 0, 0, 1, 1), (0, 0, 1, 0, 1), (0, 0, 1, 1, 0))),
    (-6, ((0, 0, 0, 2, 0), (0, 0, 1, 0, 1), (0, 0, 1, 0, 1))),
]


def as_plain(poly: MomentPolynomial):
    return [(t.coefficient, tuple(tuple(f) for f in t.factors)) for t in poly.terms]


class TestExpandCore:
    def test_instance3_numerator_matches_worked_polynomial(self):
        spec = CoreSpec(
            shape_factors=((1, 2, 1), (1, 3, 1), (2, 3, 1)), color_triples=((1, 2, 3, 1),)
        )
        assert as_plain(expand_core(spec)) == WORKED_NUMERATOR

    def test_denominator_matches_worked_polynomial(self):
        assert as_plain(denominator_polynomial()) == WORKED_DENOMINATOR

    def test_denominator_on_diagonal_table(self):
        # all cross moments zero, pure second moments one: only the first
        # term survives
        prog = compiled_catalogue()
        moments = np.zeros(len(prog.indices))
        moments[0] = 1.0
        moments[list(prog.squares)] = 1.0
        assert core_sums(moments)[-1] == 6.0

    def test_empty_core_is_area_moment(self):
        poly = expand_core(CoreSpec())
        assert as_plain(poly) == [(1, ((0, 0, 0, 0, 0),))]

    def test_canonical_idempotence(self):
        spec = CoreSpec(shape_factors=((1, 2, 2), (2, 3, 1)), color_triples=((1, 2, 3, 1),))
        assert expand_core(spec) == expand_core(spec)

    def test_catalogue_expansion_is_pinned(self):
        # the 25 numerators in id order, then the quadratic core, as scdmi gen writes them
        polys = [s.numerator for s in catalogue_specs()] + [denominator_polynomial()]
        assert sum(len(p) for p in polys) == 2207
        text = "".join(serialize_polynomial(p) for p in polys)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "20cc1658869cb161105628298980bf7b8de8939ea5b9a117357c33a66e17c5cc"
        )

    def test_integer_coefficients_and_sorted_terms(self):
        for spec in catalogue_specs():
            factors_seen = set()
            for term in spec.numerator.terms:
                assert isinstance(term.coefficient, int) and term.coefficient != 0
                assert tuple(sorted(term.factors)) == term.factors
                assert term.factors not in factors_seen
                factors_seen.add(term.factors)
            assert list(spec.numerator.terms) == sorted(
                spec.numerator.terms, key=lambda t: t.factors
            )


class TestNormalization:
    def test_instance3_exponents(self):
        spec = CoreSpec(
            shape_factors=((1, 2, 1), (1, 3, 1), (2, 3, 1)), color_triples=((1, 2, 3, 1),)
        )
        assert normalization_exponents(spec) == (Fraction(9, 2), Fraction(1, 2))

    def test_empty_core_exponents(self):
        assert normalization_exponents(CoreSpec()) == (Fraction(1), Fraction(0))

    def test_instance25_exponents(self):
        spec = catalogue_specs()[24].source
        assert spec.shape_point_count == 4
        assert spec.shape_degree == 8
        assert normalization_exponents(spec) == (Fraction(21, 2), Fraction(1, 2))


class TestCatalogue:
    def test_twenty_five_specs_in_order(self):
        assert [s.id for s in catalogue_specs()] == list(range(1, 26))

    def test_row1_and_row16_definitions(self):
        specs = catalogue_specs()
        assert specs[0].source.shape_factors == ((1, 2, 1), (1, 3, 2))
        assert specs[0].source.color_triples == ((1, 2, 3, 1),)
        assert specs[15].source.shape_factors == ((1, 2, 1), (2, 3, 1), (3, 4, 2), (1, 4, 1))
        assert specs[15].source.color_triples == ((1, 3, 4, 1),)

    def test_index_bounds(self):
        def indices(poly):
            return {f for t in poly.terms for f in t.factors}

        for spec in catalogue_specs():
            for idx in indices(spec.numerator):
                assert idx.p + idx.q <= 6
                assert idx.alpha + idx.beta + idx.gamma <= 1
        for idx in indices(denominator_polynomial()):
            assert idx.alpha + idx.beta + idx.gamma == 2
        # the engine sums m00, then exactly the moments some term reads
        read = indices(denominator_polynomial()).union(*(indices(s.numerator) for s in catalogue_specs()))
        m00 = MomentIndex(0, 0, 0, 0, 0)
        assert m00 not in read
        assert compiled_catalogue().indices == (m00, *sorted(read))
        assert len(read) == 74

    def test_every_instance_is_nonzero_and_point_coupled(self):
        # a point with no channel factor and odd coordinate degree would
        # vanish on mirror-symmetric domains; degree 1 vanishes everywhere
        for spec in catalogue_specs():
            assert len(spec.numerator) > 0
            # d[pt], big_d[pt]: shape and color primitives that touch point pt
            d, big_d = Counter(), Counter()
            for i, j, exp in spec.source.shape_factors:
                d[i] += exp
                d[j] += exp
            for *points, exp in spec.source.color_triples:
                for pt in points:
                    big_d[pt] += exp
            for pt in range(1, spec.source.width + 1):
                assert big_d[pt] >= 1 or d[pt] % 2 == 0

    def test_exponent_consistency(self):
        for spec in catalogue_specs():
            src = spec.source
            assert src.width == max(src.shape_point_count, src.color_point_count)
            assert spec.area_exponent == Fraction(src.width + src.shape_degree) - Fraction(
                3 * src.color_degree, 2
            )
            assert spec.denom_exponent == Fraction(src.color_degree, 2)

    def test_distinct_numerators(self):
        polys = [s.numerator for s in catalogue_specs()]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert polys[i] != polys[j]

    @pytest.mark.xfail(strict=True, reason="row 23 is row 22 with points 3 and 4 swapped")
    def test_no_row_is_another_relabeled(self):
        # a relabeling of the integration points maps a core onto the same
        # integral, so a row that relabels to another row, or to its negative,
        # duplicates that instance; the sign is not tracked
        def relabeled(core, perm):
            shape = sorted((*sorted((perm[i - 1], perm[j - 1])), e) for i, j, e in core.shape_factors)
            color = sorted((*sorted(perm[p - 1] for p in f[:3]), f[3]) for f in core.color_triples)
            return shape, color

        cores = [s.source for s in catalogue_specs()]
        duplicates = [
            (a + 1, b + 1, perm)
            for a, b in combinations(range(len(cores)), 2)
            for perm in permutations((1, 2, 3, 4))
            if relabeled(cores[a], perm) == relabeled(cores[b], (1, 2, 3, 4))
        ]
        assert duplicates == []


class TestSerialization:
    def test_single_term_format(self):
        poly = MomentPolynomial(
            (
                MonomialTerm(
                    6,
                    (
                        MomentIndex(0, 2, 0, 0, 1),
                        MomentIndex(1, 1, 0, 1, 0),
                        MomentIndex(2, 0, 1, 0, 0),
                    ),
                ),
            )
        )
        assert serialize_polynomial(poly) == "6 0,2,0,0,1 1,1,0,1,0 2,0,1,0,0\n"


@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(1, 2)),
        min_size=0,
        max_size=3,
    )
)
@settings(max_examples=100)
def test_expand_core_deterministic(raw):
    factors = tuple((min(i, j), max(i, j) + (1 if i == j else 0), e) for i, j, e in raw)
    spec = CoreSpec(shape_factors=factors, color_triples=((1, 2, 3, 1),))
    assert expand_core(spec) == expand_core(spec)


# The reference expansion: a monomial is a flat tuple of 5 exponents per
# integration point, point t's (x, y, r, g, b) exponents at 5*(t-1) .. 5*t-1,
# a product adds the tuples elementwise, so no exponent can overflow into
# another, and each term's factors are sorted as MomentIndex tuples. The
# packed-integer expand_core must give the same polynomials.


def _tuple_monomial(width, *variables):
    exps = [0] * (5 * width)
    for point, var in variables:
        exps[5 * (point - 1) + var] += 1
    return tuple(exps)


def _tuple_poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(map(add, ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def reference_expand_core(spec: CoreSpec) -> MomentPolynomial:
    width = spec.width
    poly = {(0,) * (5 * width): 1}
    for i, j, exp in spec.shape_factors:
        factor = {_tuple_monomial(width, (i, _X), (j, _Y)): 1, _tuple_monomial(width, (j, _X), (i, _Y)): -1}
        for _ in range(exp):
            poly = _tuple_poly_mul(poly, factor)
    for p, q, r, exp in spec.color_triples:
        leibniz = zip(permutations((p, q, r)), _PERM_SIGNS)
        factor = {_tuple_monomial(width, (a, _R), (b, _G), (c, _B)): sign for (a, b, c), sign in leibniz}
        for _ in range(exp):
            poly = _tuple_poly_mul(poly, factor)
    acc = {}
    for mono, coeff in poly.items():
        key = tuple(sorted(MomentIndex(*mono[s : s + 5]) for s in range(0, len(mono), 5)))
        acc[key] = acc.get(key, 0) + coeff
    return MomentPolynomial(tuple(MonomialTerm(c, factors) for factors, c in sorted(acc.items()) if c))


@st.composite
def core_specs(draw, max_terms=5000):
    """Cores on up to 5 points with factor exponents up to 12: wider and of
    higher degree than every catalogue row. Factors are dropped once the
    product could have more than max_terms monomials, which keeps the
    reference quick."""
    points = range(1, draw(st.integers(1, 5)) + 1)
    candidates = [*combinations(points, 2), *combinations(points, 3)]
    if not candidates:
        return CoreSpec()
    factors = draw(st.lists(st.tuples(st.sampled_from(candidates), st.integers(1, 12)), max_size=4, unique_by=lambda f: f[0]))
    shape, color, terms = [], [], 1
    for pts, exp in factors:
        # a channel determinant's e-th power has at most as many monomials as there
        # are 3x3 tables of naturals with every row and column summing to e
        terms *= exp + 1 if len(pts) == 2 else comb(exp + 2, 2) + 3 * comb(exp + 3, 4)
        if terms > max_terms:
            break
        (shape if len(pts) == 2 else color).append((*pts, exp))
    return CoreSpec(shape_factors=tuple(shape), color_triples=tuple(color))


@given(core_specs())
# x_1's exponent reaches the total degree, 8 or 16, the top bit of a field of its bit length
@example(CoreSpec(shape_factors=((1, 2, 8),)))
@example(CoreSpec(shape_factors=((1, 2, 12), (1, 3, 4))))
@settings(max_examples=100, deadline=None)
def test_packed_expansion_matches_tuple_reference(spec):
    assert expand_core(spec) == reference_expand_core(spec)


def test_reference_expansion_reproduces_the_catalogue():
    for spec in catalogue_specs():
        assert reference_expand_core(spec.source) == spec.numerator
    assert reference_expand_core(CoreSpec(color_triples=((1, 2, 3, 2),))) == denominator_polynomial()
