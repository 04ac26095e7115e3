import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdmi.algebra import (
    CoreSpec,
    MomentIndex,
    MomentPolynomial,
    MonomialTerm,
    PointVar,
    _color_poly,
    _poly_neg,
    _shape_poly,
    denominator_polynomial,
    expand_color_primitive,
    expand_core,
    expand_shape_primitive,
    normalization_exponents,
    parse_polynomial,
    serialize_polynomial,
    catalogue_specs,
)
from scdmi.engine import compiled_catalogue, core_sums
from scdmi.errors import InvalidSpec, ParseError
from fractions import Fraction


def mono(*vars_exps):
    return tuple(sorted((PointVar(p, k), e) for p, k, e in vars_exps))


class TestPrimitives:
    def test_shape_primitive_12(self):
        poly = expand_shape_primitive(1, 2)
        assert poly == {
            mono((1, "X", 1), (2, "Y", 1)): 1,
            mono((2, "X", 1), (1, "Y", 1)): -1,
        }

    def test_shape_primitive_13(self):
        poly = expand_shape_primitive(1, 3)
        assert poly == {
            mono((1, "X", 1), (3, "Y", 1)): 1,
            mono((3, "X", 1), (1, "Y", 1)): -1,
        }

    @pytest.mark.parametrize("pair", [(2, 2), (3, 1), (0, 1)])
    def test_shape_primitive_rejects_bad_pairs(self, pair):
        with pytest.raises(InvalidSpec):
            expand_shape_primitive(*pair)

    def test_color_primitive_123(self):
        poly = expand_color_primitive(1, 2, 3)
        expected = {
            mono((1, "R", 1), (2, "G", 1), (3, "B", 1)): 1,
            mono((1, "R", 1), (3, "G", 1), (2, "B", 1)): -1,
            mono((2, "R", 1), (1, "G", 1), (3, "B", 1)): -1,
            mono((2, "R", 1), (3, "G", 1), (1, "B", 1)): 1,
            mono((3, "R", 1), (1, "G", 1), (2, "B", 1)): 1,
            mono((3, "R", 1), (2, "G", 1), (1, "B", 1)): -1,
        }
        assert poly == expected

    def test_color_primitive_124_relabels_column(self):
        p123 = expand_color_primitive(1, 2, 3)
        p124 = expand_color_primitive(1, 2, 4)
        relabeled = {
            tuple(sorted(((PointVar(4 if v.point == 3 else v.point, v.kind), e) for v, e in m))): c
            for m, c in p123.items()
        }
        assert p124 == relabeled

    @pytest.mark.parametrize("triple", [(1, 1, 2), (2, 1, 3), (1, 3, 3)])
    def test_color_primitive_rejects_bad_triples(self, triple):
        with pytest.raises(InvalidSpec):
            expand_color_primitive(*triple)

    @pytest.mark.parametrize("swap", [(0, 1), (0, 2), (1, 2)])
    def test_determinant_antisymmetry(self, swap):
        cols = [1, 2, 3]
        cols[swap[0]], cols[swap[1]] = cols[swap[1]], cols[swap[0]]
        assert _color_poly(tuple(cols)) == _poly_neg(_color_poly((1, 2, 3)))

    def test_shape_antisymmetry(self):
        assert _shape_poly(2, 1) == _poly_neg(_shape_poly(1, 2))


class TestCoreSpec:
    def test_derived_counts(self):
        spec = CoreSpec(shape_factors=((1, 2, 1), (1, 3, 2)), color_triples=((1, 2, 3, 1),))
        assert spec.shape_point_count == 3
        assert spec.shape_degree == 3
        assert spec.color_point_count == 3
        assert spec.color_degree == 1
        assert spec.width == 3
        assert spec.shape_multiplicities() == {1: 3, 2: 1, 3: 2}
        assert spec.color_multiplicities() == {1: 1, 2: 1, 3: 1}

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            CoreSpec(shape_factors=((2, 2, 1),))
        with pytest.raises(InvalidSpec):
            CoreSpec(shape_factors=((1, 2, 0),))
        with pytest.raises(InvalidSpec):
            CoreSpec(color_triples=((1, 1, 2, 1),))
        with pytest.raises(InvalidSpec):
            CoreSpec(k=2)


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
    def test_fifty_specs_in_order(self):
        specs = catalogue_specs()
        assert len(specs) == 50
        assert [s.k for s in specs] == [0] * 25 + [1] * 25
        assert [s.id for s in specs] == list(range(1, 26)) * 2

    def test_row1_and_row16_definitions(self):
        specs = catalogue_specs()
        assert specs[0].source.shape_factors == ((1, 2, 1), (1, 3, 2))
        assert specs[0].source.color_triples == ((1, 2, 3, 1),)
        assert specs[15].source.shape_factors == ((1, 2, 1), (2, 3, 1), (3, 4, 2), (1, 4, 1))
        assert specs[15].source.color_triples == ((1, 3, 4, 1),)

    def test_k1_mirrors_k0(self):
        specs = catalogue_specs()
        for s0, s1 in zip(specs[:25], specs[25:]):
            assert s0.id == s1.id
            assert s1.k == 1
            assert s0.source.shape_factors == s1.source.shape_factors
            assert s0.source.color_triples == s1.source.color_triples
            assert s1.numerator is s0.numerator
            assert s1.area_exponent == s0.area_exponent
            assert s1.denom_exponent == s0.denom_exponent

    def test_index_bounds(self):
        for spec in catalogue_specs():
            for idx in spec.numerator.indices():
                assert idx.p + idx.q <= 6
                assert idx.alpha + idx.beta + idx.gamma <= 1
        for idx in denominator_polynomial().indices():
            assert idx.alpha + idx.beta + idx.gamma == 2
        # the engine sums m00, then exactly the moments some term of either k reads
        read = denominator_polynomial().indices().union(*(s.numerator.indices() for s in catalogue_specs()))
        m00 = MomentIndex(0, 0, 0, 0, 0)
        assert m00 not in read
        assert compiled_catalogue().indices == (m00, *sorted(read))
        assert len(read) == 74

    def test_every_instance_is_nonzero_and_point_coupled(self):
        # a point with no channel factor and odd coordinate degree would
        # vanish on mirror-symmetric domains; degree 1 vanishes everywhere
        for spec in catalogue_specs():
            assert len(spec.numerator) > 0
            d = spec.source.shape_multiplicities()
            big_d = spec.source.color_multiplicities()
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
        polys = [s.numerator for s in catalogue_specs()[:25]]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert polys[i] != polys[j]


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

    def test_round_trip_catalogue(self):
        for spec in catalogue_specs():
            text = serialize_polynomial(spec.numerator)
            assert parse_polynomial(text) == spec.numerator

    @pytest.mark.parametrize(
        "text", ["x 1,2", "1 1,2", "1 1,2,3,4,x", "1 1,2,3,4,-1"]
    )
    def test_parse_errors_carry_line_numbers(self, text):
        with pytest.raises(ParseError) as err:
            parse_polynomial("6 0,0,0,0,2\n" + text)
        assert err.value.line == 2


indices = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
).map(lambda t: MomentIndex(*t))
terms = st.tuples(st.integers(-50, 50).filter(bool), st.lists(indices, min_size=1, max_size=3))
polys = st.lists(terms, min_size=0, max_size=6).map(
    lambda ts: parse_polynomial(
        "\n".join(f"{c} " + " ".join(i.text() for i in f) for c, f in ts)
    )
)


@given(polys)
@settings(max_examples=200)
def test_round_trip_random_polynomials(poly):
    assert parse_polynomial(serialize_polynomial(poly)) == poly


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
