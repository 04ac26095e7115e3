"""Symbolic construction of shape-color moment invariants.

Shape primitives are 2x2 determinants of centered coordinates at two
integration points; color primitives are 3x3 determinants of derived channel
values at three points. Multiplying primitives over a fixed point set and
integrating point by point turns each core into an integer-coefficient
polynomial whose variables are generalized moments indexed by
``(p, q, alpha, beta, gamma)``. This module builds those polynomials in a
canonical form, computes the normalization exponents that make the ratio
invariant under nonsingular coordinate and channel maps, and provides the
catalogue of 25 instances plus a serializer for their polynomials.

The expansion is channel-agnostic: each polynomial describes both the
raw-channel (k=0) and the gradient-derived (k=1) instance of its id, which
differ only in the moment table they are evaluated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .errors import InvalidSpec

#: column permutation signs of a 3x3 determinant, in itertools order
_PERM_SIGNS = (1, -1, -1, 1, 1, -1)

#: position of each variable (x, y, r, g, b) in a point's 5 exponents
_X, _Y, _R, _G, _B = range(5)


class MomentIndex(NamedTuple):
    """Exponent tuple (p, q, alpha, beta, gamma) of one generalized moment."""

    p: int
    q: int
    alpha: int
    beta: int
    gamma: int


@dataclass(frozen=True, slots=True)
class MonomialTerm:
    """One term of a moment polynomial: integer coefficient times a product
    of moments, stored as a sorted multiset of indices."""

    coefficient: int
    factors: tuple[MomentIndex, ...]

    def __post_init__(self):
        if self.coefficient == 0:
            raise InvalidSpec("zero-coefficient term")
        if tuple(sorted(self.factors)) != self.factors:
            raise InvalidSpec("term factors must be in sorted order")


@dataclass(frozen=True)
class MomentPolynomial:
    """Canonical integer-coefficient polynomial over generalized moments.

    Terms are sorted by their factor multiset; no two terms share a
    multiset and no term has a zero coefficient, so equal polynomials
    compare equal structurally.
    """

    terms: tuple[MonomialTerm, ...]

    def __len__(self) -> int:
        return len(self.terms)


# ---------------------------------------------------------------------------
# core specifications


@dataclass(frozen=True)
class CoreSpec:
    """Declarative description of one numerator core.

    ``shape_factors`` holds (i, j, exponent) with i < j, one entry per
    distinct coordinate-determinant factor; ``color_triples`` holds
    (p, q, r, exponent) with p < q < r.
    """

    shape_factors: tuple[tuple[int, int, int], ...] = ()
    color_triples: tuple[tuple[int, int, int, int], ...] = ()

    def __post_init__(self):
        for name in ("shape_factors", "color_triples"):
            object.__setattr__(self, name, tuple(tuple(int(v) for v in f) for f in getattr(self, name)))
        for f in self.shape_factors:
            if len(f) != 3:
                raise InvalidSpec(f"shape factor {f} must be (i, j, exponent)")
            i, j, exp = f
            if not (1 <= i < j):
                raise InvalidSpec(f"shape factor points must satisfy 1 <= i < j, got ({i},{j})")
            if exp < 1:
                raise InvalidSpec(f"shape factor exponent must be >= 1, got {exp}")
        for f in self.color_triples:
            if len(f) != 4:
                raise InvalidSpec(f"color triple {f} must be (p, q, r, exponent)")
            p, q, r, exp = f
            if not (1 <= p < q < r):
                raise InvalidSpec(f"color points must satisfy 1 <= p < q < r, got ({p},{q},{r})")
            if exp < 1:
                raise InvalidSpec(f"color exponent must be >= 1, got {exp}")

    # -- derived counts (never stored) --

    @property
    def shape_point_count(self) -> int:
        """n: number of distinct points used by the shape factors."""
        return len({p for i, j, _ in self.shape_factors for p in (i, j)})

    @property
    def shape_degree(self) -> int:
        """m: total number of shape primitives, counting exponents."""
        return sum(exp for _, _, exp in self.shape_factors)

    @property
    def color_point_count(self) -> int:
        """N: number of distinct points used by the color triples."""
        return len({p for f in self.color_triples for p in f[:3]})

    @property
    def color_degree(self) -> int:
        """M: total number of color primitives, counting exponents."""
        return sum(exp for *_, exp in self.color_triples)

    @property
    def width(self) -> int:
        """Number of integration points (highest referenced point, min 1).

        The empty core still integrates 1 over a single point, giving the
        area moment.
        """
        last = [j for _, j, _ in self.shape_factors] + [r for _, _, r, _ in self.color_triples]
        return max(last, default=1)


@dataclass(frozen=True)
class InvariantSpec:
    """One ready-to-evaluate invariant: canonical numerator polynomial plus
    the exact normalization exponents and the core it came from."""

    id: int
    numerator: MomentPolynomial
    area_exponent: Fraction
    denom_exponent: Fraction
    source: CoreSpec


# ---------------------------------------------------------------------------
# core expansion into moment polynomials

# An expansion monomial is one Python int holding a bit field of ``width``
# bits per (point, variable) exponent, mapped to its integer coefficient.
# Point t's five fields sit at bits 5*width*(t-1) .. 5*width*t-1 with x most
# significant, so a point's fields read as one plain int sort in MomentIndex
# order. expand_core takes the width from the bit length of the spec's total
# degree, which bounds every exponent, so no field carries into the next and
# a product of monomials is an integer add.


def _monomial(width: int, *variables: tuple[int, int]) -> int:
    """The product of (point, variable) pairs, each to the first power."""
    return sum(1 << width * (5 * point - 1 - var) for point, var in variables)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = ma + mb
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _shape_factor(width: int, i: int, j: int) -> dict:
    """x_i y_j - x_j y_i"""
    return {_monomial(width, (i, _X), (j, _Y)): 1, _monomial(width, (j, _X), (i, _Y)): -1}


def _color_factor(width: int, p: int, q: int, r: int) -> dict:
    """The channel determinant of points p, q, r as its six Leibniz terms."""
    leibniz = zip(permutations((p, q, r)), _PERM_SIGNS)
    return {_monomial(width, (a, _R), (b, _G), (c, _B)): sign for (a, b, c), sign in leibniz}


def expand_core(spec: CoreSpec) -> MomentPolynomial:
    """Multiply out all primitives of a core and factorize point by point.

    Every monomial of the product has a definite exponent pattern at each
    integration point, so the multi-point integral splits into a product of
    one moment per point. Points below the core's width that a monomial does
    not touch contribute the area moment (all-zero index). The result is
    canonical: identical specs yield identical polynomials.
    """
    width = max(1, (spec.shape_degree + spec.color_degree).bit_length())
    poly = {0: 1}
    for i, j, exp in spec.shape_factors:
        factor = _shape_factor(width, i, j)
        for _ in range(exp):
            poly = _poly_mul(poly, factor)
    for p, q, r, exp in spec.color_triples:
        factor = _color_factor(width, p, q, r)
        for _ in range(exp):
            poly = _poly_mul(poly, factor)

    point_mask = (1 << 5 * width) - 1
    shifts = range(0, 5 * width * spec.width, 5 * width)
    acc: dict[tuple[int, ...], int] = {}
    for mono, coeff in poly.items():
        key = tuple(sorted([mono >> s & point_mask for s in shifts]))
        acc[key] = acc.get(key, 0) + coeff

    # each distinct point field is decoded once, into a MomentIndex every term shares
    mask = (1 << width) - 1
    fields = {f for key in acc for f in key}
    index = {f: MomentIndex(*(f >> width * (4 - v) & mask for v in range(5))) for f in fields}
    terms = (MonomialTerm(c, tuple(map(index.__getitem__, key))) for key, c in sorted(acc.items()) if c)
    return MomentPolynomial(tuple(terms))


@lru_cache(maxsize=1)
def denominator_polynomial() -> MomentPolynomial:
    """Quadratic color core: the squared channel determinant over 3 points.

    Expands to 6 times the determinant of the 3x3 channel Gram matrix, so
    its value on any real image is nonnegative.
    """
    return expand_core(CoreSpec(color_triples=((1, 2, 3, 2),)))


def normalization_exponents(spec: CoreSpec) -> tuple[Fraction, Fraction]:
    """Exact exponents (e, M/2) for the area and quadratic-core normalizers.

    Under a coordinate map with matrix determinant ds and a channel map with
    determinant dc, the numerator integral picks up ds**(width+m) * dc**M,
    the area moment picks up ds, and the quadratic core ds**3 * dc**2.
    e = width + m - 3M/2 balances the ratio exactly. On every catalogued
    instance width equals max(n, N) because the color points are a subset of
    the shape points.
    """
    e = Fraction(spec.width + spec.shape_degree) - Fraction(3 * spec.color_degree, 2)
    return e, Fraction(spec.color_degree, 2)


# ---------------------------------------------------------------------------
# the 25-instance catalogue

# one row per instance: (color triple, ((i, j, exponent), ...))
# Factor point pairs are normalized to increasing order, which at most flips
# the sign of an instance. Every row couples each integration point to a
# channel factor or an even coordinate degree: a point with no channel
# factor and odd coordinate degree would make the instance vanish on every
# mirror-symmetric domain (degree 1 vanishes on every centered domain), and
# a shape fully symmetric in the color points would vanish identically.
_CATALOGUE: tuple[tuple[tuple[int, int, int], tuple[tuple[int, int, int], ...]], ...] = (
    ((1, 2, 3), ((1, 2, 1), (1, 3, 2))),
    ((1, 2, 3), ((1, 2, 1), (1, 3, 3))),
    ((1, 2, 3), ((1, 2, 1), (1, 3, 1), (2, 3, 1))),
    ((1, 2, 3), ((1, 2, 1), (1, 3, 1), (2, 3, 3))),
    ((1, 2, 3), ((1, 2, 2), (1, 3, 2), (2, 3, 1))),
    ((1, 2, 4), ((1, 2, 1), (2, 3, 1), (3, 4, 1))),
    ((1, 2, 4), ((1, 2, 1), (2, 3, 1), (3, 4, 3))),
    ((1, 3, 4), ((1, 2, 1), (2, 3, 1), (3, 4, 3))),
    ((1, 2, 4), ((1, 2, 2), (2, 3, 1), (3, 4, 1))),
    ((1, 2, 4), ((1, 2, 2), (2, 3, 1), (3, 4, 3))),
    ((2, 3, 4), ((1, 2, 2), (2, 3, 1), (3, 4, 3))),
    ((1, 2, 4), ((1, 2, 3), (2, 3, 1), (3, 4, 3))),
    ((1, 2, 3), ((1, 2, 1), (2, 3, 2), (3, 4, 2))),
    ((1, 2, 4), ((1, 2, 1), (2, 3, 2), (3, 4, 2))),
    ((1, 2, 4), ((1, 2, 1), (2, 3, 3), (3, 4, 1))),
    ((1, 3, 4), ((1, 2, 1), (2, 3, 1), (3, 4, 2), (1, 4, 1))),
    ((1, 2, 3), ((1, 2, 2), (2, 3, 1), (3, 4, 3), (1, 4, 1))),
    ((1, 2, 4), ((1, 2, 1), (1, 3, 1), (1, 4, 1), (3, 4, 1))),
    ((1, 2, 4), ((1, 2, 1), (1, 3, 1), (1, 4, 1), (3, 4, 3))),
    ((2, 3, 4), ((1, 2, 1), (1, 3, 2), (1, 4, 1), (3, 4, 2))),
    ((1, 2, 3), ((1, 2, 2), (1, 3, 1), (1, 4, 1), (3, 4, 1))),
    ((1, 2, 3), ((1, 2, 2), (1, 3, 1), (1, 4, 1), (3, 4, 3))),
    ((1, 2, 4), ((1, 2, 2), (1, 3, 1), (1, 4, 1), (3, 4, 3))),
    ((1, 2, 4), ((1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1), (2, 4, 1))),
    ((1, 3, 4), ((1, 2, 2), (2, 3, 1), (3, 4, 2), (1, 4, 2), (2, 4, 1))),
)


@lru_cache(maxsize=1)
def catalogue_specs() -> tuple[InvariantSpec, ...]:
    """The 25 instances, ids 1..25.

    Each instance gives two features, one per moment table: feature entry
    25*k + id - 1 is instance ``id`` evaluated on the k table.
    """
    specs = []
    for row_id, (triple, shape) in enumerate(_CATALOGUE, start=1):
        source = CoreSpec(shape_factors=shape, color_triples=((*triple, 1),))
        e, denom_exp = normalization_exponents(source)
        specs.append(InvariantSpec(row_id, expand_core(source), e, denom_exp, source))
    return tuple(specs)


# ---------------------------------------------------------------------------
# text format


def serialize_polynomial(poly: MomentPolynomial) -> str:
    """One term per line: ``<coeff> <p,q,a,b,g> <p,q,a,b,g> ...``."""
    lines = []
    for term in poly.terms:
        parts = [str(term.coefficient)] + [",".join(str(e) for e in f) for f in term.factors]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
