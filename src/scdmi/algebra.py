"""Symbolic construction of shape-color moment invariants.

Shape primitives are 2x2 determinants of centered coordinates at two
integration points; color primitives are 3x3 determinants of derived channel
values at three points. Multiplying primitives over a fixed point set and
integrating point by point turns each core into an integer-coefficient
polynomial whose variables are generalized moments indexed by
``(p, q, alpha, beta, gamma)``. This module builds those polynomials in a
canonical form, computes the normalization exponents that make the ratio
invariant under nonsingular coordinate and channel maps, and provides the
catalogue of 50 instances plus a line-oriented text format for them.

The expansion is channel-agnostic: the same polynomial describes both the
raw-channel (k=0) and gradient-derived (k=1) instances, which differ only in
the moment table they are evaluated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple, Sequence

from .errors import InvalidSpec, ParseError

#: variable kinds attached to one integration point, in canonical axis order
VAR_KINDS = "XYRGB"

#: column permutation signs of a 3x3 determinant, in itertools order
_PERM_SIGNS = (1, -1, -1, 1, 1, -1)


class PointVar(NamedTuple):
    """One integrand variable at an integration point.

    ``kind`` is one of "XYRGB": X and Y are centered coordinates, R/G/B are
    the centered (k=0) or derived (k=1) channel values at that point.
    """

    point: int
    kind: str


class MomentIndex(NamedTuple):
    """Exponent tuple (p, q, alpha, beta, gamma) of one generalized moment."""

    p: int
    q: int
    alpha: int
    beta: int
    gamma: int

    def text(self) -> str:
        return ",".join(str(e) for e in self)


@dataclass(frozen=True)
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

    def indices(self) -> frozenset[MomentIndex]:
        return frozenset(f for t in self.terms for f in t.factors)

    def __len__(self) -> int:
        return len(self.terms)


# ---------------------------------------------------------------------------
# core specifications


@dataclass(frozen=True)
class CoreSpec:
    """Declarative description of one numerator core.

    ``shape_factors`` holds (i, j, exponent) with i < j, one entry per
    distinct coordinate-determinant factor; ``color_triples`` holds
    (p, q, r, exponent) with p < q < r. ``k`` selects the channel set the
    resulting polynomial is meant to be evaluated on (0: raw channels,
    1: first-order radial gradient channels).
    """

    shape_factors: tuple[tuple[int, int, int], ...] = ()
    color_triples: tuple[tuple[int, int, int, int], ...] = ()
    k: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "shape_factors", tuple(tuple(int(v) for v in f) for f in self.shape_factors)
        )
        object.__setattr__(
            self, "color_triples", tuple(tuple(int(v) for v in f) for f in self.color_triples)
        )
        if self.k not in (0, 1):
            raise InvalidSpec(f"k must be 0 or 1, got {self.k}")
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
    def shape_points(self) -> tuple[int, ...]:
        return tuple(sorted({p for i, j, _ in self.shape_factors for p in (i, j)}))

    @property
    def color_points(self) -> tuple[int, ...]:
        return tuple(sorted({p for pq in self.color_triples for p in pq[:3]}))

    @property
    def shape_point_count(self) -> int:
        """n: number of distinct points used by the shape factors."""
        return len(self.shape_points)

    @property
    def shape_degree(self) -> int:
        """m: total number of shape primitives, counting exponents."""
        return sum(exp for _, _, exp in self.shape_factors)

    @property
    def color_point_count(self) -> int:
        """N: number of distinct points used by the color triples."""
        return len(self.color_points)

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
        pts = self.shape_points + self.color_points
        return max(pts) if pts else 1

    def shape_multiplicities(self) -> dict[int, int]:
        """d_i: how many shape primitives touch each point."""
        out = {pt: 0 for pt in range(1, self.width + 1)}
        for i, j, exp in self.shape_factors:
            out[i] += exp
            out[j] += exp
        return out

    def color_multiplicities(self) -> dict[int, int]:
        """D_i: how many color primitives touch each point."""
        out = {pt: 0 for pt in range(1, self.width + 1)}
        for p, q, r, exp in self.color_triples:
            for pt in (p, q, r):
                out[pt] += exp
        return out


@dataclass(frozen=True)
class InvariantSpec:
    """One ready-to-evaluate invariant: canonical numerator polynomial plus
    the exact normalization exponents and the core it came from."""

    id: int
    k: int
    numerator: MomentPolynomial
    area_exponent: Fraction
    denom_exponent: Fraction
    source: CoreSpec


# ---------------------------------------------------------------------------
# primitive expansion over point variables

# a monomial over point variables: sorted ((PointVar, exponent), ...) pairs
Monomial = tuple[tuple[PointVar, int], ...]
PointPolynomial = dict[Monomial, int]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[PointVar, int] = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _poly_mul(a: PointPolynomial, b: PointPolynomial) -> PointPolynomial:
    out: PointPolynomial = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = _mono_mul(ma, mb)
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _poly_neg(a: PointPolynomial) -> PointPolynomial:
    return {m: -c for m, c in a.items()}


def _shape_poly(i: int, j: int) -> PointPolynomial:
    # X_i Y_j - X_j Y_i, without the ordering check (used by tests to probe
    # antisymmetry); monomial keys are kept in canonical sorted form
    return {
        tuple(sorted(((PointVar(i, "X"), 1), (PointVar(j, "Y"), 1)))): 1,
        tuple(sorted(((PointVar(j, "X"), 1), (PointVar(i, "Y"), 1)))): -1,
    }


def _color_poly(cols: Sequence[int]) -> PointPolynomial:
    # 3x3 determinant with rows (R, G, B) and the given columns
    out: PointPolynomial = {}
    for (a, b, c), sign in zip(permutations(cols), _PERM_SIGNS):
        mono = tuple(
            sorted(((PointVar(a, "R"), 1), (PointVar(b, "G"), 1), (PointVar(c, "B"), 1)))
        )
        out[mono] = out.get(mono, 0) + sign
    return out


def expand_shape_primitive(i: int, j: int) -> PointPolynomial:
    """Two-term cross product of centered coordinates at points i < j."""
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i < j):
        raise InvalidSpec(f"shape primitive needs 1 <= i < j, got ({i},{j})")
    return _shape_poly(i, j)


def expand_color_primitive(p: int, q: int, r: int) -> PointPolynomial:
    """Six-term Leibniz expansion of the channel determinant at p < q < r."""
    if not (isinstance(p, int) and isinstance(q, int) and isinstance(r, int) and 1 <= p < q < r):
        raise InvalidSpec(f"color primitive needs 1 <= p < q < r, got ({p},{q},{r})")
    return _color_poly((p, q, r))


# ---------------------------------------------------------------------------
# core expansion into moment polynomials


def expand_core(spec: CoreSpec) -> MomentPolynomial:
    """Multiply out all primitives of a core and factorize point by point.

    Every monomial of the product has a definite exponent pattern at each
    integration point, so the multi-point integral splits into a product of
    one moment per point. Points below the core's width that a monomial does
    not touch contribute the area moment (all-zero index). The result is
    canonical: identical specs yield identical polynomials.
    """
    poly: PointPolynomial = {(): 1}
    for i, j, exp in spec.shape_factors:
        factor = expand_shape_primitive(i, j)
        for _ in range(exp):
            poly = _poly_mul(poly, factor)
    for p, q, r, exp in spec.color_triples:
        factor = expand_color_primitive(p, q, r)
        for _ in range(exp):
            poly = _poly_mul(poly, factor)

    width = spec.width
    acc: dict[tuple[MomentIndex, ...], int] = {}
    for mono, coeff in poly.items():
        exps = {pt: [0, 0, 0, 0, 0] for pt in range(1, width + 1)}
        for var, e in mono:
            exps[var.point][VAR_KINDS.index(var.kind)] += e
        factors = tuple(sorted(MomentIndex(*exps[pt]) for pt in exps))
        acc[factors] = acc.get(factors, 0) + coeff

    terms = tuple(
        MonomialTerm(coeff, factors) for factors, coeff in sorted(acc.items()) if coeff != 0
    )
    return MomentPolynomial(terms)


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
# the 50-instance catalogue

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
    """All 50 instances: ids 1..25 with k=0 followed by ids 1..25 with k=1.

    The k=1 instances reuse the k=0 polynomials unchanged; only the moment
    table they are evaluated on differs.
    """
    numerators = []
    for triple, shape in _CATALOGUE:
        core = CoreSpec(shape_factors=shape, color_triples=((*triple, 1),), k=0)
        numerators.append((core, expand_core(core)))

    specs = []
    for k in (0, 1):
        for row_id, ((triple, shape), (core0, numerator)) in enumerate(
            zip(_CATALOGUE, numerators), start=1
        ):
            source = CoreSpec(shape_factors=shape, color_triples=((*triple, 1),), k=k)
            e, denom_exp = normalization_exponents(source)
            specs.append(
                InvariantSpec(
                    id=row_id,
                    k=k,
                    numerator=numerator,
                    area_exponent=e,
                    denom_exponent=denom_exp,
                    source=source,
                )
            )
    return tuple(specs)


# ---------------------------------------------------------------------------
# text format


def serialize_polynomial(poly: MomentPolynomial) -> str:
    """One term per line: ``<coeff> <p,q,a,b,g> <p,q,a,b,g> ...``."""
    lines = []
    for term in poly.terms:
        parts = [str(term.coefficient)] + [f.text() for f in term.factors]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_polynomial(text: str) -> MomentPolynomial:
    """Inverse of :func:`serialize_polynomial`; round-trips exactly.

    Terms are re-canonicalized on input, so reordered or duplicated lines
    still parse to the same polynomial.
    """
    acc: dict[tuple[MomentIndex, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            coeff = int(tokens[0])
        except ValueError:
            raise ParseError(f"bad coefficient {tokens[0]!r}", lineno) from None
        factors = []
        for tok in tokens[1:]:
            fields = tok.split(",")
            if len(fields) != 5:
                raise ParseError(f"index {tok!r} must have 5 comma-separated entries", lineno)
            try:
                exps = [int(x) for x in fields]
            except ValueError:
                raise ParseError(f"non-integer exponent in {tok!r}", lineno) from None
            if any(e < 0 for e in exps):
                raise ParseError(f"negative exponent in {tok!r}", lineno)
            factors.append(MomentIndex(*exps))
        key = tuple(sorted(factors))
        acc[key] = acc.get(key, 0) + coeff
    terms = tuple(MonomialTerm(c, f) for f, c in sorted(acc.items()) if c != 0)
    return MomentPolynomial(terms)
