"""Brute-force multi-point reference for core integrals and invariants.

Cores are evaluated literally as nested sums over all tuples of masked
pixels, one index per integration point. No moment factorization is
involved, so agreement with the polynomial path validates the symbolic
expansion end to end. Centering, the degeneracy floor and the summation
policy are shared with the engine so that discrepancies isolate the
expansion logic.

A core of t points is summed in three steps. Each factor is raised to its
power over its own points: the w x w shape primitive, the w x w x w colour
determinant. Factors are multiplied together while their points span fewer
than t points, so no array holds more than w**(t-1) values. One
``np.einsum`` without contraction reordering then forms every tuple's
product and adds up the last point's w terms, and stable_sum adds the
w**(t-1) partial sums.

Intended for tiny images only; the tuple count is guarded.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .algebra import _PERM_SIGNS, CoreSpec, InvariantSpec, catalogue_specs
from .engine import FeatureVector, RasterImage, centred_values, degeneracy_floor, stable_sum
from .errors import Degenerate, EmptyDomain, TooLarge

#: hard ceiling on (masked pixel count) ** (integration points)
TUPLE_GUARD = 10**8

#: the quadratic colour core, the normalizer of every invariant
_D2 = CoreSpec(color_triples=((1, 2, 3, 2),))

#: einsum subscript of integration point p is _LABELS[p - 1]
_LABELS = "abcdefghijklmnopqrstuvwxyz"


def _axis_view(vec: np.ndarray, axis: int, width: int) -> np.ndarray:
    shape = [1] * width
    shape[axis] = vec.size
    return vec.reshape(shape)


def _subscripts(points: tuple[int, ...]) -> str:
    return "".join(_LABELS[p - 1] for p in points)


class _Domain:
    """One k-domain's centred values, with each primitive built on first use.

    Raises TooLarge before anything is built when w**width tuples exceed
    the guard.
    """

    def __init__(self, img: RasterImage, k: int, width: int):
        self.values = centred_values(img, k)
        self.size = self.values[0].size
        if self.size**width > TUPLE_GUARD:
            raise TooLarge(f"{self.size} pixels with {width} points exceeds the tuple guard")

    @cached_property
    def shape(self) -> np.ndarray:
        """x_i y_j - y_i x_j over every point pair (i, j)."""
        xc, yc = self.values[:2]
        return np.multiply.outer(xc, yc) - np.multiply.outer(yc, xc)

    @cached_property
    def det(self) -> np.ndarray:
        """The channel determinant over every point triple."""
        rc, gc, bc = self.values[2:]
        det = np.zeros((self.size,) * 3)
        for (a, b, c), sign in zip(permutations((0, 1, 2)), _PERM_SIGNS):
            det += sign * (_axis_view(rc, a, 3) * _axis_view(gc, b, 3) * _axis_view(bc, c, 3))
        return det


def _core_sum(dom: _Domain, spec: CoreSpec) -> float:
    """The core summed over every tuple of domain points, one literal product per tuple."""
    t = spec.width
    ops = [((i, j), dom.shape**exp) for i, j, exp in spec.shape_factors]
    ops += [((p, q, r), dom.det**exp) for p, q, r, exp in spec.color_triples]
    covered = {p for points, _ in ops for p in points}
    ops += [((p,), np.ones(dom.size)) for p in range(1, t + 1) if p not in covered]
    # multiply two factors while their points span fewer than t points:
    # the smallest span first, then the fewest points added to either
    while True:
        best = None
        for x, y in combinations(range(len(ops)), 2):
            union = tuple(sorted({*ops[x][0], *ops[y][0]}))
            key = (len(union), len(union) - max(len(ops[x][0]), len(ops[y][0])))
            if len(union) < t and (best is None or key < best[0]):
                best = key, x, y, union
        if best is None:
            break
        _, x, y, union = best
        (px, ax), (py, ay) = ops[x], ops[y]
        subscripts = f"{_subscripts(px)},{_subscripts(py)}->{_subscripts(union)}"
        merged = np.einsum(subscripts, ax, ay, optimize=False)
        ops = [op for n, op in enumerate(ops) if n not in (x, y)] + [(union, merged)]
    inputs = ",".join(_subscripts(points) for points, _ in ops)
    partials = np.einsum(f"{inputs}->{_LABELS[: t - 1]}", *(a for _, a in ops), optimize=False)
    return stable_sum(partials)


def _normalizer(dom: _Domain) -> float:
    """The quadratic colour core; Degenerate where it underflows the engine's floor."""
    d2 = _core_sum(dom, _D2)
    squares = [float(np.sum(c * c)) for c in dom.values[2:]]
    if not (d2 > degeneracy_floor(float(dom.size), squares)):
        raise Degenerate("quadratic color core underflows the degeneracy floor")
    return d2


def _invariant(dom: _Domain, spec: InvariantSpec, d2: float) -> float:
    numer = _core_sum(dom, spec.source)
    return numer / (float(dom.size) ** float(spec.area_exponent) * d2 ** float(spec.denom_exponent))


def brute_force_core_integral(img: RasterImage, spec: CoreSpec) -> float:
    """Nested summation of the core over all masked point tuples."""
    return _core_sum(_Domain(img, spec.k, spec.width), spec)


def brute_force_invariant(img: RasterImage, spec: InvariantSpec) -> float:
    """Normalized invariant computed entirely by brute force.

    Raises Degenerate when the quadratic color core underflows the same
    relative floor the engine uses.
    """
    src = spec.source
    dom = _Domain(img, src.k, max(src.width, _D2.width))
    return _invariant(dom, spec, _normalizer(dom))


def brute_force_features(img: RasterImage) -> FeatureVector:
    """All 50 invariants by brute force, entry for entry as scdmi50 lays them out.

    Each k-domain's centred values, primitives and quadratic core are built
    once. Entries of a k are invalid where the quadratic core underflows the
    degeneracy floor, or where stencil erosion empties the k=1 domain. Raises
    as scdmi50 does on an empty mask or an image under 5x5 pixels.
    """
    specs = catalogue_specs()
    width = max(max(spec.source.width for spec in specs), _D2.width)
    values = np.zeros(50)
    valid = np.zeros(50, dtype=bool)
    for k in (0, 1):
        try:
            dom = _Domain(img, k, width)
        except EmptyDomain:
            if k == 0:
                raise
            continue
        try:
            d2 = _normalizer(dom)
        except Degenerate:
            continue
        for pos, spec in enumerate(specs):
            if spec.k == k:
                values[pos] = _invariant(dom, spec, d2)
                valid[pos] = True
    return FeatureVector(values, valid)
