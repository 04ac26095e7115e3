"""Brute-force multi-point reference for core integrals and invariants.

Cores are evaluated literally as nested sums over all tuples of masked
pixels, one index per integration point. No moment factorization is
involved, so agreement with the polynomial path validates the symbolic
expansion end to end. Centering, the degeneracy floor and the summation
policy are shared with the engine so that discrepancies isolate the
expansion logic.

A core of t points is summed over its last point t first, then over the
other t-1 points at once. Each factor is raised to its power over its own
points: the w x w shape primitive, the w x w x w colour determinant. The
factors that hold point t give its sum: one such factor is summed along
its last axis; two form one batched ``np.matmul``, batched over the points
they share and contracted over t; past two, they are multiplied together
while their points span fewer than t points. A core whose point t three
factors still hold (instances 3, 4 and 5) takes one ``np.einsum`` over all
its factors without contraction reordering, which forms every tuple's
product and sums point t. The factors without point t then multiply the
(t-1)-point array of last-point sums, and stable_sum adds its w**(t-1)
partial sums. Beyond the colour determinant, no array holds more than
w**(t-1) values. The order of these steps, a core's plan, depends on the
core alone and is built on the core's first sum.

Intended for tiny images only; the tuple count is guarded.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .algebra import _PERM_SIGNS, CoreSpec, catalogue_specs
from .engine import FeatureVector, RasterImage, centred_values, degeneracy_floor, stable_sum
from .errors import EmptyDomain, TooLarge

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


def _arrange(arr: np.ndarray, points: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """A view of arr, whose axes are its points, with one axis per point of
    order: arr's points in order's order, length 1 where arr lacks a point."""
    axes = sorted(range(len(points)), key=lambda a: order.index(points[a]))
    return arr.transpose(axes).reshape([arr.shape[0] if p in points else 1 for p in order])


class _Plan(NamedTuple):
    """The order in which one core is summed.

    Operands are numbered as in ``points``, the point tuple of each: the
    factor powers (``factors``, a primitive and exponent each) first, then
    the product of each ``merges`` pair. Every tuple is sorted, so point t
    is an operand's last axis. ``holders`` hold point t (for the einsum
    step, every operand) and give its sum by ``step``, an array whose axes
    are the points ``summed``; the ``rest`` multiply it into the partial
    sums, whose axes are the points ``order``.
    """

    width: int
    factors: tuple[tuple[str, int], ...]
    points: tuple[tuple[int, ...], ...]
    merges: tuple[tuple[int, int], ...]
    holders: tuple[int, ...]
    rest: tuple[int, ...]
    step: str
    summed: tuple[int, ...]
    order: tuple[int, ...]

    @property
    def subscripts(self) -> str:
        """The sum over point t as einsum subscripts, holders to summed."""
        inputs = ",".join(_subscripts(self.points[n]) for n in self.holders)
        return f"{inputs}->{_subscripts(self.summed)}"


@lru_cache(maxsize=None)
def _plan(spec: CoreSpec) -> _Plan:
    """The summation plan of one core, built on its first use."""
    t = spec.width
    points = [(i, j) for i, j, _ in spec.shape_factors] + [(p, q, r) for p, q, r, _ in spec.color_triples]
    factors = [("shape", exp) for *_, exp in spec.shape_factors] + [("det", exp) for *_, exp in spec.color_triples]
    covered = {p for pts in points for p in pts}
    for p in range(1, t + 1):
        if p not in covered:
            points.append((p,))
            factors.append(("ones", 1))
    holders = [n for n, pts in enumerate(points) if t in pts]
    rest = tuple(n for n, pts in enumerate(points) if t not in pts)
    # past two holders, multiply two while their points span fewer than t
    # points: the smallest span first, then the fewest points added to either
    merges = []
    while len(holders) > 2:
        best = None
        for x, y in combinations(holders, 2):
            union = tuple(sorted({*points[x], *points[y]}))
            key = (len(union), len(union) - max(len(points[x]), len(points[y])))
            if len(union) < t and (best is None or key < best[0]):
                best = key, x, y, union
        if best is None:
            break
        _, x, y, union = best
        merges.append((x, y))
        holders = [n for n in holders if n not in (x, y)] + [len(points)]
        points.append(union)
    if len(holders) == 1:
        step, summed = "sum", points[holders[0]][:-1]
    elif len(holders) == 2:
        # batched over the shared points; the rows are the points of the larger
        # holder alone, the columns those of the other alone
        holders.sort(key=lambda n: -len(points[n]))
        px, py = (points[n][:-1] for n in holders)
        step = "matmul"
        summed = tuple(p for p in px if p in py) + tuple(p for p in px if p not in py)
        summed += tuple(p for p in py if p not in px)
    else:
        # three factors still hold point t: one einsum, every factor its input
        step, summed = "einsum", tuple(range(1, t))
        holders, rest = sorted(holders + list(rest)), ()
    order = summed + tuple(p for p in range(1, t) if p not in summed)
    return _Plan(t, tuple(factors), tuple(points), tuple(merges), tuple(holders), rest, step, summed, order)


class _Domain:
    """One k-domain's centred values, with each primitive and factor power
    built on first use and read-only.

    Raises TooLarge before anything is built when w**width tuples exceed
    the guard.
    """

    def __init__(self, img: RasterImage, k: int, width: int):
        self.values = centred_values(img, k)
        self.size = self.values[0].size
        if self.size**width > TUPLE_GUARD:
            raise TooLarge(f"{self.size} pixels with {width} points exceeds the tuple guard")
        self._powers: dict[tuple[str, int], np.ndarray] = {}

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

    @cached_property
    def ones(self) -> np.ndarray:
        """1 at every point: the factor of a point no primitive holds."""
        return np.ones(self.size)

    def power(self, primitive: str, exp: int) -> np.ndarray:
        """The primitive ("shape", "det" or "ones") raised to exp."""
        key = primitive, exp
        if key not in self._powers:
            base = getattr(self, primitive)
            self._powers[key] = base if exp == 1 else base**exp
            self._powers[key].flags.writeable = False
        return self._powers[key]


def _core_sum(dom: _Domain, spec: CoreSpec) -> float:
    """The core summed over every tuple of domain points, in the order of its plan."""
    plan = _plan(spec)
    w, t, pts = dom.size, plan.width, plan.points
    ops = [dom.power(primitive, exp) for primitive, exp in plan.factors]
    for x, y in plan.merges:
        union = pts[len(ops)]
        ops.append(_arrange(ops[x], pts[x], union) * _arrange(ops[y], pts[y], union))
    holders = [ops[n] for n in plan.holders]
    if plan.step == "sum":
        summed = holders[0].sum(axis=-1)
    elif plan.step == "matmul":
        # summed lists the shared points, then those of x alone, then those of y alone
        (x, y), (px, py) = holders, (pts[n] for n in plan.holders)
        rows = _arrange(x, px, tuple(p for p in plan.summed if p in px) + (t,))
        cols = _arrange(y, py, tuple(p for p in plan.summed if p in py) + (t,))
        n = w ** len(set(px) & set(py) - {t})
        summed = np.matmul(rows.reshape(n, -1, w), cols.reshape(n, -1, w).swapaxes(1, 2))
    else:
        summed = np.einsum(plan.subscripts, *holders, optimize=False)
    partials = np.reshape(summed, [w if p in plan.summed else 1 for p in plan.order])
    for n in plan.rest:
        factor = _arrange(ops[n], pts[n], plan.order)
        if partials.shape == (w,) * (t - 1):
            partials *= factor
        else:
            partials = partials * factor
    return stable_sum(partials)


def _normalizer(dom: _Domain) -> float | None:
    """The quadratic colour core; None where it underflows the engine's floor."""
    d2 = _core_sum(dom, _D2)
    squares = [stable_sum(c * c) for c in dom.values[2:]]
    return d2 if d2 > degeneracy_floor(float(dom.size), squares) else None


def brute_force_core_integral(img: RasterImage, spec: CoreSpec, k: int) -> float:
    """Nested summation of the core over all point tuples of the k domain."""
    return _core_sum(_Domain(img, k, spec.width), spec)


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
        d2 = _normalizer(dom)
        if d2 is None:
            continue
        for pos, spec in enumerate(specs, start=25 * k):
            numer = _core_sum(dom, spec.source)
            values[pos] = numer / (float(dom.size) ** float(spec.area_exponent) * d2 ** float(spec.denom_exponent))
            valid[pos] = True
    return FeatureVector(values, valid)
