"""Brute-force multi-point reference for core integrals and invariants.

Cores are evaluated literally as nested sums over all tuples of masked
pixels, one index per integration point. No moment factorization is
involved, so agreement with the polynomial path validates the symbolic
expansion end to end. Centering and the degeneracy floor are shared with
the engine so that discrepancies isolate the expansion logic.

A core of t points is contracted to a scalar with one subscript per point
and one operand per factor: the w x w shape primitive or the w x w x w
colour determinant, raised to the factor's power, over the factor's own
points, and a vector of ones for each point no factor holds. Numpy's greedy
path (``np.einsum_path``, after opt_einsum) becomes, once per core and
domain size on first use, a list of steps; each contracts two operands (a
lone operand, in a one-factor core) to the points they share with the
operands left. A step that sums a point both its operands hold and keeps
a point runs as one ``np.matmul``, a BLAS product, with its transposes and
reshapes planned from the subscripts; every other step (a product with no
point summed, a full sum to a scalar, a lone operand, a product whose
matrix would have a batch point at unit stride) runs as one plain
``np.einsum``, numpy's C loop. Either way every point tuple is summed. No
operand or intermediate of a catalogue core holds more than three points,
so none holds more than w**3 values. Both primitives come from one minor,
u_i v_j - v_i u_j: the shape primitive is minor(x, y), and the colour
determinant is its cofactor expansion along red,
r (x) minor(g, b) - g (x) minor(r, b) + b (x) minor(r, g).

Intended for tiny images only; the tuple count is guarded.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial

import numpy as np

from .algebra import CoreSpec, catalogue_specs
from .engine import FeatureVector, RasterImage, centred_values, degeneracy_floor, stable_sum
from .errors import TooLarge

#: hard ceiling on (masked pixel count) ** (integration points)
TUPLE_GUARD = 10**8

#: the quadratic colour core, the normalizer of every invariant
_D2 = CoreSpec(color_triples=((1, 2, 3, 2),))

#: einsum subscript of integration point p is _LABELS[p - 1]
_LABELS = "abcdefghijklmnopqrstuvwxyz"


def _minor(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i v_j - v_i u_j over every point pair (i, j)."""
    return np.multiply.outer(u, v) - np.multiply.outer(v, u)


def _subscripts(points: tuple[int, ...]) -> str:
    return "".join(_LABELS[p - 1] for p in points)


def _matmul_kernel(inputs: list[str], kept: str, size: int):
    """The two-operand step ``inputs -> kept`` as one np.matmul: the step's
    output subscripts and its kernel, or None where the step is no matrix
    product.

    Each operand is C-contiguous in the order of its subscripts. Points both
    operands hold are summed (inner) or kept (batch); a kept point only one
    holds is a row of the left operand or a column of the right one. Each
    operand is transposed to (batch..., rows, inner) or (batch..., inner,
    cols) and reshaped, a view wherever each group's points lie next to each
    other in memory. The product is reshaped to the points batch + rows +
    cols, a view; the operands swap sides where that lays it out in sorted
    point order. No matrix product is a step that sums no point, keeps none,
    or sums a point one operand alone holds, nor one whose matrix would have
    a batch point at unit stride: numpy's matmul then skips BLAS for a loop
    slower than einsum's.
    """
    x, y = inputs
    inner = [p for p in x if p in y and p not in kept]
    batch = [p for p in x if p in y and p in kept]
    own = {s: [p for p in s if p not in inner + batch] for s in inputs}
    if not inner or not kept or not set(own[x] + own[y]) <= set(kept):
        return None
    if any(own[s] and s[-1] in batch for s in inputs):
        return None
    swap = "".join(batch + own[x] + own[y]) != kept and "".join(batch + own[y] + own[x]) == kept
    left, right = (y, x) if swap else (x, y)
    out = "".join(batch + own[left] + own[right])
    stack = (size,) * len(batch)
    left_perm = [left.index(p) for p in batch + own[left] + inner]
    left_shape = stack + (size ** len(own[left]), size ** len(inner))
    right_perm = [right.index(p) for p in batch + inner + own[right]]
    right_shape = stack + (size ** len(inner), size ** len(own[right]))
    out_shape = (size,) * len(out)

    def kernel(*operands):
        a, b = operands[::-1] if swap else operands
        return np.matmul(a.transpose(left_perm).reshape(left_shape),
                         b.transpose(right_perm).reshape(right_shape)).reshape(out_shape)

    return out, kernel


@lru_cache(maxsize=None)
def _contraction(spec: CoreSpec, size: int) -> tuple[tuple, tuple]:
    """The core's operands (a primitive and exponent each) and the steps of
    numpy's greedy path that contract them to a scalar over a domain of size
    points; built on first use.

    A step pops the operands at its positions, highest first, and appends
    what its kernel makes of them: the points the taken operands share with
    those still left, in the order its subscripts give. The kernel is a
    planned np.matmul (see _matmul_kernel) or np.einsum on the subscripts.
    """
    subscripts = [_subscripts((i, j)) for i, j, _ in spec.shape_factors]
    subscripts += [_subscripts((p, q, r)) for p, q, r, _ in spec.color_triples]
    factors = [("shape", exp) for *_, exp in spec.shape_factors] + [("det", exp) for *_, exp in spec.color_triples]
    for label in _LABELS[: spec.width]:
        if label not in "".join(subscripts):
            subscripts.append(label)
            factors.append(("ones", 1))
    # the path depends on the operands' shapes alone
    shapes = [np.broadcast_to(0.0, (size,) * len(s)) for s in subscripts]
    path, _ = np.einsum_path(",".join(subscripts) + "->", *shapes, optimize="greedy")
    steps = []
    for taken in path[1:]:
        taken = tuple(sorted(taken, reverse=True))
        inputs = [subscripts.pop(n) for n in taken]
        kept = "".join(sorted(set("".join(inputs)) & set("".join(subscripts))))
        matmul = _matmul_kernel(inputs, kept, size) if len(inputs) == 2 else None
        out, kernel = matmul or (kept, partial(np.einsum, ",".join(inputs) + "->" + kept))
        subscripts.append(out)
        steps.append((taken, ",".join(inputs) + "->" + out, kernel))
    return tuple(factors), tuple(steps)


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
        return _minor(*self.values[:2])

    @cached_property
    def det(self) -> np.ndarray:
        """The channel determinant over every point triple, by cofactors of
        the red channel."""
        rc, gc, bc = self.values[2:]
        det = np.multiply.outer(rc, _minor(gc, bc))
        det -= np.multiply.outer(gc, _minor(rc, bc))
        det += np.multiply.outer(bc, _minor(rc, gc))
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
    """The core summed over every tuple of domain points, step by step; inf or nan on overflow."""
    factors, steps = _contraction(spec, dom.size)
    operands = [dom.power(*factor) for factor in factors]
    for taken, _, kernel in steps:
        operands.append(kernel(*[operands.pop(n) for n in taken]))
    return float(operands[0])


def _normalizer(dom: _Domain) -> float | None:
    """The quadratic colour core; None where it underflows the engine's floor,
    which no core of a zero-point domain passes, or is not finite."""
    d2 = _core_sum(dom, _D2)
    squares = [stable_sum(c * c) for c in dom.values[2:]]
    return d2 if degeneracy_floor(float(dom.size), squares) < d2 < np.inf else None


@np.errstate(over="ignore", invalid="ignore")
def brute_force_core_integral(img: RasterImage, spec: CoreSpec, k: int) -> float:
    """Nested summation of the core over all point tuples of the k domain.

    An empty k=1 domain, one that stencil erosion empties, sums to 0.0.
    Raises EmptyDomain when the mask has no pixels, and InvalidSpec, from
    centred_values, unless k is the integer 0 or 1.
    """
    return _core_sum(_Domain(img, k, spec.width), spec)


@np.errstate(over="ignore", invalid="ignore")
def brute_force_features(img: RasterImage) -> FeatureVector:
    """All 50 invariants by brute force, entry for entry as scdmi50 lays them out.

    Each k-domain's centred values, primitives and quadratic core are built
    once. Entries of a k are invalid where the quadratic core underflows the
    degeneracy floor, as it does on a k=1 domain that stencil erosion
    empties, and an entry is invalid where it overflows. Raises EmptyDomain,
    as scdmi50 does, when the mask has no pixels.
    """
    specs = catalogue_specs()
    width = max(max(spec.source.width for spec in specs), _D2.width)
    values = np.zeros(50)
    valid = np.zeros(50, dtype=bool)
    for k in (0, 1):
        dom = _Domain(img, k, width)
        d2 = _normalizer(dom)
        if d2 is None:
            continue
        for pos, spec in enumerate(specs, start=25 * k):
            numer = _core_sum(dom, spec.source)
            value = numer / (float(dom.size) ** float(spec.area_exponent) * d2 ** float(spec.denom_exponent))
            if np.isfinite(value):
                values[pos], valid[pos] = value, True
    return FeatureVector(values, valid)
