"""Brute-force multi-point reference for core integrals and invariants.

Cores are evaluated literally as nested sums over all tuples of masked
pixels, with one tensor axis per integration point. No moment factorization
is involved, so agreement with the polynomial path validates the symbolic
expansion end to end. Centering, channel construction and the summation
policy are shared with the engine so that discrepancies isolate the
expansion logic.

Intended for tiny images only; the tuple count is guarded.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .algebra import _PERM_SIGNS, CoreSpec, InvariantSpec
from .engine import RasterImage, centred_values, degeneracy_floor, stable_sum
from .errors import Degenerate, TooLarge

#: hard ceiling on (masked pixel count) ** (integration points)
TUPLE_GUARD = 10**8


def _axis_view(vec: np.ndarray, axis: int, width: int) -> np.ndarray:
    shape = [1] * width
    shape[axis] = vec.size
    return vec.reshape(shape)


def _pair_view(arr: np.ndarray, axes: tuple[int, int], width: int) -> np.ndarray:
    # axes are strictly increasing, so a plain reshape places them correctly
    shape = [1] * width
    shape[axes[0]] = arr.shape[0]
    shape[axes[1]] = arr.shape[1]
    return arr.reshape(shape)


def _triple_view(arr: np.ndarray, axes: tuple[int, int, int], width: int) -> np.ndarray:
    shape = [1] * width
    for pos, ax in enumerate(axes):
        shape[ax] = arr.shape[pos]
    return arr.reshape(shape)


def _core_sum(values, spec: CoreSpec) -> float:
    xc, yc, rc, gc, bc = values
    w = xc.size
    t = spec.width
    acc = np.ones((w,) * t)
    if spec.shape_factors:
        # the primitive does not depend on the factor's points: build it once
        prim = np.multiply.outer(xc, yc) - np.multiply.outer(yc, xc)
        for i, j, exp in spec.shape_factors:
            view = _pair_view(prim, (i - 1, j - 1), t)
            for _ in range(exp):
                acc *= view
    if spec.color_triples:
        det = np.zeros((w, w, w))
        for (a, b, c), sign in zip(permutations((0, 1, 2)), _PERM_SIGNS):
            det += sign * (
                _axis_view(rc, a, 3) * _axis_view(gc, b, 3) * _axis_view(bc, c, 3)
            )
        for p, q, r, exp in spec.color_triples:
            view = _triple_view(det, (p - 1, q - 1, r - 1), t)
            for _ in range(exp):
                acc *= view
    return stable_sum(acc)


def brute_force_core_integral(img: RasterImage, spec: CoreSpec) -> float:
    """Nested summation of the core over all masked point tuples."""
    values = centred_values(img, spec.k)
    w = values[0].size
    if w ** spec.width > TUPLE_GUARD:
        raise TooLarge(f"{w} pixels with {spec.width} points exceeds the tuple guard")
    return _core_sum(values, spec)


def brute_force_invariant(img: RasterImage, spec: InvariantSpec) -> float:
    """Normalized invariant computed entirely by brute force.

    Raises Degenerate when the quadratic color core underflows the same
    relative floor the engine uses.
    """
    src = spec.source
    values = centred_values(img, src.k)
    w = values[0].size
    if w ** src.width > TUPLE_GUARD:
        raise TooLarge(f"{w} pixels with {src.width} points exceeds the tuple guard")
    numer = _core_sum(values, src)
    denom_core = CoreSpec(color_triples=((1, 2, 3, 2),), k=src.k)
    d2 = _core_sum(values, denom_core)
    m00 = float(w)
    squares = [float(np.sum(c * c)) for c in values[2:]]
    if not (d2 > degeneracy_floor(m00, squares)):
        raise Degenerate("quadratic color core underflows the degeneracy floor")
    return numer / (m00 ** float(spec.area_exponent) * d2 ** float(spec.denom_exponent))
