"""The catalogue compiled for evaluation, and its core sums, summed exactly.

compiled_catalogue lays the 25 shared numerators and the quadratic colour
core D2 out as one array of terms over a moment vector, and the moments as
the program of the engine's moment walk. core_sums multiplies the terms of
a moment vector out and sums each polynomial's terms exactly rounded, bit for
bit as math.fsum sums them, with _exact_sums: one vectorised pass over the
terms of one table or of two, which scdmi50 passes together.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import MomentIndex, catalogue_specs, denominator_polynomial

#: the three channels' centred sums of squares, which set the degeneracy floor
_SQUARES = (MomentIndex(0, 0, 2, 0, 0), MomentIndex(0, 0, 0, 2, 0), MomentIndex(0, 0, 0, 0, 2))

#: the smallest normal float
_TINY = sys.float_info.min


@dataclass(frozen=True)
class CompiledCatalogue:
    """The 25 shared numerators and the quadratic core as one term array.

    Term t is ``coefficients[t] * v[factors[0, t]] * ... * v[factors[-1, t]]``,
    multiplied left to right, where v holds a moment vector (``indices``
    order, m00 first) followed by 1.0; the 1.0 slot pads shorter terms, so
    the padding products are exact. ``bounds[i]:bounds[i+1]`` are the terms
    of numerator i for i < 25, and the last range is the quadratic core.
    ``run_starts``, ``run_lengths`` and ``run_scales`` describe those 26
    ranges twice over, as the runs of two tables' terms laid end to end:
    each run's first term, its term count n, and its 2^M for _exact_sums,
    M the least with 2^M >= n + 2.
    ``squares`` are the slots of the three channels' sums of squares.
    ``products[i]`` is moment i + 1 as (p, q, ((channel, e), ...)): its x
    and y exponents and its non-zero channel powers, channels counted from
    red, in channel order; the engine's moment walk forms the product
    vectors from them.
    """

    indices: tuple[MomentIndex, ...]
    factors: np.ndarray
    coefficients: np.ndarray
    bounds: tuple[int, ...]
    run_starts: np.ndarray
    run_lengths: np.ndarray
    run_scales: np.ndarray
    area_exponents: tuple[float, ...]
    denom_exponents: tuple[float, ...]
    squares: tuple[int, ...]
    products: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]


@lru_cache(maxsize=1)
def compiled_catalogue() -> CompiledCatalogue:
    """Compile the catalogue once; both k share it, as they share numerators.

    The moments are m00, the pixel count, then exactly the indices that some
    term reads, in sorted order.
    """
    shared = catalogue_specs()
    polys = [spec.numerator for spec in shared] + [denominator_polynomial()]
    terms = [t for poly in polys for t in poly.terms]
    indices = (MomentIndex(0, 0, 0, 0, 0), *sorted({f for t in terms for f in t.factors}))
    slot = {idx: i for i, idx in enumerate(indices)}
    one = len(indices)
    width = max(len(t.factors) for t in terms)
    factors = np.full((width, len(terms)), one, dtype=np.intp)
    for col, term in enumerate(terms):
        factors[: len(term.factors), col] = [slot[f] for f in term.factors]
    bounds = np.cumsum([0] + [len(poly) for poly in polys])
    lengths = np.tile(np.diff(bounds), 2)

    return CompiledCatalogue(
        indices=indices,
        factors=factors,
        coefficients=np.array([float(t.coefficient) for t in terms]),
        bounds=tuple(int(b) for b in bounds),
        run_starts=np.concatenate(([0], np.cumsum(lengths)[:-1])),
        run_lengths=lengths,
        run_scales=np.array([2.0 ** (int(n) + 1).bit_length() for n in lengths]),
        area_exponents=tuple(float(s.area_exponent) for s in shared),
        denom_exponents=tuple(float(s.denom_exponent) for s in shared),
        squares=tuple(slot[sq] for sq in _SQUARES),
        products=tuple((idx.p, idx.q, tuple((c, e) for c, e in enumerate(idx[2:]) if e)) for idx in indices[1:]),
    )


def _exact_sums(terms: np.ndarray, starts: np.ndarray, lengths: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The sum of each run ``terms[starts[i] : starts[i] + lengths[i]]``, exactly rounded.

    Each sum equals math.fsum of its run bit for bit, but all runs are
    summed at once by whole-array operations, by the error-free extraction
    of Rump, Ogita and Oishi ("Accurate floating-point summation part I:
    faithful rounding", SIAM J. Sci. Comput. 31(1), 2008). ``terms`` is
    overwritten. The first pass takes mu, the largest |t| of a
    run, and sigma = 2^(M + e), where mu < 2^e and 2^M >= n + 2 for a run of
    n terms (``scales`` holds 2^M). Then q = (sigma + t) - sigma and t - q
    are exact, every q is a multiple of 2^-53 sigma and the run's q sum under
    sigma, so the level sum of the q is exact in any order. Each residual
    t - q is at most half an ulp of sigma, under 2^(e + M - 52), and the next
    pass takes that bound for e. Passes repeat until every residual is zero,
    each taking 52 - M bits off every run's range, so runs whose terms span
    fewer than 52 - 2M bits need two. Two exact level sums round correctly
    in one addition; more are rounded by math.fsum. A run with a non-finite
    term sums to nan. A run whose first sigma would pass the float range,
    for terms from about 2^1014 up, is summed by math.fsum alone, and to nan
    where fsum overflows.
    """
    # the largest |t| of each run, with no |t| array; nan where a term is nan
    mu = np.maximum(np.maximum.reduceat(terms, starts), -np.minimum.reduceat(terms, starts))
    with np.errstate(over="ignore", invalid="ignore"):
        # 2^e is mu over its frexp mantissa, exactly; mu is raised to the
        # smallest normal float first, and sigma is nan or inf where mu is
        # not finite or sigma passes the float range
        mu = np.maximum(mu, _TINY)
        sigma = mu / np.frexp(mu)[0]
        sigma *= scales
    aside = [] if sigma.max() < math.inf else [i for i, s in enumerate(sigma.tolist()) if not s < math.inf]
    apart = {}
    for i in aside:
        run = terms[starts[i] : starts[i] + lengths[i]]
        try:
            apart[i] = math.fsum(run.tolist()) if math.isfinite(mu[i]) else math.nan
        except OverflowError:
            apart[i] = math.nan
        run[:] = 0.0
        sigma[i] = 1.0
    levels = []
    while True:
        spread = np.repeat(sigma, lengths)
        q = spread + terms
        q -= spread
        terms -= q
        levels.append(np.add.reduceat(q, starts))
        if not terms.any():
            break
        sigma *= scales * 2.0**-52
    if len(levels) > 2:
        sums = np.array([math.fsum(run) for run in zip(*(level.tolist() for level in levels))])
    else:
        sums = levels[0] + levels[1] if len(levels) == 2 else levels[0]
    for i, total in apart.items():
        sums[i] = total
    return sums


def core_sum_rows(tables: Sequence[np.ndarray]) -> np.ndarray:
    """The 26 core sums of each of one or two moment vectors, one row per vector."""
    prog = compiled_catalogue()
    n, runs = prog.bounds[-1], len(prog.bounds) - 1
    terms = np.empty(len(tables) * n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, moments in enumerate(tables):
            # each table's factors gathered on their own: one (4, 2n) index
            # array for both tables raised peak RSS by 0.4-0.65 MB
            factors = np.append(moments, 1.0)[prog.factors]
            table = terms[i * n : (i + 1) * n]
            np.multiply(prog.coefficients, factors[0], out=table)
            for row in factors[1:]:
                table *= row
    k = len(tables) * runs
    sums = _exact_sums(terms, prog.run_starts[:k], prog.run_lengths[:k], prog.run_scales[:k]).reshape(-1, runs)
    sums[~np.isfinite(sums).all(axis=1)] = np.nan
    return sums


def core_sums(moments: np.ndarray) -> np.ndarray:
    """The 25 numerator sums and the quadratic core D2 of one moment vector.

    Every term is rounded in one fixed order, the coefficient times the
    factors in sorted order, and each range is summed exactly rounded, bit
    for bit as math.fsum sums it, so the sums do not depend on the order of
    the terms. _exact_sums sums every range in one vectorised pass, by the
    error-free extraction of Rump, Ogita and Oishi (2008); scdmi50 passes
    both tables' terms through it together, by core_sum_rows. All 26 sums
    are nan when a term is non-finite or a sum overflows.
    """
    return core_sum_rows([moments])[0]
