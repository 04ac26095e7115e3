"""Generalized moments and invariant evaluation on masked raster images.

Images are three real-valued channel planes plus a boolean mask that defines
the integration domain. Moments are plain sums over masked pixels with unit
pixel area; pixel (column i, row j) sits at coordinates (i, j). One centring
step (centred_values) gives the centred coordinates and channels for either
derivative order: k=0 uses the raw channels, k=1 the radial first-derivative
combination built from an unnormalized 5-point difference stencil; the
stencil's missing 1/12 factor cancels in every invariant because numerator
and denominator scale by the same channel power. moment_vector sums their
products into one dense vector per k, by the policy of stable_sum, and
evaluate_table reads that vector. moment_tables runs the k=1 pass beside
the k=0 pass, as a future on a one-worker thread pool, when the mask holds
more than one leaf of pixels and the process may use more than one CPU;
the vectors are the same bit for bit either way.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import MomentIndex, denominator_polynomial, catalogue_specs
from .errors import EmptyDomain, InvalidImage, TooSmall

#: relative floor below which the quadratic color core counts as degenerate
DEGENERACY_EPS = 1e-12

#: elements per block: numpy sums each block pairwise, math.fsum merges the blocks
_BLOCK = 1 << 16

#: most pixels whose product vectors moment_vector forms at once; a leaf of
#: numpy's pairwise split of a block, so any size gives the same sums
_LEAF = 1 << 15


def _merge(partials: list[float]) -> float:
    """Block sums merged exactly rounded by fsum.

    Where fsum raises, on +inf and -inf partials or on an overflowing
    intermediate, the result is the IEEE sum (nan or ±inf), as for a single
    block.
    """
    try:
        return math.fsum(partials)
    except (ValueError, OverflowError):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(partials))


def stable_sum(values: np.ndarray) -> float:
    """Sum of a float array by one policy at every size.

    High-order central moments cancel heavily. Each 2^16-element block is
    summed pairwise by numpy, with error O(eps * log2(2^16) * sum|x_i|)
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4), and the
    block sums are merged exactly rounded by Shewchuk's algorithm (1997) in
    math.fsum, so the bound does not grow with the array. An array of one
    block or less sums to float(np.sum(values)), except that -0.0 reads 0.0.
    moment_vector sums every moment's product vector by this policy.
    """
    flat = np.ravel(np.asarray(values, dtype=np.float64))
    return _merge([float(np.sum(flat[i : i + _BLOCK])) for i in range(0, flat.size, _BLOCK)])


@dataclass
class RasterImage:
    """Three real channel planes plus the boolean integration mask."""

    red: np.ndarray
    green: np.ndarray
    blue: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.red = np.asarray(self.red, dtype=np.float64)
        self.green = np.asarray(self.green, dtype=np.float64)
        self.blue = np.asarray(self.blue, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        shapes = {self.red.shape, self.green.shape, self.blue.shape, self.mask.shape}
        if len(shapes) != 1 or self.red.ndim != 2:
            raise InvalidImage("channel planes and mask must share one 2-D shape")

    @property
    def height(self) -> int:
        return self.red.shape[0]

    @property
    def width(self) -> int:
        return self.red.shape[1]

    def channels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.red, self.green, self.blue)

    @classmethod
    def from_array(cls, rgb: np.ndarray, mask: np.ndarray | None = None) -> "RasterImage":
        """Build from an (H, W, 3) array; mask defaults to all-true."""
        rgb = np.asarray(rgb, dtype=np.float64)
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise InvalidImage("expected an (H, W, 3) array")
        if mask is None:
            mask = np.ones(rgb.shape[:2], dtype=bool)
        return cls(rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2], mask)


@dataclass
class FeatureVector:
    """The 50 invariant values plus validity: entry 25*k + id - 1 is instance id on table k."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.shape != (50,) or self.valid.shape != (50,):
            raise ValueError("feature vector must hold exactly 50 entries")


# ---------------------------------------------------------------------------
# centring


def stencil_eroded_mask(mask: np.ndarray) -> np.ndarray:
    """Pixels whose full difference-stencil cross lands on masked pixels."""
    # off the frame counts as unmasked, so only pixels 2 or more in from every
    # edge qualify: the AND of that interior with its 8 slices shifted ±1, ±2
    h, w = mask.shape
    out = np.zeros_like(mask)
    if h >= 5 and w >= 5:
        inner = out[2 : h - 2, 2 : w - 2]
        inner[...] = mask[2 : h - 2, 2 : w - 2]
        for d in (-2, -1, 1, 2):
            inner &= mask[2 + d : h - 2 + d, 2 : w - 2] & mask[2 : h - 2, 2 + d : w - 2 + d]
    return out


def centred_values(img: RasterImage, k: int) -> tuple[np.ndarray, ...]:
    """Centred coordinates and channels (xc, yc, rc, gc, bc) over the k-domain.

    Each array holds one value per domain pixel, in np.nonzero order. For
    k=0 the domain is the mask and the channels are the raw channels minus
    their masked means. For k=1 the domain is the stencil-eroded mask, with
    its own centroid, and the channels are (x - x̄) dC/dx + (y - ȳ) dC/dy,
    not mean-subtracted. dC/dx is the unnormalized 5-point difference
    C(x-2) - 8 C(x-1) + 8 C(x+1) - C(x+2), 12 times the true derivative on
    smooth data.
    """
    if k == 1 and (img.width < 5 or img.height < 5):
        raise TooSmall(f"need at least 5x5 pixels, got {img.width}x{img.height}")
    empty = "mask has no pixels" if k == 0 else "stencil erosion left no pixels"
    # everything runs on views cropped to the mask's bounding box: outside it
    # the mask is False, so the erosion, the pixel order and the stencil at
    # every domain pixel are those of the whole frame
    rows = np.flatnonzero(img.mask.any(axis=1))
    if rows.size == 0:
        raise EmptyDomain(empty)
    cols = np.flatnonzero(img.mask.any(axis=0))
    y0, x0 = int(rows[0]), int(cols[0])
    box = (slice(y0, int(rows[-1]) + 1), slice(x0, int(cols[-1]) + 1))
    mask = img.mask[box] if k == 0 else stencil_eroded_mask(img.mask[box])
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise EmptyDomain(empty)
    ys, xs = np.nonzero(mask)
    # a box at the frame's corner, as every full frame's is, needs no shift
    if y0:
        ys += y0
    if x0:
        xs += x0
    planes = [p[box] for p in img.channels()]
    # non-finite or overflowing channels give nan or inf values, which
    # evaluate_table turns into invalid entries; every array is centred and
    # combined in place, by the same IEEE operations in the same order as
    # the expressions x - mean and a * b + c * d, and the integer
    # coordinates (views of one array) are dropped once converted
    with np.errstate(over="ignore", invalid="ignore"):
        xc, yc = xs.astype(np.float64), ys.astype(np.float64)
        del xs, ys
        xc -= stable_sum(xc) / n
        yc -= stable_sum(yc) / n
        if k == 0:
            channels = [p[mask] for p in planes]
            for c in channels:
                c -= stable_sum(c) / n
            return (xc, yc, *channels)
        # the eroded domain lies inside the 2-pixel margin: the stencil runs
        # on the interior only and is gathered at the domain at once
        h, w = mask.shape
        inner = mask[2 : h - 2, 2 : w - 2]
        channels = []
        for p in planes:
            rows, cols = p[2 : h - 2], p[:, 2 : w - 2]
            ddx = _stencil(rows[:, : w - 4], rows[:, 1 : w - 3], rows[:, 3 : w - 1], rows[:, 4:])[inner]
            ddx *= xc
            ddy = _stencil(cols[: h - 4], cols[1 : h - 3], cols[3 : h - 1], cols[4:])[inner]
            ddy *= yc
            ddx += ddy
            del ddy
            channels.append(ddx)
        return (xc, yc, *channels)


def _stencil(m2: np.ndarray, m1: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """m2 - 8 m1 + 8 p1 - p2 in one new array, rounded as that expression is."""
    out = np.multiply(8.0, m1)
    np.subtract(m2, out, out=out)
    out += np.multiply(8.0, p1)
    out -= p2
    return out


# ---------------------------------------------------------------------------
# moment vectors


def moment_vector(values: Sequence[np.ndarray]) -> np.ndarray:
    """Every moment the catalogue needs, in ``compiled_catalogue().indices`` order.

    ``values`` are the five arrays of centred_values; the first entry is m00,
    the pixel count. The pixels are walked in the blocks stable_sum uses.
    Each block is split as numpy's pairwise sum splits its input, n at n // 2
    rounded down to a multiple of 8, down to leaves of at most ``_LEAF``
    pixels. Over each leaf ``compiled_catalogue().steps`` build the product
    vectors: one no later step reads is formed in one scratch array, and any
    other is dropped after the last step that reads it. Each is reduced by
    numpy's pairwise sum, and the leaf sums are added back up the same tree,
    so every block sum is bit for bit numpy's sum of the block, whatever the
    leaf size. The block sums are merged by fsum, so every moment is the
    stable_sum of its product vector, whatever numpy's BLAS.
    """
    prog = compiled_catalogue()
    npix = values[0].size
    starts = range(0, npix, _BLOCK)
    partials = np.empty((len(starts), len(prog.indices) - 1))
    scratch = np.empty(min(npix, _LEAF))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, lo in enumerate(starts):
            partials[i] = _tree_sums([v[lo : lo + _BLOCK] for v in values], prog, scratch)
    return np.array([float(npix)] + [_merge(sums) for sums in partials.T.tolist()])


def _tree_sums(block: list[np.ndarray], prog: CompiledCatalogue, scratch: np.ndarray) -> np.ndarray:
    """The moment sums of one block, summed over numpy's pairwise split of it."""
    n = block[0].size
    if n > _LEAF:
        half = n // 2 - n // 2 % 8
        left = _tree_sums([v[:half] for v in block], prog, scratch)
        return left + _tree_sums([v[half:] for v in block], prog, scratch)
    sums = np.empty(len(prog.indices) - 1)
    product = scratch[:n]
    rows = []
    for a, b, slot, keep, drop in prog.steps:
        if b < 0:
            row = block[a]
        elif keep:
            row = rows[a] * rows[b]
        else:
            row = np.multiply(rows[a], rows[b], out=product)
        rows.append(row)
        if slot:
            sums[slot - 1] = np.add.reduce(row)
        for r in drop:
            rows[r] = None
    return sums


def _k1_vector(img: RasterImage) -> np.ndarray | None:
    """The k=1 moment vector, or None when stencil erosion empties the mask."""
    try:
        return moment_vector(centred_values(img, 1))
    except EmptyDomain:
        return None


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def moment_tables(img: RasterImage) -> tuple[np.ndarray, np.ndarray | None]:
    """The k=0 and k=1 moment vectors used by the 50-feature evaluation.

    The k=1 vector is computed on the stencil-eroded mask with its own
    centroid; it is None when erosion empties the mask. When the mask holds
    more than one leaf (``_LEAF`` pixels) and the process may use more than
    one CPU, the k=1 pass runs as a future on a one-worker thread pool
    beside the k=0 pass: numpy releases the interpreter lock inside each
    large array operation, so the passes overlap, at the cost of about one
    pass's arrays in peak memory; otherwise they run one after the other.
    The vectors are bit for bit the same either way, and an exception from
    either pass propagates with its type once the pool has joined its worker.
    """
    if np.count_nonzero(img.mask) <= _LEAF or _cpu_count() < 2:
        return moment_vector(centred_values(img, 0)), _k1_vector(img)
    # imported here: concurrent.futures pulls in logging, about 7 ms of `import scdmi`
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        k1 = pool.submit(_k1_vector, img)
        return moment_vector(centred_values(img, 0)), k1.result()


# ---------------------------------------------------------------------------
# invariant evaluation

#: the three channels' centred sums of squares, which set the degeneracy floor
_SQUARES = (MomentIndex(0, 0, 2, 0, 0), MomentIndex(0, 0, 0, 2, 0), MomentIndex(0, 0, 0, 0, 2))


def degeneracy_floor(m00: float, squares: Sequence[float]) -> float:
    """Threshold below which the quadratic color core is treated as zero.

    ``squares`` are the three channels' centred sums of squares. The core
    scales like m00**3 times the sixth power of the channel spread, so the
    floor is relative to both.
    """
    scale_sq = max((squares[0] + squares[1] + squares[2]) / (3.0 * m00), 0.0)
    return DEGENERACY_EPS * m00**3 * scale_sq**3


@dataclass(frozen=True)
class CompiledCatalogue:
    """The 25 shared numerators and the quadratic core as one term array.

    Term t is ``coefficients[t] * v[factors[0, t]] * ... * v[factors[-1, t]]``,
    multiplied left to right, where v holds a moment vector (``indices``
    order, m00 first) followed by 1.0; the 1.0 slot pads shorter terms, so
    the padding products are exact. ``bounds[i]:bounds[i+1]`` are the terms
    of numerator i for i < 25, and the last range is the quadratic core.
    ``squares`` are the slots of the three channels' sums of squares.

    ``steps`` build every moment's product vector over a leaf of pixels,
    one row per step. Step (a, -1, slot, keep, drop) is centred array a;
    step (a, b, slot, keep, drop) is row a times row b, rows counted in
    step order. A power is the one below it times the axis, and a moment's
    product is its non-zero axis powers multiplied left to right in axis
    order (x, y, r, g, b), each product its prefix times one power, so a
    prefix shared by several moments is formed once. The moments and their
    prefixes come in tuple order, each power formed just before its first
    reader, so few product rows are held at once (five for this
    catalogue). Any catalogue builds this way. A row whose ``slot`` is not
    0 is summed into that moment slot. ``keep`` marks the rows a later step
    reads, and ``drop`` lists the rows this step reads for the last time.
    """

    indices: tuple[MomentIndex, ...]
    factors: np.ndarray
    coefficients: np.ndarray
    bounds: tuple[int, ...]
    area_exponents: tuple[float, ...]
    denom_exponents: tuple[float, ...]
    squares: tuple[int, ...]
    steps: tuple[tuple[int, int, int, bool, tuple[int, ...]], ...]


def _product_steps(indices: Sequence[MomentIndex]) -> tuple[tuple[int, int, int, bool, tuple[int, ...]], ...]:
    """CompiledCatalogue's ``steps`` for the moments ``indices``, m00 first."""
    factors = [tuple((axis, e) for axis, e in enumerate(idx) if e) for idx in indices[1:]]
    row: dict = {}
    keys, sources = [], []

    def form(key: tuple) -> int:
        """The row of ``key``, formed after its two sources if not yet formed."""
        if key not in row:
            axis, e = key[-1]
            if len(key) > 1:
                src = (form(key[:-1]), form(key[-1:]))
            elif e > 1:
                src = (form(((axis, e - 1),)), form(((axis, 1),)))
            else:
                src = (axis, -1)
            row[key] = len(keys)
            keys.append(key)
            sources.append(src)
        return row[key]

    # the centred arrays first, then every moment and product prefix in tuple
    # order, each power formed just before its first reader: x^p is held only
    # while the moments that start with it are formed, and the products that
    # extend a prefix follow it with nothing between them
    for axis in sorted({axis for f in factors for axis, _ in f}):
        form(((axis, 1),))
    for key in sorted({f[:n] for f in factors for n in range(1, len(f) + 1)}):
        form(key)
    last = {}
    for step, (a, b) in enumerate(sources):
        if b >= 0:
            last[a] = last[b] = step
    drops = [tuple(r for r in sorted(last) if last[r] == step) for step in range(len(keys))]
    slot = {f: s for s, f in enumerate(factors, start=1)}
    return tuple((a, b, slot.get(key, 0), i in last, drops[i]) for i, (key, (a, b)) in enumerate(zip(keys, sources)))


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

    return CompiledCatalogue(
        indices=indices,
        factors=factors,
        coefficients=np.array([float(t.coefficient) for t in terms]),
        bounds=tuple(int(b) for b in bounds),
        area_exponents=tuple(float(s.area_exponent) for s in shared),
        denom_exponents=tuple(float(s.denom_exponent) for s in shared),
        squares=tuple(slot[sq] for sq in _SQUARES),
        steps=_product_steps(indices),
    )


def core_sums(moments: np.ndarray) -> np.ndarray:
    """The 25 numerator sums and the quadratic core D2 of one moment vector.

    Every term is rounded in one fixed order, the coefficient times the
    factors in sorted order, and each range is summed exactly rounded by
    fsum, whose result does not depend on the order of the terms. All 26
    sums are nan when a term is non-finite or a sum overflows.
    """
    prog = compiled_catalogue()
    v = np.append(moments, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = prog.coefficients * v[prog.factors[0]]
        for row in prog.factors[1:]:
            terms *= v[row]
    b = prog.bounds
    if np.isfinite(terms).all():
        flat = terms.tolist()
        try:
            return np.array([math.fsum(flat[b[i] : b[i + 1]]) for i in range(len(b) - 1)])
        except OverflowError:
            pass
    return np.full(len(b) - 1, np.nan)


def evaluate_table(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 25 invariants of one moment vector: each numerator sum over m00**e * D2**d.

    D2 and the degeneracy floor are evaluated once. A vector whose m00 is
    not positive, whose core sums are not all finite, or whose D2 falls
    under the floor gives 25 invalid entries.
    """
    prog = compiled_catalogue()
    invalid = np.zeros(25), np.zeros(25, dtype=bool)
    m00 = float(moments[0])
    if not (m00 > 0.0):
        return invalid
    sums = core_sums(moments)
    if not np.isfinite(sums).all():
        return invalid
    *nums, d2 = sums.tolist()
    if not (d2 > degeneracy_floor(m00, moments[list(prog.squares)].tolist())):
        return invalid
    values = [num / (m00**e * d2**d) for num, e, d in zip(nums, prog.area_exponents, prog.denom_exponents)]
    return np.array(values), np.ones(25, dtype=bool)


def scdmi50(img: RasterImage) -> FeatureVector:
    """Evaluate the 25 catalogued invariants on both moment tables of one image.

    Entries 1..25 come from the k=0 table and 26..50 from the k=1 table;
    the k=1 entries are invalid when stencil erosion empties the mask. The
    tables come from moment_tables, which on masks of more than ``_LEAF``
    pixels builds them side by side on two threads when it may; the
    entries are bit for bit the same with one CPU or more.
    Raises TooSmall on an image under 5x5 pixels.
    """
    values = np.zeros(50)
    valid = np.zeros(50, dtype=bool)
    for k, moments in enumerate(moment_tables(img)):
        if moments is not None:
            values[25 * k : 25 * k + 25], valid[25 * k : 25 * k + 25] = evaluate_table(moments)
    return FeatureVector(values, valid)
