"""Generalized moments and invariant evaluation on masked raster images.

Images are three real-valued channel planes plus a boolean mask that defines
the integration domain. Moments are plain sums over masked pixels with unit
pixel area; pixel (column i, row j) sits at coordinates (i, j). One centring
step (centred_values) gives the centred coordinates and channels for either
derivative order: k=0 uses the raw channels, k=1 the radial first-derivative
combination built from an unnormalized 5-point difference stencil; the
stencil's missing 1/12 factor cancels in every invariant because numerator
and denominator scale by the same channel power. moment_vector sums them
into one dense vector per k, which evaluate_table reads.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import MomentIndex, denominator_polynomial, catalogue_specs
from .errors import EmptyDomain, InternalError, TooSmall

#: relative floor below which the quadratic color core counts as degenerate
DEGENERACY_EPS = 1e-12

#: elements per block: numpy sums each block pairwise, math.fsum merges the blocks
_BLOCK = 1 << 16

#: elements per product temporary in moment_vector: a block's products are
#: formed and summed this many elements at a time, and at least one row
_CHUNK = 1 << 15


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
            raise ValueError("channel planes and mask must share one 2-D shape")

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
            raise ValueError("expected an (H, W, 3) array")
        if mask is None:
            mask = np.ones(rgb.shape[:2], dtype=bool)
        return cls(rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2], mask)


@dataclass
class FeatureVector:
    """The 50 invariant values (ids 1..25 at k=0 then k=1) plus validity."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.shape != (50,) or self.valid.shape != (50,):
            raise ValueError("feature vector must hold exactly 50 entries")


# ---------------------------------------------------------------------------
# centring


def _shift_bool(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """mask evaluated at (y+dy, x+dx), False outside the frame."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    ys = slice(max(0, -dy), min(h, h - dy))
    xs = slice(max(0, -dx), min(w, w - dx))
    ys_src = slice(max(0, dy), min(h, h + dy))
    xs_src = slice(max(0, dx), min(w, w + dx))
    out[ys, xs] = mask[ys_src, xs_src]
    return out


def stencil_eroded_mask(mask: np.ndarray) -> np.ndarray:
    """Pixels whose full difference-stencil cross lands on masked pixels."""
    out = mask.copy()
    for d in (1, 2):
        out &= _shift_bool(mask, 0, d) & _shift_bool(mask, 0, -d)
        out &= _shift_bool(mask, d, 0) & _shift_bool(mask, -d, 0)
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
    # evaluate_table turns into invalid entries
    with np.errstate(over="ignore", invalid="ignore"):
        xc = xs - stable_sum(xs) / n
        yc = ys - stable_sum(ys) / n
        if k == 0:
            channels = [p[mask] for p in planes]
            return (xc, yc, *(c - stable_sum(c) / n for c in channels))
        # the eroded domain lies inside the 2-pixel margin: the stencil runs on the interior only
        h, w = mask.shape
        inner = mask[2 : h - 2, 2 : w - 2]
        channels = []
        for p in planes:
            rows, cols = p[2 : h - 2], p[:, 2 : w - 2]
            ddx = rows[:, : w - 4] - 8.0 * rows[:, 1 : w - 3] + 8.0 * rows[:, 3 : w - 1] - rows[:, 4:]
            ddy = cols[: h - 4] - 8.0 * cols[1 : h - 3] + 8.0 * cols[3 : h - 1] - cols[4:]
            channels.append(ddx[inner] * xc + ddy[inner] * yc)
        return (xc, yc, *channels)


# ---------------------------------------------------------------------------
# moment vectors


def _sum_products(
    first: np.ndarray, table: np.ndarray | list[np.ndarray], group: ProductGroup, out: np.ndarray, step: int
):
    """Sum ``first * table[group.lo:group.hi]`` into out, ``step`` rows at a time.

    A product that prefixes further moments is handed on while its chunk is
    alive, so it is formed once.
    """
    for start in range(group.lo, group.hi, step):
        stop = min(start + step, group.hi)
        # one-row chunks work on a list of rows as on a table
        prod = first * (table[start:stop] if step > 1 else table[start][None])
        out[group.slots[start - group.lo : stop - group.lo]] = np.add.reduce(prod, axis=-1)
        for child in group.prefixes:
            if start <= child.row < stop:
                _sum_products(prod[child.row - start], table, child, out, step)


def _block_sums(prog: CompiledCatalogue, block: Sequence[np.ndarray], out: np.ndarray):
    """Sum every moment's product over one block into its slot of ``out``.

    The block's axis powers are the rows of one table, filled in
    ``prog.build`` order. Each product is one multiply of a row by a
    contiguous slice of the table, a chunk of at most _CHUNK elements, and
    each row is reduced on its own, so every moment gets the pairwise sum
    np.sum gives its product vector. Where a chunk is one row, nothing is
    broadcast over a slice, and the table is a list of separate rows: one
    allocation of several megabytes, freed, would raise glibc's dynamic
    mmap threshold, and the heap it then keeps raised the peak RSS of
    full-frame extraction by about 10%.
    """
    n = block[0].size
    step = max(1, _CHUNK // n)
    if step > 1:
        table = np.empty((len(prog.build), n))
        for row, axis, source in prog.build:
            if source < 0:
                table[row] = block[axis]
            else:
                np.multiply(table[source], block[axis], out=table[row])
        out[prog.power_slots] = np.add.reduce(table, axis=-1)
    else:
        table = [None] * len(prog.build)
        for row, axis, source in prog.build:
            table[row] = block[axis] if source < 0 else table[source] * block[axis]
        dump = len(out) - 1
        for power, slot in zip(table, prog.power_slots):
            if slot != dump:
                out[slot] = np.add.reduce(power)
    for group in prog.products:
        _sum_products(table[group.row], table, group, out, step)


def moment_vector(values: Sequence[np.ndarray]) -> np.ndarray:
    """Every moment the catalogue needs, in ``compiled_catalogue().indices`` order.

    ``values`` are the five arrays of centred_values. The first entry is
    m00, the pixel count. The pixels are walked in the blocks stable_sum
    uses: each moment gets one pairwise partial sum per block (see
    _block_sums), and the partials are merged as stable_sum merges them.
    """
    prog = compiled_catalogue()
    npix = values[0].size
    starts = range(0, npix, _BLOCK)
    # one column per moment slot, plus a last column for products no moment sums
    partials = np.empty((len(starts), len(prog.indices) + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for out, lo in zip(partials, starts):
            _block_sums(prog, [v[lo : lo + _BLOCK] for v in values], out)
    return np.array([float(npix)] + [_merge(sums) for sums in partials.T[1:-1].tolist()])


def moment_tables(img: RasterImage) -> tuple[np.ndarray, np.ndarray | None]:
    """The k=0 and k=1 moment vectors used by the 50-instance evaluation.

    The k=1 vector is computed on the stencil-eroded mask with its own
    centroid; it is None when erosion empties the mask.
    """
    v0 = moment_vector(centred_values(img, 0))
    try:
        v1 = moment_vector(centred_values(img, 1))
    except EmptyDomain:
        v1 = None
    return v0, v1


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

    ``powers``, ``build``, ``power_slots`` and ``products`` are the layout
    moment_vector walks (see _power_layout). Slot ``len(indices)`` takes the
    sums of table rows and products that no moment needs.
    """

    indices: tuple[MomentIndex, ...]
    factors: np.ndarray
    coefficients: np.ndarray
    bounds: tuple[int, ...]
    area_exponents: tuple[float, ...]
    denom_exponents: tuple[float, ...]
    squares: tuple[int, ...]
    powers: tuple[tuple[int, int], ...]
    build: tuple[tuple[int, int, int], ...]
    power_slots: np.ndarray
    products: tuple[ProductGroup, ...]


class ProductGroup(NamedTuple):
    """Products of one factor with the contiguous power-table rows lo:hi.

    At the top level the factor is table row ``row``. In ``prefixes`` of a
    group, ``row`` is the table row of the second factor, and the factor is
    that group's product with it. ``slots[j]`` is the moment slot that takes
    the sum of product j.
    """

    row: int
    lo: int
    hi: int
    slots: np.ndarray
    prefixes: tuple[ProductGroup, ...]


def _power_layout(indices: Sequence[MomentIndex]):
    """(powers, build, power_slots, products) of the moments ``indices``, m00 first.

    The table rows are x^1..x^P, y^Q..y^1, then the colours exponent by
    exponent (r, g, b, r^2, g^2, b^2). A moment's non-zero axis powers, in
    axis order, are its factors: one factor is a table row; two are a row
    times a row; three are the product of the first two, formed once, times
    a row. With this row order the second factors of one first factor, and
    the third factors of one prefix, are contiguous rows, which is what lets
    each group be one broadcast multiply. ``build`` fills the table in
    exponent order, each power from the one below it. Raises InternalError
    where a catalogue breaks the layout.
    """
    if not indices or any(indices[0]) or not all(any(idx) for idx in indices[1:]):
        raise InternalError("m00 must be the first moment and the only one without factors")
    top = [max(idx[axis] for idx in indices) for axis in range(5)]
    colour = max(top[2:])
    powers = (
        [(0, e) for e in range(1, top[0] + 1)]
        + [(1, e) for e in range(top[1], 0, -1)]
        + [(axis, e) for e in range(1, colour + 1) for axis in (2, 3, 4)]
    )
    row = {power: i for i, power in enumerate(powers)}
    build = tuple(
        (row[axis, e], axis, row[axis, e - 1] if e > 1 else -1) for axis, e in sorted(powers, key=lambda p: p[1])
    )
    dump = len(indices)
    power_slots = np.full(len(powers), dump, dtype=np.intp)
    pairs: dict[int, dict[int, int]] = {}
    triples: dict[tuple[int, int], dict[int, int]] = {}
    for slot, idx in enumerate(indices[1:], start=1):
        rows = [row[axis, e] for axis, e in enumerate(idx) if e]
        if len(rows) == 1:
            power_slots[rows[0]] = slot
        elif len(rows) == 2:
            pairs.setdefault(rows[0], {})[rows[1]] = slot
        elif len(rows) == 3:
            pairs.setdefault(rows[0], {}).setdefault(rows[1], dump)
            triples.setdefault((rows[0], rows[1]), {})[rows[2]] = slot
        else:
            raise InternalError(f"moment {idx.text()} has more than three factors")

    def group(factor: int, slots: dict[int, int], prefixes: tuple[ProductGroup, ...]) -> ProductGroup:
        lo, hi = min(slots), max(slots) + 1
        if len(slots) != hi - lo:
            raise InternalError(f"the factors after {factor} are not contiguous table rows")
        return ProductGroup(factor, lo, hi, np.array([slots[r] for r in range(lo, hi)], dtype=np.intp), prefixes)

    products = []
    for first, seconds in sorted(pairs.items()):
        prefixes = [group(second, triples[first, second], ()) for second in sorted(seconds) if (first, second) in triples]
        products.append(group(first, seconds, tuple(prefixes)))
    return tuple(powers), build, power_slots, tuple(products)


@lru_cache(maxsize=1)
def compiled_catalogue() -> CompiledCatalogue:
    """Compile the catalogue once; both k share it, as they share numerators.

    The moments are m00, the pixel count, then exactly the indices that some
    term reads, in sorted order.
    """
    shared = catalogue_specs()[:25]
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
    powers, build, power_slots, products = _power_layout(indices)
    return CompiledCatalogue(
        indices=indices,
        factors=factors,
        coefficients=np.array([float(t.coefficient) for t in terms]),
        bounds=tuple(int(b) for b in bounds),
        area_exponents=tuple(float(s.area_exponent) for s in shared),
        denom_exponents=tuple(float(s.denom_exponent) for s in shared),
        squares=tuple(slot[sq] for sq in _SQUARES),
        powers=powers,
        build=build,
        power_slots=power_slots,
        products=products,
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
    """Evaluate all 50 catalogued invariants on one image.

    Entries 1..25 come from the k=0 table and 26..50 from the k=1 table;
    the k=1 entries are invalid when stencil erosion empties the mask.
    Raises TooSmall on an image under 5x5 pixels.
    """
    values = np.zeros(50)
    valid = np.zeros(50, dtype=bool)
    for k, moments in enumerate(moment_tables(img)):
        if moments is not None:
            values[25 * k : 25 * k + 25], valid[25 * k : 25 * k + 25] = evaluate_table(moments)
    return FeatureVector(values, valid)
