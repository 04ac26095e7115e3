"""Generalized moments and invariant evaluation on masked raster images.

An image is a (3, H, W) real channel array plus a boolean mask that defines
the integration domain. Moments are plain sums over masked pixels with unit
pixel area; pixel (column i, row j) sits at coordinates (i, j). One centring
step (centred_values) gives the centred coordinates and channels for either
derivative order: k=0 uses the raw channels, k=1 the radial first-derivative
combination built from an unnormalized 5-point difference stencil; the
stencil's missing 1/12 factor cancels in every invariant because numerator
and denominator scale by the same channel power. moment_vector sums their
products into one dense vector per k, and evaluate_table reads that vector.
Every engine sum, stable_sum, the k=0 channel means and the moment pass,
is one walk of _sums over one tree of blocks and leaves, so each asks for
one leaf of pixels at a time and moment_tables' working set does not grow
with the image. It runs the k=1 pass beside the k=0 pass, as a future on a
one-worker thread pool, when the mask holds more than one leaf of pixels
and the process may use more than one CPU, at the cost of one more leaf
in peak memory; the vectors are the same bit for bit either way.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

# core_sums and compiled_catalogue stay importable from here, beside the evaluation that reads them
from .compiled import compiled_catalogue, core_sum_rows, core_sums  # noqa: F401
from .errors import EmptyDomain, InvalidImage, InvalidSpec

#: relative floor below which the quadratic color core counts as degenerate
DEGENERACY_EPS = 1e-12

#: the normal float range, outside which a normaliser makes an entry invalid
_TINY, _HUGE = sys.float_info.min, sys.float_info.max

#: elements per block: numpy sums each block pairwise, math.fsum merges the blocks
_BLOCK = 1 << 16

#: most pixels whose product vectors moment_vector forms at once; a leaf of
#: numpy's pairwise split of a block, so any size gives the same sums
_LEAF = 1 << 15


def _sums(n: int, width: int, leaf: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """The ``width`` sums of n elements, ``leaf(lo, hi)`` giving those of lo..hi.

    Central moments cancel heavily, so every engine sum takes this one walk.
    The elements are cut into 2^16-element blocks, and each block down
    numpy's pairwise split (n at n // 2 rounded down to a multiple of 8) to
    leaves of at most ``_LEAF`` elements, asked for one at a time and summed
    by numpy's pairwise sum. Adding the leaf sums back up the same tree
    makes each block sum numpy's bit for bit, with error
    O(eps * log2(2^16) * sum|x_i|) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4); math.fsum merges the block sums exactly
    rounded (Shewchuk, 1997), so the bound does not grow with n. Where fsum
    raises, on +inf and -inf block sums or an overflowing intermediate, a
    sum is the IEEE sum (nan or ±inf), as for one block. The sums of one
    block need no merge. They are returned as one float array.
    """

    def tree(lo: int, m: int) -> np.ndarray:
        if m > _LEAF:
            half = m // 2 - m // 2 % 8
            return tree(lo, half) + tree(lo + half, m - half)
        return leaf(lo, lo + m)

    if n <= _BLOCK:
        # fsum of one block sum is that sum, save that -0.0 reads 0.0
        sums = np.reshape(tree(0, n), width) + 0.0
    else:
        starts = range(0, n, _BLOCK)
        partials = np.empty((len(starts), width))
        for i, lo in enumerate(starts):
            partials[i] = tree(lo, min(_BLOCK, n - lo))
        sums = np.empty(width)
        for i, column in enumerate(partials.T.tolist()):
            try:
                sums[i] = math.fsum(column)
            except (ValueError, OverflowError):
                with np.errstate(over="ignore", invalid="ignore"):
                    sums[i] = np.sum(column)
    # tree refers to itself: left alone, that cycle would hold leaf, and the
    # arrays leaf holds, until the next garbage collection
    del tree
    return sums


def stable_sum(values: np.ndarray) -> float:
    """Sum of a float array by the policy of _sums at every size.

    An array of one block or less sums to float(np.sum(values)), except
    that -0.0 reads 0.0. moment_vector sums every moment's product vector,
    and the k=0 centring every channel, by this policy.
    """
    flat = np.ravel(np.asarray(values, dtype=np.float64))
    return float(_sums(flat.size, 1, lambda lo, hi: np.add.reduce(flat[lo:hi]))[0])


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as an array of bool, integer or float entries; raises
    InvalidImage for a ragged, non-numeric, complex or object one, where numpy
    raises a bare ValueError or casts away an imaginary part with a warning."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError):
        raise InvalidImage(f"{what} must form one rectangular array of numbers") from None
    if array.dtype.kind not in "biuf":
        raise InvalidImage(f"{what} must hold real numbers, got dtype {array.dtype}")
    return array


@dataclass
class RasterImage:
    """The C-contiguous (3, H, W) channel array, red, green and blue, plus the boolean (H, W) mask."""

    channels: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        # one layout for every image: a channel map's einsum rounds by its operand's layout
        self.channels = np.ascontiguousarray(_real_array(self.channels, "channels"), dtype=np.float64)
        self.mask = _real_array(self.mask, "mask").astype(bool, copy=False)
        if self.channels.ndim != 3 or len(self.channels) != 3 or self.mask.shape != self.channels.shape[1:]:
            raise InvalidImage("channels must form one (3, H, W) array and the mask its (H, W) plane")

    @property
    def height(self) -> int:
        return self.channels.shape[1]

    @property
    def width(self) -> int:
        return self.channels.shape[2]

    @classmethod
    def from_array(cls, rgb: np.ndarray, mask: np.ndarray | None = None) -> "RasterImage":
        """Build from an (H, W, 3) array; mask defaults to all-true."""
        rgb = _real_array(rgb, "channels")
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise InvalidImage("expected an (H, W, 3) array")
        if mask is None:
            mask = np.ones(rgb.shape[:2], dtype=bool)
        return cls(np.moveaxis(rgb, 2, 0), mask)


@dataclass
class FeatureVector:
    """The 50 invariant values plus validity: entry 25*k + id - 1 is instance id on table k."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.values = _real_array(self.values, "feature values").astype(np.float64, copy=False)
        self.valid = _real_array(self.valid, "feature validity").astype(bool, copy=False)
        if self.values.shape != (50,) or self.valid.shape != (50,):
            raise InvalidImage("a feature vector must hold exactly 50 values and 50 flags")


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
            inner &= mask[2 + d : h - 2 + d, 2 : w - 2]
            inner &= mask[2 : h - 2, 2 + d : w - 2 + d]
    return out


class _DomainSource:
    """One pass's k-domain, centred leaf by leaf: ``values(lo, hi)`` are the
    centred arrays of domain pixels lo..hi, built from the rows they span.

    Everything runs on views cropped to the mask's bounding box: outside it
    the mask is False, so the erosion, the pixel order and the stencil at
    every domain pixel are those of the whole frame. Raises EmptyDomain when
    the mask has no pixels. A k=1 domain that stencil erosion empties, as it
    does every box under 5x5, has size 0 and gives five empty arrays.
    """

    def __init__(self, img: RasterImage, k: int):
        rows = np.flatnonzero(img.mask.any(axis=1))
        if rows.size == 0:
            raise EmptyDomain("mask has no pixels")
        cols = np.flatnonzero(img.mask.any(axis=0))
        y0, x0 = int(rows[0]), int(cols[0])
        box = (slice(y0, int(rows[-1]) + 1), slice(x0, int(cols[-1]) + 1))
        self.k = k
        self.planes = img.channels[:, box[0], box[1]]
        self.mask = img.mask[box] if k == 0 else stencil_eroded_mask(img.mask[box])
        self.counts, col_counts = self.mask.sum(axis=1), self.mask.sum(axis=0)
        #: domain pixels before each row of the box, and in all of it last
        self.starts = [0, *np.cumsum(self.counts).tolist()]
        self.size = n = self.starts[-1]
        if n == 0:  # an emptied k=1 domain has no centroid
            return
        # the pixel counts give the coordinate sums as exact integers, which
        # below 2^53 equal the stable_sum of the float coordinates bit for
        # bit; a pixel's centred x is its column's, and its centred y its row's
        ys, xs = np.arange(y0, y0 + len(self.counts)), np.arange(x0, x0 + len(col_counts))
        self.yc = ys - float(np.dot(self.counts, ys)) / n
        self.xc = xs - float(np.dot(col_counts, xs)) / n
        if k == 0:
            # each channel's stable_sum, over the channels gathered a leaf at a time
            with np.errstate(over="ignore", invalid="ignore"):
                sums = _sums(n, 3, lambda lo, hi: np.array([np.add.reduce(c) for c in self._gather(lo, hi)]))
            self.means = [total / n for total in sums]

    def _band(self, lo: int, hi: int) -> tuple[int, int, int]:
        """The box rows r0..r1 that domain pixels lo..hi span, and lo's place in them."""
        r0 = bisect_right(self.starts, lo) - 1
        return r0, bisect_right(self.starts, hi - 1), lo - self.starts[r0]

    def _gather(self, lo: int, hi: int) -> list[np.ndarray]:
        """The raw channels of domain pixels lo..hi."""
        r0, r1, off = self._band(lo, hi)
        # plane by plane: a 2-D mask takes numpy's boolean fast path, while
        # planes[:, mask] goes through index arrays, about 5x slower
        return [p[r0:r1][self.mask[r0:r1]][off : off + hi - lo] for p in self.planes]

    def values(self, lo: int, hi: int) -> list[np.ndarray]:
        """The centred (xc, yc, rc, gc, bc) of domain pixels lo..hi, in np.nonzero order."""
        if self.size == 0:  # no pixel to centre, and no halo to read
            return [np.empty(0) for _ in range(5)]
        r0, r1, off = self._band(lo, hi)
        take = slice(off, off + hi - lo)
        band = self.mask[r0:r1]
        xc = np.broadcast_to(self.xc, band.shape)[band][take]
        yc = np.repeat(self.yc[r0:r1], self.counts[r0:r1])[take]
        # non-finite or overflowing channels give nan or inf values, which
        # evaluate_table turns into invalid entries; every array is centred
        # and combined in place, by the same IEEE operations in the same
        # order as the expressions x - mean and a * b + c * d
        with np.errstate(over="ignore", invalid="ignore"):
            if self.k == 0:
                channels = self._gather(lo, hi)
                for c, mean in zip(channels, self.means):
                    c -= mean
                return [xc, yc, *channels]
            # the eroded domain lies inside the box's 2-pixel margin, so the
            # band's 2 halo rows each side are in the box
            w = self.mask.shape[1]
            inner = band[:, 2 : w - 2]
            channels = []
            for p in self.planes:
                rows, cols = p[r0:r1], p[r0 - 2 : r1 + 2, 2 : w - 2]
                ddx = _stencil(rows[:, : w - 4], rows[:, 1 : w - 3], rows[:, 3 : w - 1], rows[:, 4:])[inner][take]
                ddx *= xc
                ddy = _stencil(cols[:-4], cols[1:-3], cols[3:-1], cols[4:])[inner][take]
                ddy *= yc
                ddx += ddy
                del ddy
                channels.append(ddx)
            return [xc, yc, *channels]


def centred_values(img: RasterImage, k: int) -> tuple[np.ndarray, ...]:
    """Centred coordinates and channels (xc, yc, rc, gc, bc) over the k-domain.

    Each array holds one value per domain pixel, in np.nonzero order. For
    k=0 the domain is the mask and the channels are the raw channels minus
    their masked means. For k=1 the domain is the stencil-eroded mask, with
    its own centroid, and the channels are (x - x̄) dC/dx + (y - ȳ) dC/dy,
    not mean-subtracted. dC/dx is the unnormalized 5-point difference
    C(x-2) - 8 C(x-1) + 8 C(x+1) - C(x+2), 12 times the true derivative on
    smooth data. This is the whole range of the k-domain's source. Raises
    EmptyDomain when the mask has no pixels, and InvalidSpec unless k is the
    integer 0 or 1; a k=1 domain that stencil erosion empties, as it does on
    every frame under 5x5, gives five empty arrays.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k not in (0, 1):
        raise InvalidSpec(f"k must be the integer 0 or 1, got {k!r}")
    src = _DomainSource(img, k)
    return tuple(src.values(0, src.size))


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
    the pixel count. It is _walk over slices of the arrays, the walk
    moment_tables runs over a domain source. Raises InvalidImage unless
    ``values`` are five 1-D arrays of one length.
    """
    try:
        values = iter(values)
    except TypeError:
        raise InvalidImage("the centred values must be a sequence of five arrays") from None
    arrays = [_real_array(v, "centred values").astype(np.float64, copy=False) for v in values]
    if len(arrays) != 5 or any(a.ndim != 1 or a.size != arrays[0].size for a in arrays):
        raise InvalidImage("the centred values must be five 1-D arrays of one length")
    return _walk(arrays[0].size, lambda lo, hi: [a[lo:hi] for a in arrays])


def _walk(npix: int, leaf: Callable[[int, int], Sequence[np.ndarray]]) -> np.ndarray:
    """The moment vector of ``npix`` pixels whose centred arrays ``leaf(lo, hi)`` gives.

    _sums asks for one leaf of at most ``_LEAF`` pixels at a time. Over it
    each moment's product is its non-zero axis powers multiplied left to
    right in axis order (x, y, r, g, b), each power the one below it times
    the axis. The moments come sorted, so those that share an x^p y^q
    prefix are adjacent and the prefix is formed once, when (p, q) changes.
    The walk holds the current x power, the prefix and the y powers up to
    the largest q of the current p, and multiplies each moment's channel
    powers onto the prefix in a scratch array. The prefix and the x powers
    from x^3 up overwrite the array they replace. Each product is reduced by
    numpy's pairwise sum, so every moment is the stable_sum of its product
    vector, whatever numpy's BLAS.
    """
    prog = compiled_catalogue()
    # sorted moments end each run of one p at its largest q
    top = {p: q for p, q, _ in prog.products}
    scratch = np.empty((2, min(npix, _LEAF)))

    def products(lo: int, hi: int) -> np.ndarray:
        x, y, *channels = leaf(lo, hi)
        sums = np.empty(len(prog.products))
        product, shared = scratch[:, : hi - lo]
        xp = prefix = None
        ys = [None, y]
        held_p = held_q = 0
        for slot, (p, q, colour) in enumerate(prog.products):
            if q != held_q or p != held_p:
                if p != held_p:
                    del ys[max(top[p], 1) + 1 :]
                    # x, then x^2 in a new array that each higher power overwrites
                    for _ in range(held_p, p):
                        xp = x if xp is None else xp * x if xp is x else np.multiply(xp, x, xp)
                while len(ys) <= q:
                    ys.append(ys[-1] * y)
                prefix = xp if q == 0 else ys[q] if p == 0 else np.multiply(xp, ys[q], shared)
                held_p, held_q = p, q
            row = prefix
            for c, e in colour:
                # a power that starts the product is formed in the scratch array
                power = channels[c]
                while e > 1:
                    power = np.multiply(power, channels[c], product if row is None else None)
                    e -= 1
                row = power if row is None else np.multiply(row, power, product)
            sums[slot] = np.add.reduce(row)
        return sums

    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate(([float(npix)], _sums(npix, len(prog.products), products)))


def _moments(img: RasterImage, k: int) -> np.ndarray:
    """The k moment vector, walked over the k-domain's source leaf by leaf."""
    src = _DomainSource(img, k)
    return _walk(src.size, src.values)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def moment_tables(img: RasterImage) -> tuple[np.ndarray, np.ndarray]:
    """The k=0 and k=1 moment vectors used by the 50-feature evaluation.

    The k=1 vector is computed on the stencil-eroded mask with its own
    centroid; where erosion empties the mask it is the vector of zero
    pixels, m00 = 0 and every moment 0. Raises EmptyDomain when the mask
    has no pixels. When the mask holds more than one leaf (``_LEAF``
    pixels) and the process may use more than one CPU, the k=1 pass runs
    as a future on a one-worker thread pool beside the k=0 pass: numpy
    releases the interpreter lock inside each large array operation, so
    the passes overlap, at the cost of one more leaf in peak memory;
    otherwise they run one after the other. The vectors are bit for bit
    the same either way, and equal
    moment_vector(centred_values(img, k)); an exception from either pass
    propagates with its type once the pool has joined its worker.
    """
    if np.count_nonzero(img.mask) <= _LEAF or _cpu_count() < 2:
        return _moments(img, 0), _moments(img, 1)
    # imported here: concurrent.futures pulls in logging, about 7 ms of `import scdmi`
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        k1 = pool.submit(_moments, img, 1)
        return _moments(img, 0), k1.result()


# ---------------------------------------------------------------------------
# invariant evaluation

def degeneracy_floor(m00: float, squares: Sequence[float]) -> float:
    """Threshold below which the quadratic color core is treated as zero.

    ``squares`` are the three channels' centred sums of squares. The core
    scales like m00**3 times the sixth power of the channel spread, so the
    floor is relative to both. It is inf when m00 is not positive: a domain
    of no pixels has no core to pass it.
    """
    if not (m00 > 0.0):
        return math.inf
    scale_sq = max((squares[0] + squares[1] + squares[2]) / (3.0 * m00), 0.0)
    try:
        return DEGENERACY_EPS * m00**3 * scale_sq**3
    except OverflowError:  # a floor past the float range: no core passes it
        return math.inf


def _evaluate(tables: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The 25 invariants of each of one or two moment vectors, laid end to end, and their validity."""
    prog = compiled_catalogue()
    values, valid = [0.0] * (25 * len(tables)), [False] * (25 * len(tables))
    for base, moments, sums in zip(range(0, len(values), 25), tables, core_sum_rows(tables)):
        *nums, d2 = sums.tolist()
        m00 = float(moments[0])
        # a row of core sums is all finite or all nan, and nan passes no floor
        if not (d2 > degeneracy_floor(m00, moments[list(prog.squares)].tolist())):
            continue
        for i, (num, e, d) in enumerate(zip(nums, prog.area_exponents, prog.denom_exponents), base):
            # Python's float power, not np.power, whose libm may round differently;
            # a power or their product outside the normal float range, or a
            # quotient past it, makes the entry invalid instead of raising
            try:
                area, core = m00**e, d2**d
            except OverflowError:
                continue
            denominator = area * core
            if _TINY <= area and _TINY <= core and _TINY <= denominator <= _HUGE:
                value = num / denominator
                if abs(value) <= _HUGE:
                    values[i], valid[i] = value, True
    return np.array(values), np.array(valid)


def evaluate_table(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 25 invariants of one moment vector: each numerator sum over m00**e * D2**d.

    D2 and the degeneracy floor are evaluated once. A vector whose core
    sums are not all finite, or whose D2 falls under the floor, as it does
    whenever m00 is not positive, gives 25 invalid entries. An entry is also
    invalid where m00**e, D2**d or their product leaves the normal float
    range, or where the quotient overflows. Raises InvalidImage unless
    ``moments`` is one 1-D vector of ``len(compiled_catalogue().indices)``
    real entries.
    """
    moments = _real_array(moments, "a moment vector").astype(np.float64, copy=False)
    if moments.shape != (len(compiled_catalogue().indices),):
        raise InvalidImage(f"a moment vector must be one 1-D array of {len(compiled_catalogue().indices)} entries")
    return _evaluate([moments])


def scdmi50(img: RasterImage) -> FeatureVector:
    """Evaluate the 25 catalogued invariants on both moment tables of one image.

    Entries 1..25 come from the k=0 table and 26..50 from the k=1 table;
    the k=1 entries are (0.0, False) when stencil erosion empties the mask,
    as it does on every frame under 5x5. The tables come from
    moment_tables, which on masks of more than ``_LEAF`` pixels builds them
    side by side on two threads when it may; the entries are bit for bit
    the same with one CPU or more. Raises EmptyDomain when the mask has no
    pixels.
    """
    return FeatureVector(*_evaluate(moment_tables(img)))
