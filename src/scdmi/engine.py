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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import InvariantSpec, MomentIndex, denominator_polynomial, catalogue_specs
from .errors import EmptyDomain, InternalError, TooSmall

#: relative floor below which the quadratic color core counts as degenerate
DEGENERACY_EPS = 1e-12

#: elements per block: numpy sums each block pairwise, math.fsum merges the blocks
_BLOCK = 1 << 16


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

    def copy(self) -> "RasterImage":
        return RasterImage(
            self.red.copy(), self.green.copy(), self.blue.copy(), self.mask.copy()
        )

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
    mask = img.mask if k == 0 else stencil_eroded_mask(img.mask)
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise EmptyDomain("mask has no pixels" if k == 0 else "stencil erosion left no pixels")
    ys, xs = np.nonzero(mask)
    # non-finite or overflowing channels give nan or inf values, which
    # evaluate_table turns into invalid entries
    with np.errstate(over="ignore", invalid="ignore"):
        xc = xs - stable_sum(xs) / n
        yc = ys - stable_sum(ys) / n
        if k == 0:
            channels = [p[mask] for p in img.channels()]
            return (xc, yc, *(c - stable_sum(c) / n for c in channels))
        # the eroded domain lies inside the 2-pixel margin: the stencil runs on the interior only
        h, w = img.height, img.width
        inner = mask[2 : h - 2, 2 : w - 2]
        channels = []
        for p in img.channels():
            rows, cols = p[2 : h - 2], p[:, 2 : w - 2]
            ddx = rows[:, : w - 4] - 8.0 * rows[:, 1 : w - 3] + 8.0 * rows[:, 3 : w - 1] - rows[:, 4:]
            ddy = cols[: h - 4] - 8.0 * cols[1 : h - 3] + 8.0 * cols[3 : h - 1] - cols[4:]
            channels.append(ddx[inner] * xc + ddy[inner] * yc)
        return (xc, yc, *channels)


# ---------------------------------------------------------------------------
# moment vectors


@lru_cache(maxsize=None)
def required_indices(k: int) -> frozenset[MomentIndex]:
    """Every moment index the 50-instance evaluation needs at this k."""
    idxs = set(denominator_polynomial().indices())
    idxs.add(MomentIndex(0, 0, 0, 0, 0))
    idxs.add(MomentIndex(1, 0, 0, 0, 0))
    idxs.add(MomentIndex(0, 1, 0, 0, 0))
    for spec in catalogue_specs():
        if spec.k == k:
            idxs |= spec.numerator.indices()
    return frozenset(idxs)


def moment_vector(values: Sequence[np.ndarray]) -> np.ndarray:
    """Every moment the catalogue needs, in ``compiled_catalogue().indices`` order.

    ``values`` are the five arrays of centred_values. The first entry is
    m00, the pixel count. The pixels are walked in the blocks stable_sum
    uses: each moment gets one pairwise partial sum per block, the partials
    are merged as stable_sum merges them, and the power cache only ever
    holds one block.
    """
    indices = compiled_catalogue().indices
    npix = values[0].size
    partials = [[] for _ in indices]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, npix, _BLOCK):
            pows = [[None, v[lo : lo + _BLOCK]] for v in values]  # pows[axis][e] = power e of the block
            for idx, sums in zip(indices, partials):
                vec = None
                for ladder, e in zip(pows, idx):
                    while len(ladder) <= e:
                        ladder.append(ladder[-1] * ladder[1])
                    if e:
                        vec = ladder[e] if vec is None else vec * ladder[e]
                if vec is not None:
                    sums.append(float(np.sum(vec)))
    return np.array([_merge(sums) if sums else float(npix) for sums in partials])


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


def evaluate_invariant(spec: InvariantSpec, moments: Mapping[MomentIndex, float]) -> tuple[float, bool]:
    """Numerator over m00**e times the positive root of the quadratic core.

    Returns (0.0, False) when the core falls under the degeneracy floor,
    which happens exactly when the channel values are linearly dependent
    (grayscale or constant images).
    """
    d2 = denominator_polynomial().evaluate(moments)
    m00 = float(moments[MomentIndex(0, 0, 0, 0, 0)])
    if not (m00 > 0.0) or not (d2 > degeneracy_floor(m00, [float(moments[s]) for s in _SQUARES])):
        return 0.0, False
    num = spec.numerator.evaluate(moments)
    denom = m00 ** float(spec.area_exponent) * d2 ** float(spec.denom_exponent)
    return num / denom, True


@dataclass(frozen=True)
class CompiledCatalogue:
    """The 25 shared numerators and the quadratic core as one term array.

    Term t is ``coefficients[t] * v[factors[0, t]] * ... * v[factors[-1, t]]``,
    multiplied left to right, where v holds a moment vector (``indices``
    order, m00 first) followed by 1.0; the 1.0 slot pads shorter terms, so
    the padding products are exact. ``bounds[i]:bounds[i+1]`` are the terms
    of numerator i for i < 25, and the last range is the quadratic core.
    ``squares`` are the slots of the three channels' sums of squares.
    """

    indices: tuple[MomentIndex, ...]
    factors: np.ndarray
    coefficients: np.ndarray
    bounds: tuple[int, ...]
    area_exponents: tuple[float, ...]
    denom_exponents: tuple[float, ...]
    squares: tuple[int, ...]


@lru_cache(maxsize=1)
def compiled_catalogue() -> CompiledCatalogue:
    """Compile the catalogue once; both k share it, as they share numerators."""
    specs = catalogue_specs()
    shared = specs[:25]
    for pos, spec in enumerate(specs):
        ref = shared[pos % 25]
        if (spec.k, spec.id, spec.numerator, spec.area_exponent, spec.denom_exponent) != (
            pos // 25, ref.id, ref.numerator, ref.area_exponent, ref.denom_exponent
        ):
            raise InternalError(f"catalogue entry {pos} does not reuse numerator {ref.id}")
    # shared numerators make required_indices(1) the same set
    indices = tuple(sorted(required_indices(0)))
    slot = {idx: i for i, idx in enumerate(indices)}
    one = len(indices)
    polys = [spec.numerator for spec in shared] + [denominator_polynomial()]
    terms = [t for poly in polys for t in poly.terms]
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
    )


def evaluate_table(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 25 invariants of one moment vector, bit for bit as evaluate_invariant.

    Every term is rounded in the order MomentPolynomial.evaluate uses and
    each range is summed exactly rounded by fsum, whose result does not
    depend on the order. The quadratic core and the degeneracy floor are
    evaluated once. A vector with a non-finite term, or whose sums overflow,
    gives 25 invalid entries.
    """
    prog = compiled_catalogue()
    invalid = np.zeros(25), np.zeros(25, dtype=bool)
    m00 = float(moments[0])
    if not (m00 > 0.0):
        return invalid
    v = np.append(moments, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = prog.coefficients * v[prog.factors[0]]
        for row in prog.factors[1:]:
            terms *= v[row]
    if not np.isfinite(terms).all():
        return invalid
    flat = terms.tolist()
    b = prog.bounds
    try:
        *nums, d2 = [math.fsum(flat[b[i] : b[i + 1]]) for i in range(len(b) - 1)]
    except OverflowError:
        return invalid
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
