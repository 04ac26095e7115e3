"""Generalized moments and invariant evaluation on masked raster images.

Images are three real-valued channel planes plus a boolean mask that defines
the integration domain. Moments are plain sums over masked pixels with unit
pixel area; pixel (column i, row j) sits at coordinates (i, j). The k=1
channel set replaces raw channels with the radial first-derivative
combination built from an unnormalized 5-point difference stencil; the
stencil's missing 1/12 factor cancels in every invariant because numerator
and denominator scale by the same channel power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import InvariantSpec, MomentIndex, denominator_polynomial, catalogue_specs
from .errors import EmptyDomain, InternalError, TooSmall

#: relative floor below which the quadratic color core counts as degenerate
DEGENERACY_EPS = 1e-12

#: elements per block: numpy sums each block pairwise, math.fsum merges the blocks
_BLOCK = 1 << 16


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
    return math.fsum(float(np.sum(flat[i : i + _BLOCK])) for i in range(0, flat.size, _BLOCK))


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
class ChannelSet:
    """Channel planes actually integrated for one derivative order.

    k=0 carries the raw channels and their masked means; k=1 carries the
    radial gradient channels on the eroded mask with means pinned to zero
    (no mean subtraction for derivative channels).
    """

    k: int
    red: np.ndarray
    green: np.ndarray
    blue: np.ndarray
    means: tuple[float, float, float]
    mask: np.ndarray

    def __post_init__(self):
        if self.k == 1 and any(m != 0.0 for m in self.means):
            raise ValueError("k=1 channel means must be zero")


@dataclass
class MomentTable:
    """Computed moments of one channel set, keyed by exponent tuple."""

    k: int
    entries: dict[MomentIndex, float]
    m00: float
    centroid: tuple[float, float]


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
# centering and channel sets


def masked_centroid(mask: np.ndarray) -> tuple[float, float]:
    """Unweighted coordinate means over the masked pixels."""
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise EmptyDomain("mask has no pixels")
    ys, xs = np.nonzero(mask)
    return stable_sum(xs) / n, stable_sum(ys) / n


def centroid_and_means(img: RasterImage):
    """(x̄, ȳ, R̄, Ḡ, B̄): unweighted means over the masked pixels."""
    mask = img.mask
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise EmptyDomain("mask has no pixels")
    xbar, ybar = masked_centroid(mask)
    means = tuple(stable_sum(plane[mask]) / n for plane in img.channels())
    return (xbar, ybar, *means)


def raw_channels(img: RasterImage) -> tuple[ChannelSet, float, float]:
    """k=0 channel set plus the centroid it should be integrated around."""
    xbar, ybar, rbar, gbar, bbar = centroid_and_means(img)
    cs = ChannelSet(0, img.red, img.green, img.blue, (rbar, gbar, bbar), img.mask)
    return cs, xbar, ybar


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


def derivative_channels(img: RasterImage):
    """Unnormalized 5-point difference derivatives of each channel.

    Returns (ddx, ddy, eroded) where ddx/ddy are (3, H, W) stacks in R, G, B
    order and eroded is the mask shrunk so every stencil tap is masked. The
    stencil is C(x-2) - 8 C(x-1) + 8 C(x+1) - C(x+2), i.e. 12 times the true
    derivative on smooth data.
    """
    if img.width < 5 or img.height < 5:
        raise TooSmall(f"need at least 5x5 pixels, got {img.width}x{img.height}")
    h, w = img.height, img.width
    ddx = np.zeros((3, h, w))
    ddy = np.zeros((3, h, w))
    for c, plane in enumerate(img.channels()):
        ddx[c, :, 2 : w - 2] = (
            plane[:, 0 : w - 4] - 8.0 * plane[:, 1 : w - 3] + 8.0 * plane[:, 3 : w - 1] - plane[:, 4:w]
        )
        ddy[c, 2 : h - 2, :] = (
            plane[0 : h - 4, :] - 8.0 * plane[1 : h - 3, :] + 8.0 * plane[3 : h - 1, :] - plane[4:h, :]
        )
    return ddx, ddy, stencil_eroded_mask(img.mask)


def f1_channels(img: RasterImage, xbar: float, ybar: float) -> ChannelSet:
    """k=1 channel set: (x - x̄) dC/dx + (y - ȳ) dC/dy on the eroded mask.

    The caller supplies the centroid of the eroded mask so that moments and
    channels are centered consistently.
    """
    ddx, ddy, eroded = derivative_channels(img)
    xc = np.arange(img.width, dtype=np.float64) - xbar
    yc = np.arange(img.height, dtype=np.float64) - ybar
    planes = []
    for c in range(3):
        f1 = ddx[c] * xc[None, :] + ddy[c] * yc[:, None]
        planes.append(np.where(eroded, f1, 0.0))
    return ChannelSet(1, planes[0], planes[1], planes[2], (0.0, 0.0, 0.0), eroded)


# ---------------------------------------------------------------------------
# moment tables


def compute_moment_table(
    channels: ChannelSet, xbar: float, ybar: float, required
) -> MomentTable:
    """Accumulate every requested moment over the masked pixels.

    The pixels are walked in the blocks stable_sum uses: each moment gets one
    pairwise partial sum per block, and the partials are merged by fsum, so
    the power cache only ever holds one block.
    """
    mask = channels.mask
    npix = int(np.count_nonzero(mask))
    if npix == 0:
        raise EmptyDomain("mask has no pixels")
    ys, xs = np.nonzero(mask)
    centred = [xs - xbar, ys - ybar] + [
        p[mask] - m for p, m in zip((channels.red, channels.green, channels.blue), channels.means)
    ]
    partials = {idx: [] for idx in sorted(set(MomentIndex(*i) for i in required))}
    for lo in range(0, npix, _BLOCK):
        pows = [[None, c[lo : lo + _BLOCK]] for c in centred]  # pows[axis][e] = power e of the block
        for idx, sums in partials.items():
            vec = None
            for ladder, e in zip(pows, idx):
                while len(ladder) <= e:
                    ladder.append(ladder[-1] * ladder[1])
                if e:
                    vec = ladder[e] if vec is None else vec * ladder[e]
            if vec is not None:
                sums.append(float(np.sum(vec)))
    entries = {idx: math.fsum(sums) if sums else float(npix) for idx, sums in partials.items()}
    return MomentTable(k=channels.k, entries=entries, m00=float(npix), centroid=(xbar, ybar))


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


# ---------------------------------------------------------------------------
# invariant evaluation


def channel_scale_sq(table: MomentTable) -> float:
    """Mean per-channel variance of the integrated channel set."""
    e = table.entries
    v = (
        e[MomentIndex(0, 0, 2, 0, 0)]
        + e[MomentIndex(0, 0, 0, 2, 0)]
        + e[MomentIndex(0, 0, 0, 0, 2)]
    ) / (3.0 * table.m00)
    return max(v, 0.0)


def degeneracy_floor(m00: float, scale_sq: float) -> float:
    """Threshold below which the quadratic color core is treated as zero.

    The core scales like m00**3 times the sixth power of the channel spread,
    so the floor is relative to both.
    """
    return DEGENERACY_EPS * m00**3 * scale_sq**3


def evaluate_invariant(spec: InvariantSpec, table: MomentTable) -> tuple[float, bool]:
    """Numerator over m00**e times the positive root of the quadratic core.

    Returns (0.0, False) when the core falls under the degeneracy floor,
    which happens exactly when the channel values are linearly dependent
    (grayscale or constant images).
    """
    d2 = denominator_polynomial().evaluate(table.entries)
    m00 = table.m00
    if not (m00 > 0.0) or not (d2 > degeneracy_floor(m00, channel_scale_sq(table))):
        return 0.0, False
    num = spec.numerator.evaluate(table.entries)
    denom = m00 ** float(spec.area_exponent) * d2 ** float(spec.denom_exponent)
    return num / denom, True


@dataclass(frozen=True)
class CompiledCatalogue:
    """The 25 shared numerators and the quadratic core as one term array.

    Term t is ``coefficients[t] * v[factors[0, t]] * ... * v[factors[-1, t]]``,
    multiplied left to right, where v holds a table's moments in ``indices``
    order followed by 1.0; the 1.0 slot pads shorter terms, so the padding
    products are exact. ``bounds[i]:bounds[i+1]`` are the terms of numerator
    i for i < 25, and the last range is the quadratic core.
    """

    indices: tuple[MomentIndex, ...]
    factors: np.ndarray
    coefficients: np.ndarray
    bounds: tuple[int, ...]
    area_exponents: tuple[float, ...]
    denom_exponents: tuple[float, ...]


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
    )


def evaluate_table(table: MomentTable) -> tuple[np.ndarray, np.ndarray]:
    """The 25 invariants of one table, bit for bit as evaluate_invariant.

    Every term is rounded in the order MomentPolynomial.evaluate uses and
    each range is summed exactly rounded by fsum, whose result does not
    depend on the order. The quadratic core and the degeneracy floor are
    evaluated once. A table with a non-finite term, or whose sums overflow,
    gives 25 invalid entries.
    """
    prog = compiled_catalogue()
    invalid = np.zeros(25), np.zeros(25, dtype=bool)
    m00 = table.m00
    if not (m00 > 0.0):
        return invalid
    v = np.array([table.entries[idx] for idx in prog.indices] + [1.0])
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
    if not (d2 > degeneracy_floor(m00, channel_scale_sq(table))):
        return invalid
    values = [num / (m00**e * d2**d) for num, e, d in zip(nums, prog.area_exponents, prog.denom_exponents)]
    return np.array(values), np.ones(25, dtype=bool)


def moment_tables(img: RasterImage) -> tuple[MomentTable, MomentTable | None]:
    """The k=0 and k=1 tables used by the 50-instance evaluation.

    The k=1 table is computed on the stencil-eroded mask with its own
    centroid; it is None when erosion empties the mask.
    """
    cs0, xbar, ybar = raw_channels(img)
    t0 = compute_moment_table(cs0, xbar, ybar, required_indices(0))
    eroded = stencil_eroded_mask(img.mask)
    if not eroded.any():
        return t0, None
    x1, y1 = masked_centroid(eroded)
    cs1 = f1_channels(img, x1, y1)
    t1 = compute_moment_table(cs1, x1, y1, required_indices(1))
    return t0, t1


def scdmi50(img: RasterImage) -> FeatureVector:
    """Evaluate all 50 catalogued invariants on one image.

    Entries 1..25 come from the k=0 table and 26..50 from the k=1 table;
    the k=1 entries are invalid when stencil erosion empties the mask.
    """
    if img.width < 5 or img.height < 5:
        raise TooSmall(f"need at least 5x5 pixels, got {img.width}x{img.height}")
    values = np.zeros(50)
    valid = np.zeros(50, dtype=bool)
    for k, table in enumerate(moment_tables(img)):
        if table is not None:
            values[25 * k : 25 * k + 25], valid[25 * k : 25 * k + 25] = evaluate_table(table)
    return FeatureVector(values, valid)
