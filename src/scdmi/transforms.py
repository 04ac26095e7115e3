"""Coordinate and channel transforms, and the relative deviation that
measures invariance under them.

Coordinate warps use inverse mapping with bilinear interpolation; an output
pixel is masked only when every source tap it reads is masked, so unmasked
data never leaks into the integration domain. Since the four taps bracket
the source point, only output pixels whose source point lies in the bounding
box of the source mask can be masked; a warp interpolates those alone and
leaves the rest 0.0, which is exactly what a whole-frame warp writes there.
Channel maps act per pixel in unclamped real space, which makes them exact
on the discrete data: no resampling path exists, so feature deviations under
channel maps are pure floating-point noise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .engine import RasterImage
from .errors import InvalidTransform, Singular

#: relative-deviation denominators never drop below this
DEVIATION_FLOOR = 1e-12

_MIN_DET = 1e-6
#: sample_color_affine scales its map by a factor drawn log-uniformly from this range
COLOR_SCALE_RANGE = (0.6, 1.5)


def _validated(matrix, offset, n: int, what: str) -> tuple[np.ndarray, np.ndarray, float]:
    """The float n x n matrix, length-n offset and determinant of a ``what``
    affine map, checked for shape and finiteness before the determinant is
    formed, and for a determinant that overflows."""
    try:
        matrix = np.asarray(matrix, dtype=np.float64)
        offset = np.asarray(offset, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidTransform(f"{what} affine needs a numeric matrix and offset") from None
    if matrix.shape != (n, n) or offset.shape != (n,):
        raise InvalidTransform(f"{what} affine needs a {n}x{n} matrix and length-{n} offset")
    if not (np.isfinite(matrix).all() and np.isfinite(offset).all()):
        raise InvalidTransform(f"{what} affine needs a finite matrix and offset")
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(matrix))
    if not np.isfinite(det):
        raise InvalidTransform(f"{what} affine determinant overflows")
    return matrix, offset, det


def _shape_inverse(matrix: np.ndarray) -> np.ndarray:
    """The inverse of a 2x2 coordinate map; raises Singular where its
    determinant is under _MIN_DET in magnitude.

    Determinant and adjugate are formed on the matrix scaled by a power of
    two to a largest entry in [0.5, 1), which is exact and keeps the
    products from overflowing; the scale is taken out again exactly. The
    adjugate keeps grid-aligned maps exact in floating point.
    """
    scale = 2.0 ** -math.frexp(float(np.abs(matrix).max()))[1]
    a = matrix * scale
    det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if abs(det / scale / scale) < _MIN_DET:
        raise Singular("shape transform matrix is singular")
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det * scale


@dataclass
class ShapeAffine:
    """Coordinate map (x', y')^T = matrix @ (x, y)^T + offset."""

    matrix: np.ndarray
    offset: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        # singular by the determinant every warp of the map forms
        self.matrix, self.offset, _ = _validated(self.matrix, self.offset, 2, "shape")
        _shape_inverse(self.matrix)

    @classmethod
    def identity(cls) -> "ShapeAffine":
        return cls(np.eye(2), np.zeros(2))


@dataclass
class ColorAffine:
    """Channel map (R', G', B')^T = matrix @ (R, G, B)^T + offset."""

    matrix: np.ndarray
    offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.matrix, self.offset, det = _validated(self.matrix, self.offset, 3, "color")
        if abs(det) < _MIN_DET:
            raise Singular("color transform matrix is singular")

    @classmethod
    def identity(cls) -> "ColorAffine":
        return cls(np.eye(3), np.zeros(3))


# ---------------------------------------------------------------------------
# applying transforms


def apply_shape_affine(img: RasterImage, t: ShapeAffine) -> RasterImage:
    """Inverse-mapping warp with bilinear interpolation into the input's frame.

    Taps with zero bilinear weight are not required to be masked, so
    grid-exact maps (identity, integer shifts, quarter-turn rotations) copy
    pixels and the mask verbatim.

    Only the mask's reachable footprint is interpolated: the output pixels
    whose source point lies in the bounding box of the source mask. No other
    pixel can have all four taps masked, since the taps bracket the source
    point, and each footprint pixel goes through the same IEEE operations as
    in a whole-frame warp, so the output is that warp's bit for bit.
    """
    w_in, h_in = img.width, img.height
    inv = _shape_inverse(t.matrix)
    channels = np.zeros((3, h_in * w_in))
    out_mask = np.zeros(h_in * w_in, dtype=bool)
    rows = np.flatnonzero(img.mask.any(axis=1))
    if rows.size == 0:
        return RasterImage(channels.reshape(3, h_in, w_in), out_mask.reshape(h_in, w_in))
    cols = np.flatnonzero(img.mask.any(axis=0))

    gx = np.arange(w_in, dtype=np.float64)[None, :] - t.offset[0]
    gy = np.arange(h_in, dtype=np.float64)[:, None] - t.offset[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sx = inv[0, 0] * gx + inv[0, 1] * gy
        sy = inv[1, 0] * gx + inv[1, 1] * gy
        # an inf or nan source coordinate (a huge offset) is never in the box
        reach = np.flatnonzero((sx >= cols[0]) & (sx <= cols[-1]) & (sy >= rows[0]) & (sy <= rows[-1]))
    sx = sx.ravel().take(reach)
    sy = sy.ravel().take(reach)

    # inside the box every tap is in the frame: x1 <= ceil(sx) <= cols[-1]
    x0f = np.floor(sx)
    y0f = np.floor(sy)
    fx = sx - x0f
    fy = sy - y0f
    x0 = x0f.astype(np.int64)
    y0 = y0f.astype(np.int64)
    x1 = x0 + (fx > 0)
    y1 = y0 + (fy > 0)

    # one flat index y * W + x per tap serves the mask and all three planes
    taps = [y * w_in + x for y in (y0, y1) for x in (x0, x1)]
    flat_mask = img.mask.ravel()
    keep = flat_mask.take(taps[0])
    for tap in taps[1:]:
        keep &= flat_mask.take(tap)
    fx = fx[keep]
    fy = fy[keep]
    taps = [tap[keep] for tap in taps]

    w00 = (1.0 - fx) * (1.0 - fy)
    w01 = fx * (1.0 - fy)
    w10 = (1.0 - fx) * fy
    w11 = fx * fy
    planes = img.channels.reshape(3, -1)
    # the weighted taps are added in the fixed order 00, 01, 10, 11, which sets the rounding
    out = w00 * planes.take(taps[0], axis=1)
    for weight, tap in zip((w01, w10, w11), taps[1:]):
        out += weight * planes.take(tap, axis=1)
    kept = reach[keep]
    channels[:, kept] = out
    out_mask[kept] = True
    return RasterImage(channels.reshape(3, h_in, w_in), out_mask.reshape(h_in, w_in))


def apply_color_affine(img: RasterImage, t: ColorAffine, clamp: bool = False) -> RasterImage:
    """Per-pixel channel map in real space; clamps to [0, 1] only on request.

    The offset is added, and the clamp applied, in place on the einsum's
    output, so the map holds no second image-sized array. The einsum stays
    one call over the whole frame: its rounding depends on the operand
    layout."""
    out = np.einsum("ij,jhw->ihw", t.matrix, img.channels)
    out += t.offset[:, None, None]
    if clamp:
        np.clip(out, 0.0, 1.0, out=out)
    return RasterImage(out, img.mask.copy())


def upsample_nearest(img: RasterImage, factor: int = 2) -> RasterImage:
    """Pixel replication: an exact affine map of the sample grid. Raises
    InvalidTransform unless ``factor`` is an integer, not a bool, of at least 1."""
    if isinstance(factor, bool) or not isinstance(factor, numbers.Integral):
        raise InvalidTransform(f"factor must be an integer, got {factor!r}")
    if factor < 1:
        raise InvalidTransform(f"factor must be >= 1, got {factor}")
    channels = img.channels.repeat(factor, axis=1).repeat(factor, axis=2)
    return RasterImage(channels, img.mask.repeat(factor, axis=0).repeat(factor, axis=1))


# ---------------------------------------------------------------------------
# samplers


def _real(value, name: str) -> float:
    """``value`` as a float; raises InvalidTransform unless it is a real number in the float range."""
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidTransform(f"{name} must be a real number in the float range, got {value!r}")


def _real_pair(value, name: str) -> tuple[float, float]:
    """``value`` as two floats; raises InvalidTransform unless it is a pair of real numbers."""
    try:
        low, high = value
    except (TypeError, ValueError):
        raise InvalidTransform(f"{name} must be a pair of real numbers, got {value!r}") from None
    return _real(low, name), _real(high, name)


def _rng(seed) -> np.random.Generator:
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InvalidTransform(f"seed must be a non-negative integer, got {seed!r}") from None


def _sampled(affine: type, matrix: np.ndarray, offset: np.ndarray):
    """The map of a sampler's draws; a singular draw means its arguments reach singular maps."""
    try:
        return affine(matrix, offset)
    except Singular:
        raise InvalidTransform("the sampler's arguments drew a singular map") from None


def _rot2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def sample_shape_affine(
    seed: int,
    det_range: tuple[float, float] = (0.5, 2.0),
    max_condition: float = 3.0,
    src_size: tuple[int, int] | None = None,
) -> ShapeAffine:
    """Seeded random coordinate map with bounded determinant and condition.

    Built as rotation * diag * rotation with log-uniform determinant and
    condition, so det_range=(1,1) with max_condition=1 degenerates to a pure
    rotation. When ``src_size`` (width, height) is given, the map fixes the
    center of that frame, to keep content in frame.

    Raises InvalidTransform, before any draw, unless the seed is one that
    numpy's default_rng takes, det_range and src_size are pairs of real
    numbers, 0 < low <= high < inf, 1 <= max_condition < inf and
    high * max_condition <= 2**1023: that product bounds the squared largest
    singular value, and the factor of 2 below the float range keeps it finite
    where a draw rounds past its bound. Raises it after the draws where the
    map is singular or its offset overflows.
    """
    lo, hi = _real_pair(det_range, "det_range")
    max_condition = _real(max_condition, "max_condition")
    if src_size is not None:
        src_size = _real_pair(src_size, "src_size")
    if not 0.0 < lo <= hi < math.inf:
        raise InvalidTransform(f"det_range must be (low, high) with 0 < low <= high < inf, got {det_range!r}")
    if not 1.0 <= max_condition < math.inf:
        raise InvalidTransform(f"max_condition must be finite and >= 1, got {max_condition!r}")
    if not hi * max_condition <= 2.0**1023:
        raise InvalidTransform(f"det_range high * max_condition must be at most 2**1023, got {hi * max_condition!r}")
    rng = _rng(seed)
    th1, th2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    det = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    cond = float(np.exp(rng.uniform(0.0, np.log(max_condition))))
    s1 = np.sqrt(det * cond)
    s2 = np.sqrt(det / cond)
    matrix = _rot2(th1) @ np.diag([s1, s2]) @ _rot2(th2)
    offset = np.zeros(2)
    if src_size is not None:
        center = np.array([(src_size[0] - 1) / 2.0, (src_size[1] - 1) / 2.0])
        with np.errstate(over="ignore", invalid="ignore"):
            offset = center - matrix @ center
    return _sampled(ShapeAffine, matrix, offset)


def sample_color_affine(
    seed: int,
    max_condition: float = 3.0,
    offset_range: tuple[float, float] = (-0.2, 0.2),
) -> ColorAffine:
    """Seeded random channel map with positive determinant.

    Symmetric positive-definite construction (rotation-conjugated diagonal)
    times a global scale drawn log-uniformly from COLOR_SCALE_RANGE:
    max_condition=1 with zero offsets collapses to a positive multiple of
    the identity, and the determinant is positive by construction.

    Raises InvalidTransform, before any draw, unless the seed is one that
    numpy's default_rng takes, 1 <= max_condition < inf and offset_range is
    a pair (low, high) of real numbers with low <= high and a finite
    high - low. Raises it after the draws where the map is singular.
    """
    max_condition = _real(max_condition, "max_condition")
    if not 1.0 <= max_condition < math.inf:
        raise InvalidTransform(f"max_condition must be finite and >= 1, got {max_condition!r}")
    low, high = _real_pair(offset_range, "offset_range")
    if not (low <= high and math.isfinite(high - low)):
        raise InvalidTransform(f"offset_range must have low <= high and a finite high - low, got {offset_range!r}")
    rng = _rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    half = 0.5 * np.log(max_condition)
    s = np.exp(rng.uniform(-half, half, size=3))
    lo, hi = COLOR_SCALE_RANGE
    lam = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    matrix = lam * (q @ np.diag(s) @ q.T)
    offset = rng.uniform(low, high, size=3)
    return _sampled(ColorAffine, matrix, offset)


# ---------------------------------------------------------------------------
# deviations


def relative_deviation(reference: np.ndarray, transformed: np.ndarray) -> np.ndarray:
    ref = np.asarray(reference, dtype=np.float64)
    new = np.asarray(transformed, dtype=np.float64)
    return np.abs(new - ref) / np.maximum(np.abs(ref), DEVIATION_FLOOR)

