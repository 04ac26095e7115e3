"""Coordinate and channel transforms plus invariance measurement.

Coordinate warps use inverse mapping with bilinear interpolation; an output
pixel is masked only when every source tap it reads is masked, so unmasked
data never leaks into the integration domain. Channel maps act per pixel in
unclamped real space, which makes them exact on the discrete data: no
resampling path exists, so feature deviations under channel maps are pure
floating-point noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import FeatureVector, RasterImage, scdmi50
from .errors import InvalidTransform, Singular

#: relative-deviation denominators never drop below this
DEVIATION_FLOOR = 1e-12

_MIN_DET = 1e-6
#: sample_color_affine scales its map by a factor drawn log-uniformly from this range
COLOR_SCALE_RANGE = (0.6, 1.5)


def _validated(matrix, offset, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The float n x n matrix and length-n offset of a ``what`` affine map,
    checked for shape and finiteness before the determinant is formed."""
    matrix = np.asarray(matrix, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    if matrix.shape != (n, n) or offset.shape != (n,):
        raise InvalidTransform(f"{what} affine needs a {n}x{n} matrix and length-{n} offset")
    if not (np.isfinite(matrix).all() and np.isfinite(offset).all()):
        raise InvalidTransform(f"{what} affine needs a finite matrix and offset")
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(matrix))
    if not np.isfinite(det):
        raise InvalidTransform(f"{what} affine determinant overflows")
    if abs(det) < _MIN_DET:
        raise Singular(f"{what} transform matrix is singular")
    return matrix, offset


@dataclass
class ShapeAffine:
    """Coordinate map (x', y')^T = matrix @ (x, y)^T + offset."""

    matrix: np.ndarray
    offset: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        self.matrix, self.offset = _validated(self.matrix, self.offset, 2, "shape")

    @classmethod
    def identity(cls) -> "ShapeAffine":
        return cls(np.eye(2), np.zeros(2))


@dataclass
class ColorAffine:
    """Channel map (R', G', B')^T = matrix @ (R, G, B)^T + offset."""

    matrix: np.ndarray
    offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.matrix, self.offset = _validated(self.matrix, self.offset, 3, "color")

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
    """
    w_in, h_in = img.width, img.height
    # the determinant and adjugate inverse are formed on the matrix scaled by
    # a power of two to a largest entry in [0.5, 1), which is exact and keeps
    # the products from overflowing; the scale is taken out again exactly
    scale = 2.0 ** -math.frexp(float(np.abs(t.matrix).max()))[1]
    a = t.matrix * scale
    det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if abs(det / scale / scale) < _MIN_DET:
        raise Singular("shape transform matrix is singular")
    # adjugate inverse keeps grid-aligned maps exact in floating point
    inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det * scale

    gx = np.arange(w_in, dtype=np.float64)[None, :] - t.offset[0]
    gy = np.arange(h_in, dtype=np.float64)[:, None] - t.offset[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sx = inv[0, 0] * gx + inv[0, 1] * gy
        sy = inv[1, 0] * gx + inv[1, 1] * gy
    # a source coordinate off the frame, inf or nan (a huge offset) is out of
    # bounds; pinned to just off the frame, it casts to int64 without overflow
    sx = np.fmax(np.fmin(sx, w_in), -1.0)
    sy = np.fmax(np.fmin(sy, h_in), -1.0)

    x0f = np.floor(sx)
    y0f = np.floor(sy)
    fx = sx - x0f
    fy = sy - y0f
    x0 = x0f.astype(np.int64)
    y0 = y0f.astype(np.int64)
    x1 = x0 + (fx > 0)
    y1 = y0 + (fy > 0)

    inb = (x0 >= 0) & (x1 <= w_in - 1) & (y0 >= 0) & (y1 <= h_in - 1)
    x0c = np.clip(x0, 0, w_in - 1)
    x1c = np.clip(x1, 0, w_in - 1)
    y0c = np.clip(y0, 0, h_in - 1)
    y1c = np.clip(y1, 0, h_in - 1)

    # one flat index y * W + x per tap serves the mask and all three planes
    taps = [y * w_in + x for y in (y0c, y1c) for x in (x0c, x1c)]
    flat_mask = img.mask.ravel()
    out_mask = inb
    for tap in taps:
        out_mask = out_mask & flat_mask.take(tap)

    w00 = (1.0 - fx) * (1.0 - fy)
    w01 = fx * (1.0 - fy)
    w10 = (1.0 - fx) * fy
    w11 = fx * fy
    planes = np.stack(img.channels()).reshape(3, -1)
    # the weighted taps are added in the fixed order 00, 01, 10, 11, which sets the rounding
    out = w00 * planes.take(taps[0], axis=1)
    for weight, tap in zip((w01, w10, w11), taps[1:]):
        out += weight * planes.take(tap, axis=1)
    out = np.where(out_mask, out, 0.0)
    return RasterImage(out[0], out[1], out[2], out_mask)


def apply_color_affine(img: RasterImage, t: ColorAffine, clamp: bool = False) -> RasterImage:
    """Per-pixel channel map in real space; clamps to [0, 1] only on request."""
    stack = np.stack(img.channels())
    out = np.einsum("ij,jhw->ihw", t.matrix, stack) + t.offset[:, None, None]
    if clamp:
        np.clip(out, 0.0, 1.0, out=out)
    return RasterImage(out[0], out[1], out[2], img.mask.copy())


def upsample_nearest(img: RasterImage, factor: int = 2) -> RasterImage:
    """Pixel replication: an exact affine map of the sample grid."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    rep = lambda p: np.repeat(np.repeat(p, factor, axis=0), factor, axis=1)
    return RasterImage(rep(img.red), rep(img.green), rep(img.blue), rep(img.mask))


# ---------------------------------------------------------------------------
# samplers


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
    """
    lo, hi = det_range
    if not (0.0 < lo <= hi):
        raise ValueError("det_range must be within (0, inf)")
    if max_condition < 1.0:
        raise ValueError("max_condition must be >= 1")
    rng = np.random.default_rng(seed)
    th1, th2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    det = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    cond = float(np.exp(rng.uniform(0.0, np.log(max_condition))))
    s1 = np.sqrt(det * cond)
    s2 = np.sqrt(det / cond)
    matrix = _rot2(th1) @ np.diag([s1, s2]) @ _rot2(th2)
    offset = np.zeros(2)
    if src_size is not None:
        center = np.array([(src_size[0] - 1) / 2.0, (src_size[1] - 1) / 2.0])
        offset = center - matrix @ center
    return ShapeAffine(matrix, offset)


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
    """
    if max_condition < 1.0:
        raise ValueError("max_condition must be >= 1")
    if not offset_range[0] <= offset_range[1]:
        raise ValueError("offset_range must be (low, high) with low <= high")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    half = 0.5 * np.log(max_condition)
    s = np.exp(rng.uniform(-half, half, size=3))
    lo, hi = COLOR_SCALE_RANGE
    lam = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    matrix = lam * (q @ np.diag(s) @ q.T)
    offset = rng.uniform(offset_range[0], offset_range[1], size=3)
    return ColorAffine(matrix, offset)


# ---------------------------------------------------------------------------
# invariance reports


@dataclass
class InvarianceReport:
    """Per-invariant relative deviation statistics across a transform set."""

    ids: np.ndarray
    ks: np.ndarray
    median_rel_dev: np.ndarray
    max_rel_dev: np.ndarray
    n_valid: np.ndarray

    def to_csv(self) -> str:
        lines = ["id,k,median_rel_dev,max_rel_dev,n_valid"]
        for i in range(len(self.ids)):
            lines.append(
                f"{int(self.ids[i])},{int(self.ks[i])},"
                f"{float(self.median_rel_dev[i])!r},{float(self.max_rel_dev[i])!r},"
                f"{int(self.n_valid[i])}"
            )
        return "\n".join(lines) + "\n"


def relative_deviation(reference: np.ndarray, transformed: np.ndarray) -> np.ndarray:
    ref = np.asarray(reference, dtype=np.float64)
    new = np.asarray(transformed, dtype=np.float64)
    return np.abs(new - ref) / np.maximum(np.abs(ref), DEVIATION_FLOOR)


def feature_deviations(base: FeatureVector, other: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
    """(deviations, both_valid) for one original/transformed pair."""
    both = base.valid & other.valid
    return relative_deviation(base.values, other.values), both


def invariance_report(
    img: RasterImage,
    shape_transforms: tuple[ShapeAffine, ...] = (),
    color_transforms: tuple[ColorAffine, ...] = (),
    clamp: bool = False,
) -> InvarianceReport:
    """Feature deviations for every shape-only, color-only and composed variant.

    Deviations are collected per invariant over the variants where both the
    original and the transformed image give a valid value.
    """
    base = scdmi50(img)
    warped = [apply_shape_affine(img, st) for st in shape_transforms]
    variants = warped + [apply_color_affine(img, ct, clamp) for ct in color_transforms]
    for shaped in warped:
        for ct in color_transforms:
            variants.append(apply_color_affine(shaped, ct, clamp))

    collected: list[list[float]] = [[] for _ in range(50)]
    for variant in variants:
        fv = scdmi50(variant)
        devs, both = feature_deviations(base, fv)
        for i in range(50):
            if both[i]:
                collected[i].append(float(devs[i]))

    ids = np.array([spec_id for k in (0, 1) for spec_id in range(1, 26)])
    ks = np.array([k for k in (0, 1) for _ in range(25)])
    med = np.array([float(np.median(c)) if c else float("nan") for c in collected])
    mx = np.array([max(c) if c else float("nan") for c in collected])
    nv = np.array([len(c) for c in collected])
    return InvarianceReport(ids, ks, med, mx, nv)
