"""Procedural test and benchmark images.

Smooth multi-blob color images stand in for photographs: Gaussian bumps with
random color vectors on a random base color, linearly rescaled into channel
range. Smoothness keeps interpolation error low under warps, and random blob
colors keep the three channels linearly independent so the quadratic color
core stays well away from degeneracy.

Both generators build their coordinates from 1-D axes that broadcast over
the frame, not from coordinate planes, and rescale in place; each pixel goes
through the same IEEE operations as with coordinate planes.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .engine import RasterImage
from .errors import InvalidImage


#: every blob image is rescaled jointly into [CHANNEL_LO, CHANNEL_HI]
CHANNEL_LO, CHANNEL_HI = 0.08, 0.92

#: the largest blob spread or disk radius_frac: a blob centre is drawn from
#: [-spread, spread], whose width must be a finite float
MAX_EXTENT = 2.0**1022


def _integer(value, what: str, low: int) -> int:
    """``value`` as an int; raises InvalidImage unless it is an integer, not a bool, of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidImage(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise InvalidImage(f"{what} must be >= {low}, got {value}")
    return int(value)


def _extent(value, what: str) -> float:
    """``value`` as a float; raises InvalidImage unless it is a real number in [0, MAX_EXTENT]."""
    if isinstance(value, numbers.Real):
        try:
            extent = float(value)
        except OverflowError:
            extent = math.inf
        if 0.0 <= extent <= MAX_EXTENT:
            # -0.0 as 0.0: numpy's uniform(-spread, spread) rejects the range (0.0, -0.0)
            return abs(extent)
    raise InvalidImage(f"{what} must be a real number in [0, 2**1022], got {value!r}")


def blob_image(seed: int, size: int = 128, n_blobs: int = 6, spread: float = 0.30) -> RasterImage:
    """Full-mask smooth image with blob centers within ``spread``*size of center.

    Raises InvalidImage for a seed that numpy's default_rng rejects, a
    ``size`` that is not an integer >= 1, an ``n_blobs`` that is not an
    integer >= 0 (a bool is neither) and a ``spread`` that is not a real
    number in [0, MAX_EXTENT].
    """
    planes = _blob_planes(seed, size, n_blobs, spread)
    return RasterImage(planes, np.ones(planes.shape[1:], dtype=bool))


def _blob_planes(seed, size, n_blobs, spread) -> np.ndarray:
    """The (3, size, size) channels of blob_image, with its argument checks."""
    size = _integer(size, "image size", 1)
    n_blobs = _integer(n_blobs, "blob count n_blobs", 0)
    spread = _extent(spread, "blob spread")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InvalidImage(f"seed must be a non-negative integer, got {seed!r}") from None
    c = (size - 1) / 2.0
    planes = np.tile(rng.uniform(0.2, 0.5, size=3)[:, None, None], (1, size, size))
    axis = np.arange(size, dtype=np.float64)
    # a blob far past the frame overflows its squared distances to inf, which adds exp(-inf) = 0
    with np.errstate(over="ignore"):
        for _ in range(n_blobs):
            cx, cy = rng.uniform(-spread, spread, size=2) * size + c
            sigma = rng.uniform(0.06, 0.18) * size
            bump = np.exp(-((axis[None, :] - cx) ** 2 + (axis[:, None] - cy) ** 2) / (2.0 * sigma**2))
            amp = rng.uniform(-0.5, 0.7, size=3)
            planes += amp[:, None, None] * bump[None, :, :]
    # joint linear rescale, in place: a diagonal channel map, keeps channels independent
    pmin, pmax = float(planes.min()), float(planes.max())
    scale = (CHANNEL_HI - CHANNEL_LO) / max(pmax - pmin, 1e-9)
    planes -= pmin
    planes *= scale
    planes += CHANNEL_LO
    return planes


def disk_masked_image(seed: int, size: int = 256, radius_frac: float = 0.20, n_blobs: int = 6) -> RasterImage:
    """Blob image whose mask is a centered disk, blob centers within 0.7 of its radius.

    A disk domain transported by a warp stays inside the frame as long as the
    transform's largest singular value times the radius fits, so feature
    deviations measure interpolation error rather than domain cropping.
    Raises InvalidImage for a ``radius_frac`` that is not a real number in
    [0, MAX_EXTENT], and for every argument blob_image rejects.
    """
    radius_frac = _extent(radius_frac, "disk radius_frac")
    planes = _blob_planes(seed, size, n_blobs, 0.7 * radius_frac)
    size = planes.shape[1]
    sq = (np.arange(size, dtype=np.float64) - (size - 1) / 2.0) ** 2
    try:
        limit = (radius_frac * size) ** 2
    except OverflowError:  # a radius past the float range holds every pixel
        limit = math.inf
    mask = sq[None, :] + sq[:, None] <= limit
    return RasterImage(planes, mask)
