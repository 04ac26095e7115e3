"""Procedural test and benchmark images.

Smooth multi-blob color images stand in for photographs: Gaussian bumps with
random color vectors on a random base color, linearly rescaled into channel
range. Smoothness keeps interpolation error low under warps, and random blob
colors keep the three channels linearly independent so the quadratic color
core stays well away from degeneracy.
"""

from __future__ import annotations

import numpy as np

from .engine import RasterImage
from .errors import InvalidImage


#: every blob image is rescaled jointly into [CHANNEL_LO, CHANNEL_HI]
CHANNEL_LO, CHANNEL_HI = 0.08, 0.92


def blob_image(seed: int, size: int = 128, n_blobs: int = 6, spread: float = 0.30) -> RasterImage:
    """Full-mask smooth image with blob centers within ``spread``*size of center;
    raises InvalidImage for a ``size`` under 1 or a ``spread`` that is
    negative or not finite."""
    if size < 1:
        raise InvalidImage(f"image size must be >= 1, got {size}")
    if not 0.0 <= spread < np.inf:
        raise InvalidImage(f"blob spread must be finite and >= 0, got {spread}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    c = (size - 1) / 2.0
    planes = np.tile(rng.uniform(0.2, 0.5, size=3)[:, None, None], (1, size, size))
    for _ in range(n_blobs):
        cx, cy = rng.uniform(-spread, spread, size=2) * size + c
        sigma = rng.uniform(0.06, 0.18) * size
        bump = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma**2))
        amp = rng.uniform(-0.5, 0.7, size=3)
        planes += amp[:, None, None] * bump[None, :, :]
    # joint linear rescale: a diagonal channel map, keeps channels independent
    pmin, pmax = float(planes.min()), float(planes.max())
    scale = (CHANNEL_HI - CHANNEL_LO) / max(pmax - pmin, 1e-9)
    planes = CHANNEL_LO + (planes - pmin) * scale
    return RasterImage(planes, np.ones((size, size), dtype=bool))


def disk_masked_image(seed: int, size: int = 256, radius_frac: float = 0.20, n_blobs: int = 6) -> RasterImage:
    """Blob image whose mask is a centered disk, blob centers within 0.7 of its radius.

    A disk domain transported by a warp stays inside the frame as long as the
    transform's largest singular value times the radius fits, so feature
    deviations measure interpolation error rather than domain cropping.
    Raises InvalidImage for a ``size`` under 1, as blob_image does, and for
    a ``radius_frac`` that is negative or not finite.
    """
    if not 0.0 <= radius_frac < np.inf:
        raise InvalidImage(f"disk radius_frac must be finite and >= 0, got {radius_frac}")
    img = blob_image(seed, size=size, spread=0.7 * radius_frac, n_blobs=n_blobs)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    c = (size - 1) / 2.0
    mask = (xx - c) ** 2 + (yy - c) ** 2 <= (radius_frac * size) ** 2
    return RasterImage(img.channels, mask)
