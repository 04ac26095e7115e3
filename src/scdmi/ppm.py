"""Binary PPM (P6, 8-bit) input and output.

The one required bit-exact image format: values map to reals by v/255 on
load and are quantized by round(v*255) after clamping on write. Loaded
images get an all-true mask.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .engine import RasterImage
from .errors import InvalidImage


def _tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace/comment-delimited header tokens and the
    offset just past the single whitespace byte after the last one."""
    toks: list[bytes] = []
    i = 0
    n = len(data)
    while len(toks) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise InvalidImage("truncated PPM header")
        toks.append(data[start:i])
    if i >= n or not data[i : i + 1].isspace():
        raise InvalidImage("missing whitespace after PPM header")
    return toks, i + 1


def read_ppm(path) -> RasterImage:
    """The image in a P6 file; raises InvalidImage on a malformed or unsupported file."""
    data = Path(path).read_bytes()
    # the magic number is the whole first token: "P66" is not "P6"
    if data[:2] != b"P6" or not data[2:3].isspace():
        raise InvalidImage(f"{path}: not a binary P6 PPM")
    toks, offset = _tokens(data, 4)
    try:
        width, height, maxval = (int(t) for t in toks[1:])
    except ValueError:
        raise InvalidImage(f"{path}: malformed PPM header") from None
    if width <= 0 or height <= 0:
        raise InvalidImage(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise InvalidImage(f"{path}: only maxval 255 is supported, got {maxval}")
    need = width * height * 3
    if len(data) - offset < need:
        raise InvalidImage(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=offset)
    # built C-contiguous, the layout RasterImage stores, so it is not copied again
    channels = raw.reshape(height, width, 3).transpose(2, 0, 1).astype(np.float64, order="C")
    channels /= 255.0
    return RasterImage(channels, np.ones((height, width), dtype=bool))


def write_ppm(path, img: RasterImage) -> None:
    """Write ``img`` as a P6 file; raises InvalidImage, before the file is
    opened, for a frame with no pixels or a non-finite channel value."""
    if img.width == 0 or img.height == 0:
        raise InvalidImage(f"{path}: a PPM needs at least one pixel, got {img.width}x{img.height}")
    if not np.isfinite(img.channels).all():
        raise InvalidImage(f"{path}: a PPM needs finite channel values")
    quant = np.rint(np.clip(img.channels, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + np.moveaxis(quant, 0, -1).tobytes())
