"""The generators build coordinates from 1-D axes and rescale in place, and
apply_color_affine adds its offset and clamps in place: each keeps its
earlier whole-frame code here as its reference and must give the same bytes,
on square and non-square frames, with full, disk and edge masks, with
clamping on and off. perfbench's generated inputs are pinned by hash.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from scdmi.engine import RasterImage
from scdmi.errors import InvalidImage
from scdmi.ppm import write_ppm
from scdmi.synthetic import CHANNEL_HI, CHANNEL_LO, blob_image, disk_masked_image
from scdmi.transforms import ColorAffine, apply_color_affine, sample_color_affine

# ---------------------------------------------------------------------------
# whole-frame references


def reference_blob_image(seed, size=128, n_blobs=6, spread=0.30):
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
    pmin, pmax = float(planes.min()), float(planes.max())
    scale = (CHANNEL_HI - CHANNEL_LO) / max(pmax - pmin, 1e-9)
    planes = CHANNEL_LO + (planes - pmin) * scale
    return RasterImage(planes, np.ones((size, size), dtype=bool))


def reference_disk_masked_image(seed, size=256, radius_frac=0.20, n_blobs=6):
    img = reference_blob_image(seed, size=size, spread=0.7 * radius_frac, n_blobs=n_blobs)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    c = (size - 1) / 2.0
    mask = (xx - c) ** 2 + (yy - c) ** 2 <= (radius_frac * size) ** 2
    return RasterImage(img.channels, mask)


def reference_color_affine(img, t, clamp):
    out = np.einsum("ij,jhw->ihw", t.matrix, img.channels) + t.offset[:, None, None]
    if clamp:
        out = np.clip(out, 0.0, 1.0)
    return RasterImage(out, img.mask.copy())


def assert_same_image(got, ref):
    for a, b in zip((got.channels, got.mask), (ref.channels, ref.mask)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("size", [1, 2, 3, 37, 128, 257])
def test_blob_image_matches_whole_frame_build(size):
    for seed in range(2):
        assert_same_image(blob_image(seed, size=size), reference_blob_image(seed, size=size))
    assert_same_image(blob_image(5, size=size, n_blobs=0), reference_blob_image(5, size=size, n_blobs=0))


@pytest.mark.parametrize("size", [1, 2, 3, 37, 128, 257])
@pytest.mark.parametrize("radius_frac", [0.0, 0.26, 0.5, 0.8], ids=["point", "bench", "touching-edges", "past-edges"])
def test_disk_masked_image_matches_whole_frame_build(size, radius_frac):
    got = disk_masked_image(size, size=size, radius_frac=radius_frac)
    assert_same_image(got, reference_disk_masked_image(size, size=size, radius_frac=radius_frac))


def test_huge_disk_radius_holds_every_pixel():
    # (radius_frac * size) ** 2 past the float range raised a bare OverflowError
    img = disk_masked_image(0, size=6, radius_frac=1e200)
    assert img.mask.all() and np.isfinite(img.channels).all()


def perfbench_input_hashes():
    """SHA-256 over perfbench's generated inputs at the seeds
    perfbench/reference.json stores: extract-small's 64 disk images of 128 px
    per seed and extract-large's six full frames per seed."""
    stored = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())
    small, large = hashlib.sha256(), hashlib.sha256()
    for seed in sorted(map(int, stored["extract-small"])):
        for i in range(64):
            img = disk_masked_image(seed * 1000 + i, size=128, radius_frac=0.26)
            small.update(img.channels.tobytes())
            small.update(img.mask.tobytes())
    for seed in sorted(map(int, stored["extract-large"])):
        for i, size in enumerate((224, 240, 272, 272, 272, 344)):
            img = blob_image(seed * 1000 + i, size=size)
            large.update(img.channels.tobytes())
            large.update(img.mask.tobytes())
    return {"extract-small": small.hexdigest(), "extract-large": large.hexdigest()}


#: perfbench_input_hashes with np.exp replaced by 1 / (1 - x), which, like
#: every other operation of the generators, is exactly rounded: the same on
#: every host, it pins the draws, the arithmetic around the bumps, the
#: rescale and the masks
EXACT_INPUT_PINS = {
    "extract-small": "4f9970f089ac6782e30254be247dd69c44085725a59ecd28acd0593762a8d88e",
    "extract-large": "351680962f16f121ee18738f284194b83fa185d15b977c07f930d4411c1cc7b8",
}
#: perfbench_input_hashes as it is, on the host the pins were taken on
#: (AVX-512, numpy 2.4): perfbench's reference feature vectors were computed
#: on these images
PERFBENCH_INPUT_PINS = {
    "extract-small": "c571d701a3cf4ac695eb4b2dbb3b3963e70babebbd61f212eab3bf10c09aaac3",
    "extract-large": "f1ad7b30b9a40fc1184f5068b32d1c08fb0b0311b70163db5a4e9e1b6abc4821",
}
#: SHA-256 of np.exp over the generators' argument range on that host: the
#: exp loop numpy dispatches elsewhere (another SIMD level or libm) may round
#: a last bit differently, and PERFBENCH_INPUT_PINS then say nothing
EXP_PIN = "014b79228de462d25eb3f4ba1e2bbd5aa68ed804fdc65893cc8b3a7f4405fded"


def test_perfbench_inputs_are_pinned_up_to_exp(monkeypatch):
    monkeypatch.setattr(np, "exp", lambda x: 1.0 / (1.0 - x))
    assert perfbench_input_hashes() == EXACT_INPUT_PINS


def test_perfbench_inputs_are_pinned():
    if hashlib.sha256(np.exp(np.linspace(-300.0, 0.0, 100_003)).tobytes()).hexdigest() != EXP_PIN:
        pytest.skip("np.exp rounds differently on this host from the host PERFBENCH_INPUT_PINS were taken on")
    assert perfbench_input_hashes() == PERFBENCH_INPUT_PINS


# ---------------------------------------------------------------------------
# channel maps

#: square and non-square frames, as (rows, columns)
FRAMES = [(1, 1), (1, 7), (2, 5), (3, 512), (37, 23), (129, 130)]
FRAME_IDS = [f"{h}x{w}" for h, w in FRAMES]


def frame_image(h, w, mask_kind, seed=0):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    masks = {
        "full": np.ones((h, w), dtype=bool),
        "disk": (xx - (w - 1) / 2) ** 2 + (yy - (h - 1) / 2) ** 2 <= (0.4 * min(h, w)) ** 2 + 0.5,
        # a block that touches the frame's left, top and bottom edges
        "edge": xx <= w // 3,
    }
    # channels outside [0, 1], so that the clamp acts
    return RasterImage.from_array(rng.uniform(-0.2, 1.2, size=(h, w, 3)), masks[mask_kind])


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("mask_kind", ["full", "disk", "edge"])
@pytest.mark.parametrize("h, w", FRAMES, ids=FRAME_IDS)
def test_color_affine_matches_whole_frame_map(h, w, mask_kind, clamp):
    img = frame_image(h, w, mask_kind)
    for t in [ColorAffine.identity(), sample_color_affine(0), sample_color_affine(1, offset_range=(-2.0, 2.0))]:
        assert_same_image(apply_color_affine(img, t, clamp=clamp), reference_color_affine(img, t, clamp))


# ---------------------------------------------------------------------------
# PPM output


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["first-row", "last-row"])
def test_write_ppm_refuses_nonfinite_values_before_the_file_exists(tmp_path, value, where):
    img = frame_image(37, 23, "full")
    img.channels[2, 0 if where == "first-row" else 36, 7] = value
    path = tmp_path / "bad.ppm"
    with pytest.raises(InvalidImage, match="finite"):
        write_ppm(path, img)
    assert not path.exists()
