"""Self-contained verification suites behind the ``verify`` subcommand.

Four gates, all on internally generated seeded data:

* oracle equivalence: the feature vector scdmi50 returns against
  brute-force multi-point summation on tiny random images, for every
  catalogued instance;
* channel-map exactness: unclamped channel transforms must leave every valid
  feature unchanged to floating-point noise;
* scaling: nearest-neighbor upsampling (an exact affine map of the sample
  grid) must leave features nearly unchanged, and must visibly break them
  under the rejected alternative area exponent (negative control, read off
  the same features);
* degeneracy: grayscale and constant images must come back all-invalid
  without NaNs or infinities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import catalogue_specs
from .engine import RasterImage, scdmi50
from .oracle import brute_force_features
from .synthetic import blob_image, disk_masked_image
from .transforms import (
    apply_color_affine,
    feature_deviations,
    relative_deviation,
    sample_color_affine,
    upsample_nearest,
)

#: the gates' thresholds; no argument or flag can change them
ORACLE_TOL = 1e-9
COLOR_TOL = 1e-9
SCALING_TOL = 0.01


@dataclass
class VerifyRow:
    suite: str
    id: str
    k: int
    deviation: float
    threshold: float
    passed: bool


def rows_to_csv(rows: list[VerifyRow]) -> str:
    lines = ["suite,id,k,deviation,threshold,status"]
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.suite},{r.id},{r.k},{r.deviation!r},{r.threshold!r},{status}")
    return "\n".join(lines) + "\n"


def oracle_deviations(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Deviation of 50 feature values from their brute-force references.

    Each entry is |value - reference| over min(max(1, |reference|), s_k),
    where s_k is the largest |reference| of that entry's k; where s_k is 0
    the denominator is max(1, |reference|). Every reference on a tiny image
    is far below 1, so max(1, |reference|) alone would make the gate
    absolute and pass a small entry however wrong it is.
    """
    size = np.abs(reference)
    denom = np.maximum(1.0, size)
    for k in (0, 1):
        half = slice(25 * k, 25 * k + 25)
        s_k = size[half].max()
        if s_k > 0.0:
            denom[half] = np.minimum(denom[half], s_k)
    return np.abs(values - reference) / denom


def oracle_suite(seed: int = 0, n_images: int = 5) -> list[VerifyRow]:
    """Brute force vs scdmi50, all 50 features on tiny images."""
    rows: list[VerifyRow] = []
    for i in range(n_images):
        rng = np.random.default_rng(seed + i)
        img = RasterImage.from_array(rng.uniform(0.0, 1.0, size=(6, 6, 3)))
        fv, ref = scdmi50(img), brute_force_features(img)
        devs = oracle_deviations(fv.values, ref.values)
        for k in (0, 1):
            for pos, spec in enumerate(catalogue_specs(), start=25 * k):
                dev = float(devs[pos])
                rows.append(
                    VerifyRow(
                        suite="oracle",
                        id=f"img{i}_inst{spec.id}",
                        k=k,
                        deviation=dev,
                        threshold=ORACLE_TOL,
                        passed=bool(fv.valid[pos] and ref.valid[pos] and dev <= ORACLE_TOL),
                    )
                )
    return rows


def color_exactness_suite(seed: int = 0) -> list[VerifyRow]:
    """20 unclamped channel maps (det > 0, condition <= 10) leave features fixed."""
    img = blob_image(seed + 17, size=128)
    base = scdmi50(img)
    rows: list[VerifyRow] = []
    for t in range(20):
        ct = sample_color_affine(seed * 1009 + t, max_condition=10.0, offset_range=(-0.3, 0.3))
        fv = scdmi50(apply_color_affine(img, ct, clamp=False))
        devs, both = feature_deviations(base, fv)
        worst = float(np.max(devs[both])) if both.any() else float("nan")
        rows.append(
            VerifyRow(
                suite="color_exactness",
                id=f"transform{t}",
                k=-1,
                deviation=worst,
                threshold=COLOR_TOL,
                passed=bool(both.any() and worst <= COLOR_TOL),
            )
        )
    return rows


def scaling_suite(seed: int = 0) -> list[VerifyRow]:
    """Sampling-density consistency pins the area exponent.

    2x pixel replication multiplies the pixel count by 4 and maps the sample
    grid affinely, so valid k=0 features should move by less than SCALING_TOL.
    k=1 features are excluded: the difference stencil does not commute with
    staircase replication, so their deviation measures stencil artifacts, not
    the exponent. The negative-control rows re-evaluate with the rejected
    exponent reading (n + N + m - 3M/2) and pass only when that reading
    clearly fails. Every row reads scdmi50: an invariant is a numerator over
    m00**e * D2**d with m00 the pixel count n, so the rejected exponent
    e_bad turns a value v into v * n**(e - e_bad).
    """
    img = disk_masked_image(seed + 5, size=192, radius_frac=0.40)
    big = upsample_nearest(img, 2)
    fv_small, fv_big = scdmi50(img), scdmi50(big)
    n_small, n_big = float(np.count_nonzero(img.mask)), float(np.count_nonzero(big.mask))
    rows: list[VerifyRow] = []
    for pos, spec in enumerate(catalogue_specs()):
        v_small, ok_small = float(fv_small.values[pos]), bool(fv_small.valid[pos])
        v_big, ok_big = float(fv_big.values[pos]), bool(fv_big.valid[pos])
        dev = float(relative_deviation(np.array([v_small]), np.array([v_big]))[0])
        rows.append(
            VerifyRow(
                suite="scaling",
                id=f"inst{spec.id}",
                k=0,
                deviation=dev,
                threshold=SCALING_TOL,
                passed=bool(ok_small and ok_big and dev <= SCALING_TOL),
            )
        )
        # rejected reading: replace width by n + N in the area exponent
        src = spec.source
        e_bad = (
            Fraction(src.shape_point_count + src.color_point_count + src.shape_degree)
            - Fraction(3 * src.color_degree, 2)
        )
        if e_bad == spec.area_exponent:
            continue
        shift = float(spec.area_exponent - e_bad)
        b_small = v_small * n_small**shift
        b_big = v_big * n_big**shift
        # pure ratio: the floored deviation would hide the mismatch because
        # the wrong exponent drives the values themselves toward zero
        bad_dev = abs(b_big - b_small) / abs(b_small) if b_small != 0.0 else float("inf")
        rows.append(
            VerifyRow(
                suite="scaling_negative_control",
                id=f"inst{spec.id}",
                k=0,
                deviation=bad_dev,
                threshold=SCALING_TOL,
                passed=bool(bad_dev > SCALING_TOL),
            )
        )
    return rows


def degeneracy_suite(seed: int = 0) -> list[VerifyRow]:
    """Grayscale and constant images report all-invalid vectors, no blow-ups."""
    rng = np.random.default_rng(seed + 23)
    g = rng.uniform(0.0, 1.0, (16, 16))
    cases = {
        "grayscale": RasterImage(np.stack([g, g, g]), np.ones((16, 16), dtype=bool)),
        "constant": RasterImage.from_array(np.full((16, 16, 3), 0.4)),
    }
    rows = []
    for name, img in cases.items():
        fv = scdmi50(img)
        n_valid = int(fv.valid.sum())
        finite = bool(np.isfinite(fv.values).all())
        rows.append(
            VerifyRow(
                suite="degeneracy",
                id=name,
                k=-1,
                deviation=float(n_valid),
                threshold=0.0,
                passed=bool(n_valid == 0 and finite),
            )
        )
    return rows


def run_all(seed: int = 0) -> tuple[list[VerifyRow], bool]:
    rows = (
        oracle_suite(seed=seed)
        + color_exactness_suite(seed=seed)
        + scaling_suite(seed=seed)
        + degeneracy_suite(seed=seed)
    )
    return rows, all(r.passed for r in rows)
