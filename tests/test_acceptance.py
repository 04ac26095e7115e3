"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np

from scdmi.algebra import CoreSpec, normalization_exponents, catalogue_specs
from scdmi.bench import ALL_KINDS, DescriptorKind, classification_class, featurize, run_benchmark
from scdmi.cli import main
from scdmi.engine import RasterImage, scdmi50
from scdmi.oracle import brute_force_core_integral
from scdmi.synthetic import blob_image, disk_masked_image
from scdmi.transforms import (
    ColorAffine,
    ShapeAffine,
    apply_color_affine,
    apply_shape_affine,
    feature_deviations,
    sample_shape_affine,
)
from scdmi.verify import color_exactness_suite, oracle_suite, scaling_suite

WORKED_NUMERATOR = [
    (6, ((0, 2, 0, 0, 1), (1, 1, 0, 1, 0), (2, 0, 1, 0, 0))),
    (-6, ((0, 2, 0, 0, 1), (1, 1, 1, 0, 0), (2, 0, 0, 1, 0))),
    (-6, ((0, 2, 0, 1, 0), (1, 1, 0, 0, 1), (2, 0, 1, 0, 0))),
    (6, ((0, 2, 0, 1, 0), (1, 1, 1, 0, 0), (2, 0, 0, 0, 1))),
    (6, ((0, 2, 1, 0, 0), (1, 1, 0, 0, 1), (2, 0, 0, 1, 0))),
    (-6, ((0, 2, 1, 0, 0), (1, 1, 0, 1, 0), (2, 0, 0, 0, 1))),
]
WORKED_DENOMINATOR = [
    (6, ((0, 0, 0, 0, 2), (0, 0, 0, 2, 0), (0, 0, 2, 0, 0))),
    (-6, ((0, 0, 0, 0, 2), (0, 0, 1, 1, 0), (0, 0, 1, 1, 0))),
    (-6, ((0, 0, 0, 1, 1), (0, 0, 0, 1, 1), (0, 0, 2, 0, 0))),
    (12, ((0, 0, 0, 1, 1), (0, 0, 1, 0, 1), (0, 0, 1, 1, 0))),
    (-6, ((0, 0, 0, 2, 0), (0, 0, 1, 0, 1), (0, 0, 1, 0, 1))),
]


def report(criterion: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion:2d} ({name}): {status} {detail}")
    assert passed, f"criterion {criterion} ({name}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rows = oracle_suite(seed=0, n_images=5)
    elapsed = time.time() - t0
    worst = max(r.deviation for r in rows)
    ok = all(r.passed for r in rows) and len(rows) == 250 and elapsed < 60.0
    ok = ok and all(r.threshold == 1e-9 for r in rows)
    report(1, "oracle equivalence", ok, f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_worked_polynomial_reproduction():
    from scdmi.algebra import denominator_polynomial

    spec3 = next(s for s in catalogue_specs() if s.id == 3)
    num = [(t.coefficient, tuple(tuple(f) for f in t.factors)) for t in spec3.numerator.terms]
    den = [
        (t.coefficient, tuple(tuple(f) for f in t.factors))
        for t in denominator_polynomial().terms
    ]
    ok = num == WORKED_NUMERATOR and den == WORKED_DENOMINATOR
    report(2, "worked polynomial reproduction", ok, f"{len(num)} + {len(den)} terms, exact match")


def test_criterion_3_color_affine_exactness():
    t0 = time.time()
    rows = color_exactness_suite(seed=0)
    elapsed = time.time() - t0
    worst = max(r.deviation for r in rows)
    ok = all(r.passed for r in rows) and len(rows) == 20 and elapsed < 30.0
    ok = ok and all(r.threshold == 1e-9 for r in rows)
    report(3, "color-affine exactness", ok, f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_exact_grid_shape_invariance():
    size = 33
    rng = np.random.default_rng(21)
    img = RasterImage.from_array(rng.uniform(0, 1, (size, size, 3)))
    img.mask[:] = False
    img.mask[8:25, 8:25] = True
    base = scdmi50(img)
    c = (size - 1) / 2.0
    transforms = [
        ShapeAffine(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([2 * c, 0.0])),  # 90 deg
        ShapeAffine(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([2 * c, 2 * c])),  # x+y flip
        ShapeAffine(np.eye(2), np.array([3.0, -2.0])),  # integer shift
    ]
    worst = 0.0
    for t in transforms:
        assert float(np.linalg.det(t.matrix)) > 0
        fv = scdmi50(apply_shape_affine(img, t))
        devs, both = feature_deviations(base, fv)
        assert both.any()
        worst = max(worst, float(devs[both].max()))
    report(4, "exact-grid shape invariance", worst <= 1e-9, f"worst rel dev {worst:.2e}")


def test_criterion_5_resampled_shape_invariance():
    t0 = time.time()
    size = 512
    img = disk_masked_image(11, size=size, radius_frac=0.20, n_blobs=8)
    base = scdmi50(img)
    devs_k0, devs_k1 = [], []
    for t in range(10):
        st = sample_shape_affine(
            900 + t, det_range=(0.5, 2.0), max_condition=3.0, src_size=(size, size)
        )
        fv = scdmi50(apply_shape_affine(img, st))
        devs, both = feature_deviations(base, fv)
        devs_k0.extend(devs[:25][both[:25]].tolist())
        devs_k1.extend(devs[25:][both[25:]].tolist())
    elapsed = time.time() - t0
    med0 = float(np.median(devs_k0))
    med1 = float(np.median(devs_k1))
    ok = med0 < 0.05 and med1 < 0.10 and elapsed < 120.0
    report(
        5,
        "resampled shape invariance",
        ok,
        f"median k0 {med0:.4f} (<0.05), k1 {med1:.4f} (<0.10), {elapsed:.1f}s",
    )


def test_criterion_6_normalization_pinning():
    rows = scaling_suite(seed=0)
    positive = [r for r in rows if r.suite == "scaling"]
    control = [r for r in rows if r.suite == "scaling_negative_control"]
    worst = max(r.deviation for r in positive)
    weakest_control = min(r.deviation for r in control)
    ok = (
        all(r.passed for r in positive)
        and all(r.passed for r in control)
        and len(positive) == 25
        and len(control) == 25
        and all(r.threshold == 0.01 for r in rows)
    )
    report(
        6,
        "normalization pinning",
        ok,
        f"k0 worst dev {worst:.2e} (<1%), wrong-exponent min dev {weakest_control:.2f} (>1%)",
    )


def test_criterion_7_degeneracy_handling():
    rng = np.random.default_rng(3)
    g = rng.uniform(0, 1, (32, 32))
    cases = [
        RasterImage(np.stack([g, g, g]), np.ones((32, 32), bool)),  # grayscale
        RasterImage.from_array(np.full((16, 16, 3), 0.6)),  # constant color
        RasterImage.from_array(np.zeros((8, 8, 3))),  # all black
    ]
    ok = True
    for img in cases:
        fv = scdmi50(img)
        ok = ok and (not fv.valid.any()) and bool(np.isfinite(fv.values).all())
        ok = ok and bool(np.all(fv.values == 0.0))
    report(7, "degeneracy handling", ok, "grayscale/constant: all invalid, finite, no crash")


def test_criterion_8_qualitative_ordering():
    t0 = time.time()
    features = featurize(item for c in range(20) for item in classification_class(c, 20, size=128, seed=0))
    acc = run_benchmark(features)[0]
    elapsed = time.time() - t0
    baselines = (
        DescriptorKind.TRANSFORMED_COLOR_DIST,
        DescriptorKind.RG_HISTOGRAM,
        DescriptorKind.COLOR_MOMENTS,
        DescriptorKind.HU7,
    )
    ordered = all(acc[DescriptorKind.SCDMI50] >= acc[b] for b in baselines)
    # frozen regression margins, measured on this seed
    frozen = (
        acc[DescriptorKind.SCDMI50] >= 0.95
        and acc[DescriptorKind.SCDMI50] - max(acc[b] for b in baselines) >= 0.15
    )
    detail = ", ".join(f"{k.value}={acc[k]:.3f}" for k in ALL_KINDS)
    report(8, "qualitative ordering", ordered and frozen, f"{detail} ({elapsed:.0f}s)")


def test_criterion_9_sign_covariance():
    flip = ColorAffine(np.diag([1.1, 0.9, -1.0]), np.array([0.05, -0.02, 0.1]))
    assert float(np.linalg.det(flip.matrix)) < 0

    img = blob_image(23, size=96)
    base = scdmi50(img)
    moved = scdmi50(apply_color_affine(img, flip))
    both = base.valid & moved.valid
    assert both.all()
    # all catalogued instances have odd color degree M=1: sign flips,
    # magnitude preserved
    worst_odd = float(
        np.max(np.abs(moved.values + base.values) / np.maximum(np.abs(base.values), 1e-12))
    )

    # even color degree: a custom quadratic-color core must be unchanged. It
    # lies outside the catalogue, so the oracle sums it, on an image small
    # enough for the oracle's tuple guard
    even_core = CoreSpec(shape_factors=((1, 2, 2),), color_triples=((1, 2, 3, 2),))
    d2_core = CoreSpec(color_triples=((1, 2, 3, 2),))
    e, dexp = normalization_exponents(even_core)
    small = blob_image(23, size=12)
    even = []
    for im in (small, apply_color_affine(small, flip)):
        n = float(np.count_nonzero(im.mask))
        d2 = brute_force_core_integral(im, d2_core, 0)
        even.append(brute_force_core_integral(im, even_core, 0) / (n ** float(e) * d2 ** float(dexp)))
    va, vb = even
    worst_even = abs(vb - va) / max(abs(va), 1e-12)
    ok = worst_odd <= 1e-9 and worst_even <= 1e-9 and va != 0.0
    report(
        9,
        "sign covariance",
        ok,
        f"odd-M flip dev {worst_odd:.2e}, even-M dev {worst_even:.2e}",
    )


def test_criterion_10_determinism(tmp_path):
    va, vb = tmp_path / "va", tmp_path / "vb"
    assert main(["verify", "--seed", "3", "--out", str(va)]) == 0
    assert main(["verify", "--seed", "3", "--out", str(vb)]) == 0
    verify_same = (va / "verify.csv").read_bytes() == (vb / "verify.csv").read_bytes()

    bench_args = ["bench", "--synthetic", "--classes", "3", "--transforms", "4",
                  "--size", "48", "--seed", "3"]
    ba, bb = tmp_path / "ba", tmp_path / "bb"
    assert main(bench_args + ["--out", str(ba)]) == 0
    assert main(bench_args + ["--out", str(bb)]) == 0
    bench_same = all(
        (ba / name).read_bytes() == (bb / name).read_bytes()
        for name in ("accuracy.csv", "pr_curves.csv", "dataset_manifest.csv")
    )
    report(10, "determinism", verify_same and bench_same, "verify + bench CSVs byte-identical")
