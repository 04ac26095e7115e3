#!/usr/bin/env python3
"""Measure feature stability under sampled warps and channel maps.

Generates a disk-masked synthetic image, applies seeded shape and color
transform suites (shape-only, color-only, and composed), and writes the
per-invariant deviation report CSV.

Usage:
    python scripts/run_invariance_report.py --seed 0 --size 256 --out report.csv
"""

import argparse
from pathlib import Path

from scdmi.synthetic import disk_masked_image
from scdmi.transforms import invariance_report, sample_color_affine, sample_shape_affine


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--shape-transforms", type=int, default=5)
    ap.add_argument("--color-transforms", type=int, default=4)
    ap.add_argument("--det-lo", type=float, default=0.7)
    ap.add_argument("--det-hi", type=float, default=1.5)
    ap.add_argument("--max-condition", type=float, default=2.5)
    ap.add_argument("--clamp", action="store_true")
    ap.add_argument("--out", default="invariance_report.csv")
    args = ap.parse_args(argv)

    img = disk_masked_image(args.seed, size=args.size, radius_frac=0.20)
    shapes = tuple(
        sample_shape_affine(
            args.seed * 101 + i,
            det_range=(args.det_lo, args.det_hi),
            max_condition=args.max_condition,
            src_size=(args.size, args.size),
        )
        for i in range(args.shape_transforms)
    )
    colors = tuple(
        sample_color_affine(args.seed * 211 + i, max_condition=6.0)
        for i in range(args.color_transforms)
    )
    report = invariance_report(img, shapes, colors, clamp=args.clamp)
    Path(args.out).write_text(report.to_csv())
    print(f"wrote {args.out}")
    k0 = report.median_rel_dev[:25]
    k1 = report.median_rel_dev[25:]
    print(f"median-of-medians: k0 {float(sorted(k0)[12]):.4g}, k1 {float(sorted(k1)[12]):.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
