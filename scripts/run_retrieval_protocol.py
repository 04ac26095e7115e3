#!/usr/bin/env python3
"""Full desk-scale retrieval protocol: views times channel maps per class.

Builds the retrieval-style dataset (each class: warped views of one base
image, each view under several channel maps), ranks every image against the
rest with chi-square distance, and writes the 11-point interpolated
precision-recall curves for every descriptor.

Usage:
    python scripts/run_retrieval_protocol.py --classes 30 --views 5 \
        --color-transforms 6 --size 128 --out pr.csv
"""

import argparse
import csv

from scdmi.bench import (
    ALL_KINDS,
    chi2_matrix,
    feature_normalize,
    featurize,
    precision_recall,
    retrieval_class,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--classes", type=int, default=30)
    ap.add_argument("--views", type=int, default=5)
    ap.add_argument("--color-transforms", type=int, default=6)
    ap.add_argument("--size", type=int, default=128)
    ap.add_argument("--out", default="pr_curves.csv")
    args = ap.parse_args(argv)

    # one class of images at a time: only labels, splits and rows are kept
    features = featurize(
        item
        for c in range(args.classes)
        for item in retrieval_class(c, args.views, args.color_transforms, args.size, args.seed)
    )
    print(f"dataset: {len(features.labels)} images, {args.classes} classes")
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["descriptor", "recall_level", "precision"])
        for kind in ALL_KINDS:
            # the distance matrix is dropped as soon as the curve is ranked
            normed = feature_normalize(*features.matrices[kind])
            curve = precision_recall(chi2_matrix(normed), features.labels)
            for r, p in zip(curve.recall_levels, curve.precision):
                w.writerow([kind.value, repr(float(r)), repr(float(p))])
            print(f"{kind.value:24s} interpolated AUC {curve.area():.4f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
