"""Classification and retrieval benchmark over labeled image sets.

Implements the evaluation protocol at desk scale: chi-square 1-nearest-
neighbor classification with a small train split, leave-one-out retrieval
with 11-point interpolated precision-recall, and four baseline descriptors
to compare the invariant features against. Feature vectors of wildly
different scales are made comparable with sign-preserving log compression
around per-dimension median magnitudes. The invariance report reduces the
same feature rows to each invariant's deviation from its class's reference.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .engine import RasterImage, scdmi50, stable_sum
from .synthetic import disk_masked_image
from .transforms import (
    apply_color_affine,
    apply_shape_affine,
    relative_deviation,
    sample_color_affine,
    sample_shape_affine,
)

CHI2_EPS = 1e-10
SIGMA_FLOOR = 1e-12
#: bins per chromaticity coordinate of RG_HISTOGRAM (r and g: 60 dims)
RG_BINS = 30
#: bins per channel of TRANSFORMED_COLOR_DIST over z in [-3, 3] (60 dims)
TCD_BINS = 20
TCD_SPAN = 3.0
#: share of each synthetic class, base image first, in the train split
TRAIN_FRACTION = 0.1
#: warped views per class of the synthetic retrieval dataset, the base image first
RETRIEVAL_VIEWS = 5
#: elements per block of queries: queries x items x dims for distances and
#: queries x items x PR_LEVELS for ranking; bounds the temporaries, not the results
RANK_BLOCK_ELEMENTS = 1 << 16
#: recall levels 0.0, 0.1, .., 1.0 of the interpolated precision-recall curve
PR_LEVELS = 11


class DescriptorKind(enum.Enum):
    SCDMI50 = "SCDMI50"
    SCDMI0_25 = "SCDMI0_25"
    SCDMI1_25 = "SCDMI1_25"
    HU7 = "HU7"
    COLOR_MOMENTS = "COLOR_MOMENTS"
    RG_HISTOGRAM = "RG_HISTOGRAM"
    TRANSFORMED_COLOR_DIST = "TRANSFORMED_COLOR_DIST"


@dataclass
class PRCurve:
    """11-point interpolated precision at recall levels 0.0 .. 1.0."""

    recall_levels: np.ndarray
    precision: np.ndarray

    def area(self) -> float:
        return float(np.mean(self.precision))


# ---------------------------------------------------------------------------
# distances and normalization


def chi2_matrix(normed: np.ndarray) -> np.ndarray:
    """All-pairs chi-square distances between the rows of ``normed``.

    Each distance is reduced over the contiguous feature axis, one pair at
    a time, exactly as for a single query, so the values do not depend on
    the blocking. Every term (g - q)^2 / (|g| + |q| + eps) is
    symmetric in q and g, so the matrix equals its transpose bit for bit:
    only the blocks on and above the diagonal are computed, and the rest is
    mirrored. A block holds as many queries as keep its two buffers within
    RANK_BLOCK_ELEMENTS elements each, and at least one. A matrix with no
    elements gives the (n, n) zero matrix, each distance an empty sum.
    """
    n = len(normed)
    if normed.size == 0:
        return np.zeros((n, n))
    out = np.empty((n, n))
    abs_normed = np.abs(normed)
    step = max(1, RANK_BLOCK_ELEMENTS // normed.size)
    shape = (min(step, n), *normed.shape)
    diff_buf, den_buf = np.empty(shape), np.empty(shape)
    for lo in range(0, n, step):
        q = normed[lo : lo + step, None, :]
        diff, den = diff_buf[: len(q), : n - lo], den_buf[: len(q), : n - lo]
        np.subtract(normed[lo:], q, out=diff)
        diff *= diff
        np.add(abs_normed[lo:], np.abs(q), out=den)
        den += CHI2_EPS
        diff /= den
        d = np.sum(diff, axis=2)
        out[lo : lo + len(q), lo:] = d
        out[lo:, lo : lo + len(q)] = d.T
    return out


def feature_normalize(raw: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Sign-preserving log compression with per-dimension median scales.

    v -> sign(v) * log(1 + |v|/s) with s the median absolute value of the
    valid gallery entries in that dimension (floored at 1e-12); invalid
    entries map to 0, and without ``valid`` the non-finite entries are the
    invalid ones. A finite v whose |v|/s overflows maps to
    sign(v) * (log|v| - log s), which is log(1 + |v|/s) to rounding there.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] == 0:
        raise ValueError("need a nonempty (items, dims) feature matrix")
    if valid is None:
        valid = np.isfinite(raw)
    out = np.zeros_like(raw)
    for d in range(raw.shape[1]):
        col = raw[:, d]
        ok = valid[:, d]
        s = float(np.median(np.abs(col[ok]))) if ok.any() else 0.0
        s = max(s, SIGMA_FLOOR)
        with np.errstate(over="ignore"):
            mag = np.log1p(np.abs(col) / s)
        huge = np.isinf(mag) & np.isfinite(col)
        mag[huge] = np.log(np.abs(col[huge])) - np.log(s)
        out[:, d] = np.where(ok, np.sign(col) * mag, 0.0)
    return out


# ---------------------------------------------------------------------------
# baseline descriptors


def _histogram(u: np.ndarray, bins: int) -> np.ndarray:
    """Normalized histogram of ``u`` over [0, 1) in ``bins`` equal bins, the values outside, inf
    too, clamped into the end bins; all zeros when ``u`` is empty, all nan when it holds a nan."""
    if np.isnan(u).any():
        return np.full(bins, np.nan)
    idx = np.clip(u * bins, 0, bins - 1).astype(np.int64)
    h = np.bincount(idx, minlength=bins).astype(np.float64)
    return h / max(h.sum(), 1.0)


def _hu7(lum: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Hu's seven similarity invariants of the density |lum - mean lum| over
    the masked pixels at (xs, ys): it measures structure, so flat images give
    all zeros instead of domain-shape artifacts."""
    if lum.size == 0:
        return np.zeros(7)
    w = np.abs(lum - stable_sum(lum) / lum.size)
    m00 = stable_sum(w)
    if m00 <= SIGMA_FLOOR:
        return np.zeros(7)
    x = xs - stable_sum(w * xs) / m00
    y = ys - stable_sum(w * ys) / m00
    # powers by multiplication: x**3 takes numpy's slow pow() path
    xp = [1.0, x, x * x, x * x * x]
    yp = [1.0, y, y * y, y * y * y]

    def eta(p, q):
        try:
            return stable_sum(w * xp[p] * yp[q]) / m00 ** (1.0 + (p + q) / 2.0)
        except OverflowError:  # a normalizer past the float range
            return np.nan

    n20, n02, n11 = eta(2, 0), eta(0, 2), eta(1, 1)
    n30, n03, n21, n12 = eta(3, 0), eta(0, 3), eta(2, 1), eta(1, 2)
    a = n30 + n12
    b = n21 + n03
    c = n30 - 3 * n12
    d = 3 * n21 - n03
    return np.array(
        [
            n20 + n02,
            (n20 - n02) ** 2 + 4 * n11**2,
            c**2 + d**2,
            a**2 + b**2,
            c * a * (a**2 - 3 * b**2) + d * b * (3 * a**2 - b**2),
            (n20 - n02) * (a**2 - b**2) + 4 * n11 * a * b,
            d * a * (a**2 - 3 * b**2) - c * b * (3 * a**2 - b**2),
        ]
    )


@np.errstate(over="ignore", invalid="ignore")
def baseline_rows(img: RasterImage) -> dict[DescriptorKind, np.ndarray]:
    """The four baseline descriptors of one image, from one gather of its
    masked pixels.

    Each channel's mean, centred values, their square and standard deviation
    are computed once and read by both COLOR_MOMENTS (mean, deviation, third
    central moment) and TRANSFORMED_COLOR_DIST (a TCD_BINS-bin histogram of
    the standardized values over [-TCD_SPAN, TCD_SPAN]). The channel sum
    s = r + g + b is the chromaticity denominator of RG_HISTOGRAM, whose
    pixels with zero sum carry no chromaticity and are skipped, and s / 3
    is HU7's luminance. Non-finite or overflowing values give nan or inf entries, with no warning.
    """
    ys, xs = np.nonzero(img.mask)
    r, g, b = (plane[img.mask] for plane in img.channels)
    n = max(xs.size, 1)
    moments, standardized = [], []
    for v in (r, g, b):
        mean = stable_sum(v) / n
        centred = v - mean
        sq = centred * centred
        std = float(np.sqrt(stable_sum(sq) / n))
        moments.extend([mean, std, stable_sum(sq * centred) / n])
        # a deviation that overflowed standardizes nothing: the histogram reads nan
        z = centred / max(std, SIGMA_FLOOR) if std < np.inf else centred * np.nan
        standardized.append(_histogram((z + TCD_SPAN) / (2 * TCD_SPAN), TCD_BINS))
    s = r + g + b
    keep = np.abs(s) > SIGMA_FLOOR
    s_kept = s[keep]
    return {
        DescriptorKind.HU7: _hu7(s / 3.0, xs, ys),
        DescriptorKind.COLOR_MOMENTS: np.array(moments),
        DescriptorKind.RG_HISTOGRAM: np.concatenate([_histogram(c[keep] / s_kept, RG_BINS) for c in (r, g)]),
        DescriptorKind.TRANSFORMED_COLOR_DIST: np.concatenate(standardized),
    }


# ---------------------------------------------------------------------------
# dataset rules, each checked on labels and splits alone, so that a manifest
# is checked before any of its images is read


def check_classes(labels: Sequence[str]) -> None:
    """A dataset needs at least 2 classes."""
    if len(set(labels)) < 2:
        raise ValueError("dataset needs at least 2 classes")


def check_splits(labels: np.ndarray, splits: np.ndarray) -> None:
    """Classification needs every class in both the train and the test split."""
    if "train" not in splits or "test" not in splits:
        raise ValueError("classification needs nonempty train and test splits")
    for label in np.unique(labels):
        sel = splits[labels == label]
        if "train" not in sel or "test" not in sel:
            raise ValueError(f"class {str(label)!r} missing from one split")


def check_members(labels: np.ndarray) -> None:
    """Retrieval needs at least 2 members in every class."""
    for label in np.unique(labels):
        if int(np.sum(labels == label)) < 2:
            raise ValueError(f"class {str(label)!r} needs at least 2 members for retrieval")


# ---------------------------------------------------------------------------
# feature extraction over datasets


ALL_KINDS = tuple(DescriptorKind)


#: (values, validity) of one item under every descriptor kind
DescriptorRows = dict[DescriptorKind, tuple[np.ndarray, np.ndarray]]


def descriptor_rows(img: RasterImage) -> DescriptorRows:
    """(values, validity) of every descriptor kind for one image: one
    scdmi50 call, whose two halves are views of the SCDMI50 row, and one
    baseline_rows call, whose entries are valid where they are finite."""
    fv = scdmi50(img)
    rows = {
        DescriptorKind.SCDMI50: (fv.values, fv.valid),
        DescriptorKind.SCDMI0_25: (fv.values[:25], fv.valid[:25]),
        DescriptorKind.SCDMI1_25: (fv.values[25:], fv.valid[25:]),
    }
    for kind, row in baseline_rows(img).items():
        rows[kind] = row, np.isfinite(row)
    return rows


#: one dataset item: its label, its split ("train" or "test") and its image
LabeledImage = tuple[str, str, RasterImage]


@dataclass
class Features:
    """Every descriptor kind's (values, validity) matrices over one dataset,
    one row per item in item order, with the items' labels and splits."""

    labels: np.ndarray
    splits: np.ndarray
    matrices: dict[DescriptorKind, tuple[np.ndarray, np.ndarray]]


def featurize(items: Iterable[LabeledImage]) -> Features:
    """Runs descriptor_rows once per image and keeps its rows, not the image.

    ``items`` may be a generator, so that only the images it holds are alive
    while they are featurized.
    """
    return assemble_features((label, split, descriptor_rows(img)) for label, split, img in items)


def assemble_features(items: Iterable[tuple[str, str, DescriptorRows]]) -> Features:
    """The Features of items given as (label, split, descriptor rows), in
    item order, once the dataset has at least 2 classes."""
    labels: list[str] = []
    splits: list[str] = []
    rows: list[DescriptorRows] = []
    for label, split, row in items:
        labels.append(label)
        splits.append(split)
        rows.append(row)
    check_classes(labels)
    matrices = {
        kind: (np.array([r[kind][0] for r in rows]), np.array([r[kind][1] for r in rows]))
        for kind in ALL_KINDS
    }
    return Features(np.array(labels), np.array(splits), matrices)


# ---------------------------------------------------------------------------
# protocols


def knn_classify(distances: np.ndarray, labels: np.ndarray, splits: np.ndarray) -> float:
    """1-nearest-neighbor accuracy of test items against train items, from
    the all-pairs ``distances`` of chi2_matrix."""
    check_splits(labels, splits)
    train = np.nonzero(splits == "train")[0]
    test = np.nonzero(splits == "test")[0]
    codes = np.unique(labels, return_inverse=True)[1]
    d = distances[np.ix_(test, train)]
    nearest = train[np.argmin(d, axis=1)]
    return int(np.count_nonzero(codes[nearest] == codes[test])) / int(test.size)


def precision_recall(distances: np.ndarray, labels: np.ndarray) -> PRCurve:
    """Leave-one-out retrieval over the all-pairs ``distances`` of
    chi2_matrix, interpolated precision averaged over queries."""
    check_members(labels)
    codes = np.unique(labels, return_inverse=True)[1]
    n = len(labels)
    recall_levels = np.linspace(0.0, 1.0, PR_LEVELS)
    cols = np.arange(n - 1)
    ranks = cols + 1
    acc = np.zeros(PR_LEVELS)
    # the (queries x ranks x levels) recall comparison is a block's largest temporary
    step = max(1, RANK_BLOCK_ELEMENTS // (n * PR_LEVELS))
    for lo in range(0, n, step):
        d = distances[lo : lo + step]
        # row q lists every item but query q, in index order
        own = cols + (cols >= np.arange(lo, lo + len(d))[:, None])
        perm = np.argsort(np.take_along_axis(d, own, axis=1), axis=1, kind="stable")
        order = np.take_along_axis(own, perm, axis=1)
        rel = codes[order] == codes[lo : lo + len(d), None]
        cum = np.cumsum(rel, axis=1, dtype=np.float64)
        precision = cum / ranks
        recall = cum / cum[:, -1:]
        # interpolated: best precision at any rank reaching the recall level;
        # recall rises along a row to exactly 1.0 at the last rank, so the
        # first rank reaching r is the count of ranks below r
        best_to_right = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
        pos = np.count_nonzero(recall[:, :, None] < recall_levels, axis=1)
        picked = np.take_along_axis(best_to_right, pos, axis=1)
        # rows are added one query at a time so every sum rounds as a per-query loop's does
        for row in picked:
            acc += row
    return PRCurve(recall_levels, acc / n)


def rank_kind(
    values: np.ndarray, valid: np.ndarray, labels: np.ndarray, splits: np.ndarray
) -> tuple[float, PRCurve]:
    """Accuracy and PR curve of one descriptor kind's (values, validity)
    matrices: the kind is normalized once and its distance matrix, built
    once, is read by both protocols."""
    distances = chi2_matrix(feature_normalize(values, valid))
    return knn_classify(distances, labels, splits), precision_recall(distances, labels)


def run_benchmark(
    features: Features,
) -> tuple[dict[DescriptorKind, float], dict[DescriptorKind, PRCurve]]:
    """Accuracy and PR curve of every descriptor kind over one dataset, by
    rank_kind one kind after the other, so that only one kind's distance
    matrix is alive at a time."""
    accuracies: dict[DescriptorKind, float] = {}
    curves: dict[DescriptorKind, PRCurve] = {}
    for kind in ALL_KINDS:
        accuracies[kind], curves[kind] = rank_kind(*features.matrices[kind], features.labels, features.splits)
    return accuracies, curves


# ---------------------------------------------------------------------------
# invariance report


@dataclass
class InvarianceReport:
    """Per-invariant relative deviation statistics over a dataset's classes."""

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


def invariance_report(values: np.ndarray, valid: np.ndarray, labels: np.ndarray) -> InvarianceReport:
    """Deviation of every item's feature row from its class's reference row.

    Each class's first item, in item order, is its reference, and every
    other item of the class is compared with it entry by entry by
    relative_deviation, wherever both are valid. Per entry, column
    25 * k + id - 1 of the rows, the report gives the median and the
    largest of these deviations over all classes and the number of pairs;
    an entry with no pair reads nan and 0. A synthetic class, and a
    manifest the bench exports, lists its base image first (for retrieval,
    the base view under its first channel map).
    """
    values = np.asarray(values, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    _, first, codes = np.unique(np.asarray(labels), return_index=True, return_inverse=True)
    refs = first[codes]
    others = np.flatnonzero(refs != np.arange(len(refs)))
    refs = refs[others]
    both = valid[refs] & valid[others]
    entries = values.shape[1]
    median = np.full(entries, np.nan)
    largest = np.full(entries, np.nan)
    for e in range(entries):
        paired = both[:, e]
        if paired.any():
            devs = relative_deviation(values[refs[paired], e], values[others[paired], e])
            median[e], largest[e] = np.median(devs), devs.max()
    ks, ids = np.divmod(np.arange(entries), 25)
    return InvarianceReport(ids + 1, ks, median, largest, np.count_nonzero(both, axis=0))


# ---------------------------------------------------------------------------
# synthetic datasets


def _labeled(c: int, imgs: list[RasterImage]) -> list[LabeledImage]:
    """Class ``c``'s images as dataset items, in order: the first
    TRAIN_FRACTION of them, at least one, form its train split."""
    n_train = max(1, round(TRAIN_FRACTION * len(imgs)))
    return [(f"class{c:03d}", "train" if idx < n_train else "test", im) for idx, im in enumerate(imgs)]


def classification_class(
    c: int,
    n_transforms: int = 20,
    size: int = 128,
    seed: int = 0,
    clamp: bool = False,
) -> list[LabeledImage]:
    """Class ``c`` of the synthetic classification dataset: its disk-masked
    base image, then its combined warp+channel copies.

    The mask disk is sized so every sampled warp keeps the transported domain
    inside the frame, which is what makes the invariant features stable. The
    base image comes first in the train split.
    """
    base = disk_masked_image(seed * 1_000_003 + c, size=size, radius_frac=0.26)
    imgs = [base]
    for t in range(n_transforms):
        tseed = (seed * 7_777_777 + c * 131 + t) * 2 + 1
        st = sample_shape_affine(
            tseed,
            det_range=(0.65, 1.55),
            max_condition=2.0,
            src_size=(size, size),
        )
        ct = sample_color_affine(tseed + 1, max_condition=5.0, offset_range=(-0.15, 0.15))
        imgs.append(apply_color_affine(apply_shape_affine(base, st), ct, clamp=clamp))
    return _labeled(c, imgs)


def retrieval_class(
    c: int,
    n_views: int = RETRIEVAL_VIEWS,
    n_color_transforms: int = 6,
    size: int = 128,
    seed: int = 0,
    clamp: bool = False,
) -> list[LabeledImage]:
    """Class ``c`` of the synthetic retrieval dataset: warped views of one
    base image, the base first, each under channel maps. Retrieval reads no
    split; the class's first items, base view first, form a train split by
    classification_class's rule, so that the dataset can be classified too."""
    base = disk_masked_image(seed * 1_000_003 + c, size=size, radius_frac=0.26)
    views = [base]
    for v in range(n_views - 1):
        vseed = (seed * 3_333_331 + c * 17 + v) * 2 + 1
        st = sample_shape_affine(
            vseed, det_range=(0.7, 1.45), max_condition=1.8, src_size=(size, size)
        )
        views.append(apply_shape_affine(base, st))
    imgs = []
    for vi, view in enumerate(views):
        for t in range(n_color_transforms):
            cseed = seed * 9_999_991 + c * 731 + vi * 37 + t
            ct = sample_color_affine(cseed, max_condition=5.0, offset_range=(-0.15, 0.15))
            imgs.append(apply_color_affine(view, ct, clamp=clamp))
    return _labeled(c, imgs)
