"""Classification and retrieval benchmark over labeled image sets.

Implements the evaluation protocol at desk scale: chi-square 1-nearest-
neighbor classification with a small train split, leave-one-out retrieval
with 11-point interpolated precision-recall, and four baseline descriptors
to compare the invariant features against. Feature vectors of wildly
different scales are made comparable with sign-preserving log compression
around per-dimension median magnitudes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .engine import FeatureVector, RasterImage, scdmi50, stable_sum
from .ppm import read_ppm
from .synthetic import disk_masked_image
from .transforms import (
    apply_color_affine,
    apply_shape_affine,
    sample_color_affine,
    sample_shape_affine,
)

CHI2_EPS = 1e-10
SIGMA_FLOOR = 1e-12


class DescriptorKind(enum.Enum):
    SCDMI50 = "SCDMI50"
    SCDMI0_25 = "SCDMI0_25"
    SCDMI1_25 = "SCDMI1_25"
    HU7 = "HU7"
    COLOR_MOMENTS = "COLOR_MOMENTS"
    RG_HISTOGRAM = "RG_HISTOGRAM"
    TRANSFORMED_COLOR_DIST = "TRANSFORMED_COLOR_DIST"


DESCRIPTOR_DIMS = {
    DescriptorKind.SCDMI50: 50,
    DescriptorKind.SCDMI0_25: 25,
    DescriptorKind.SCDMI1_25: 25,
    DescriptorKind.HU7: 7,
    DescriptorKind.COLOR_MOMENTS: 9,
    DescriptorKind.RG_HISTOGRAM: 60,
    DescriptorKind.TRANSFORMED_COLOR_DIST: 60,
}


@dataclass
class DatasetItem:
    label: str
    split: str  # "train" | "test"
    path: str | None = None
    image: RasterImage | None = None

    def load_image(self) -> RasterImage:
        if self.image is not None:
            return self.image
        if self.path is None:
            raise ValueError("dataset item has neither image nor path")
        return read_ppm(self.path)


@dataclass
class LabeledDataset:
    items: list[DatasetItem]

    def __post_init__(self):
        if len({it.label for it in self.items}) < 2:
            raise ValueError("dataset needs at least 2 classes")

    def labels(self) -> np.ndarray:
        return np.array([it.label for it in self.items])

    def splits(self) -> np.ndarray:
        return np.array([it.split for it in self.items])


@dataclass
class PRCurve:
    """11-point interpolated precision at recall levels 0.0 .. 1.0."""

    recall_levels: np.ndarray
    precision: np.ndarray

    def area(self) -> float:
        return float(np.mean(self.precision))


# ---------------------------------------------------------------------------
# distances and normalization


def chi_square_distance(a: np.ndarray, b: np.ndarray, eps: float = CHI2_EPS) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.sum((a - b) ** 2 / (np.abs(a) + np.abs(b) + eps)))


def _chi2_to_gallery(query: np.ndarray, gallery: np.ndarray, eps: float = CHI2_EPS) -> np.ndarray:
    diff = gallery - query[None, :]
    return np.sum(diff * diff / (np.abs(gallery) + np.abs(query)[None, :] + eps), axis=1)


def feature_normalize(raw: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Sign-preserving log compression with per-dimension median scales.

    v -> sign(v) * log(1 + |v|/s) with s the median absolute value of the
    valid gallery entries in that dimension (floored at 1e-12); invalid
    entries map to 0.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] == 0:
        raise ValueError("need a nonempty (items, dims) feature matrix")
    if valid is None:
        valid = np.ones(raw.shape, dtype=bool)
    out = np.zeros_like(raw)
    for d in range(raw.shape[1]):
        col = raw[:, d]
        ok = valid[:, d]
        s = float(np.median(np.abs(col[ok]))) if ok.any() else 0.0
        s = max(s, SIGMA_FLOOR)
        out[:, d] = np.where(ok, np.sign(col) * np.log1p(np.abs(col) / s), 0.0)
    return out


# ---------------------------------------------------------------------------
# baseline descriptors


def _hu_invariants(weight: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Seven similarity invariants of a nonnegative density over the mask."""
    ys, xs = np.nonzero(mask)
    w = weight[mask]
    m00 = stable_sum(w)
    if m00 <= SIGMA_FLOOR:
        return np.zeros(7)
    x = xs - stable_sum(w * xs) / m00
    y = ys - stable_sum(w * ys) / m00

    def mu(p, q):
        return stable_sum(w * x**p * y**q)

    def eta(p, q):
        return mu(p, q) / m00 ** (1.0 + (p + q) / 2.0)

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


def _hu7(img: RasterImage) -> np.ndarray:
    # density = |luminance - mean|: measures structure, so flat images give
    # all zeros instead of domain-shape artifacts
    lum = (img.red + img.green + img.blue) / 3.0
    vals = lum[img.mask]
    if vals.size == 0:
        return np.zeros(7)
    dev = np.zeros_like(lum)
    dev[img.mask] = np.abs(vals - stable_sum(vals) / vals.size)
    return _hu_invariants(dev, img.mask)


def _color_moments(img: RasterImage) -> np.ndarray:
    out = []
    for plane in img.channels():
        v = plane[img.mask]
        n = max(v.size, 1)
        mean = stable_sum(v) / n
        centered = v - mean
        var = stable_sum(centered**2) / n
        mu3 = stable_sum(centered**3) / n
        out.extend([mean, float(np.sqrt(max(var, 0.0))), mu3])
    return np.array(out)


def _rg_histogram(img: RasterImage, bins: int = 30) -> np.ndarray:
    # 30 bins per chromaticity coordinate, concatenated (60 dims); pixels
    # with zero channel sum carry no chromaticity and are skipped
    r = img.red[img.mask]
    g = img.green[img.mask]
    b = img.blue[img.mask]
    s = r + g + b
    keep = np.abs(s) > SIGMA_FLOOR
    if not keep.any():
        return np.zeros(2 * bins)
    rn = r[keep] / s[keep]
    gn = g[keep] / s[keep]
    out = []
    for v in (rn, gn):
        idx = np.clip((v * bins).astype(np.int64), 0, bins - 1)
        h = np.bincount(idx, minlength=bins).astype(np.float64)
        out.append(h / h.sum())
    return np.concatenate(out)


def _transformed_color_distribution(
    img: RasterImage, bins: int = 20, span: float = 3.0
) -> np.ndarray:
    # 20-bin histogram of the standardized values per channel (60 dims)
    out = []
    for plane in img.channels():
        v = plane[img.mask]
        n = max(v.size, 1)
        mean = stable_sum(v) / n
        sigma = float(np.sqrt(max(stable_sum((v - mean) ** 2) / n, 0.0)))
        z = (v - mean) / max(sigma, SIGMA_FLOOR)
        idx = np.clip(((z + span) / (2 * span) * bins).astype(np.int64), 0, bins - 1)
        h = np.bincount(idx, minlength=bins).astype(np.float64)
        out.append(h / max(h.sum(), 1.0))
    return np.concatenate(out)


def baseline_descriptor(img: RasterImage, kind: DescriptorKind) -> np.ndarray:
    if kind is DescriptorKind.HU7:
        return _hu7(img)
    if kind is DescriptorKind.COLOR_MOMENTS:
        return _color_moments(img)
    if kind is DescriptorKind.RG_HISTOGRAM:
        return _rg_histogram(img)
    if kind is DescriptorKind.TRANSFORMED_COLOR_DIST:
        return _transformed_color_distribution(img)
    raise ValueError(f"{kind} is not a baseline descriptor")


# ---------------------------------------------------------------------------
# feature extraction over datasets


@dataclass
class FeatureCache:
    """Shares loaded images, invariant vectors and descriptor matrices of one
    dataset across descriptor kinds and protocols."""

    images: dict[int, RasterImage] = field(default_factory=dict)
    invariants: dict[int, FeatureVector] = field(default_factory=dict)
    descriptors: dict[DescriptorKind, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def image(self, idx: int, item: DatasetItem) -> RasterImage:
        if idx not in self.images:
            self.images[idx] = item.load_image()
        return self.images[idx]

    def invariant(self, idx: int, item: DatasetItem) -> FeatureVector:
        if idx not in self.invariants:
            self.invariants[idx] = scdmi50(self.image(idx, item))
        return self.invariants[idx]


def descriptor_matrix(
    dataset: LabeledDataset, kind: DescriptorKind, cache: FeatureCache | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(features, validity) for every dataset item, in dataset order."""
    cache = cache if cache is not None else FeatureCache()
    if kind in cache.descriptors:
        return cache.descriptors[kind]
    n = len(dataset.items)
    dim = DESCRIPTOR_DIMS[kind]
    feats = np.zeros((n, dim))
    valid = np.ones((n, dim), dtype=bool)
    for i, item in enumerate(dataset.items):
        if kind is DescriptorKind.SCDMI50:
            fv = cache.invariant(i, item)
            feats[i] = fv.values
            valid[i] = fv.valid
        elif kind is DescriptorKind.SCDMI0_25:
            fv = cache.invariant(i, item)
            feats[i] = fv.values[:25]
            valid[i] = fv.valid[:25]
        elif kind is DescriptorKind.SCDMI1_25:
            fv = cache.invariant(i, item)
            feats[i] = fv.values[25:]
            valid[i] = fv.valid[25:]
        else:
            feats[i] = baseline_descriptor(cache.image(i, item), kind)
    cache.descriptors[kind] = feats, valid
    return feats, valid


# ---------------------------------------------------------------------------
# protocols


def knn_classify(
    dataset: LabeledDataset, kind: DescriptorKind, cache: FeatureCache | None = None
) -> float:
    """1-nearest-neighbor accuracy of test items against train items."""
    labels = dataset.labels()
    splits = dataset.splits()
    train = np.nonzero(splits == "train")[0]
    test = np.nonzero(splits == "test")[0]
    if train.size == 0 or test.size == 0:
        raise ValueError("classification needs nonempty train and test splits")
    for label in np.unique(labels):
        sel = splits[labels == label]
        if "train" not in sel or "test" not in sel:
            raise ValueError(f"class {label!r} missing from one split")
    feats, valid = descriptor_matrix(dataset, kind, cache)
    normed = feature_normalize(feats, valid)
    correct = 0
    for ti in test:
        d = _chi2_to_gallery(normed[ti], normed[train])
        correct += bool(labels[train[int(np.argmin(d))]] == labels[ti])
    return correct / int(test.size)


def precision_recall(
    dataset: LabeledDataset,
    kind: DescriptorKind,
    cache: FeatureCache | None = None,
    levels: int = 11,
) -> PRCurve:
    """Leave-one-out retrieval, interpolated precision averaged over queries."""
    labels = dataset.labels()
    for label in np.unique(labels):
        if int(np.sum(labels == label)) < 2:
            raise ValueError(f"class {label!r} needs at least 2 members for retrieval")
    feats, valid = descriptor_matrix(dataset, kind, cache)
    normed = feature_normalize(feats, valid)
    n = len(dataset.items)
    recall_levels = np.linspace(0.0, 1.0, levels)
    acc = np.zeros(levels)
    for qi in range(n):
        others = np.concatenate([np.arange(qi), np.arange(qi + 1, n)])
        d = _chi2_to_gallery(normed[qi], normed[others])
        order = others[np.argsort(d, kind="stable")]
        rel = (labels[order] == labels[qi]).astype(np.float64)
        n_rel = rel.sum()
        cum = np.cumsum(rel)
        ranks = np.arange(1, order.size + 1)
        precision = cum / ranks
        recall = cum / n_rel
        # interpolated: best precision at any rank reaching the recall level
        best_to_right = np.maximum.accumulate(precision[::-1])[::-1]
        for li, r in enumerate(recall_levels):
            pos = int(np.searchsorted(recall, r, side="left"))
            acc[li] += best_to_right[min(pos, order.size - 1)]
    return PRCurve(recall_levels, acc / n)


# ---------------------------------------------------------------------------
# synthetic datasets

ALL_KINDS = tuple(DescriptorKind)


def generate_classification_dataset(
    n_classes: int = 20,
    n_transforms: int = 20,
    size: int = 128,
    seed: int = 0,
    train_fraction: float = 0.1,
    clamp: bool = False,
) -> LabeledDataset:
    """Per class: one disk-masked base image plus combined warp+channel copies.

    The mask disk is sized so every sampled warp keeps the transported domain
    inside the frame, which is what makes the invariant features stable. The
    first ~10% of each class (base image first) forms the train split.
    """
    items: list[DatasetItem] = []
    for c in range(n_classes):
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
        n_train = max(1, round(train_fraction * len(imgs)))
        for idx, im in enumerate(imgs):
            items.append(
                DatasetItem(
                    label=f"class{c:03d}",
                    split="train" if idx < n_train else "test",
                    image=im,
                )
            )
    return LabeledDataset(items)


def generate_retrieval_dataset(
    n_classes: int = 30,
    n_views: int = 5,
    n_color_transforms: int = 6,
    size: int = 128,
    seed: int = 0,
) -> LabeledDataset:
    """Per class: warped views of one base image, each under channel maps."""
    items: list[DatasetItem] = []
    for c in range(n_classes):
        base = disk_masked_image(seed * 1_000_003 + c, size=size, radius_frac=0.26)
        views = [base]
        for v in range(n_views - 1):
            vseed = (seed * 3_333_331 + c * 17 + v) * 2 + 1
            st = sample_shape_affine(
                vseed, det_range=(0.7, 1.45), max_condition=1.8, src_size=(size, size)
            )
            views.append(apply_shape_affine(base, st))
        for vi, view in enumerate(views):
            for t in range(n_color_transforms):
                cseed = seed * 9_999_991 + c * 731 + vi * 37 + t
                ct = sample_color_affine(cseed, max_condition=5.0, offset_range=(-0.15, 0.15))
                items.append(
                    DatasetItem(
                        label=f"class{c:03d}", split="test", image=apply_color_affine(view, ct)
                    )
                )
    return LabeledDataset(items)


def run_benchmark(
    dataset: LabeledDataset,
    kinds: tuple[DescriptorKind, ...] = ALL_KINDS,
    with_classification: bool = True,
    with_retrieval: bool = True,
) -> tuple[dict[DescriptorKind, float], dict[DescriptorKind, PRCurve]]:
    """Accuracy and PR curve per descriptor kind over one dataset."""
    cache = FeatureCache()
    accuracies: dict[DescriptorKind, float] = {}
    curves: dict[DescriptorKind, PRCurve] = {}
    for kind in kinds:
        if with_classification:
            accuracies[kind] = knn_classify(dataset, kind, cache)
        if with_retrieval:
            curves[kind] = precision_recall(dataset, kind, cache)
    return accuracies, curves
