"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. A workload generates its inputs from the
benchmark seed at set-up (untimed), exposes one timed operation, and checks
every output. An operation whose output fails a check counts as failed; its
latency sample is kept.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from pathlib import Path

import numpy as np

#: relative deviation allowed under an unclamped channel map (the verify tolerance)
COLOR_TOL = 1e-9
#: relative drift allowed against a stored reference vector
DRIFT_TOL = 1e-12
#: relative-deviation denominators never drop below this
DEVIATION_FLOOR = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")

DESCRIPTORS = (
    "SCDMI50",
    "SCDMI0_25",
    "SCDMI1_25",
    "HU7",
    "COLOR_MOMENTS",
    "RG_HISTOGRAM",
    "TRANSFORMED_COLOR_DIST",
)


def relative_deviation(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    return np.abs(other - reference) / np.maximum(np.abs(reference), DEVIATION_FLOOR)


def check_vector(fv) -> str | None:
    values = np.asarray(fv.values)
    if values.shape != (50,) or np.asarray(fv.valid).shape != (50,):
        return f"feature vector has shape {values.shape}, expected (50,)"
    if not np.isfinite(values).all():
        return "non-finite feature value"
    return None


def check_color_map(lib, img, fv, map_seed: int) -> str | None:
    """An unclamped channel map must move no entry valid on both sides."""
    ct = lib.sample_color_affine(map_seed, max_condition=10.0, offset_range=(-0.3, 0.3))
    other = lib.scdmi50(lib.apply_color_affine(img, ct, clamp=False))
    both = np.asarray(fv.valid) & np.asarray(other.valid)
    if not both.any():
        return "no entry valid before and after the channel map"
    worst = float(relative_deviation(fv.values[both], other.values[both]).max())
    if not worst <= COLOR_TOL:
        return f"channel map moved an entry by {worst:.3e} relative"
    return None


def check_reference(fv, ref: dict) -> str | None:
    valid = np.asarray(fv.valid, dtype=bool)
    if not np.array_equal(valid, np.asarray(ref["valid"], dtype=bool)):
        return "validity differs from the stored reference"
    drift = float(relative_deviation(np.asarray(ref["values"]), np.asarray(fv.values)).max())
    if not drift <= DRIFT_TOL:
        return f"features drifted {drift:.3e} relative from the stored reference"
    return None


def load_reference(workload: str, seed: int) -> dict:
    """Stored vectors for this workload and seed, keyed by input index."""
    if not REFERENCE_PATH.exists():
        return {}
    data = json.loads(REFERENCE_PATH.read_text())
    return {int(k): v for k, v in data.get(workload, {}).get(str(seed), {}).items()}


class Workload:
    """One timed operation over inputs made from the seed."""

    name = ""
    per = ""  # what one operation is

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.outputs: dict = {}

    def setup(self) -> None:
        """Generate inputs and warm caches; untimed."""

    def items(self) -> list:
        """The inputs of one pass."""
        raise NotImplementedError

    def run(self, item):
        """The timed operation."""
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        """Cheap per-operation output check; untimed."""
        return None

    def final_checks(self) -> list[tuple[object, str]]:
        """(item, error) for expensive checks run once after measuring."""
        return []

    def detail(self) -> dict:
        return {}


class ExtractSmall(Workload):
    name = "extract-small"
    per = "image"
    count = 64
    size = 128
    radius_frac = 0.26
    color_samples = 4

    def setup(self):
        self.images = [
            self.lib.disk_masked_image(self.seed * 1000 + i, size=self.size, radius_frac=self.radius_frac)
            for i in range(self.count)
        ]
        for img in self.images[:4]:
            self.lib.scdmi50(img)

    def items(self):
        return list(range(self.count))

    def run(self, item):
        return self.lib.scdmi50(self.images[item])

    def check(self, item, output):
        self.outputs[item] = output
        return check_vector(output)

    def _image(self, item):
        return self.images[item]

    def _color_items(self) -> list[int]:
        return random.Random(self.seed).sample(range(self.count), self.color_samples)

    def final_checks(self):
        errors = []
        for item in self._color_items():
            err = check_color_map(self.lib, self._image(item), self.outputs[item], self.seed * 1009 + item)
            if err:
                errors.append((item, err))
        for item, ref in load_reference(self.name, self.seed).items():
            err = check_reference(self.outputs[item], ref)
            if err:
                errors.append((item, err))
        return errors

    def detail(self):
        return {"images": self.count, "size_px": self.size, "masked_px": int(self.images[0].mask.sum())}


class ExtractLarge(ExtractSmall):
    name = "extract-large"
    #: full-frame sizes on both sides of the 2**16-pixel summation switch
    #: (50k to 118k px); the three 272 px images straddle the median, so the
    #: median image crosses the switch and rests on three images' samples
    sizes = (224, 240, 272, 272, 272, 344)
    color_samples = 1

    def setup(self):
        self.paths = []
        for i, size in enumerate(self.sizes):
            path = self.workdir / f"input{i}.ppm"
            self.lib.write_ppm(path, self.lib.blob_image(self.seed * 1000 + i, size=size))
            self.paths.append(path)
        self.lib.scdmi50(self.lib.read_ppm(self.paths[0]))

    def items(self):
        return list(range(len(self.sizes)))

    def run(self, item):
        return self.lib.scdmi50(self.lib.read_ppm(self.paths[item]))

    def _image(self, item):
        return self.lib.read_ppm(self.paths[item])

    def _color_items(self):
        return [self.seed % len(self.sizes)]

    def detail(self):
        return {"sizes_px": list(self.sizes), "pixels": [s * s for s in self.sizes]}


class Oracle(Workload):
    """The oracle-equivalence suite of ``scdmi verify``, one image per operation.

    Each operation is ``verify.oracle_suite(seed=item, n_images=1)``: one
    random 6x6 image, all 50 catalogued instances evaluated through the
    moment tables and by brute-force multi-point summation. The pass's five
    items are the five images that ``scdmi verify --seed S`` checks.

    A whole ``scdmi verify`` run is not a workload: its scaling suite fails
    on a few percent of seeds (a program defect, see README.md), so a
    benchmark seed could not be relied on to give a run without failures.
    """

    name = "oracle"
    per = "oracle image"
    count = 5
    instances = 50

    def setup(self):
        self.lib.verify.oracle_suite(seed=self.seed * self.count, n_images=1)

    def items(self):
        return [self.seed * self.count + i for i in range(self.count)]

    def run(self, item):
        return self.lib.verify.oracle_suite(seed=item, n_images=1)

    def check(self, item, rows):
        if len(rows) != self.instances:
            return f"{len(rows)} oracle rows, expected {self.instances}"
        bad = [r for r in rows if not r.passed]
        if bad:
            return (f"{len(bad)} of {len(rows)} oracle rows did not pass, first {bad[0].id} "
                    f"(deviation {bad[0].deviation:.3e})")
        self.outputs[item] = max(r.deviation for r in rows)
        return None

    def detail(self):
        return {"images": self.count, "instances": self.instances,
                "max_deviation": max(self.outputs.values(), default=None)}


class BenchSynthetic(Workload):
    """One complete ``scdmi bench --synthetic`` run through ``cli.main`` per
    operation.

    Every run in a benchmark run passes the benchmark seed itself as
    ``--seed``, so the runs repeat identical work.
    """

    name = "bench-synthetic"
    per = "CLI run"

    def setup(self):
        self.out = self.workdir / self.name
        self.lib.scdmi50(self.lib.disk_masked_image(self.seed, size=32, radius_frac=0.4))

    def items(self):
        return [self.seed]

    def run(self, item):
        argv = ["bench", "--synthetic", "--seed", str(item), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.lib.cli.main(argv)

    def check(self, item, output):
        if output != 0:
            return f"exit code {output}"
        return self.check_files(item)

    def check_files(self, item):
        with (self.out / "accuracy.csv").open(newline="") as fh:
            acc = {r["descriptor"]: float(r["accuracy"]) for r in csv.DictReader(fh)}
        with (self.out / "pr_curves.csv").open(newline="") as fh:
            pr: dict[str, list[float]] = {}
            for r in csv.DictReader(fh):
                pr.setdefault(r["descriptor"], []).append(float(r["precision"]))
        for name in DESCRIPTORS:
            if name not in acc or name not in pr:
                return f"descriptor {name} missing from accuracy.csv or pr_curves.csv"
            values = [acc[name], *pr[name]]
            if not all(0.0 <= v <= 1.0 for v in values):
                return f"descriptor {name} has a score outside [0, 1]"
        with (self.out / "dataset_manifest.csv").open(newline="") as fh:
            images = sum(1 for _ in csv.DictReader(fh))
        self.outputs[item] = (acc["SCDMI50"], float(np.mean(pr["SCDMI50"])), images)
        return None

    def detail(self):
        if self.seed not in self.outputs:
            return {}
        acc, auc, images = self.outputs[self.seed]
        return {"scdmi50_accuracy": acc, "scdmi50_pr_auc": auc, "dataset_images": images}


WORKLOADS = {w.name: w for w in (ExtractSmall, ExtractLarge, Oracle, BenchSynthetic)}
