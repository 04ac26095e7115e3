"""The parallelism probe, shared by every test that compares its outputs.

``parallelism_probe(cpus, blas_threads)`` runs one probe script in a fresh
process, ``cpus`` being "all" or "one" (pinned inside the script) and
``blas_threads`` the value of OPENBLAS_NUM_THREADS, and returns its output
lines by part. Each configuration runs once per session, however many tests
read it.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

PROBE = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import scdmi, scdmi.cli
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
import numpy as np
from scdmi import engine
from scdmi.synthetic import blob_image, disk_masked_image
from scdmi.verify import rows_to_csv, run_all
print(engine._cpu_count() > 1)

frames = [
    disk_masked_image(13, size=128, radius_frac=0.26),
    blob_image(11, size=272),
    disk_masked_image(16, size=512, radius_frac=0.45),
]
domains = [engine.stencil_eroded_mask(img.mask).sum() for img in frames]
assert frames[0].mask.sum() <= engine._LEAF and min(domains[1:]) > engine._BLOCK, domains
for img in frames:
    fv = scdmi.scdmi50(img)
    print(fv.values.tobytes().hex(), fv.valid.tobytes().hex())

oracle_images = [scdmi.RasterImage.from_array(np.random.default_rng(seed).uniform(size=(6, 6, 3))) for seed in range(4)]
# 9x9 less a triangle of three diagonals at each corner, as test_oracle's corner_masked_image(14, size=9, cut=3)
d = np.minimum(np.arange(9), np.arange(8, -1, -1))
corners_cut = np.add.outer(d, d) >= 3
assert corners_cut.sum() == 57
oracle_images.append(scdmi.RasterImage.from_array(np.random.default_rng(14).uniform(0.0, 1.0, (9, 9, 3)), corners_cut))
for img in oracle_images:
    fv = scdmi.brute_force_features(img)
    print(fv.values.tobytes().hex(), fv.valid.tobytes().hex())

print(rows_to_csv(run_all(seed=3)[0]), end="")
"""

# the probe's output, line ranges by part: the pool modules loaded at import,
# the CPU flag, scdmi50 of the three frames, brute_force_features of the five
# oracle images, and verify.csv's header and 322 rows
PARTS = {"pools": slice(0, 1), "threaded": slice(1, 2), "frames": slice(2, 5), "oracle": slice(5, 10), "verify": slice(10, None)}


@functools.cache
def _probe(cpus: str, blas_threads: str) -> dict[str, list[str]]:
    import scdmi

    env = {**os.environ, "PYTHONPATH": str(Path(scdmi.__file__).resolve().parents[1]), "OPENBLAS_NUM_THREADS": blas_threads}
    proc = subprocess.run([sys.executable, "-c", PROBE, cpus], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return {part: lines[span] for part, span in PARTS.items()}


@pytest.fixture(scope="session")
def parallelism_probe():
    return _probe
