"""The engine gives the same bits whatever SIMD loops numpy dispatches to.

numpy picks each ufunc's loop at import, by the CPU features it finds above
the baseline it was built for; NPY_DISABLE_CPU_FEATURES turns dispatched
features off. One probe script runs in a fresh process twice: under default
dispatch, and with every dispatched feature that this CPU has turned off, so
that only the baseline's loops run. Both read the same fixed inputs from one
file, since inputs made in each process, as the synthetic generators' np.exp
makes them, may themselves change with the dispatch. The probe prints, as
hex, core_sums and evaluate_table of fixed moment vectors and scdmi50 of
fixed images, and both runs must print the same. The vectors are real k=0
and k=1 vectors, the k=1 one also scaled by 2^228, where four ranges are
summed aside by math.fsum, and one whose terms span more binades than two
passes of the exact summation take. The images are a 128 px disk, under one
leaf of pixels, and a 272 px frame, over 2^16 pixels at both k.

The test skips only where numpy finds no feature above its baseline, so that
there is no other dispatch to compare.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scdmi
from scdmi.engine import moment_tables
from scdmi.synthetic import blob_image, disk_masked_image

PROBE = """
import sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from scdmi import RasterImage, scdmi50
from scdmi.engine import core_sums, evaluate_table

print(" ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)))
inputs = np.load(sys.argv[1])
for moments in inputs["vectors"]:
    values, valid = evaluate_table(moments)
    print(core_sums(moments).tobytes().hex(), values.tobytes().hex(), valid.tobytes().hex())
for i in range(int(inputs["images"])):
    fv = scdmi50(RasterImage(inputs[f"channels{i}"], inputs[f"mask{i}"]))
    print(fv.values.tobytes().hex(), fv.valid.tobytes().hex())
"""


def _probe(inputs: Path, disabled: str | None) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(Path(scdmi.__file__).resolve().parents[1])
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-c", PROBE, str(inputs)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_outputs_do_not_depend_on_simd_dispatch(tmp_path):
    images = [disk_masked_image(13, size=128, radius_frac=0.26), blob_image(11, size=272)]
    k0, k1 = moment_tables(images[0])
    spread = k1.copy()
    spread[1:] *= np.ldexp(1.0, np.arange(len(k1) - 1) % 7 * 9 - 27)
    vectors = np.stack([k0, k1, np.ldexp(k1, 228), spread])
    arrays = {f"{name}{i}": getattr(img, name) for i, img in enumerate(images) for name in ("channels", "mask")}
    inputs = tmp_path / "inputs.npz"
    np.savez(inputs, vectors=vectors, images=len(images), **arrays)

    default = _probe(inputs, None)
    found = default[0]
    if not found:
        pytest.skip("numpy dispatches no feature above its baseline on this CPU")
    baseline = _probe(inputs, found)
    assert baseline[0] == ""
    assert len(default) == 1 + len(vectors) + len(images)
    assert baseline[1:] == default[1:]
