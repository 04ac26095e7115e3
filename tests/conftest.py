"""Fresh interpreters, and the one probe that every process-level test reads.

``run_python(script, *args, env=None, timeout=300)`` runs ``script`` by
``sys.executable -c`` with PYTHONPATH at this checkout's ``src``, in a
session of its own, and fails the test unless it exits 0 within
``timeout`` seconds; a run that times out is killed with its process group,
pool workers included. ``env`` overrides the inherited environment, None
removing a variable.

``parallelism_probe(cpus, blas_threads, disabled="")`` runs PROBE in a
fresh process, ``cpus`` being "all" or "one" (pinned inside the script),
``blas_threads`` the value of OPENBLAS_NUM_THREADS and ``disabled`` that of
NPY_DISABLE_CPU_FEATURES, and returns its output lines by part. Each
configuration runs once per session, however many tests read it, and all
read the same fixed inputs from one file: inputs made in each process, as
the synthetic generators' np.exp makes them, would move with the SIMD
dispatch.
"""

import functools
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scdmi
from scdmi import engine
from scdmi.synthetic import blob_image, disk_masked_image

SRC = str(Path(scdmi.__file__).resolve().parents[1])


def run_python(script: str, *args: str, env: dict | None = None, timeout: float = 300) -> subprocess.CompletedProcess:
    environ = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    for name, value in (env or {}).items():
        environ.pop(name, None)
        if value is not None:
            environ[name] = value
    argv = [sys.executable, "-c", script, *args]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=environ,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"a fresh interpreter was still running after {timeout} s")
    assert proc.returncode == 0, err
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


@pytest.fixture(name="run_python", scope="session")
def _run_python():
    return run_python


PROBE = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import scdmi, scdmi.cli
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from scdmi import engine
from scdmi.oracle import _contraction
from scdmi.verify import rows_to_csv, run_all
print(engine._cpu_count() > 1)
print(" ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)))
misses = [_contraction.cache_info().misses]

inputs = np.load(sys.argv[2])
def images(kind):
    return [scdmi.RasterImage(inputs[f"{kind}{i}_channels"], inputs[f"{kind}{i}_mask"]) for i in range(int(inputs[kind]))]
def hexes(*arrays):
    print(*(a.tobytes().hex() for a in arrays))

for img in images("frames"):
    fv = scdmi.scdmi50(img)
    hexes(fv.values, fv.valid)
for moments in inputs["vectors"]:
    hexes(engine.core_sums(moments), *engine.evaluate_table(moments))
for img in images("oracle"):
    fv = scdmi.brute_force_features(img)
    hexes(fv.values, fv.valid)
    misses.append(_contraction.cache_info().misses)
print(*misses[:3])
print(rows_to_csv(run_all(seed=3)[0]), end="")
"""

# the probe's output, line ranges by part: the pool modules loaded at import, the CPU flag, the dispatched
# CPU features, scdmi50 of the three frames, core_sums and evaluate_table of the four moment vectors,
# brute_force_features of the five oracle images, the contractions built at import and after the first and
# second oracle images, and verify.csv's header and 322 rows
PARTS = {"pools": slice(0, 1), "threaded": slice(1, 2), "dispatch": slice(2, 3), "frames": slice(3, 6),
         "vectors": slice(6, 10), "oracle": slice(10, 15), "contractions": slice(15, 16), "verify": slice(16, None)}


def _probe_inputs(path: Path) -> None:
    """The probe's inputs, described in tests/test_parallelism.py, written to ``path``."""
    frames = [
        disk_masked_image(13, size=128, radius_frac=0.26),
        blob_image(11, size=272),
        disk_masked_image(16, size=512, radius_frac=0.45),
    ]
    domains = [engine.stencil_eroded_mask(img.mask).sum() for img in frames]
    assert frames[0].mask.sum() <= engine._LEAF and min(domains[1:]) > engine._BLOCK, domains
    oracle = [scdmi.RasterImage.from_array(np.random.default_rng(seed).uniform(size=(6, 6, 3))) for seed in range(4)]
    # 9x9 less a triangle of three diagonals at each corner, as test_oracle's corner_masked_image(14, size=9, cut=3)
    d = np.minimum(np.arange(9), np.arange(8, -1, -1))
    corners_cut = np.add.outer(d, d) >= 3
    assert corners_cut.sum() == 57
    oracle.append(scdmi.RasterImage.from_array(np.random.default_rng(14).uniform(0.0, 1.0, (9, 9, 3)), corners_cut))
    k0, k1 = engine.moment_tables(frames[0])
    spread = k1.copy()
    spread[1:] *= np.ldexp(1.0, np.arange(len(k1) - 1) % 7 * 9 - 27)
    arrays = {f"{kind}{i}_{name}": getattr(img, name) for kind, imgs in (("frames", frames), ("oracle", oracle))
              for i, img in enumerate(imgs) for name in ("channels", "mask")}
    np.savez(path, frames=len(frames), oracle=len(oracle), vectors=np.stack([k0, k1, np.ldexp(k1, 228), spread]), **arrays)


@pytest.fixture(scope="session")
def parallelism_probe(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("probe") / "inputs.npz"
    _probe_inputs(inputs)

    @functools.cache
    def probe(cpus: str, blas_threads: str, disabled: str = "") -> dict[str, list[str]]:
        env = {"OPENBLAS_NUM_THREADS": blas_threads, "NPY_DISABLE_CPU_FEATURES": disabled or None}
        lines = run_python(PROBE, cpus, str(inputs), env=env).stdout.splitlines()
        return {part: lines[span] for part, span in PARTS.items()}

    return probe
