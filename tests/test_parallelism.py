"""Every output is a claim about the numbers alone: the engine, the oracle and
verify give the same bytes whatever the CPU count, the BLAS thread count or
the SIMD loops numpy dispatches to.

The probe in tests/conftest.py runs in a fresh process per configuration:
every CPU with one BLAS thread (the baseline), every CPU with two, one CPU
(pinned inside the script) with one, and every CPU with one and
NPY_DISABLE_CPU_FEATURES set to the features the baseline printed, so that
only the loops of numpy's build baseline run. Its first line names the pool
modules that ``import scdmi, scdmi.cli`` loads, which must be none; its
second says whether moment_tables may run its k=1 pass on a thread; its
third names the dispatched features. Every other line must be the
baseline's:

- scdmi50 of a 128 px disk, under one leaf of pixels, and of a 272 px frame
  and a 512 px disk, over 2^16 pixels at both k, whose k=1 pass runs on a
  worker thread on more than one CPU and after the k=0 pass when pinned;
- core_sums and evaluate_table of the disk's k=0 and k=1 moment vectors,
  of the k=1 one scaled by 2^228, where four ranges are summed aside by
  math.fsum, and of one whose terms span more binades than two passes of
  the exact summation take;
- brute_force_features, whose matrix-shaped steps are BLAS products, of
  four 6x6 images and of a 9x9 image with a 57-pixel k=0 domain, and the
  contractions built by then;
- verify.csv at seed 3, save under baseline dispatch: run_all makes its
  images through np.exp, whose bits move with the dispatch.

The dispatch case skips only where numpy dispatches nothing above its
baseline. test_engine.py and test_oracle.py read parts of the same runs.
The bench's pool is checked in tests/test_cli.py.
"""

import os

import numpy as np
import pytest

from scdmi import engine

MANY_CPUS = hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) > 1
OPENBLAS = "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.parametrize(
    "cpus, blas_threads, simd",
    [
        pytest.param("all", "1", "dispatched", id="all-cpus-1-blas-thread"),
        pytest.param("all", "2", "dispatched", id="all-cpus-2-blas-threads",
                     marks=pytest.mark.skipif(not OPENBLAS, reason="only OpenBLAS reads OPENBLAS_NUM_THREADS")),
        pytest.param("one", "1", "dispatched", id="one-cpu-1-blas-thread",
                     marks=pytest.mark.skipif(not MANY_CPUS, reason="needs more than one CPU and a way to pin a process to one")),
        pytest.param("all", "1", "baseline", id="all-cpus-1-blas-thread-baseline-simd"),
    ],
)
def test_outputs_do_not_depend_on_cpus_or_blas_threads(parallelism_probe, cpus, blas_threads, simd):
    baseline = parallelism_probe("all", "1")
    parts = ["dispatch", "frames", "vectors", "oracle", "contractions", "verify"]
    if simd == "baseline":
        if not baseline["dispatch"][0]:
            pytest.skip("numpy dispatches no feature above its baseline on this CPU")
        run = parallelism_probe(cpus, blas_threads, baseline["dispatch"][0])
        assert run["dispatch"] == [""]
        parts = parts[1:-1]
    else:
        run = parallelism_probe(cpus, blas_threads)
    assert run["pools"] == ["[]"]
    assert run["threaded"] == [str(cpus == "all" and engine._cpu_count() > 1)]
    # 3 frames, 4 vectors, 5 oracle images, and verify.csv's header and 322 rows
    assert [len(run[part]) for part in ("frames", "vectors", "oracle", "verify")] == [3, 4, 5, 323]
    for part in parts:
        assert run[part] == baseline[part], part
