"""Every output is a claim about the numbers alone: scdmi50, the oracle and
verify give the same bytes whatever the CPU count or the BLAS thread count.

One probe script, in tests/conftest.py, runs in a fresh process per
configuration: every CPU with one BLAS thread (the baseline), every CPU with
two, and one CPU, pinned inside the script, with one. Its first line names the pool modules that
``import scdmi, scdmi.cli`` loads, which must be none; its second says
whether moment_tables may run its k=1 pass on a thread; every other line
must be the baseline's:

- scdmi50 of a 128 px disk, under one leaf of pixels, and of a 272 px frame
  and a 512 px disk, each over 2^16 pixels at both k: on more than one CPU
  the k=1 pass of the two large ones runs on a worker thread, pinned it runs
  after the k=0 pass;
- brute_force_features, whose matrix-shaped steps are BLAS products, of four
  6x6 images and of a 9x9 image with a 57-pixel k=0 domain, the largest
  domain the oracle tests use;
- verify.csv at seed 3.

Each configuration runs once per session: test_engine.py and test_oracle.py
compare the frames, the verify report and the oracle images at one and two
BLAS threads from the same runs. The bench's pool is checked in
tests/test_cli.py, at one worker and at the default pool size.
"""

import os

import numpy as np
import pytest

from scdmi import engine

MANY_CPUS = hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) > 1
OPENBLAS = "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.parametrize(
    "cpus, blas_threads",
    [
        pytest.param("all", "1", id="all-cpus-1-blas-thread"),
        pytest.param(
            "all",
            "2",
            id="all-cpus-2-blas-threads",
            marks=pytest.mark.skipif(not OPENBLAS, reason="only OpenBLAS reads OPENBLAS_NUM_THREADS"),
        ),
        pytest.param(
            "one",
            "1",
            id="one-cpu-1-blas-thread",
            marks=pytest.mark.skipif(not MANY_CPUS, reason="needs more than one CPU and a way to pin a process to one"),
        ),
    ],
)
def test_outputs_do_not_depend_on_cpus_or_blas_threads(parallelism_probe, cpus, blas_threads):
    baseline, run = parallelism_probe("all", "1"), parallelism_probe(cpus, blas_threads)
    assert run["pools"] == ["[]"]
    assert run["threaded"] == [str(cpus == "all" and engine._cpu_count() > 1)]
    # 3 frames, 5 oracle images, and verify.csv's header and 322 rows
    assert [len(run[part]) for part in ("frames", "oracle", "verify")] == [3, 5, 323]
    for part in ("frames", "oracle", "verify"):
        assert run[part] == baseline[part], part
