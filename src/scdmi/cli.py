"""Command-line entry point.

Subcommands:
  gen       dump the 25 instance polynomials once per k, the shared
            denominator and a manifest CSV
  features  evaluate the 50-entry feature vector on P6 PPM images
  verify    run the oracle-equivalence, channel-exactness, scaling and
            degeneracy suites
  bench     the paper's two experiments, 1-NN classification and
            leave-one-out retrieval, on a manifest or a synthetic dataset of
            either experiment's layout (--protocol), and the per-invariant
            deviation of each class's items from its first

Exit codes: 0 success, 1 suite failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import denominator_polynomial, serialize_polynomial, catalogue_specs
from .bench import (
    ALL_KINDS,
    MIN_SYNTHETIC_SIZE,
    RECALL_LEVELS,
    RETRIEVAL_VIEWS,
    DescriptorKind,
    Features,
    assemble_features,
    check_classes,
    check_splits,
    classification_class,
    feature_block,
    invariance_report,
    rank_kind,
    retrieval_class,
)
from .engine import RasterImage, _cpu_count, scdmi50
from .ppm import read_ppm, write_ppm
from .verify import rows_to_csv, run_all


def _int_at_least(low: int):
    """An argparse type: an int of at least low, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _ensure_out(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    out = _ensure_out(args.out)
    specs = catalogue_specs()
    for k in (0, 1):
        for spec in specs:
            (out / f"scdmi_k{k}_{spec.id}.poly").write_text(serialize_polynomial(spec.numerator))
    (out / "denominator.poly").write_text(serialize_polynomial(denominator_polynomial()))
    with (out / "manifest.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "k", "n", "m", "N", "M", "e", "term_count"])
        for k in (0, 1):
            for spec in specs:
                src = spec.source
                w.writerow(
                    [
                        spec.id,
                        k,
                        src.shape_point_count,
                        src.shape_degree,
                        src.color_point_count,
                        src.color_degree,
                        str(spec.area_exponent),
                        len(spec.numerator),
                    ]
                )
    print(f"wrote {2 * len(specs) + 1} polynomial files and manifest.csv to {out}")
    return 0


def cmd_features(args) -> int:
    out = _ensure_out(args.out)
    header = (
        ["path"]
        + [f"value_{i}" for i in range(1, 51)]
        + [f"valid_{i}" for i in range(1, 51)]
    )
    rows = []
    failures = 0
    for path in args.images:
        try:
            fv = scdmi50(read_ppm(path))
        except (ValueError, OSError) as exc:  # a bad file: report it and go on
            failures += 1
            print(f"error: {path}: {exc}", file=sys.stderr)
            continue
        rows.append(
            [path]
            + [repr(float(v)) for v in fv.values]
            + [str(int(v)) for v in fv.valid]
        )
    target = out / "features.csv"
    with target.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {len(rows)} feature rows to {target}")
    if failures and not rows:
        return 2
    return 0


def cmd_verify(args) -> int:
    rows, ok = run_all(seed=args.seed)
    out = _ensure_out(args.out)
    target = out / "verify.csv"
    target.write_text(rows_to_csv(rows))
    n_fail = sum(1 for r in rows if not r.passed)
    print(f"{len(rows)} checks, {n_fail} failures; report at {target}")
    return 0 if ok else 1


def _load_manifest(path: Path) -> list[tuple[str, str, str]]:
    """(image path, label, split) of every row. Each row, and the dataset
    rules over all labels and splits, are checked before any image is read."""
    rows = []
    # utf-8-sig drops the byte-order mark a spreadsheet's "CSV UTF-8" starts with
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first = True
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            # the header, if any, is the first row that is not blank
            header = first and [c.strip().lower() for c in row] == ["path", "label", "split"]
            first = False
            if header:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            rel, label, split = (c.strip() for c in row)
            if split not in ("train", "test"):
                raise ValueError(f"{path}:{lineno}: split must be train or test, got {split!r}")
            rows.append((str(path.parent / rel), label, split))
    labels = np.array([label for _, label, _ in rows])
    splits = np.array([split for _, _, split in rows])
    check_classes(labels)
    # a class in both splits has 2 members, so retrieval's rule holds too
    check_splits(labels, splits)
    return rows


class PoolError(Exception):
    """A job that cannot be sent to a worker process, or a worker that died."""


def _class_job(
    protocol: str, c: int, transforms: int, size: int, seed: int, clamp: bool, out: Path
) -> tuple[list[str], Features]:
    """A pool job: generates class ``c`` of the ``protocol``'s synthetic
    dataset, exports its PPMs and returns their exported names and the
    class's feature_block. ``transforms`` counts the warped copies of a
    classification class, or the channel maps of each retrieval view."""
    generate = retrieval_class if protocol == "retrieval" else classification_class
    members = generate(c, transforms, size, seed, clamp)
    names = []
    for i, (label, _, img) in enumerate(members, start=c * len(members)):
        names.append(f"dataset/{label}_{i:04d}.ppm")
        # masked-out pixels are baked to black in the exported copies;
        # the benchmark itself runs on the in-memory masked images
        write_ppm(out / names[-1], RasterImage(np.where(img.mask, img.channels, 0.0), img.mask))
    return names, feature_block(members)


def _manifest_job(path: str, label: str, split: str) -> tuple[list[str], Features]:
    """A pool job: one manifest row's path and the feature_block of its PPM,
    a block of one item, in the form of a _class_job's result."""
    return [path], feature_block([(label, split, read_ppm(path))])


def _rank_job(
    values: np.ndarray, valid: np.ndarray, labels: np.ndarray, splits: np.ndarray
) -> tuple[float, np.ndarray]:
    """A pool job: rank_kind of one descriptor kind's matrices.

    A job is sent to a worker by its name. rank_kind is public, so a wrapper
    put in its place, as a tracer or a test puts, is no longer the function
    at that name and cannot be sent; this job reads rank_kind in the worker.
    """
    return rank_kind(values, valid, labels, splits)


def _invariance_job(values: np.ndarray, valid: np.ndarray, labels: np.ndarray) -> str:
    """A pool job: the text of invariance.csv, from the SCDMI50 rows. The
    bench's own process runs none of the report's numpy kernels otherwise;
    run there, they would page in about 0.6 MB of its peak RSS."""
    return invariance_report(values, valid, labels).to_csv()


def _pin_worker(shares: list[list[int]], started) -> None:
    """A pool initializer: pins the i-th worker to start to ``shares[i]``,
    its share of the CPUs, so that no two workers run on one CPU and a
    worker's ``_cpu_count()`` counts its own share."""
    with started.get_lock():
        i = started.value
        started.value += 1
    os.sched_setaffinity(0, shares[i])


@contextlib.contextmanager
def _worker_pool(jobs: int):
    """A pool of forked worker processes, one per CPU up to one per job.

    Worker i of n is pinned to CPUs i, i + n, i + 2n, ... of this process's
    CPU set, so workers do not share a CPU. Where one worker runs per CPU,
    each reads ``_cpu_count()`` of 1 and runs ``moment_tables``' passes one
    after the other instead of adding a thread.

    The pool's workers are joined, and its pending jobs cancelled, on every
    path out of the block.
    """
    # imported here, as moment_tables imports its thread pool: only bench needs a pool,
    # and concurrent.futures pulls in logging
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: a worker starts from this process's imports and caches, where a
    # spawned one would import scdmi and build its catalogue again
    context = multiprocessing.get_context("fork")
    workers = min(_cpu_count(), jobs)
    pinning = {}
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        shares = [cpus[i::workers] for i in range(workers)]
        pinning = {"initializer": _pin_worker, "initargs": (shares, context.Value("i", 0))}
    pool = ProcessPoolExecutor(workers, mp_context=context, **pinning)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _run_jobs(pool, job, jobs: list[tuple]) -> list:
    """``job(*args)`` for every args tuple of ``jobs`` on ``pool``, in job
    order. An exception raised by a job re-raises here with its own type.

    Each job is pickled here before it is submitted: a job that cannot be
    sent raises PoolError here, where the pool's own feeder thread could
    leave the pool waiting on it. A worker that dies raises PoolError too.
    """
    from concurrent.futures.process import BrokenProcessPool

    futures = []
    for args in jobs:
        try:
            pickle.dumps((job, args))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise PoolError(f"cannot send {job.__name__} to a worker process: {exc}") from exc
        futures.append(pool.submit(job, *args))
    try:
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise PoolError(f"a worker process died: {exc}") from exc


def cmd_bench(args) -> int:
    # the synthetic dataset's options parse to None when not given
    defaults = {"protocol": "classification", "classes": 10, "transforms": 20, "size": 96, "seed": 0, "clamp": False}
    given = [f"--{name}" for name in defaults if getattr(args, name) is not None]
    if given and not args.synthetic:
        raise ValueError(f"{', '.join(given)} only apply to a --synthetic dataset, not to a manifest")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    out = _ensure_out(args.out)
    if args.synthetic:
        (out / "dataset").mkdir(parents=True, exist_ok=True)
        job = _class_job
        jobs = [
            (args.protocol, c, args.transforms, args.size, args.seed, args.clamp, out)
            for c in range(args.classes)
        ]
    else:
        job, jobs = _manifest_job, _load_manifest(Path(args.manifest))
    # one pool featurizes the dataset, a class or a manifest row per job, then
    # ranks it, a descriptor kind per job, and reduces its SCDMI50 rows to the
    # invariance report: a pool takes milliseconds to start its first job
    with _worker_pool(max(len(jobs), len(ALL_KINDS))) as pool:
        results = _run_jobs(pool, job, jobs)
        if args.synthetic:
            with (out / "dataset_manifest.csv").open("w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["path", "label", "split"])
                for names, block in results:
                    w.writerows(zip(names, block.labels, block.splits))
        features = assemble_features(block for _, block in results)
        del results  # the blocks, once concatenated
        ranks = [(*features.matrices[kind], features.labels, features.splits) for kind in ALL_KINDS]
        ranked = list(zip(ALL_KINDS, _run_jobs(pool, _rank_job, ranks)))
        scdmi_rows = (*features.matrices[DescriptorKind.SCDMI50], features.labels)
        [invariance] = _run_jobs(pool, _invariance_job, [scdmi_rows])
    with (out / "accuracy.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["descriptor", "accuracy"])
        for kind, (accuracy, _) in ranked:
            w.writerow([kind.value, repr(float(accuracy))])
    with (out / "pr_curves.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["descriptor", "recall_level", "precision"])
        for kind, (_, precision) in ranked:
            for r, p in zip(RECALL_LEVELS, precision):
                w.writerow([kind.value, repr(float(r)), repr(float(p))])
    (out / "invariance.csv").write_text(invariance)
    print(f"wrote accuracy.csv, pr_curves.csv and invariance.csv to {out}")
    for kind, (accuracy, _) in ranked:
        print(f"  {kind.value}: accuracy {accuracy:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scdmi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"scdmi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="dump instance polynomials and manifest")
    p_gen.add_argument("--out", default="scdmi_out", help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_feat = sub.add_parser("features", help="feature vectors for PPM images")
    p_feat.add_argument("images", nargs="+", help="P6 PPM files")
    p_feat.add_argument("--out", default="scdmi_out")
    p_feat.set_defaults(func=cmd_features)

    p_ver = sub.add_parser("verify", help="run the verification suites")
    p_ver.add_argument("--seed", type=_int_at_least(0), default=0)
    p_ver.add_argument("--out", default="scdmi_out")
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="classification/retrieval benchmark")
    dataset = p_bench.add_mutually_exclusive_group(required=True)
    dataset.add_argument("manifest", nargs="?", help="dataset manifest CSV (path,label,split)")
    dataset.add_argument("--synthetic", action="store_true", help="generate a synthetic dataset")
    # the synthetic dataset's options: cmd_bench fills in the defaults named
    # here, and refuses any of them given with a manifest
    layouts = ("classification", "retrieval")
    p_bench.add_argument("--protocol", choices=layouts, help="synthetic dataset layout (default classification)")
    p_bench.add_argument("--classes", type=_int_at_least(2), help="classes (default 10)")
    per_class = f"warped copies per class, or for retrieval channel maps per view ({RETRIEVAL_VIEWS} views; default 20)"
    p_bench.add_argument("--transforms", type=_int_at_least(1), help=per_class)
    p_bench.add_argument("--size", type=_int_at_least(MIN_SYNTHETIC_SIZE), help="image size in pixels (default 96)")
    p_bench.add_argument("--seed", type=_int_at_least(0), help="dataset seed (default 0)")
    p_bench.add_argument("--clamp", action="store_true", default=None, help="clamp transformed channels to [0,1]")
    p_bench.add_argument("--out", default="scdmi_out")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, PoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
