#!/usr/bin/env python3
"""Benchmark for the scdmi library: end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload extract-small --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0

The library is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the library's public functions, alternates untraced
and traced passes over the same inputs, and reports per-layer metrics plus
the tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries the machine record and workload details.
"""

import os

# one BLAS thread in this process and every process it starts; must precede numpy
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from calibration import calibrate  # noqa: E402
from layers import METHODS, MODULES, PACKAGE, PROBES, aggregate  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 9

# Times one fresh interpreter from ``import scdmi`` until the symbolic
# catalogue and the moment-index sets are built. Entry points that a later
# change removes are skipped and listed.
_SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scdmi, scdmi.engine
absent = []
for mod, name, args in ((scdmi, "catalogue_specs", ()), (scdmi, "denominator_polynomial", ()),
                        (scdmi.engine, "required_indices", (0,)), (scdmi.engine, "required_indices", (1,))):
    fn = getattr(mod, name, None)
    if fn is None:
        absent.append(name)
    else:
        fn(*args)
print(json.dumps({"s": time.perf_counter() - t0, "absent": absent}))
"""

END_TO_END = {
    "setup_s": "s",
    "latency_p50_norm": "calib",
    "peak_rss_mb": "MB",
}


class Library:
    """The program's entry points, looked up at each use so installed
    timing wrappers are seen."""

    def __init__(self, package: str):
        self._package = package

    def __getattr__(self, name):
        if name in ("cli", "verify"):
            return sys.modules[f"{self._package}.{name}"]
        for mod in (self._package, f"{self._package}.synthetic"):
            obj = getattr(sys.modules.get(mod), name, None)
            if obj is not None:
                return obj
        raise AttributeError(f"{self._package} has no entry point {name!r}")


def import_library():
    """Import the package from ``src/`` of this checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    for short in MODULES:
        try:
            importlib.import_module(f"{PACKAGE}.{short}")
        except ModuleNotFoundError:
            pass  # its functions are reported absent by the traced run
    return Library(PACKAGE)


class SetupSampler:
    """Times set-up in fresh interpreters, spread over the measured run.

    The machine's speed drifts over seconds, so samples taken back to back
    share one speed; spreading them between passes lets the median see the
    run's mix of slow and fast periods.
    """

    def __init__(self, seconds: float):
        self.every = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.absent: list[str] = []
        self.start = time.perf_counter()
        self.sample(record=False)  # writes bytecode caches; not timed

    def sample(self, record: bool = True) -> None:
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.absent = res["absent"]
        if record:
            self.times.append(res["s"])

    def due(self) -> bool:
        return len(self.times) < SETUP_REPEATS and time.perf_counter() >= self.start + self.every * len(self.times)

    def finish(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return stats.median(self.times)


def machine_record() -> dict:
    import numpy as np

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


class Runner:
    """Closed-loop measurement of one workload: whole passes until the deadline."""

    def __init__(self, workload):
        self.w = workload
        self.latencies: list[float] = []
        self.op_items: list = []
        self.op_errors: list[str | None] = []

    def one_pass(self, tracer=None) -> float:
        total = 0.0
        for item in self.w.items():
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = self.w.run(item)
                else:
                    with tracer.span(ROOT_SPAN):
                        out = self.w.run(item)
                err = None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            total += dt
            if err is None:
                err = self.w.check(item, out)
            self.latencies.append(dt)
            self.op_items.append(item)
            self.op_errors.append(err)
        return total

    def failures(self) -> tuple[int, list[str]]:
        """Failed operations, including every operation on an input that
        failed a final check."""
        bad_items = {}
        for item, err in self.w.final_checks():
            bad_items.setdefault(item, err)
        messages = []
        failed = 0
        for item, err in zip(self.op_items, self.op_errors):
            err = err or bad_items.get(item)
            if err:
                failed += 1
                if len(messages) < 5:
                    messages.append(f"{item}: {err}")
        return failed, messages


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end values and their details from whole passes until the deadline.

    The calibration kernel is timed before the first pass and after each
    pass (see ``stats.normalise``). Set-up samples run between passes;
    their time extends the deadline.
    """
    setup = SetupSampler(seconds)
    calib = [calibrate()]
    first_op = []  # index into runner.latencies of each pass's first operation
    passes = []

    def measured_pass():
        first_op.append(len(runner.latencies))
        passes.append(runner.one_pass())
        calib.append(calibrate())

    deadline = time.perf_counter() + seconds
    measured_pass()
    # read after the first pass: the heap keeps growing with repeated large
    # images, so a later reading would depend on how many passes fit
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() < deadline:
        if setup.due():
            t0 = time.perf_counter()
            setup.sample()
            deadline += time.perf_counter() - t0
        measured_pass()
    first_op.append(len(runner.latencies))
    norm = stats.normalise(runner.latencies, first_op, calib)
    lat_ms = [1e3 * t for t in runner.latencies]
    tail_norm, pct, beyond = stats.tail(norm)
    values = {
        "setup_s": setup.finish(),
        "latency_p50_norm": stats.median(norm),
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "tail": {"percentile": pct, "samples": len(lat_ms), "samples_beyond": beyond},
        "latency_tail_norm": tail_norm,
        "latency_p50_ms": stats.median(lat_ms),
        "latency_tail_ms": stats.percentile(lat_ms, pct),
        "ops_per_s": len(lat_ms) / sum(runner.latencies),
        "calib_ms": {"median": 1e3 * stats.median(calib), "min": 1e3 * min(calib), "max": 1e3 * max(calib)},
        "pass_s": stats.median(passes),
        "setup_runs_s": setup.times,
        "setup_absent": setup.absent,
    }
    return values, detail


def run_traced(runner: Runner, seconds: float, tracer: Tracer) -> tuple[list[float], list[float]]:
    """Alternate untraced and traced passes over the same inputs."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        plain.append(runner.one_pass())
        tracer.install(PACKAGE, MODULES, METHODS)
        try:
            traced.append(runner.one_pass(tracer))
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    return plain, traced


def catalogue_build_ms() -> float:
    """Duration of the first, building call of ``catalogue_specs`` in this process."""
    fn = getattr(sys.modules[f"{PACKAGE}.algebra"], "catalogue_specs", None)
    t0 = time.perf_counter()
    if fn is not None:
        fn()
    return 1e3 * (time.perf_counter() - t0)


def write_spans(tracer: Tracer, path: Path) -> None:
    import numpy as np

    np.savez(
        path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        site=np.frombuffer(tracer.site, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    lib = import_library()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        catalogue_ms = catalogue_build_ms() if trace else 0.0
        workload = WORKLOADS[name](lib, seed, workdir)
        workload.setup()
        runner = Runner(workload)
        detail = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "per": workload.per,
            "wait_time": "not applicable: one caller, one thread, no queue",
        }
        if trace:
            tracer = Tracer(PROBES)
            plain, traced = run_traced(runner, seconds, tracer)
            overhead = stats.median(traced) / stats.median(plain) - 1.0
            metrics, layer_detail = aggregate(tracer, catalogue_ms, overhead)
            detail.update(layer_detail)
            detail["passes"] = {"untraced_s": plain, "traced_s": traced}
            write_spans(tracer, OUT / f"{name}.spans.npz")
        else:
            values, e2e_detail = run_untraced(runner, seconds)
            metrics = {k: {"value": float(values[k]), "unit": unit} for k, unit in END_TO_END.items()}
            detail.update(e2e_detail)
        failed, messages = runner.failures()
        attempted = len(runner.latencies)
        detail["failed_frac"] = failed / attempted
        detail["failures"] = messages
        detail.update(workload.detail())
        detail["machine"] = machine_record()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    suffix = "trace" if trace else "e2e"
    (OUT / f"{name}.{suffix}.json").write_text(json.dumps({"detail": detail, **result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        results[name] = result
        print(f"== {name} (per {detail['per']}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={detail['failed_frac']:.3g}")
        for metric, mv in result["metrics"].items():
            print(f"  {metric:48s} {mv['value']:14.6g} {mv['unit']}")
        if not trace:
            t = detail["tail"]
            print(f"  tail = p{t['percentile']:g} of {t['samples']} samples, {t['samples_beyond']} beyond it")
            rows = [("latency_tail_norm", detail["latency_tail_norm"], "calib"),
                    ("latency_p50_ms", detail["latency_p50_ms"], "ms"),
                    ("latency_tail_ms", detail["latency_tail_ms"], "ms"),
                    ("ops_per_s", detail["ops_per_s"], "1/s"),
                    ("calib_ms (median)", detail["calib_ms"]["median"], "ms")]
            if detail["per"] == "CLI run":
                rows.append(("wall_s", detail["latency_p50_ms"] / 1e3, "s"))
            rows += [(key, detail[key], "ratio") for key in ("scdmi50_accuracy", "scdmi50_pr_auc") if key in detail]
            for key, value, unit in rows:
                print(f"  {key:48s} {value:14.6g} {unit}")
        else:
            print(f"  absent: {detail['absent']}; counts repeat: {detail['counts_repeat']}; "
                  f"wait time: {detail['wait_time']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
