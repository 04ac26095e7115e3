"""Per-layer metrics computed from a traced run.

Every metric is normalised per operation: per image on the extract
workloads, per oracle image on oracle, per CLI run on bench-synthetic. ``MOVES`` records,
for each metric, the end-to-end metric and workloads it should move, so a
proposed change can cite it by name before it is written.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from tracer import ROOT_SPAN, root_of, self_times

PACKAGE = "scdmi"
MODULES = ("algebra", "engine", "oracle", "transforms", "synthetic", "bench", "ppm", "verify", "cli")
METHODS = (("algebra", "MomentPolynomial", "evaluate"),)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    kind: str  # self_ms | ms | calls | counter | ratio | special
    sources: tuple[str, ...] = ()  # functions the metric needs; absent if none exist
    spans: tuple[str, ...] = ()  # span names summed (default: sources); "mod." matches a whole module
    site: str | None = None  # only spans looked up through this module
    counter: str | None = None
    moves: str = ""


def _m(name, unit, better, kind, sources=(), moves="", spans=(), site=None, counter=None):
    return Metric(name, unit, better, kind, tuple(sources), tuple(spans), site, counter, moves)


_CENTRING = ("engine.raw_channels", "engine.centroid_and_means", "engine.masked_centroid")
_TABLE = ("engine.compute_moment_table",)
_EVAL = ("algebra.MomentPolynomial.evaluate",)
_SMALL = "latency_p50_norm on extract-small"
_BOTH = "latency_p50_norm on extract-small and extract-large"
_LARGE = "latency_p50_norm on extract-large"
_ORACLE = "latency_p50_norm on oracle"
_BENCH = "latency_p50_norm on bench-synthetic"

METRICS = (
    _m("engine.scdmi50.ms", "ms", "lower", "ms", ["engine.scdmi50"], "latency_p50_norm on every workload"),
    _m("engine.centring.self_ms", "ms", "lower", "self_ms", _CENTRING, _SMALL),
    _m("engine.derivative_channels.calls", "count", "lower", "calls", ["engine.derivative_channels"], _BOTH),
    _m("engine.derivative_channels.self_ms", "ms", "lower", "self_ms", ["engine.derivative_channels"], _BOTH),
    _m("engine.f1_channels.self_ms", "ms", "lower", "self_ms", ["engine.f1_channels"], _BOTH),
    _m("engine.compute_moment_table.k0_self_ms", "ms", "lower", "self_ms", _TABLE, _LARGE,
       spans=["engine.compute_moment_table.k0"]),
    _m("engine.compute_moment_table.k1_self_ms", "ms", "lower", "self_ms", _TABLE, _LARGE,
       spans=["engine.compute_moment_table.k1"]),
    _m("engine.compute_moment_table.elements", "count", "lower", "counter", _TABLE, _LARGE,
       counter="engine.compute_moment_table.elements"),
    _m("engine.stable_sum.calls", "count", "lower", "calls", ["engine.stable_sum"], _LARGE),
    _m("engine.stable_sum.elements", "count", "lower", "counter", ["engine.stable_sum"], _LARGE,
       counter="engine.stable_sum.elements"),
    _m("engine.stable_sum.self_ms", "ms", "lower", "self_ms", ["engine.stable_sum"], _LARGE),
    _m("engine.evaluate_invariant.self_ms", "ms", "lower", "self_ms", ["engine.evaluate_invariant"], _SMALL),
    _m("algebra.MomentPolynomial.evaluate.calls", "count", "lower", "calls", _EVAL, _SMALL),
    _m("algebra.MomentPolynomial.evaluate.terms", "count", "lower", "counter", _EVAL, _SMALL,
       counter="algebra.MomentPolynomial.evaluate.terms"),
    _m("algebra.MomentPolynomial.evaluate.self_ms", "ms", "lower", "self_ms", _EVAL, _SMALL),
    _m("algebra.catalogue_specs.ms", "ms", "lower", "special", ["algebra.catalogue_specs"], "setup_s on every workload"),
    _m("oracle.brute_force_invariant.calls", "count", "lower", "calls", ["oracle.brute_force_invariant"], _ORACLE),
    _m("oracle.brute_force_invariant.tuples", "count", "lower", "counter", ["oracle.brute_force_invariant"], _ORACLE,
       counter="oracle.brute_force_invariant.tuples"),
    _m("oracle.brute_force_invariant.self_ms", "ms", "lower", "self_ms", ["oracle.brute_force_invariant"], _ORACLE),
    _m("verify.oracle_suite.ms", "ms", "lower", "ms", ["verify.oracle_suite"], _ORACLE),
    _m("transforms.apply_shape_affine.calls", "count", "lower", "calls", ["transforms.apply_shape_affine"], _BENCH),
    _m("transforms.apply_shape_affine.self_ms", "ms", "lower", "self_ms", ["transforms.apply_shape_affine"], _BENCH),
    _m("transforms.apply_color_affine.self_ms", "ms", "lower", "self_ms", ["transforms.apply_color_affine"], _BENCH),
    _m("synthetic.self_ms", "ms", "lower", "self_ms", ["synthetic.blob_image", "synthetic.disk_masked_image"], _BENCH,
       spans=["synthetic."]),
    _m("bench.baseline_descriptor.calls", "count", "lower", "calls", ["bench.baseline_descriptor"], _BENCH),
    _m("bench.baseline_descriptor.useful_ratio", "ratio", "higher", "ratio", ["bench.baseline_descriptor"], _BENCH,
       counter="bench.baseline_descriptor"),
    _m("bench.baseline_descriptor.self_ms", "ms", "lower", "self_ms", ["bench.baseline_descriptor"], _BENCH),
    _m("bench.scdmi50.calls", "count", "lower", "calls", ["engine.scdmi50"], _BENCH, site="bench"),
    _m("bench.feature_normalize.self_ms", "ms", "lower", "self_ms", ["bench.feature_normalize"], _BENCH),
    _m("bench.knn_classify.self_ms", "ms", "lower", "self_ms", ["bench.knn_classify"], _BENCH),
    _m("bench.precision_recall.self_ms", "ms", "lower", "self_ms", ["bench.precision_recall"], _BENCH),
    _m("ppm.read_ppm.self_ms", "ms", "lower", "self_ms", ["ppm.read_ppm"], _LARGE),
    _m("ppm.read_ppm.bytes", "bytes", "lower", "counter", ["ppm.read_ppm"], _LARGE,
       counter="ppm.read_ppm.bytes"),
    _m("ppm.write_ppm.self_ms", "ms", "lower", "self_ms", ["ppm.write_ppm"], _BENCH),
    _m("ppm.write_ppm.bytes", "bytes", "lower", "counter", ["ppm.write_ppm"], _BENCH, counter="ppm.write_ppm.bytes"),
    _m("cli.self_ms", "ms", "lower", "self_ms", ["cli.main"], _BENCH, spans=["cli."]),
    _m("trace_overhead_frac", "ratio", "lower", "special", (), "none: cost of tracing itself, on every workload"),
)

#: functions whose call counts later changes cite; each count, and the
#: baseline useful ratio, must repeat exactly from one operation to the next
EXACT_COUNTS = ("engine.derivative_channels", "algebra.MomentPolynomial.evaluate", "bench.baseline_descriptor")

MOVES = {m.name: m.moves for m in METRICS}


# ---------------------------------------------------------------------------
# probes: counters measured where the work happens


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _probe_stable_sum(tr, span, args, kwargs):
    tr.counters["engine.stable_sum.elements"] += np.size(_arg(args, kwargs, 0, "values"))


def _probe_moment_table(tr, span, args, kwargs):
    channels = _arg(args, kwargs, 0, "channels")
    required = _arg(args, kwargs, 3, "required")
    tr.rename(span, f"engine.compute_moment_table.k{channels.k}")
    tr.counters["engine.compute_moment_table.elements"] += len(set(required)) * int(
        np.count_nonzero(channels.mask)
    )


def _probe_evaluate(tr, span, args, kwargs):
    tr.counters["algebra.MomentPolynomial.evaluate.terms"] += len(args[0].terms)


def _probe_brute_force(tr, span, args, kwargs):
    img = _arg(args, kwargs, 0, "img")
    source = _arg(args, kwargs, 1, "spec").source
    mask = img.mask
    if source.k == 1:
        erode = tr.originals.get("engine.stencil_eroded_mask")
        if erode is None:
            return
        mask = erode(mask)
    tr.counters["oracle.brute_force_invariant.tuples"] += int(np.count_nonzero(mask)) ** source.width


def _probe_file_bytes(counter):
    def probe(tr, span, args, kwargs):
        tr.counters[counter] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    return probe


def _probe_baseline(tr, span, args, kwargs):
    img = _arg(args, kwargs, 0, "img")
    kind = _arg(args, kwargs, 1, "kind")
    tr.keys["bench.baseline_descriptor"].add((tr.current_root(), id(img), kind))


PROBES = {
    "engine.stable_sum": _probe_stable_sum,
    "engine.compute_moment_table": _probe_moment_table,
    "algebra.MomentPolynomial.evaluate": _probe_evaluate,
    "oracle.brute_force_invariant": _probe_brute_force,
    "ppm.read_ppm": _probe_file_bytes("ppm.read_ppm.bytes"),
    "ppm.write_ppm": _probe_file_bytes("ppm.write_ppm.bytes"),
    "bench.baseline_descriptor": _probe_baseline,
}


# ---------------------------------------------------------------------------
# aggregation


def _span_names(metric: Metric, names: list[str]) -> set[str]:
    wanted = metric.spans or metric.sources
    return {n for n in names if any(n == w or (w.endswith(".") and n.startswith(w)) for w in wanted)}


def aggregate(tracer, catalogue_ms: float, overhead_frac: float) -> tuple[dict, dict]:
    """(metrics, detail) from the spans recorded under ``ROOT_SPAN`` roots.

    ``metrics`` maps each name in ``METRICS`` to ``{"value", "unit"}``; a
    metric whose source functions no longer exist reads 0 and is listed in
    ``detail["absent"]``. ``detail`` also carries per-operation exact counts
    and whether they repeated across operations.
    """
    names = tracer.names
    parent = list(tracer.parent)
    roots = root_of(parent)
    selfs = self_times(list(tracer.start), list(tracer.end), parent)
    root_id = tracer.intern(ROOT_SPAN)
    op_roots = [i for i, p in enumerate(parent) if p < 0 and tracer.name[i] == root_id]
    ops = len(op_roots)
    if ops == 0:
        raise RuntimeError("no traced operations")

    per_name = defaultdict(lambda: {"calls": 0, "self": 0.0, "dur": 0.0})
    per_name_site = defaultdict(int)
    per_op_calls = defaultdict(lambda: defaultdict(int))
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        rec = per_name[name]
        rec["calls"] += 1
        rec["self"] += selfs[i]
        rec["dur"] += tracer.end[i] - tracer.start[i]
        per_name_site[(name, names[tracer.site[i]])] += 1
        per_op_calls[roots[i]][name] += 1

    present = set(tracer.originals)
    metrics: dict[str, dict] = {}
    absent: list[str] = []
    for m in METRICS:
        if m.sources and not (set(m.sources) & present):
            absent.append(m.name)
            metrics[m.name] = {"value": 0.0, "unit": m.unit}
            continue
        spans = _span_names(m, names)
        if m.kind == "self_ms":
            v = 1e3 * sum(per_name[n]["self"] for n in spans) / ops
        elif m.kind == "ms":
            v = 1e3 * sum(per_name[n]["dur"] for n in spans) / ops
        elif m.kind == "calls":
            if m.site is None:
                v = sum(per_name[n]["calls"] for n in spans) / ops
            else:
                v = sum(per_name_site[(n, m.site)] for n in spans) / ops
        elif m.kind == "counter":
            v = tracer.counters.get(m.counter, 0.0) / ops
        elif m.kind == "ratio":
            calls = sum(per_name[n]["calls"] for n in spans)
            v = len(tracer.keys.get(m.counter, ())) / calls if calls else 0.0
        elif m.name == "algebra.catalogue_specs.ms":
            v = catalogue_ms
        elif m.name == "trace_overhead_frac":
            v = overhead_frac
        else:
            raise ValueError(f"unknown metric kind {m.kind}")
        metrics[m.name] = {"value": float(v), "unit": m.unit}

    # per-operation counts: a count later changes cite must not vary by operation
    per_op = {}
    for name in EXACT_COUNTS:
        per_op[f"{name}.calls"] = sorted({per_op_calls[r][name] for r in op_roots})
    distinct = defaultdict(int)
    for root, _, _ in tracer.keys.get("bench.baseline_descriptor", ()):
        distinct[root] += 1
    per_op["bench.baseline_descriptor.useful_ratio"] = sorted(
        {
            distinct[r] / per_op_calls[r]["bench.baseline_descriptor"]
            for r in op_roots
            if per_op_calls[r]["bench.baseline_descriptor"]
        }
    )
    detail = {
        "traced_ops": ops,
        "spans": len(parent),
        "absent": absent,
        "not_exercised": [
            m.name for m in METRICS if m.name not in absent and m.kind != "special" and metrics[m.name]["value"] == 0.0
        ],
        "per_op_counts": per_op,
        "counts_repeat": all(len(v) <= 1 for v in per_op.values()),
        "moves": MOVES,
    }
    return metrics, detail
