"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench``."""

import json
import sys
import types
from pathlib import Path

import pytest

import layers
import stats
from run import END_TO_END, Runner
from tracer import ROOT_SPAN, Tracer, root_of, self_times
from workloads import Workload


# ---------------------------------------------------------------------------
# tail rule


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1000, 99.0, 10), (999, 90.0, 99), (100, 90.0, 10), (99, 50.0, 49), (20, 50.0, 10), (19, 50.0, 9), (1, 50.0, 0)],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile, beyond):
    values = [float(i) for i in range(n)]
    value, p, b = stats.tail(values)
    assert (p, b) == (percentile, beyond)
    assert value == pytest.approx(stats.percentile(values, percentile))


def test_tail_of_small_sample_is_its_median():
    assert stats.tail([5.0, 1.0, 9.0]) == (5.0, 50.0, 1)


def test_percentile_interpolates_like_numpy():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 90.0) == pytest.approx(3.7)
    with pytest.raises(ValueError):
        stats.tail([])


def test_normalise_divides_by_mean_calibration_around_each_pass():
    # two passes: ops 0-1 between calibrations 1 and 3, op 2 between 3 and 5
    assert stats.normalise([4.0, 6.0, 8.0], [0, 2, 3], [1.0, 3.0, 5.0]) == [2.0, 3.0, 2.0]
    with pytest.raises(ValueError):
        stats.normalise([4.0], [0, 1], [1.0])


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # parent [0, 10]; children overlap ([1, 3] and [2, 5]) and one runs past
    # the parent's end ([8, 12]): covered = [1, 5] + [8, 10] = 6
    start = [0.0, 1.0, 2.0, 8.0, 2.5]
    end = [10.0, 3.0, 5.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 2]
    assert self_times(start, end, parent) == pytest.approx([4.0, 2.0, 2.5, 4.0, 0.5])


def test_self_time_of_leaf_is_duration():
    assert self_times([1.0], [4.0], [-1]) == [3.0]


def test_root_of_follows_parents():
    assert root_of([-1, 0, 1, -1, 3]) == [0, 0, 0, 3, 3]


# ---------------------------------------------------------------------------
# failure counting


class _Flaky(Workload):
    name = "flaky"

    def items(self):
        return [0, 1, 2, 3]

    def run(self, item):
        if item == 1:
            raise RuntimeError("boom")
        return item

    def check(self, item, output):
        return "bad output" if item == 2 else None

    def final_checks(self):
        return [(3, "drifted")]


def test_failures_are_counted_and_no_sample_is_dropped():
    runner = Runner(_Flaky(None, 0, None))
    runner.one_pass()
    runner.one_pass()
    failed, messages = runner.failures()
    assert len(runner.latencies) == 8
    assert failed == 6  # items 1, 2 and 3 in both passes
    assert any("RuntimeError: boom" in m for m in messages)
    assert any("drifted" in m for m in messages)


# ---------------------------------------------------------------------------
# tracing a package, including functions that no longer exist


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    engine = types.ModuleType("fakepkg.engine")
    bench = types.ModuleType("fakepkg.bench")

    def derivative_channels(img):
        return img

    def scdmi50(img):
        engine.derivative_channels(img)  # looked up at call time, like a module global
        engine.derivative_channels(img)
        return img

    for fn in (derivative_channels, scdmi50):
        fn.__module__ = "fakepkg.engine"
        setattr(engine, fn.__name__, fn)

    def knn_classify(items):
        return [bench.scdmi50(i) for i in items]

    knn_classify.__module__ = "fakepkg.bench"
    bench.knn_classify = knn_classify
    bench.scdmi50 = scdmi50  # imported by name: a second lookup site
    pkg.scdmi50 = scdmi50
    mods = {"fakepkg": pkg, "fakepkg.engine": engine, "fakepkg.bench": bench}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        sys.modules.pop(name, None)


def test_wrappers_cover_every_lookup_site_and_uninstall(fake_package):
    engine = fake_package["fakepkg.engine"]
    bench = fake_package["fakepkg.bench"]
    original = engine.scdmi50
    tr = Tracer()
    tr.install("fakepkg", ["engine", "bench", "verify"], [("algebra", "MomentPolynomial", "evaluate")])
    assert bench.scdmi50 is not original and fake_package["fakepkg"].scdmi50 is not original
    with tr.span(ROOT_SPAN):
        bench.knn_classify([1, 2])
    with tr.span(ROOT_SPAN):
        fake_package["fakepkg"].scdmi50(3)
    tr.uninstall()
    assert engine.scdmi50 is original and bench.scdmi50 is original

    metrics, detail = layers.aggregate(tr, catalogue_ms=0.0, overhead_frac=0.0)
    assert detail["traced_ops"] == 2
    assert metrics["engine.derivative_channels.calls"]["value"] == 3.0  # 6 calls over 2 ops
    assert metrics["bench.scdmi50.calls"]["value"] == 1.0  # only the bench site counts
    assert detail["per_op_counts"]["engine.derivative_channels.calls"] == [2, 4]
    assert detail["counts_repeat"] is False
    # functions, modules and methods that do not exist are reported absent, not fatal
    assert "algebra.MomentPolynomial.evaluate.calls" in detail["absent"]
    assert "engine.stable_sum.self_ms" in detail["absent"]
    assert "verify.oracle_suite.ms" in detail["absent"]
    assert "engine.scdmi50.ms" not in detail["absent"]
    assert all(metrics[m]["value"] == 0.0 for m in detail["absent"])
    assert set(metrics) == {m.name for m in layers.METRICS}


def test_probe_can_rename_span_and_count(fake_package):
    def probe(tr, span, args, kwargs):
        tr.rename(span, f"engine.scdmi50.k{args[0]}")
        tr.counters["seen"] += 1

    tr = Tracer({"engine.scdmi50": probe})
    tr.install("fakepkg", ["engine"])
    fake_package["fakepkg.engine"].scdmi50(1)
    tr.uninstall()
    assert tr.counters["seen"] == 1
    assert "engine.scdmi50.k1" in {tr.names[i] for i in tr.name}


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS
    ]
