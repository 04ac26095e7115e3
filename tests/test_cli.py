import csv
import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import scdmi.bench as bench_mod
from scdmi.bench import RECALL_LEVELS, retrieval_class
import scdmi.compiled as compiled_mod
import scdmi.engine as engine_mod
import scdmi.verify as verify_mod
from scdmi.algebra import MomentPolynomial, MonomialTerm, catalogue_specs
from scdmi.cli import main
import scdmi.cli as cli_mod
from scdmi.engine import RasterImage, scdmi50
from scdmi.errors import InvalidImage
from scdmi.ppm import read_ppm, write_ppm
from scdmi.synthetic import blob_image
from scdmi.transforms import ColorAffine, apply_color_affine


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 256, size=(9, 7, 3)).astype(np.float64) / 255.0
        img = RasterImage.from_array(rgb)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert np.array_equal(back.channels[0], img.channels[0])
        assert back.mask.all()

    def test_planes_are_contiguous_and_features_unchanged(self, tmp_path):
        # each channel plane is C-contiguous, and scdmi50 reads the same
        # features bit for bit as from the (H, W, 3) array's strided views
        raw = np.random.default_rng(1).integers(0, 256, size=(23, 17, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n17 23\n255\n" + raw.tobytes())
        img = read_ppm(path)
        assert all(plane.flags.c_contiguous for plane in img.channels)
        reference = scdmi50(RasterImage.from_array(raw.astype(np.float64) / 255.0))
        features = scdmi50(img)
        assert np.array_equal(features.values, reference.values)
        assert np.array_equal(features.valid, reference.valid)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        img = read_ppm(path)
        assert (img.width, img.height) == (2, 1)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        # the magic number is the whole first token, not its first two bytes
        for data in (b"P5\n2 2\n255\n" + bytes(4), b"P66 2 2 255\n" + bytes(12)):
            path.write_bytes(data)
            with pytest.raises(InvalidImage, match="not a binary P6 PPM"):
                read_ppm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(5))
        with pytest.raises(InvalidImage, match="truncated pixel data"):
            read_ppm(path)

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "wide.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(InvalidImage, match="maxval"):
            read_ppm(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P6\n4 4", "truncated PPM header"),
            (b"P6\n1 1\n255", "missing whitespace"),
            (b"P6\nfour 4\n255\n" + bytes(48), "malformed PPM header"),
            (b"P6\n0 4\n255\n", "bad dimensions"),
        ],
        ids=["truncated-header", "no-whitespace", "non-integer", "zero-width"],
    )
    def test_rejects_malformed_header(self, tmp_path, data, message):
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        with pytest.raises(InvalidImage, match=message):
            read_ppm(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_rejects_nonfinite_channels(self, tmp_path, bad):
        # checked before the file is opened: no file, and no byte that depends on the platform's cast
        img = blob_image(0, size=8)
        img.channels[1, 3, 4] = bad
        path = tmp_path / "bad.ppm"
        with pytest.raises(InvalidImage, match="finite"):
            write_ppm(path, img)
        assert not path.exists()

    @pytest.mark.parametrize("h, w", [(0, 5), (5, 0), (0, 0)])
    def test_write_rejects_a_frame_with_no_pixels(self, tmp_path, h, w):
        # read_ppm rejects the dimensions such a file would carry, so none is written
        img = RasterImage(np.zeros((3, h, w)), np.zeros((h, w), dtype=bool))
        path = tmp_path / "empty.ppm"
        with pytest.raises(InvalidImage, match="at least one pixel"):
            write_ppm(path, img)
        assert not path.exists()


class TestGen:
    def test_file_count_and_manifest(self, tmp_path):
        out = tmp_path / "polys"
        assert main(["gen", "--out", str(out)]) == 0
        polys = sorted(p.name for p in out.glob("*.poly"))
        assert len(polys) == 51
        assert "denominator.poly" in polys
        assert "scdmi_k0_3.poly" in polys and "scdmi_k1_25.poly" in polys
        lines = (out / "manifest.csv").read_text().strip().split("\n")
        assert lines[0] == "id,k,n,m,N,M,e,term_count"
        assert len(lines) == 51
        row3 = lines[3].split(",")
        assert row3[:2] == ["3", "0"]
        assert row3[6] == "9/2"
        assert row3[7] == "6"

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--out", str(a)])
        main(["gen", "--out", str(b)])
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()


class TestFeatures:
    def test_grayscale_flags_false(self, tmp_path):
        g = np.random.default_rng(1).uniform(0, 1, (8, 8))
        write_ppm(tmp_path / "gray.ppm", RasterImage(np.stack([g, g, g]), np.ones((8, 8), bool)))
        out = tmp_path / "out"
        assert main(["features", str(tmp_path / "gray.ppm"), "--out", str(out)]) == 0
        rows = (out / "features.csv").read_text().strip().split("\n")
        assert len(rows) == 2
        fields = rows[1].split(",")
        assert fields[51:101] == ["0"] * 50

    def test_duplicate_input_identical_rows(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", blob_image(0, size=16))
        out = tmp_path / "out"
        p = str(tmp_path / "a.ppm")
        assert main(["features", p, p, "--out", str(out)]) == 0
        rows = (out / "features.csv").read_text().strip().split("\n")
        assert rows[1] == rows[2]

    def test_channel_permutation_exactness_through_ppm(self, tmp_path):
        img = blob_image(5, size=32)
        # cyclic permutation: nonsingular, det +1, preserves the 8-bit grid
        perm = ColorAffine(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        write_ppm(tmp_path / "a.ppm", img)
        write_ppm(tmp_path / "b.ppm", apply_color_affine(img, perm))
        out = tmp_path / "out"
        assert main(["features", str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm"), "--out", str(out)]) == 0
        rows = (out / "features.csv").read_text().strip().split("\n")
        va = np.array([float(v) for v in rows[1].split(",")[1:51]])
        vb = np.array([float(v) for v in rows[2].split(",")[1:51]])
        ka = np.array([v == "1" for v in rows[1].split(",")[51:101]])
        kb = np.array([v == "1" for v in rows[2].split(",")[51:101]])
        both = ka & kb
        assert both.any()
        dev = np.abs(vb - va) / np.maximum(np.abs(va), 1e-12)
        assert dev[both].max() <= 1e-9

    def test_unreadable_file_sets_exit_code(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["features", str(tmp_path / "missing.ppm"), "--out", str(out)])
        assert rc == 2
        # partial failure still succeeds with the readable rows
        write_ppm(tmp_path / "ok.ppm", blob_image(1, size=16))
        rc = main(
            ["features", str(tmp_path / "missing.ppm"), str(tmp_path / "ok.ppm"), "--out", str(out)]
        )
        assert rc == 0

    def test_frames_under_5x5_give_their_k0_entries(self, tmp_path):
        # stencil erosion empties the k=1 domain of a small frame, and its
        # k=0 entries stand; one pixel has no colour spread, so no entry
        rng = np.random.default_rng(5)
        paths = [tmp_path / f"{n}.ppm" for n in (4, 1)]
        for path, n in zip(paths, (4, 1)):
            write_ppm(path, RasterImage.from_array(rng.uniform(size=(n, n, 3))))
        assert main(["features", *map(str, paths), "--out", str(tmp_path / "out")]) == 0
        with (tmp_path / "out" / "features.csv").open(newline="") as fh:
            valid = [row[51:] for row in list(csv.reader(fh))[1:]]
        assert valid == [["1"] * 25 + ["0"] * 25, ["0"] * 50]

    def test_program_error_propagates(self, tmp_path, monkeypatch):
        # only a bad file is reported and skipped; a fault of the program is raised
        write_ppm(tmp_path / "ok.ppm", blob_image(1, size=16))

        def broken(img):
            raise RuntimeError("fault in the feature pass")

        monkeypatch.setattr(cli_mod, "scdmi50", broken)
        with pytest.raises(RuntimeError):
            main(["features", str(tmp_path / "ok.ppm"), "--out", str(tmp_path / "out")])


class TestVerifyCommand:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--out", str(out)]) == 0
        lines = (out / "verify.csv").read_text().strip().split("\n")
        assert lines[0] == "suite,id,k,deviation,threshold,status"
        assert all(",pass" in line for line in lines[1:])
        suites = Counter(line.split(",")[0] for line in lines[1:])
        assert suites == {"oracle": 250, "color_exactness": 20, "scaling": 25, "scaling_negative_control": 25, "degeneracy": 2}
        # the rejected exponent differs from the accepted one on every row: each instance has its control
        control = [line.split(",")[1] for line in lines[1:] if line.startswith("scaling_negative_control,")]
        assert control == [f"inst{spec.id}" for spec in catalogue_specs()]

    @pytest.mark.parametrize("flag", ["--tol-shape", "--tol-color"])
    def test_gates_cannot_be_loosened(self, tmp_path, flag):
        assert main(["verify", flag, "0.05", "--out", str(tmp_path / "v")]) == 2
        assert not (tmp_path / "v").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # rejected while parsing: no suite runs and no output directory is made
        calls = []
        monkeypatch.setattr(cli_mod, "run_all", lambda **kwargs: calls.append(kwargs))
        assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "v")]) == 2
        assert not (tmp_path / "v").exists()
        assert calls == []
        assert "argument --seed: must be at least 0" in capsys.readouterr().err

    def test_injected_corruption_fails_exactly_that_instance(self, monkeypatch):
        # the suite gates scdmi50, so the corruption goes into the catalogue
        # scdmi50 compiles; k=0 and k=1 share numerator 7, so both rows fail
        target_id = 7
        specs = []
        for spec in catalogue_specs():
            if spec.id == target_id:
                first = spec.numerator.terms[0]
                corrupted = MomentPolynomial(
                    (MonomialTerm(first.coefficient + 1, first.factors),)
                    + spec.numerator.terms[1:]
                )
                spec = dataclasses.replace(spec, numerator=corrupted)
            specs.append(spec)
        monkeypatch.setattr(compiled_mod, "catalogue_specs", lambda: tuple(specs))
        compiled_mod.compiled_catalogue.cache_clear()
        try:
            rows = verify_mod.oracle_suite(seed=0, n_images=1)
        finally:
            monkeypatch.undo()
            compiled_mod.compiled_catalogue.cache_clear()
        failing = {(r.id, r.k) for r in rows if not r.passed}
        assert failing == {(f"img0_inst{target_id}", 0), (f"img0_inst{target_id}", 1)}


    def test_scaling_suite_sums_moment_vectors_only_inside_scdmi50(self, monkeypatch):
        # 2 images x 2 k, all inside scdmi50: the negative controls reuse its values;
        # every moment vector, of explicit arrays or of an image's domain, is one walk
        calls = []
        honest = engine_mod._walk

        def counting(npix, leaf):
            calls.append(npix)
            return honest(npix, leaf)

        monkeypatch.setattr(engine_mod, "_walk", counting)
        verify_mod.scaling_suite(seed=0)
        assert len(calls) == 4


def _write_manifest(folder):
    """Eight 24 px PPMs of two classes in ``folder`` and their manifest.csv;
    returns the (path, label, split) rows."""
    rows = []
    for c in range(2):
        for i in range(4):
            path = folder / f"im_{c}_{i}.ppm"
            write_ppm(path, blob_image(10 * c + i // 2, size=24))
            rows.append((str(path), f"c{c}", "train" if i == 0 else "test"))
    with (folder / "manifest.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "label", "split"])
        w.writerows([Path(path).name, label, split] for path, label, split in rows)
    return rows


def _invariance_csv(features):
    """The invariance.csv text of a dataset's in-process Features."""
    scdmi_rows = features.matrices[bench_mod.DescriptorKind.SCDMI50]
    return bench_mod.invariance_report(*scdmi_rows, features.labels).to_csv()


class TestBenchCommand:
    def test_synthetic_outputs_and_determinism(self, tmp_path, monkeypatch):
        # each layout's synthetic run, and the manifest re-run of its export, on the default
        # pool and on a pool of one worker: the outputs do not depend on the pool's size
        reports = ["accuracy.csv", "pr_curves.csv", "invariance.csv"]
        for protocol, transforms, n_items in (("classification", 4, 3 * 5), ("retrieval", 2, 3 * 10)):
            args = ["bench", "--synthetic", "--protocol", protocol, "--classes", "3",
                    "--transforms", str(transforms), "--size", "48", "--seed", "5"]
            a, b = tmp_path / protocol / "pool", tmp_path / protocol / "one"
            for out in (a, b):
                with monkeypatch.context() as m:
                    if out is b:
                        m.setattr(cli_mod, "_cpu_count", lambda: 1)
                    assert main(args + ["--out", str(out)]) == 0
                    assert main(["bench", str(a / "dataset_manifest.csv"), "--out", str(out / "manifest")]) == 0
            acc_text = (a / "accuracy.csv").read_text()
            acc_lines = acc_text.strip().split("\n")
            assert acc_lines[0] == "descriptor,accuracy"
            assert len(acc_lines) == 8
            # round-trip float formatting, no numpy repr leakage
            assert "np." not in acc_text
            for line in acc_lines[1:]:
                value = line.split(",")[1]
                assert repr(float(value)) == value
            pr_lines = (a / "pr_curves.csv").read_text().strip().split("\n")
            assert len(pr_lines) == 1 + 7 * 11
            for name in reports + ["dataset_manifest.csv"]:
                assert (a / name).read_bytes() == (b / name).read_bytes(), (protocol, name)
            for name in reports:
                assert (a / "manifest" / name).read_bytes() == (b / "manifest" / name).read_bytes(), (protocol, name)
            ppms = sorted(path.name for path in (a / "dataset").iterdir())
            assert len(ppms) == n_items and ppms == sorted(path.name for path in (b / "dataset").iterdir())
            assert all((a / "dataset" / n).read_bytes() == (b / "dataset" / n).read_bytes() for n in ppms)

    def test_class_job_holds_one_class_of_images(self, tmp_path, monkeypatch):
        # RasterImage is an unhashable dataclass: a list of weak references, not a WeakSet
        copies, alive_at_scdmi50 = [], []
        real_color, real_scdmi50 = bench_mod.apply_color_affine, bench_mod.scdmi50

        def recording(*args, **kwargs):
            img = real_color(*args, **kwargs)
            copies.append(weakref.ref(img))
            return img

        def counting(img):
            alive_at_scdmi50.append(sum(ref() is not None for ref in copies))
            return real_scdmi50(img)

        monkeypatch.setattr(bench_mod, "apply_color_affine", recording)
        monkeypatch.setattr(bench_mod, "scdmi50", counting)
        (tmp_path / "dataset").mkdir()
        names, block = cli_mod._class_job("classification", 1, 4, 48, 0, False, tmp_path)
        # class 1 of five images per class is exported under the names of items 5 to 9
        assert names == [f"dataset/class001_{i:04d}.ppm" for i in range(5, 10)]
        # and sent back as one (values, validity) block of five rows per descriptor kind
        assert block.labels.tolist() == ["class001"] * 5
        assert all(len(values) == len(valid) == 5 for values, valid in block.matrices.values())
        assert len(copies) == 4 and len(alive_at_scdmi50) == 5
        # the class's base image plus four mapped copies, of which the copies are recorded,
        # while the job runs, and no image once it has returned its rows
        assert max(alive_at_scdmi50) == 4
        assert all(ref() is None for ref in copies)

    def test_synthetic_run_generates_no_class_in_its_own_process(self, tmp_path, monkeypatch):
        # the classes are generated in the bench's worker processes: each appends its pid to a log
        log = tmp_path / "classes.log"
        real = cli_mod.classification_class

        def logging_class(c, *args):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {c}\n")
            return real(c, *args)

        monkeypatch.setattr(cli_mod, "classification_class", logging_class)
        args = ["bench", "--synthetic", "--classes", "3", "--transforms", "2", "--size", "32"]
        assert main(args + ["--out", str(tmp_path / "out")]) == 0
        calls = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(c) for _, c in calls) == [0, 1, 2]
        assert all(int(pid) != os.getpid() for pid, _ in calls)

    def test_synthetic_run_ranks_each_kind_in_a_worker(self, tmp_path, monkeypatch):
        # rank_kind is replaced by a local wrapper, as a tracer replaces it, which cannot be
        # sent to a worker by name: each kind is still ranked once, and never in this process
        log = tmp_path / "ranks.log"
        real = cli_mod.rank_kind

        def logging_rank(values, *args):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {values.shape[1]}\n")
            return real(values, *args)

        real_report = cli_mod.invariance_report

        def logging_report(values, *args):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} report{values.shape[1]}\n")
            return real_report(values, *args)

        monkeypatch.setattr(cli_mod, "rank_kind", logging_rank)
        # and so is the invariance report, once, from the SCDMI50 rows
        monkeypatch.setattr(cli_mod, "invariance_report", logging_report)
        args = ["bench", "--synthetic", "--classes", "3", "--transforms", "2", "--size", "32"]
        assert main(args + ["--out", str(tmp_path / "out")]) == 0
        calls = [line.split() for line in log.read_text().splitlines()]
        # one call per kind: SCDMI50, its halves, HU7, COLOR_MOMENTS and the two histograms; one report
        assert sorted(dims for _, dims in calls) == sorted(["7", "9", "25", "25", "50", "60", "60", "report50"])
        assert all(int(pid) != os.getpid() for pid, _ in calls)

    @pytest.mark.parametrize(
        "fails, message",
        [(None, None), ("class", "error: class 1 failed"),
         ("rank", "error: class 'class999' missing from one split")],
        ids=["success", "worker-raises", "rank-raises"],
    )
    def test_bench_leaves_no_worker_process(self, tmp_path, capsys, monkeypatch, fails, message):
        if fails == "class":
            real = cli_mod.classification_class

            def failing(c, *args):
                if c == 1:
                    raise InvalidImage("class 1 failed")
                return real(c, *args)

            monkeypatch.setattr(cli_mod, "classification_class", failing)
        if fails == "rank":
            # the last item, a test image, becomes a class of one member: every
            # rank job, run in a worker, finds the class missing from the train split
            real_assemble = cli_mod.assemble_features

            def lonely(blocks):
                features = real_assemble(blocks)
                features.labels[-1] = "class999"
                return features

            monkeypatch.setattr(cli_mod, "assemble_features", lonely)
        args = ["bench", "--synthetic", "--classes", "3", "--transforms", "2", "--size", "32"]
        assert main(args + ["--out", str(tmp_path)]) == (2 if fails else 0)
        assert multiprocessing.active_children() == []
        err = capsys.readouterr().err
        assert (message in err) if fails else err == ""
        assert (tmp_path / "accuracy.csv").exists() == (not fails)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_workers_share_the_cpus(self):
        # n workers on n CPUs run one to a CPU, so moment_tables runs its passes
        # one after the other in each; a single worker keeps every CPU
        cpus = os.sched_getaffinity(0)
        n = len(cpus)
        with cli_mod._worker_pool(n) as pool:
            counts = cli_mod._run_jobs(pool, engine_mod._cpu_count, [()] * (4 * n))
            sets = cli_mod._run_jobs(pool, os.sched_getaffinity, [(0,)] * (4 * n))
        assert counts == [1] * (4 * n)
        assert all(len(s) == 1 and s <= cpus for s in sets)
        with cli_mod._worker_pool(1) as pool:
            assert cli_mod._run_jobs(pool, engine_mod._cpu_count, [()]) == [n]
        # the parent keeps its own CPU set
        assert os.sched_getaffinity(0) == cpus

    def test_malformed_manifest_ppm_exits_with_its_message(self, tmp_path, capsys):
        rows = _write_manifest(tmp_path)
        bad = rows[5][0]
        Path(bad).write_bytes(b"P3\n2 2\n255\n" + bytes(12))
        assert main(["bench", str(tmp_path / "manifest.csv"), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {bad}: not a binary P6 PPM" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        # the worker's typed error re-raises in the bench's process with its own type
        with pytest.raises(InvalidImage, match="not a binary P6 PPM"):
            with cli_mod._worker_pool(len(rows)) as pool:
                cli_mod._run_jobs(pool, cli_mod._manifest_job, rows)
        assert multiprocessing.active_children() == []

    def test_synthetic_run_scores_the_generated_dataset(self, tmp_path):
        # the worker pool's rows and rank jobs score what featurize and run_benchmark score on the
        # whole dataset in this process
        args = ["bench", "--synthetic", "--classes", "3", "--transforms", "4", "--size", "48",
                "--seed", "2", "--clamp"]
        assert main(args + ["--out", str(tmp_path)]) == 0
        items = [item for c in range(3) for item in bench_mod.classification_class(c, 4, 48, 2, True)]
        accuracies, curves = bench_mod.run_benchmark(bench_mod.featurize(items))
        with (tmp_path / "accuracy.csv").open(newline="") as fh:
            assert list(csv.reader(fh))[1:] == [[k.value, repr(accuracies[k])] for k in bench_mod.ALL_KINDS]
        with (tmp_path / "pr_curves.csv").open(newline="") as fh:
            assert list(csv.reader(fh))[1:] == [
                [k.value, repr(float(r)), repr(float(p))]
                for k in bench_mod.ALL_KINDS
                for r, p in zip(RECALL_LEVELS, curves[k])
            ]
        with (tmp_path / "dataset_manifest.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(label, split) for _, label, split in rows] == [(label, split) for label, split, _ in items]
        assert (tmp_path / "invariance.csv").read_text() == _invariance_csv(bench_mod.featurize(items))

    def test_manifest_driven_run(self, tmp_path, monkeypatch):
        rows = _write_manifest(tmp_path)
        pooled = []
        real = cli_mod.assemble_features

        def capturing(blocks):
            features = real(blocks)
            pooled.append(features)
            return features

        monkeypatch.setattr(cli_mod, "assemble_features", capturing)
        out = tmp_path / "out"
        assert main(["bench", str(tmp_path / "manifest.csv"), "--out", str(out)]) == 0
        # the rows computed in worker processes are those of featurize in this process, bit for bit
        expected = bench_mod.featurize((label, split, read_ppm(path)) for path, label, split in rows)
        [features] = pooled
        assert features.labels.tolist() == expected.labels.tolist()
        assert features.splits.tolist() == expected.splits.tolist()
        for kind in bench_mod.ALL_KINDS:
            for got, want in zip(features.matrices[kind], expected.matrices[kind]):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # and the kinds ranked in worker processes score what run_benchmark scores in this one
        accuracies, curves = bench_mod.run_benchmark(expected)
        with (out / "accuracy.csv").open(newline="") as fh:
            assert list(csv.reader(fh))[1:] == [[k.value, repr(accuracies[k])] for k in bench_mod.ALL_KINDS]
        with (out / "pr_curves.csv").open(newline="") as fh:
            assert list(csv.reader(fh))[1:] == [
                [k.value, repr(float(r)), repr(float(p))]
                for k in bench_mod.ALL_KINDS
                for r, p in zip(RECALL_LEVELS, curves[k])
            ]

    def test_manifest_with_byte_order_mark(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        _write_manifest(tmp_path)
        plain = tmp_path / "manifest.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for manifest, out in ((plain, "a"), (marked, "b")):
            assert main(["bench", str(manifest), "--out", str(tmp_path / out)]) == 0
        for name in ("accuracy.csv", "pr_curves.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_manifest_reports_row(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("path,label,split\nx.ppm,c0,bogus\n")
        rc = main(["bench", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["c0,train", "c0,test", "c0,test"], "dataset needs at least 2 classes"),
            (["c0,train", "c0,test", "c1,train", "c1,train"], "class 'c1' missing from one split"),
        ],
        ids=["one-class", "split"],
    )
    def test_manifest_rules_apply_before_any_read(self, tmp_path, capsys, rows, message):
        # none of the named PPMs exists: the dataset rule reports, not the first read
        manifest = tmp_path / "m.csv"
        manifest.write_text("".join(f"missing{i}.ppm,{row}\n" for i, row in enumerate(rows)))
        assert main(["bench", str(manifest), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_bench_without_dataset_is_usage_error(self, tmp_path):
        # neither a manifest nor --synthetic, or both: the manifest is never silently ignored
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\n")
        for inputs in ([], [str(manifest), "--synthetic"]):
            assert main(["bench", *inputs, "--out", str(tmp_path / "o")]) == 2
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "options",
        [["--protocol", "retrieval"], ["--classes", "7"], ["--transforms", "20"], ["--size", "11"],
         ["--seed", "0"], ["--clamp"],
         ["--protocol", "retrieval", "--clamp", "--classes", "7", "--size", "11", "--seed", "3"]],
        ids=["protocol", "classes", "transforms", "size", "seed", "clamp", "all"],
    )
    def test_manifest_bench_refuses_synthetic_options(self, tmp_path, capsys, options):
        # given with a manifest, a synthetic dataset's option, even at its default
        # value, is an error before anything is written, not silently ignored
        _write_manifest(tmp_path)
        assert main(["bench", str(tmp_path / "manifest.csv"), *options, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(flag in err[0] for flag in options if flag.startswith("--"))

    @pytest.mark.parametrize(
        "option",
        [["--classes", "1"], ["--classes", "0"], ["--classes", "-1"], ["--transforms", "0"],
         ["--size", "10"], ["--size", "4"], ["--size", "0"], ["--seed", "-1"]],
        ids=["classes1", "classes0", "classes-1", "transforms0", "size10", "size4", "size0", "seed-1"],
    )
    def test_synthetic_bounds_are_usage_errors(self, tmp_path, capsys, monkeypatch, option):
        # rejected while parsing: no output directory, no class generated
        calls = []
        monkeypatch.setattr(cli_mod, "classification_class", lambda *args: calls.append(args) or [])
        assert main(["bench", "--synthetic", *option, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert calls == []
        assert f"argument {option[0]}: must be at least" in capsys.readouterr().err

    def test_smallest_synthetic_size_runs(self, tmp_path):
        for protocol in ("classification", "retrieval"):
            for seed in range(4):
                args = ["bench", "--synthetic", "--protocol", protocol, "--classes", "2", "--transforms", "1",
                        "--seed", str(seed)]
                out = tmp_path / f"{protocol}{seed}"
                assert main([*args, "--size", str(bench_mod.MIN_SYNTHETIC_SIZE), "--out", str(out)]) == 0

    def test_retrieval_protocol_writes_the_curves_of_the_dataset(self, tmp_path):
        # the retrieval layout, featurized and ranked on the pool, scores what the whole dataset
        # featurized in this process scores; its exported manifest passes a manifest bench's rules
        args = ["bench", "--synthetic", "--protocol", "retrieval", "--classes", "3", "--transforms", "2",
                "--size", "48", "--seed", "1"]
        assert main(args + ["--out", str(tmp_path)]) == 0
        items = [item for c in range(3) for item in retrieval_class(c, 2, 48, 1, False)]
        features = bench_mod.featurize(items)
        labels, splits = features.labels, features.splits
        accuracies, curves = [], []
        for kind in bench_mod.ALL_KINDS:
            distances = bench_mod.chi2_matrix(bench_mod.feature_normalize(*features.matrices[kind]))
            accuracies.append([kind.value, repr(bench_mod.knn_classify(distances, labels, splits))])
            points = zip(RECALL_LEVELS, bench_mod.precision_recall(distances, labels))
            curves += [[kind.value, repr(float(r)), repr(float(p))] for r, p in points]
        with (tmp_path / "pr_curves.csv").open(newline="") as fh:
            assert list(csv.reader(fh)) == [["descriptor", "recall_level", "precision"], *curves]
        with (tmp_path / "accuracy.csv").open(newline="") as fh:
            assert list(csv.reader(fh))[1:] == accuracies
        assert (tmp_path / "invariance.csv").read_text() == _invariance_csv(features)
        manifest = cli_mod._load_manifest(tmp_path / "dataset_manifest.csv")
        assert [row[1:] for row in manifest] == [item[:2] for item in items]
        assert all(Path(path).is_file() for path, _, _ in manifest) and len(manifest) == 3 * 5 * 2

    @pytest.mark.parametrize("protocol", ["classification", "retrieval"])
    def test_manifest_rerun_of_an_export_writes_its_invariance_report(self, tmp_path, protocol):
        # the export lists each class's base image first, so the re-run takes it as the reference;
        # its report is that of the exported PPMs, which hold no mask and 8-bit channels
        args = ["bench", "--synthetic", "--protocol", protocol, "--classes", "2", "--transforms", "2", "--size", "48"]
        assert main([*args, "--out", str(tmp_path / "synthetic")]) == 0
        manifest = tmp_path / "synthetic" / "dataset_manifest.csv"
        assert main(["bench", str(manifest), "--out", str(tmp_path / "manifest")]) == 0
        rows = cli_mod._load_manifest(manifest)
        size = len(rows) // 2
        assert [Path(path).name for path, _, _ in rows[::size]] == ["class000_0000.ppm", f"class001_{size:04d}.ppm"]
        expected = _invariance_csv(bench_mod.featurize((label, split, read_ppm(path)) for path, label, split in rows))
        assert (tmp_path / "manifest" / "invariance.csv").read_text() == expected

    def test_retrieval_protocol_clamps_its_channel_maps(self, tmp_path):
        # --clamp reaches the retrieval layout's channel maps: the run scores the clamped
        # dataset, which scores differently here from the unclamped one; the exported PPMs
        # cannot show it, since a PPM clamps every channel to [0, 1] either way
        args = ["bench", "--synthetic", "--protocol", "retrieval", "--classes", "3", "--transforms", "2",
                "--size", "48", "--seed", "3", "--clamp"]
        assert main(args + ["--out", str(tmp_path)]) == 0

        def curves(clamp):
            items = [item for c in range(3) for item in retrieval_class(c, 2, 48, 3, clamp)]
            scored = bench_mod.run_benchmark(bench_mod.featurize(items))[1]
            return [
                [k.value, repr(float(r)), repr(float(p))]
                for k in bench_mod.ALL_KINDS
                for r, p in zip(RECALL_LEVELS, scored[k])
            ]

        with (tmp_path / "pr_curves.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == curves(True)
        assert rows != curves(False)

    @pytest.mark.parametrize(
        "fault, message",
        [
            # a local wrapper put in place of bench.rank_kind, as a tracer puts one, and
            # submitted as the rank job: it has no importable name, so it cannot be sent
            (
                "def wrap(real):\n"
                "    def traced(*args):\n"
                "        return real(*args)\n"
                "    return traced\n"
                "bench.rank_kind = cli._rank_job = wrap(bench.rank_kind)\n",
                "error: cannot send traced to a worker process: ",
            ),
            # the worker's copy of the module calls this in the class job
            ("cli.classification_class = lambda *args: os._exit(3)\n", "error: a worker process died: "),
        ],
        ids=["unpicklable-job", "dead-worker"],
    )
    def test_pool_fault_ends_the_bench(self, tmp_path, fault, message):
        # run in a subprocess of its own session with a timeout, so that a pool left waiting fails
        # the test, not the suite, and its workers are killed with it
        script = (
            "import multiprocessing, os, sys\n"
            "import scdmi.bench as bench\n"
            "import scdmi.cli as cli\n"
            + fault
            + "rc = cli.main(['bench', '--synthetic', '--classes', '2', '--transforms', '1', '--size', '32',"
            " '--out', sys.argv[1]])\n"
            "print(rc, len(multiprocessing.active_children()))\n"
        )
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-c", script, str(tmp_path)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                pytest.fail("scdmi bench still running after 60 s")
        assert proc.returncode == 0, err
        # exit 2, no worker left, and one line of error
        assert out.split() == ["2", "0"]
        [line] = err.splitlines()
        assert line.startswith(message)

    def test_bench_process_does_not_import_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma, about 0.5 MB of a fresh process's peak RSS; the bench takes its
        # medians through bench._median, so a bench in a fresh process never loads it
        script = (
            "import sys\n"
            "import scdmi.cli as cli\n"
            "rc = cli.main(['bench', '--synthetic', '--classes', '2', '--transforms', '2', '--size', '24',"
            " '--out', sys.argv[1]])\n"
            "print(rc, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].split() == ["0", "False"]
