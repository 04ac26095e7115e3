import csv
import importlib.util
from pathlib import Path

from scdmi.bench import ALL_KINDS, chi2_matrix, feature_normalize, featurize, precision_recall, retrieval_class
from scdmi.synthetic import disk_masked_image
from scdmi.transforms import invariance_report, sample_color_affine, sample_shape_affine

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_retrieval_protocol_writes_the_curves_of_the_dataset(tmp_path):
    # class-by-class featurizing ranks what the whole dataset held in memory ranks
    script = load_script("run_retrieval_protocol")
    out = tmp_path / "pr_curves.csv"
    argv = ["--classes", "3", "--views", "2", "--color-transforms", "2", "--size", "48", "--seed", "1"]
    assert script.main(argv + ["--out", str(out)]) == 0
    features = featurize([item for c in range(3) for item in retrieval_class(c, 2, 2, 48, seed=1)])
    expected = []
    for kind in ALL_KINDS:
        distances = chi2_matrix(feature_normalize(*features.matrices[kind]))
        curve = precision_recall(distances, features.labels)
        expected += [
            [kind.value, repr(float(r)), repr(float(p))] for r, p in zip(curve.recall_levels, curve.precision)
        ]
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["descriptor", "recall_level", "precision"]
    assert rows[1:] == expected


def test_invariance_report_writes_the_report_of_its_transforms(tmp_path):
    script = load_script("run_invariance_report")
    out = tmp_path / "report.csv"
    assert script.main(["--seed", "2", "--size", "48", "--out", str(out)]) == 0
    # the script's defaults: 5 shape maps with det in [0.7, 1.5] and
    # condition up to 2.5 about the frame centre, 4 colour maps of condition up to 6
    shapes = tuple(
        sample_shape_affine(2 * 101 + i, det_range=(0.7, 1.5), max_condition=2.5, src_size=(48, 48)) for i in range(5)
    )
    colors = tuple(sample_color_affine(2 * 211 + i, max_condition=6.0) for i in range(4))
    report = invariance_report(disk_masked_image(2, size=48, radius_frac=0.20), shapes, colors)
    assert out.read_text() == report.to_csv()
