import csv
import importlib.util
from pathlib import Path

from scdmi.bench import ALL_KINDS, chi2_matrix, feature_normalize, featurize, precision_recall, retrieval_class

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
