#!/usr/bin/env python3
"""Regenerate reference.json: feature vectors the extract workloads must reproduce.

Run from the root of a source checkout, on the commit whose features are the
reference:

    python3 perfbench/make_reference.py

The extract workloads compare these inputs' features against the stored
vectors (relative drift at most 1e-12, identical validity) whenever they
run with one of the stored seeds.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import OUT, import_library  # noqa: E402
from workloads import REFERENCE_PATH, ExtractLarge, ExtractSmall  # noqa: E402

#: (workload, seeds, input indices): small image 0; large images on both
#: sides of the summation switch
STORED = (
    (ExtractSmall, range(32), (0,)),
    (ExtractLarge, range(16), (0, 3)),
)


def main() -> int:
    lib = import_library()
    workdir = OUT / "reference-work"
    workdir.mkdir(parents=True, exist_ok=True)
    data = {}
    try:
        for cls, seeds, items in STORED:
            per_seed = {}
            for seed in seeds:
                w = cls(lib, seed, workdir)
                w.setup()
                per_seed[str(seed)] = {
                    str(i): {"values": [float(v) for v in fv.values], "valid": [bool(v) for v in fv.valid]}
                    for i, fv in ((i, w.run(i)) for i in items)
                }
            data[cls.name] = per_seed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
