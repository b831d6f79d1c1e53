"""Record the columns that tests/test_experiments.py pins within a tolerance.

    python3 tests/make_golden_columns.py

runs every registered experiment at its default config with master_seed 1
and writes tests/golden_columns.json.  For each CSV it keeps the columns the
sidecar's provenance marks grid, analytic or master-equation, with their row
count, every row up to FULL_ROWS rows (else a stride sample of about SAMPLES
rows, as bench/reference.json keeps) and each column's sum and absolute sum.
The Monte Carlo columns are pinned exactly, by digest, instead.  Regenerate
the file only when an output is meant to change, and state which columns
moved and by how much.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phasediff import list_experiments, run_experiment, validate_config  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_columns.json"
KINDS = ("grid", "analytic", "master-equation")
FULL_ROWS = 512
SAMPLES = 64


def column_kinds(header: list[str], provenance: dict) -> list[str]:
    """Each column's provenance, from the sidecar's header patterns."""
    return [next(kind for pattern, kind in provenance.items() if fnmatchcase(h, pattern))
            for h in header]


def summarize(text: str, provenance: dict) -> dict:
    """Row count, stride, and each kept column's sampled rows and sums."""
    lines = text.splitlines()
    header = lines[0].split(",")
    keep = [j for j, kind in enumerate(column_kinds(header, provenance)) if kind in KINDS]
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    n = len(data)
    stride = 1 if n <= FULL_ROWS else n // SAMPLES
    return {
        "rows": n,
        "stride": stride,
        "columns": {
            header[j]: {
                "sample": data[::stride, j].tolist(),
                "fsum": math.fsum(data[:, j]),
                "l1": math.fsum(np.abs(data[:, j])),
            }
            for j in keep
        },
    }


def default_run(experiment: str, out: str) -> dict:
    """{csv name: summary} of one experiment at its default config, seed 1."""
    bundle = run_experiment(validate_config({"experiment": experiment, "master_seed": 1,
                                             "out": out}))
    return {name: summarize(text, bundle.metadata["columns"])
            for name, text in bundle.csv_files.items()}


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        golden = {experiment: default_run(experiment, out)
                  for experiment in sorted(list_experiments())}
    GOLDEN_PATH.write_text(json.dumps(golden) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
