"""Record the seed-independent outputs the benchmark checks against.

    python3 bench/make_reference.py

runs every experiment in workloads.REFERENCE_EXPERIMENTS at both scales of
its workload and writes bench/reference.json.  The committed file was made
from the phasediff seed commit; regenerate it only when an experiment's
output is meant to change, and say so where the change is reviewed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phasediff.config import validate_config  # noqa: E402
from phasediff.experiments import run_experiment  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    reference: dict = {}
    with tempfile.TemporaryDirectory(dir=workloads.REFERENCE_PATH.parent) as out:
        for scales in workloads.WORKLOADS.values():
            for scale, docs in scales.items():
                for doc in docs:
                    if doc["experiment"] not in workloads.REFERENCE_EXPERIMENTS:
                        continue
                    cfg = validate_config(dict(doc, master_seed=1, out=out))
                    for name, body in run_experiment(cfg).csv_files.items():
                        reference.setdefault(scale, {})[name] = workloads.summarize(body)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
