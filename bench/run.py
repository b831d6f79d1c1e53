"""phasediff benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload sde-csv --seed 1 --seconds 55 --trace 0

Run from anywhere; it imports phasediff from the src/ tree next to this
directory and exits with code 2 when that tree is missing.  The workload runs
in this process, one experiment after another, through the calls the CLI
makes: validate_config, then run_experiment, which writes the CSVs and the
sidecar under .bench_work/ (removed at exit).

A run is as many passes as fit in --seconds, and at least two; a pass
validates, runs and writes every experiment of the workload.  Each experiment
run is checked (workloads.py) and its CSV bodies must hash the same in every
pass; a run that raises ConfigError or GuardTripError, or fails a check,
counts in "failed".

--trace 0 prints the end-to-end metrics: wall_s (median pass time over the
passes that passed every check), setup_s (median over fresh interpreters of
the time to import phasediff and validate the workload's configs) and
peak_rss_mb (this process).  --trace 1 alternates untraced and traced passes
and prints the per-layer metrics (tracer.py) and the tracing overhead; the
spans go to .bench_work/spans-<workload>-seed<seed>.json.  Lines before the
last start with "# " and carry the environment, per-pass times and failures.
The last line is the JSON result; the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 7
SCALES = ("full", "tiny")

_SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import phasediff
from phasediff.config import validate_config
for doc in json.loads(sys.argv[2]):
    validate_config(doc)
print("ready", flush=True)
"""


@dataclass
class Pass:
    index: int
    traced: bool
    wall: float
    ok: bool
    warnings: int


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _parse(argv):
    p = argparse.ArgumentParser(description="phasediff benchmark")
    p.add_argument("--workload", required=True,
                   choices=("sde-csv", "fock-phase"))
    p.add_argument("--seed", type=_seed, default=1, help="workload seed, passed as master_seed")
    p.add_argument("--seconds", type=float, default=55.0, help="time budget for the passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=SCALES, default="full",
                   help="tiny: seconds-long inputs for the benchmark's own tests")
    return p.parse_args(argv)


def cap_threads(nproc: int) -> None:
    """Hold BLAS/OpenMP pools at nproc; numpy reads these when it loads."""
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            os.environ[var] = str(nproc)


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def time_setup(docs: list[dict]) -> float:
    """Seconds from spawning a fresh interpreter until it has imported phasediff
    and validated docs."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(SRC), json.dumps(docs)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {code}")
    return elapsed


class Runner:
    """Runs passes of one workload and keeps the outcome of every experiment run."""

    def __init__(self, docs, check_experiment, reference, tracer):
        from phasediff import config, errors, experiments

        self.config = config
        self.experiments = experiments
        self.expected = (config.ConfigError, errors.GuardTripError)
        self.docs = docs
        self.check_experiment = check_experiment
        self.reference = reference
        self.tracer = tracer
        self.validate = tracer.wrap("config", self.config.validate_config)
        self.run = tracer.wrap("experiments", self.experiments.run_experiment)
        self.baseline: dict[str, dict[str, str]] = {}
        self.passes: list[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one_pass(self, traced: bool) -> Pass:
        index = len(self.passes)
        self.tracer.pass_id = index
        validate = self.validate if traced else self.config.validate_config
        run = self.run if traced else self.experiments.run_experiment
        results = []
        caught = []

        def on_warning(message, *rest):
            caught.append(message)
            self.tracer.note_warning()

        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = on_warning
            with self.tracer.patched(self.experiments) if traced else nullcontext():
                t0 = time.perf_counter()
                for doc in self.docs:
                    try:
                        results.append((doc["experiment"], run(validate(doc)), None))
                    except self.expected as exc:
                        results.append((doc["experiment"], None, f"{type(exc).__name__}: {exc}"))
                wall = time.perf_counter() - t0

        ok = True
        for experiment, bundle, error in results:
            self.attempted += 1
            problems = [error] if error else self.check(experiment, bundle.csv_files)
            if problems:
                ok = False
                self.failed += 1
                self.failures += [f"pass {index} {experiment}: {p}" for p in problems]
        p = Pass(index, traced, wall, ok, len(caught))
        self.passes.append(p)
        return p

    def check(self, experiment: str, files: dict[str, str]) -> list[str]:
        problems = self.check_experiment(experiment, files, self.reference)
        hashes = {name: hashlib.sha256(body.encode()).hexdigest() for name, body in files.items()}
        first = self.baseline.setdefault(experiment, hashes)
        if hashes != first:
            problems.append("CSV bodies differ from the first pass with the same seed")
        return problems


def _median_wall(passes: list[Pass]) -> float:
    return statistics.median(p.wall for p in passes)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "phasediff" / "__init__.py").is_file():
        print(f"error: phasediff sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    out_dir = WORK / f"{args.workload}-{os.getpid()}"
    docs = [dict(doc, master_seed=args.seed, out=str(out_dir))
            for doc in workloads.WORKLOADS[args.workload][args.scale]]
    info = {"env": environment(nproc), "workload": args.workload, "seed": args.seed,
            "scale": args.scale, "experiments": [d["experiment"] for d in docs]}

    # Setup probes run one after each pass (after one untimed probe that fills
    # the bytecode cache), so their median spans the run like wall_s does; the
    # time they take is not charged to --seconds.
    setup_runs = 0 if args.trace else SETUP_RUNS
    if setup_runs:
        time_setup(docs)
    setup = []
    runner = Runner(docs, workloads.check_experiment, workloads.load_reference(args.scale),
                    tracer.Tracer())
    try:
        start = time.perf_counter()
        while True:
            last = runner.one_pass(traced=bool(args.trace) and len(runner.passes) % 2 == 1)
            if len(setup) < setup_runs:
                setup.append(time_setup(docs))
            elapsed = time.perf_counter() - start - sum(setup)
            if len(runner.passes) >= 2 and elapsed + last.wall > args.seconds:
                break
        while len(setup) < setup_runs:
            setup.append(time_setup(docs))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    passes = runner.passes
    failed = runner.failed
    info["passes"] = [{"wall_s": p.wall, "traced": p.traced, "ok": p.ok, "warnings": p.warnings}
                      for p in passes]
    info["failed_frac"] = failed / runner.attempted
    if args.trace:
        traced = [p for p in passes if p.traced]
        metrics = runner.tracer.layer_metrics([p.index for p in traced])
        metrics["trace.traced_wall_s"] = _median_wall(traced)
        metrics["trace.untraced_wall_s"] = _median_wall([p for p in passes if not p.traced])
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / metrics["trace.untraced_wall_s"]
        metrics["trace.spans"] = len(runner.tracer.spans) / len(traced)
        WORK.mkdir(exist_ok=True)
        (WORK / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"passes": info["passes"], "spans": runner.tracer.records()}) + "\n")
    else:
        # only passes whose outputs passed count; if none did, the run is not correct anyway
        walls = sorted(p.wall for p in [p for p in passes if p.ok] or passes)
        n = len(walls)
        info["wall_s_samples"] = n
        if n > 10:
            info[f"wall_s_p{100 * (n - 10) // n}"] = walls[n - 11]
        info["setup_s_samples"] = setup
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }

    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for line in runner.failures[:20]:
        print(f"# failure: {line}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": tracer.unit(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
