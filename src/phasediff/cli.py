"""Command-line experiment runner.

One subcommand per registered experiment, plus `validate` and `list`.  Flags
override config-file fields.  Every experiment subcommand takes the same
flags, but each experiment accepts only the fields of its own schema: a flag
for a field the experiment does not read (say --n-traj on snr-input) is a
validation failure.  Exit codes: 0 success, 2 validation failure,
3 numerical-guard failure; failures emit a machine-readable JSON record on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, parse_document, validate_config
from .errors import GuardTripError
from .experiments import list_experiments, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasediff",
        description="Reproduce linear-amplifier phase-diffusion datasets as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in list_experiments().items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", type=Path, help="JSON config document (or a metadata sidecar)")
        p.add_argument("--seed", type=int, dest="master_seed", help="master RNG seed")
        p.add_argument("--out", type=str, help="output directory")
        p.add_argument("--k-order", type=int, dest="expansion_order", help="expansion truncation order")
        p.add_argument("--n-traj", type=int, dest="n_traj", help="trajectory count")
        p.add_argument("--dt", type=float, help="integration step")
        p.add_argument("--t-max", type=float, dest="t_max", help="time horizon")

    v = sub.add_parser("validate", help="validate a config document and echo the resolved form")
    v.add_argument("--config", type=Path, required=True)

    sub.add_parser("list", help="list registered experiments")
    return parser


def _read_config(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError([("--config", f"cannot read {path}: {exc.strerror or exc}")]) from exc


def _load_document(args) -> dict:
    doc: dict = {}
    if args.config is not None:
        doc = parse_document(_read_config(args.config))
    named = doc.get("experiment", args.command)
    if named != args.command:
        raise ConfigError([("experiment", f"the config is for {named!r}, not {args.command!r}")])
    doc["experiment"] = args.command
    for key in ("master_seed", "out", "expansion_order", "n_traj", "dt", "t_max"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    return doc


def _fail(record: dict, code: int) -> int:
    print(json.dumps(record, indent=2, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name, desc in list_experiments().items():
            print(f"{name:20s} {desc}")
        return EXIT_OK

    if args.command == "validate":
        try:
            cfg = validate_config(_read_config(args.config))
        except ConfigError as exc:
            return _fail(exc.as_record(), EXIT_VALIDATION)
        print(json.dumps(cfg.resolved, indent=2, sort_keys=True))
        return EXIT_OK

    try:
        doc = _load_document(args)
        cfg = validate_config(doc)
    except ConfigError as exc:
        return _fail(exc.as_record(), EXIT_VALIDATION)

    try:
        bundle = run_experiment(cfg)
    except GuardTripError as exc:
        return _fail({"error": "numerical-guard", "message": str(exc)}, EXIT_GUARD)
    for path in bundle.written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
