"""Command-line experiment runner.

One subcommand per registered experiment, plus `validate` and `list`.  Flags
override config-file fields.  Every experiment subcommand takes the same
flags, but each experiment accepts only the fields of its own schema: a flag
for a field the experiment does not read (say --n-traj on snr-input) is a
validation failure.  Exit codes: 0 success, 2 validation failure (a
malformed command line too: an unknown flag, a value of the wrong type or a
missing subcommand, with the flag as the record's field), 3 numerical-guard
failure; -h prints help and exits 0.  A failure writes one JSON record to
stderr and nothing else there: the warnings raised while validating and
running go into the record's "warnings" list.  On success they are issued
again, so the active warning filters decide what is shown.  The output
directory is made before the run; one that cannot be made or written is a
validation failure naming "out".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from pathlib import Path

from .config import ConfigError, list_experiments, parse_document, validate_config
from .errors import GuardTripError
from .experiments import run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are validation failures, not usage text."""

    def error(self, message):
        # argparse's three forms: "argument --seed: invalid int value: 'abc'",
        # "unrecognized arguments: --bogus 3", "the following arguments are
        # required: command"; the field is the flag or argument named first
        named = (re.match(r"argument (\S+?):", message)
                 or re.search(r"arguments(?: are required)?: ([^\s,]+)", message))
        raise ConfigError([(named.group(1) if named else "<arguments>", message)])


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _run(args) -> tuple[int, dict | None]:
    """Exit code and, on failure, the JSON record for one validate or experiment command."""
    if args.command == "validate":
        try:
            cfg = validate_config(_read_config(args.config))
        except ConfigError as exc:
            return EXIT_VALIDATION, exc.as_record()
        print(json.dumps(cfg.resolved, indent=2, sort_keys=True))
        return EXIT_OK, None

    try:
        bundle = run_experiment(validate_config(_load_document(args)))
    except ConfigError as exc:
        return EXIT_VALIDATION, exc.as_record()
    except GuardTripError as exc:
        return EXIT_GUARD, {"error": "numerical-guard", "message": str(exc)}
    for path in bundle.written:
        print(path)
    return EXIT_OK, None


def _fail(code: int, record: dict) -> int:
    print(json.dumps(record, indent=2, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as exc:
        return _fail(EXIT_VALIDATION, exc.as_record())

    if args.command == "list":
        for name, desc in list_experiments().items():
            print(f"{name:20s} {desc}")
        return EXIT_OK

    with warnings.catch_warnings(record=True) as caught:
        # once per location, as the default filter shows them; none raises here
        warnings.simplefilter("default")
        code, record = _run(args)
    if record is not None:
        if caught:
            record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
        return _fail(code, record)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
