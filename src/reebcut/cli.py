"""Command line front door.

    reebcut <scenario> --config <file.json> [--out <dir>] [--plots] [--seed <n>]

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
configuration, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ReebcutError, ValidationError
from .reports import SCENARIOS, RunConfig, run


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reebcut",
        description="Audit disc Hamiltonians as Reeb return maps on the 3-sphere.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True,
                        help="JSON file with the scenario parameter block")
    parser.add_argument("--out", default=None,
                        help="directory for report.json and data files")
    parser.add_argument("--plots", action="store_true",
                        help="emit SVG plots alongside the report")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random audit-point sampling")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        config = RunConfig.parse(args.scenario, raw, seed=args.seed,
                                 out_dir=args.out, plots=args.plots)
    except ValidationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(config)
    except ReebcutError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3

    for check in report.checks:
        flag = "PASS" if check["pass"] else "FAIL"
        print(f"[{flag}] {check['name']}: score={check['score']:.3e} "
              f"threshold={check['threshold']:.3e}")
    print("overall:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
