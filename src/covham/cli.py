"""Command line front end: validate scenarios, run verification suites."""
from __future__ import annotations

import argparse
import sys

from .errors import ScenarioError
from .scenario import FORMATS, load_scenario
from .verify import SUITE_NAMES, run_verification, write_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covham",
        description="Mode dynamics of classical fields with point sources: "
                    "scenario validation and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--suite", default="all",
                     choices=SUITE_NAMES + ("all",),
                     help="which suite to run (default: all)")
    run.add_argument("--out", default=None,
                     help="report directory (default: scenario output)")
    run.add_argument("--seed", type=int, default=0,
                     help="RNG seed recorded in the report (default: 0)")
    run.add_argument("--format", default=None, choices=FORMATS,
                     help="report format (default: scenario output)")

    val = sub.add_parser("validate", help="check a scenario file and exit")
    val.add_argument("scenario", help="scenario JSON file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"{args.scenario}: valid ({scenario.field.kind} field, "
              f"{len(scenario.particles)} particle(s), "
              f"{scenario.n_per_axis}^3 modes)")
        print(f"--suite all runs: {', '.join(scenario.plan.suites)}")
        if scenario.plan.green_skip is not None:
            print("green skipped ({}): {}".format(*scenario.plan.green_skip))
        return 0

    out_dir = args.out if args.out is not None else scenario.output_dir
    fmt = args.format if args.format is not None else scenario.output_format
    try:
        report = run_verification(scenario, args.suite, seed=args.seed)
        written = write_report(report, out_dir, fmt)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for rec in report.records:
        if rec.measured is None:
            detail = rec.metadata.get("error", "no measurement")
            print(f"fail {rec.name}: {detail}")
        else:
            print(f"{rec.status} {rec.name}: measured={rec.measured:.3e} "
                  f"tolerance={rec.tolerance:.3e}")

    for path in written:
        print(f"wrote {path}")

    failed = sum(1 for r in report.records if r.status != "pass")
    total = len(report.records)
    print(f"{total - failed}/{total} checks passed")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
