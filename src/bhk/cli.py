"""Command-line entry point.

    bhk run  --suite <name> [--config <path>] [--out <path>]
    bhk emit --function <name> [--transform] [--config <path>] --out <path>

Exit status: 0 all checks passed, 1 at least one row failed (or numeric
non-convergence, or a suite raised: its report holds a failing `suite-error`
row), 2 configuration/usage error or an --out that cannot be written (no
report written).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    from .report import SUITES, RunConfig, emit_grid, run_suite, write_report

    parser = argparse.ArgumentParser(
        prog="bhk",
        description="Verification CLI for Laplace-Bessel harmonic analysis "
                    "on the positive orthant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a verification suite")
    p_run.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p_run.add_argument("--config", help="JSON config path (defaults used if omitted)")
    p_run.add_argument("--out", help="report path (default: config 'output' field)")

    p_emit = sub.add_parser("emit", help="sample a corpus function to CSV")
    p_emit.add_argument("--function", required=True)
    p_emit.add_argument("--transform", action="store_true",
                        help="also write the forward transform CSV")
    p_emit.add_argument("--config", help="JSON config path")
    p_emit.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        config = RunConfig() if args.config is None else RunConfig.from_json(args.config)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"bhk: config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        report = run_suite(config, args.suite)
        out = args.out or config.output
        try:
            write_report(report, out)
        except OSError as exc:
            print(f"bhk: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        summary = report["summary"]
        for row in report["rows"]:
            if row["check"] == "suite-error":
                print(f"FAIL {row['suite']}/suite-error {row['inputs']['error']}: "
                      f"{row['inputs']['message']}", file=sys.stderr)
            elif not row["pass"]:
                print(f"FAIL {row['suite']}/{row['check']} "
                      f"computed={row['computed']!r} expected={row['expected']!r}",
                      file=sys.stderr)
        print(f"bhk: {summary['passed']}/{summary['total']} checks passed; "
              f"report written to {out}")
        return 0 if summary["failed"] == 0 else 1

    try:
        emit_grid(config, args.function, args.out, transform=args.transform)
    except ValueError as exc:
        print(f"bhk: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the sample CSV or its .transform.csv
        print(f"bhk: cannot write {exc.filename or args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    print(f"bhk: wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
