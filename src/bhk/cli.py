"""Command-line entry point.

    bhk run  --suite <name> [--config <path>] [--out <path>] [--threads N]
    bhk emit --function <name> [--transform] [--config <path>] --out <path>

Exit status: 0 all checks passed, 1 at least one row failed (or numeric
non-convergence), 2 configuration/usage error (no report written).  The only
environment influence is the THREADS override (equivalent to --threads),
applied before the numeric stack loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _apply_threads(n) -> None:
    if n is None:
        n = os.environ.get("THREADS")
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _load_config(path):
    from .report import RunConfig

    if path is None:
        return RunConfig()
    return RunConfig.from_json(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bhk",
        description="Verification CLI for Laplace-Bessel harmonic analysis "
                    "on the positive orthant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a verification suite")
    p_run.add_argument("--suite", required=True,
                       help="special | shift | transform | mean-value | "
                            "pizzetti | riesz | estimates | all")
    p_run.add_argument("--config", help="JSON config path (defaults used if omitted)")
    p_run.add_argument("--out", help="report path (default: config 'output' field)")
    p_run.add_argument("--threads", type=int, help="thread-count override")

    p_emit = sub.add_parser("emit", help="sample a corpus function to CSV")
    p_emit.add_argument("--function", required=True)
    p_emit.add_argument("--transform", action="store_true",
                        help="also write the forward transform CSV")
    p_emit.add_argument("--config", help="JSON config path")
    p_emit.add_argument("--out", required=True)
    p_emit.add_argument("--threads", type=int)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    _apply_threads(getattr(args, "threads", None))

    try:
        config = _load_config(args.config)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"bhk: config error: {exc}", file=sys.stderr)
        return 2

    from .report import SUITES, emit_grid, run_suite, write_report

    if args.command == "run":
        if args.suite not in set(SUITES) | {"all"}:
            print(f"bhk: unknown suite {args.suite!r}", file=sys.stderr)
            return 2
        report = run_suite(config, args.suite)
        out = args.out or config.output
        write_report(report, out)
        summary = report["summary"]
        for row in report["rows"]:
            if not row["pass"]:
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
    print(f"bhk: wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
