"""Command-line driver.

    verify run --example <id> --m <1|2> --suite <name>[,<name>...]
               --points N --seed S [--tol <check>=<val>] [--out <path>]
    verify list [--machine]

Exit codes: 0 all checks pass, 1 a check failed or could not be
evaluated, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import UsageError
from .verify import SUPPORTED_M, SuiteConfig, catalog_rows, render_report, run_all, run_suite


def _parse_tols(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"tolerance override must look like name=value, got {item!r}")
        name, _, value = item.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad tolerance value in {item!r}") from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run residual verification suites for the chart-level "
        "Tanaka-Webster / Fefferman constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a verification suite")
    run_p.add_argument("--example", required=True, help="catalog id or 'all'")
    run_p.add_argument("--m", type=int, required=True, choices=SUPPORTED_M)
    run_p.add_argument(
        "--suite",
        default="all",
        help="comma-separated subset of webster,comparison,submersion,"
        "fefferman,rescale,theorem2 (or 'all')",
    )
    run_p.add_argument("--points", type=int, default=32)
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--tol", action="append", metavar="CHECK=VAL", default=[])
    run_p.add_argument("--out", default=None, help="also write the report to this path")

    list_p = sub.add_parser("list", help="list catalog entries")
    list_p.add_argument("--machine", action="store_true", help="structured output")
    return parser


def _cmd_run(args) -> int:
    cfg = SuiteConfig(
        example=args.example,
        m=args.m,
        suites=tuple(s.strip() for s in args.suite.split(",") if s.strip()),
        points=args.points,
        seed=args.seed,
        tol_overrides=_parse_tols(args.tol),
    )
    cfg.validate()
    if args.out:
        # found before any check runs, not after the report is printed
        out_dir = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(out_dir):
            raise UsageError(f"--out directory does not exist: {out_dir}")
        if os.path.isdir(args.out):
            raise UsageError(f"--out names a directory: {args.out}")
    report = run_all(cfg) if args.example == "all" else run_suite(cfg)
    text = render_report(report)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    return 0 if report["overall_pass"] else 1


def _cmd_list(args) -> int:
    rows = catalog_rows()
    if args.machine:
        sys.stdout.write(render_report({"catalog": rows}))
        return 0
    header = f"{'example':<22}{'m':<8}{'scal_h':<18}{'requires':<28}{'control':<9}description"
    print(header)
    print("-" * len(header))
    for row in rows:
        ms = ",".join(str(m) for m in row["m"])
        flag = "neg" if row["negative_control"] else ""
        print(
            f"{row['example']:<22}{ms:<8}{row['scal_h']:<18}"
            f"{row['requires']:<28}{flag:<9}{row['description']}"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            code = _cmd_run(args)
        else:
            code = _cmd_list(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
