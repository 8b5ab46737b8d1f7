"""Command-line driver.

    verify run --example <id> --m <1|2> --suite <name>[,<name>...]
               --points N --seed S [--tol <check>=<val>] [--out <path>]
    verify list [--machine]

Exit codes: 0 all checks pass, 1 a check failed or could not be
evaluated, 2 usage error (a run too large to allocate included).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .errors import UsageError
from .verify import SUPPORTED_M, SuiteConfig, catalog_rows, render_report, run_all, run_suite


def _parse_tols(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"tolerance override must look like name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        try:
            tol = float(value)
        except ValueError as exc:
            raise UsageError(f"bad tolerance value in {item!r}") from exc
        if name in out and out[name] != tol:
            raise UsageError(f"tolerance override for {name!r} given twice: {out[name]!r} and {tol!r}")
        out[name] = tol
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
        "fefferman,rescale,theorem2,negative (or 'all'); negative runs on the "
        "control entries only, so with --example all use 'all' to include them",
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
    # opened before any check runs, so that a path that cannot be written is found then
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext()
    except OSError as exc:
        raise UsageError(f"--out cannot be written: {args.out}: {exc.strerror}") from exc
    with out:
        report = run_all(cfg) if args.example == "all" else run_suite(cfg)
        text = render_report(report)
        sys.stdout.write(text)
        if args.out:
            out.write(text)
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
    except MemoryError as exc:
        print(f"error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
