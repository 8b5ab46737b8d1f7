"""Compare the report matrix of another source tree with this one's, check by check.

    python tests/report_matrix.py OLD_SRC    # OLD_SRC holds the crgeo package
    python tests/report_matrix.py REV        # a git revision of this repository, e.g. HEAD

A revision's ``src`` is exported with ``git archive`` into a temporary
directory, removed afterwards; the checkout is not touched.

The matrix is 24 ``verify run --suite all`` reports: ``--example all`` at
2, 5 and 32 points and ``complex_hyperbolic`` at 128 points, each for
m = 1, 2 and seeds 7, 42 and 1234.  Each report runs in its own
subprocess with one BLAS thread, once with ``OLD_SRC`` and once with this
tree's ``src`` first on the import path.  Rows are compared as
``moved_checks`` compares them (``test_acceptance.moved_fields``).  For
each check name with a moved row, the table gives the rows moved, the
largest change of its max_residual or value, whether any max_residual
rose, and whether every row of the new reports passes.  Below the table,
each report that is not byte-identical is named by its (example, m,
points, seed).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# test_acceptance imports crgeo; the reports themselves run in subprocesses
sys.path[:0] = [str(SRC), str(HERE)]

from source_tree import exported  # noqa: E402
from test_acceptance import GENERATED_AT, check_rows, moved_fields  # noqa: E402

# (example, m, points, seed) of every report compared
MATRIX = [
    (example, m, points, seed)
    for example, points in (("all", 2), ("all", 5), ("all", 32), ("complex_hyperbolic", 128))
    for m in (1, 2)
    for seed in (7, 42, 1234)
]


def report_text(src, example, m, points, seed) -> str:
    """The text of one ``--suite all`` report run under ``src``, without generated_at."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = ["run", "--example", example, "--m", str(m), "--suite", "all",
            "--points", str(points), "--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, "-m", "crgeo", *argv], env=env, capture_output=True, text=True
    )
    # exit 1 is a report with a failed row; anything else made no report
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(argv)} under {src}: exit {proc.returncode}\n{proc.stderr}")
    return GENERATED_AT.sub("", proc.stdout)


def summarize(pairs) -> dict:
    """Per check name: rows, moved rows, largest change, any max_residual rose, all pass.

    ``pairs`` holds (old text, new text) per report.
    """
    table: dict = {}

    def entry(name):
        return table.setdefault(
            name, {"rows": 0, "moved": 0, "largest": 0.0, "rose": False, "all_pass": True}
        )

    for old, new in pairs:
        for (_, name), row in check_rows(new).items():
            entry(name)["rows"] += 1
            entry(name)["all_pass"] &= row["pass"]
        moved = set()
        for example, name, field, a, b in moved_fields(old, new):
            moved.add((example, name))
            if field != "pass" and a is not None and b is not None:
                entry(name)["largest"] = max(entry(name)["largest"], abs(b - a))
                entry(name)["rose"] |= field == "max_residual" and b > a
        for _, name in moved:
            entry(name)["moved"] += 1
    return table


def format_table(table: dict, reports: int, moved_reports) -> str:
    """The table of :func:`summarize`, then the (example, m, points, seed) of
    each of ``moved_reports``, the reports that are not byte-identical."""
    lines = [
        f"{reports - len(moved_reports)} of {reports} reports byte-identical without generated_at",
        "",
        "| check | rows | moved | largest change | a max_residual rose | every row passes |",
        "|---|---|---|---|---|---|",
    ]
    for name, e in sorted(table.items()):
        if e["moved"]:
            lines.append(
                f"| {name} | {e['rows']} | {e['moved']} | {e['largest']:.3g} | "
                f"{'yes' if e['rose'] else 'no'} | {'yes' if e['all_pass'] else 'NO'} |"
            )
    failing = sorted(name for name, e in table.items() if not e["all_pass"] and not e["moved"])
    if failing:
        lines.append(f"unmoved checks with a failing row: {', '.join(failing)}")
    if moved_reports:
        lines += ["", "reports not byte-identical (example, m, points, seed):"]
        lines += [f"  {example}, {m}, {points}, {seed}" for example, m, points, seed in moved_reports]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="directory holding the crgeo package, or a git revision of this repository")
    with exported(parser.parse_args(argv).old) as old_src:
        return compare(old_src, MATRIX)


def compare(old_src, matrix) -> int:
    """Run ``matrix`` under both trees and print the table; 1 if a new row fails."""
    if not (Path(old_src) / "crgeo").is_dir():
        print(f"{old_src}: no crgeo package there", file=sys.stderr)
        return 2
    pairs = [(report_text(old_src, *config), report_text(SRC, *config)) for config in matrix]
    table = summarize(pairs)
    moved = [config for config, (old, new) in zip(matrix, pairs) if old != new]
    print(format_table(table, len(pairs), moved))
    return 0 if all(e["all_pass"] for e in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
