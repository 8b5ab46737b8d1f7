"""Paired fresh-process runs of one ``verify`` command line under another source tree and this one.

    python tests/inprocess_pairs.py OLD [--pairs N] -- <verify argv>
    python tests/inprocess_pairs.py HEAD --pairs 10 -- run --example all --m 2 --suite all --points 2

``OLD`` holds the crgeo package, or is a git revision of this repository,
whose ``src`` is exported as ``tests/report_matrix.py`` exports it, into a
temporary directory; the checkout is not touched.  Each of the ``N``
pairs (10 by default) runs the command once under ``OLD`` and once under
this tree's ``src``, each in a fresh process with one BLAS thread and
PYTHONDONTWRITEBYTECODE=1; the side that runs first alternates from pair
to pair.  Both packages are copied first without their bytecode caches,
so every child compiles crgeo's sources, as perfbench's children do.  A
child times ``import crgeo.cli`` (numpy included), then
``crgeo.cli.main(argv)`` alone, with its output sent to /dev/null, and
reads its own rusage: ``ru_maxrss`` (MB as perfbench counts them, KiB /
1024) and ``ru_minflt``.  Per side the table gives the median and the
quartiles of each measure, and the pairs in which that side read lower.

On Linux a child's ``ru_maxrss`` also counts the peak RSS of the process
it was spawned from, recorded at exec; so this process imports nothing
beyond the standard library, and its own peak (``VmHWM``, which its own
``ru_maxrss`` can exceed in the same way) is printed below the table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from source_tree import REPO, exported  # noqa: E402

SRC = REPO / "src"
CHILD = """\
import contextlib, json, os, resource, sys, time
t0 = time.perf_counter()
import crgeo.cli
t1 = time.perf_counter()
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = crgeo.cli.main(sys.argv[1:])
t2 = time.perf_counter()
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"exit": code, "import_s": t1 - t0, "main_s": t2 - t1,
                  "maxrss_mb": usage.ru_maxrss / 1024.0, "minflt": usage.ru_minflt}))
"""
# (key, label, format) of each measure, as the child reports it
MEASURES = (
    ("import_s", "import crgeo.cli (s)", ".4f"),
    ("main_s", "crgeo.cli.main (s)", ".4f"),
    ("maxrss_mb", "ru_maxrss (MB)", ".2f"),
    ("minflt", "ru_minflt", ".0f"),
)


def run_child(src, argv) -> dict:
    """The measures of one fresh process running ``verify argv`` under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True)
    # exit 1 is a report with a failed row; anything else made no report
    doc = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 and proc.stdout else {}
    if doc.get("exit") not in (0, 1):
        raise RuntimeError(f"verify {' '.join(argv)} under {src}: exit {doc.get('exit', proc.returncode)}\n"
                           f"{proc.stderr}")
    return doc


def run_pairs(old_src, new_src, argv, pairs: int):
    """([old measures], [new measures]), one of each per pair, the first side alternating."""
    old, new = [], []
    for i in range(pairs):
        if i % 2:
            new.append(run_child(new_src, argv))
            old.append(run_child(old_src, argv))
        else:
            old.append(run_child(old_src, argv))
            new.append(run_child(new_src, argv))
    return old, new


def quartiles(values):
    """(first quartile, median, third quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def table(old, new) -> str:
    """Per measure and side: the median, the quartiles and the pairs read lower on that side."""
    lines = [
        f"{len(old)} pairs, the first side alternating",
        "",
        "| measure | old median | old q1 - q3 | old lower in | new median | new q1 - q3 | new lower in |",
        "|---|---|---|---|---|---|---|",
    ]
    for key, label, fmt in MEASURES:
        a, b = [x[key] for x in old], [x[key] for x in new]
        cells = []
        for side, other in ((a, b), (b, a)):
            q1, med, q3 = quartiles(side)
            won = sum(x < y for x, y in zip(side, other))
            cells.append(f"{med:{fmt}} | {q1:{fmt}} - {q3:{fmt}} | {won} of {len(side)}")
        lines.append(f"| {label} | {' | '.join(cells)} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: inprocess_pairs.py OLD [--pairs N] -- <verify argv>", file=sys.stderr)
        return 2
    cut = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="directory holding the crgeo package, or a git revision of this repository")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv[:cut])
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with exported(args.old) as old_src, tempfile.TemporaryDirectory() as tmp:
        if not (Path(old_src) / "crgeo").is_dir():
            print(f"{old_src}: no crgeo package there", file=sys.stderr)
            return 2
        sides = [Path(tmp) / side for side in ("old", "new")]
        for side, src in zip(sides, (old_src, SRC)):
            shutil.copytree(Path(src) / "crgeo", side / "crgeo", ignore=shutil.ignore_patterns("__pycache__"))
        old, new = run_pairs(*sides, argv[cut + 1:], args.pairs)
    print(table(old, new))
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024.0
    print(f"\nthis process's own peak RSS: {own:.2f} MB (a child's ru_maxrss counts it where it is higher)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
