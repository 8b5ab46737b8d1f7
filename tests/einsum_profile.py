"""Time every ``np.einsum`` call site of a catalog run, per record.

    python tests/einsum_profile.py EXAMPLE M POINTS [--src SRC]

Builds ``verify.Pipeline(EXAMPLE, M, POINTS, 42)`` from the crgeo package
under ``SRC`` (this tree's ``src`` by default), or one per catalog entry at
M for EXAMPLE ``all``, reads every record that ``verify run --suite all``
reads, and times each ``np.einsum`` call, with one BLAS thread.  A call
site is the caller's file, line and function, with the subscripts.  A
record is charged with every call made while it is read first, so the
shared members it is the first to read (the Webster sample, its
curvature) count towards it.  It prints the einsum time and call count
per record, then the call sites, hottest first; ``np.einsum`` is restored
before it returns.
"""

import argparse
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

from plan_profile import RECORDS

SEED = 42


def profile(example: str, m: int, points: int, seed: int):
    """{(record, site, subscripts): [time, calls]} of one run; the wrapper is removed again."""
    import numpy as np

    from crgeo.verify import CATALOG, Pipeline

    stats = defaultdict(lambda: [0.0, 0])
    current = {"record": None}
    real = np.einsum

    def einsum(*args, **kwargs):
        t0 = time.perf_counter()
        value = real(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        caller = sys._getframe(1)
        site = f"{Path(caller.f_code.co_filename).name}:{caller.f_lineno} {caller.f_code.co_name}"
        entry = stats[current["record"], site, args[0]]
        entry[0] += elapsed
        entry[1] += 1
        return value

    examples = [e for e, entry in CATALOG.items() if m in entry.ms] if example == "all" else [example]
    np.einsum = einsum
    try:
        for name in examples:
            pipe = Pipeline(name, m, points, seed)
            # a negative control runs its negative suite alone
            for record in RECORDS if not pipe.entry.negative else ("negative",):
                current["record"] = record
                getattr(pipe, f"{record}_record")
    finally:
        np.einsum = real
    return stats


def report(example, m, points, seed, stats) -> str:
    total = sum(t for t, _ in stats.values())
    calls = sum(n for _, n in stats.values())
    lines = [
        f"{example} m={m}, {points} points, seed {seed}: {calls} einsum calls, {total:.4f} s",
        "",
        "| record | calls | time_s |",
        "|---|---|---|",
    ]
    per_record = defaultdict(lambda: [0.0, 0])
    per_site = defaultdict(lambda: [0.0, 0, []])
    for (record, site, subscripts), (t, n) in stats.items():
        for entry in (per_record[record], per_site[site, subscripts]):
            entry[0] += t
            entry[1] += n
        per_site[site, subscripts][2].append(record)
    for record in dict.fromkeys(record for record, _, _ in stats):
        t, n = per_record[record]
        lines.append(f"| {record} | {n} | {t:.4f} |")
    lines += ["", "| site | subscripts | calls | time_s | records |", "|---|---|---|---|---|"]
    for (site, subscripts), (t, n, records) in sorted(per_site.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"| {site} | `{subscripts}` | {n} | {t:.4f} | {', '.join(records)} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("example")
    parser.add_argument("m", type=int)
    parser.add_argument("points", type=int)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    # before numpy is imported: one BLAS thread
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, args.src)
    stats = profile(args.example, args.m, args.points, SEED)
    print(report(args.example, args.m, args.points, SEED, stats))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
