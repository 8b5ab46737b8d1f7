"""Memory held and peaked per record of one ``verify run``, traced by tracemalloc.

    python tests/memory_profile.py EXAMPLE M POINTS [--seed SEED] [--src SRC]

Runs ``verify run --example EXAMPLE --m M --suite all --points POINTS``
in process (``verify.run_suite``, or ``run_all`` for EXAMPLE ``all``) from
the crgeo package under ``SRC`` (this tree's ``src`` by default), with one
BLAS thread and tracemalloc started after the imports.  The run is only
watched, through ``sys.setprofile``: a record's stretch starts when its
``<record>_record`` function is entered, outside any other record, and
ends where the next one starts, or with the run, so what the pipeline
does between two records counts towards the first (with ``all``, each
record is named with its entry).  Per stretch it
prints the memory traced at its end (*held after*), the highest traced
during it (*peak*), and the crgeo frame that ran when that peak was
reached: the innermost frame of the package at the first profile event
after it, comprehensions skipped, as file:line function, then its caller
in the package.  Memory is in MB (10^6 bytes), counted
from the start of the run; the profile hook slows the run several times
over but allocates nothing that tracemalloc traces.
"""

import argparse
import os
import sys
import tracemalloc
from pathlib import Path

RECORDS = ("structure", "webster", "comparison", "submersion", "fefferman", "rescale", "theorem2", "negative")
MB = 1e6


def profile(example: str, m: int, points: int, seed: int = 42):
    """[(name, held after, peak, frame at the peak)] per stretch of one run, in bytes, from
    ``start`` (before the first record) to the last record; then the report."""
    from crgeo import verify

    package = os.path.dirname(verify.__file__) + os.sep
    record_codes = {getattr(verify.Pipeline, f"{name}_record").func.__code__: name for name in RECORDS}
    rows = []
    current = {"name": "start", "best": 0, "where": "", "depth": 0}

    def where(frame):
        # the innermost two frames of the package, comprehensions skipped
        names = []
        while frame is not None and len(names) < 2:
            code = frame.f_code
            if code.co_filename.startswith(package) and not code.co_name.startswith("<"):
                names.append(f"{os.path.basename(code.co_filename)}:{frame.f_lineno} {code.co_name}")
            frame = frame.f_back
        return " < ".join(names)

    def close(held):
        rows.append((current["name"], held - base, current["best"] - base, current["where"]))

    def hook(frame, event, _arg):
        now, peak = tracemalloc.get_traced_memory()
        if peak > current["best"]:
            current["best"], current["where"] = peak, where(frame)
        record = record_codes.get(frame.f_code) if event in ("call", "return") else None
        if record is None:
            return
        if event == "return":
            current["depth"] -= 1
        elif current["depth"] == 0:
            close(now)
            tracemalloc.reset_peak()
            if example == "all":
                record = f"{frame.f_locals['self'].example} {record}"
            current.update(name=record, best=now, where=where(frame), depth=1)
        else:
            current["depth"] += 1

    cfg = verify.SuiteConfig(example, m, points=points, seed=seed)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    current["best"] = base
    sys.setprofile(hook)
    try:
        report = (verify.run_all if example == "all" else verify.run_suite)(cfg)
    finally:
        sys.setprofile(None)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
    close(held)
    return rows, report


def table(example, m, points, seed, rows) -> str:
    lines = [
        f"{example} m={m}, {points} points, seed {seed}: traced peak {max(r[2] for r in rows) / MB:.2f} MB",
        "",
        "| record | held after (MB) | peak (MB) | crgeo frame at the peak < its caller |",
        "|---|---|---|---|",
    ]
    lines += [f"| {name} | {held / MB:.2f} | {peak / MB:.2f} | {at} |" for name, held, peak, at in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("example")
    parser.add_argument("m", type=int)
    parser.add_argument("points", type=int)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    # before numpy is imported: one BLAS thread
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, args.src)
    rows, _ = profile(args.example, args.m, args.points, args.seed)
    print(table(args.example, args.m, args.points, args.seed, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
