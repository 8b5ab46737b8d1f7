"""Benchmark of the ``verify run`` command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each repetition runs the workload's ``verify run`` invocations (m=1, then
m=2), each in a fresh child process (``child.py``).  Repetitions run for
about ``--seconds``, at least two, so that report digests of the same
seed can be compared.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics.  Every time is normalised to a reference machine
speed (see ``SPEED_REF_S``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds diagnostics that are not gated
(raw times, speed probes, calibration loop, digests).

An operation is one check row of a report.  A child that dies, prints no
parsable result, or a ``verify`` exit code of 2 (usage or construction
error) fails the whole benchmark run: it exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread in every child: the workloads are dominated by
# many small array operations, where a second thread only adds hand-off
# cost and contention with the benchmark's own processes on a small VM.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _verify_run(example: str, m: int, points: int) -> list[str]:
    return ["run", "--example", example, "--m", str(m), "--suite", "all", "--points", str(points)]


# workload -> invocations, m=1 first; the seed is appended as --seed
WORKLOADS = {
    "catalog_p32": [_verify_run("all", m, 32) for m in (1, 2)],
    "catalog_p2": [_verify_run("all", m, 2) for m in (1, 2)],
    "dense_p128": [_verify_run("complex_hyperbolic", m, 128) for m in (1, 2)],
}

# Machine-speed normalisation.  On the 2-vCPU VM the benchmark was built
# on, the machine's speed drifts by up to 2x over seconds to minutes (the
# child's CPU time tracks its wall time and nothing else runs in the
# guest): raw run medians of wall_s spread by 0.3 (IQR / median) over ten
# runs.  A numpy import in a fresh child slows down with the same phases,
# and numpy is not part of this repository, so no change here moves it.
# SPEED_PROBES such imports are timed in the gap before every invocation
# and after the last; each invocation's times are scaled by
# SPEED_REF_S / (median probe of the gaps just before and after it), and
# read as seconds at the reference speed.  Raw values are in diagnostics.
SPEED_PROBES = 3
SPEED_REF_S = 0.1

_GENERATED_AT = re.compile(r'^[ \t]*"generated_at": "[^"\n]*",?\n', re.MULTILINE)


class BenchError(Exception):
    """A failure that voids the benchmark run (no result is printed)."""


# ----------------------------------------------------------------------
# one invocation
# ----------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # children compile crgeo on every import, whatever the caller's setting,
    # so set-up time does not depend on a bytecode cache being present
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args: list[str], trace: bool) -> dict:
    """Run ``child.py`` once; returns its parsed output plus wall time and RSS."""
    cmd = [sys.executable, str(HERE / "child.py")] + (["--trace"] if trace else []) + ["--"] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT))
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be the
        # maximum over every child reaped so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(args)}")
    try:
        doc = json.loads(out)
    except ValueError as exc:
        raise BenchError(f"child printed no parsable result: {' '.join(args)}") from exc
    doc["wall_s"] = wall_s
    doc["rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    doc["cpu_s"] = usage.ru_utime + usage.ru_stime
    return doc


def report_digest(text: str) -> str:
    """SHA-256 of a report with its ``generated_at`` lines removed."""
    return hashlib.sha256(_GENERATED_AT.sub("", text).encode()).hexdigest()


def check_rows(report: dict) -> list[dict]:
    """Check rows of a single-entry or ``--example all`` report."""
    if "runs" in report:
        return [row for run in report["runs"] for row in run["checks"]]
    return list(report["checks"])


def invocation(args: list[str], trace: bool) -> dict:
    """One checked invocation: timings, digest and check-row counts."""
    doc = spawn(args, trace)
    if doc["exit_code"] == 2:
        raise BenchError(f"verify exited 2 (usage or construction error): {' '.join(args)}")
    try:
        report = json.loads(doc["report"])
        rows = check_rows(report)
        passed = [bool(row["pass"]) for row in rows]
        overall = report["overall_pass"]
    except (ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"unparsable report: {' '.join(args)}") from exc
    expected = dict(zip(args[1::2], args[2::2]))
    header_ok = (
        report.get("example") == expected["--example"]
        and str(report.get("m")) == expected["--m"]
        and str(report.get("points")) == expected["--points"]
        and str(report.get("seed")) == expected["--seed"]
    )
    ok = (
        doc["exit_code"] == 0
        and overall is True
        and header_ok
        and len(rows) > 0
        and all(passed)
    )
    return {
        "args": args,
        "traced": trace,
        "wall_s": doc["wall_s"],
        "cpu_s": doc["cpu_s"],
        "setup_s": doc["setup_s"],
        "rss_mb": doc["rss_mb"],
        "exit_code": doc["exit_code"],
        "ok": ok,
        "rows": len(rows),
        "failed_rows": passed.count(False),
        "digest": report_digest(doc["report"]),
        "trace": doc["trace"],
    }


# ----------------------------------------------------------------------
# a run: repetitions, correctness and metrics
# ----------------------------------------------------------------------

def calibrate() -> float:
    """Fixed Python + numpy loop, for the ``calib_s`` diagnostic."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * i) % 7
    a = np.arange(40_000, dtype=float).reshape(200, 200) / 40_000.0
    for _ in range(30):
        a = np.tanh(a @ a.T * 0.01)
    return time.perf_counter() - t0


def warm_up() -> None:
    """Untimed child import, so that the first timed one finds a warm page cache."""
    subprocess.run(
        [sys.executable, "-c", "import crgeo.cli"], env=child_env(), cwd=str(ROOT), check=True
    )


def speed_gap() -> list[float]:
    """``SPEED_PROBES`` numpy imports in fresh children, each timed inside the child."""
    code = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
    return [
        float(subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=str(ROOT),
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout)
        for _ in range(SPEED_PROBES)
    ]


def run_reps(invocations: list[list[str]], seconds: float, trace: bool) -> list[list[dict]]:
    """Repetitions for about ``seconds``; traced ones alternate with untraced.

    A repetition is started while the run would end nearer to ``seconds``
    with it than without it, judged by the mean repetition time so far.
    Each invocation gets ``speed_probes_s`` (the gaps around it) and its
    ``scale`` to the reference speed.
    """
    reps: list[list[dict]] = []
    gap = speed_gap()
    start = time.perf_counter()
    min_reps = 3 if trace else 2  # two untraced for the digest comparison
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + 0.5 * elapsed / len(reps) > seconds:
            return reps
        traced = trace and len(reps) % 2 == 1
        rep = []
        for args in invocations:
            inv = invocation(args, traced)
            before, gap = gap, speed_gap()
            inv["speed_probes_s"] = before + gap
            inv["scale"] = SPEED_REF_S / statistics.median(before + gap)
            rep.append(inv)
        reps.append(rep)


def at_reference_speed(reps: list[list[dict]]) -> list[list[dict]]:
    """Copies of the invocations with every time scaled by their ``scale``."""
    import tracer

    def scaled(inv: dict) -> dict:
        out = dict(inv, wall_s=inv["wall_s"] * inv["scale"], setup_s=inv["setup_s"] * inv["scale"])
        if inv["trace"] is not None:
            out["trace"] = tracer.scale_times(inv["trace"], inv["scale"])
        return out

    return [[scaled(inv) for inv in rep] for rep in reps]


def _trace_counts(trace: dict) -> dict:
    """The parts of a trace summary that must repeat exactly (no times)."""
    counts = {k: v for k, v in trace.items() if k not in ("spans", "covered_s")}
    counts["calls"] = {name: span["calls"] for name, span in trace["spans"].items()}
    return counts


def consistent(reps: list[list[dict]]) -> bool:
    """Same seed, same reports; traced repetitions also give the same counts."""
    digests: dict[tuple, set] = {}
    for inv in (inv for rep in reps for inv in rep):
        digests.setdefault(tuple(inv["args"]), set()).add(inv["digest"])
    if any(len(d) != 1 for d in digests.values()):
        return False
    counts = [[_trace_counts(inv["trace"]) for inv in rep] for rep in reps if rep[0]["traced"]]
    return all(c == counts[0] for c in counts)


def workload_wall(rep: list[dict]) -> float:
    """Wall time of one repetition: its invocations, summed."""
    return sum(inv["wall_s"] for inv in rep)


def end_to_end(reps: list[list[dict]]) -> dict[str, float]:
    invs = [inv for rep in reps for inv in rep]
    rows = sum(inv["rows"] for inv in invs)
    return {
        "wall_s": statistics.median(workload_wall(rep) for rep in reps),
        "m1_wall_s": statistics.median(rep[0]["wall_s"] for rep in reps),
        "m2_wall_s": statistics.median(rep[1]["wall_s"] for rep in reps),
        "setup_s": statistics.median(inv["setup_s"] for inv in invs),
        "peak_rss_mb": max(inv["rss_mb"] for inv in invs),
        "check_pass_share": (rows - sum(inv["failed_rows"] for inv in invs)) / rows,
    }


def per_layer(reps: list[list[dict]]) -> dict[str, float]:
    import tracer

    untraced = [rep for rep in reps if not rep[0]["traced"]]
    traced = [rep for rep in reps if rep[0]["traced"]]
    layers = [tracer.layer_metrics([inv["trace"] for inv in rep]) for rep in traced]
    # times: median over traced repetitions; counts repeat exactly (checked)
    out = {
        name: statistics.median(layer[name] for layer in layers) if unit_of(name) == "s" else value
        for name, value in layers[0].items()
    }
    traced_wall = [workload_wall(rep) for rep in traced]
    covered = [sum(inv["trace"]["covered_s"] for inv in rep) for rep in traced]
    untraced_wall = statistics.median(workload_wall(rep) for rep in untraced)
    out["trace.overhead_s"] = statistics.median(traced_wall) - untraced_wall
    out["trace.unattributed_s"] = statistics.median(w - c for w, c in zip(traced_wall, covered))
    return out


UNITS = {
    "wall_s": "s", "m1_wall_s": "s", "m2_wall_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "check_pass_share": "share",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("useful_ratio"):
        return "ratio"
    if name.endswith("computed_flops"):
        return "flop"
    if name.endswith("computed_bytes"):
        return "B"
    return "count"


def diagnostics(reps, calib, raw_metrics) -> dict:
    return {
        "calib_s": {"before": calib[0], "after": calib[1]},
        "raw_metrics": raw_metrics,
        "thread_env": THREAD_ENV,
        "python": sys.version.split()[0],
        "invocations": [
            {
                "m": int(inv["args"][inv["args"].index("--m") + 1]),
                "traced": inv["traced"],
                "wall_s": inv["wall_s"],
                "cpu_s": inv["cpu_s"],
                "scale": inv["scale"],
                "speed_probes_s": inv["speed_probes_s"],
                "setup_s": inv["setup_s"],
                "rss_mb": inv["rss_mb"],
                "rows": inv["rows"],
                "digest": inv["digest"],
                **({"jet_data_multi": {
                    "calls": sum(inv["trace"]["jdm_calls_order"]),
                    "distinct": inv["trace"]["jdm_distinct"],
                }} if inv["traced"] else {}),
            }
            for rep in reps for inv in rep
        ],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    invocations = [args + ["--seed", str(seed)] for args in WORKLOADS[workload]]
    calib = [calibrate()]
    warm_up()
    reps = run_reps(invocations, seconds, trace)
    calib.append(calibrate())
    invs = [inv for rep in reps for inv in rep]
    summarise = per_layer if trace else end_to_end
    metrics = summarise(at_reference_speed(reps))
    result = {
        "correct": all(inv["ok"] for inv in invs) and consistent(reps),
        "attempted": sum(inv["rows"] for inv in invs),
        "failed": sum(inv["failed_rows"] for inv in invs),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    return result, diagnostics(reps, calib, summarise(reps))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # no files written, in the checkout or elsewhere
    if not (SRC / "crgeo" / "cli.py").is_file():
        print(f"error: no crgeo sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result, diag = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
