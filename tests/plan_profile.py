"""Time every op of every jet plan of a catalog run, split by kind and by chart.

    python tests/plan_profile.py EXAMPLE M POINTS [--seed SEED] [--src SRC] [--records R,..]

Builds ``verify.Pipeline(EXAMPLE, M, POINTS, SEED)`` from the crgeo package
under ``SRC`` (this tree's ``src`` by default), or one per catalog entry at
M for EXAMPLE ``all``, reads every record that ``verify run --suite all``
reads (or the ``--records`` named, e.g. ``structure,webster,comparison,
submersion`` for the Webster stage), and times each plan op alone, with one
BLAS thread.  An op is
*pulled back* when it exists because of a pull-back: its node lives on a
chart other than that of the ``jet_data_multi`` call it runs for, or it is
the pull-back node itself, or it lifts a coordinate in a plan of another
chart.  Every other op is *own chart*.  An op is *repeated* when an earlier
op of the run evaluated its node in the same context at the same jet order
and at the same points of the node's chart (the leading columns of the
call's points), and *repeated at any order* when an earlier op evaluated
that node, context and points at any jet order.  It prints the plan-op time
and count per group and per op kind; the sum excludes the reads of field
arrays and the time between ops.  Last, per record, the tree nodes built
while it was read (constructions included, charged to the record that
first reads them): the ``Chart.node`` calls, split into new nodes and
interned hits, an equal node that the chart already held.
"""

import argparse
import functools
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

RECORDS = ("structure", "webster", "comparison", "submersion", "fefferman", "rescale", "theorem2")


def kind_of(fn) -> str:
    return getattr(fn, "__name__", type(fn).__name__).strip("_")


def profile(example: str, m: int, points: int, seed: int, records=RECORDS):
    """(time, count) per (group, kind, repeated, repeated at any order), the plan
    runs per chart dimension, and per record [node calls, new nodes].

    The wrappers are removed again before it returns.
    """
    from crgeo.verify import CATALOG, Pipeline

    examples = [e for e, entry in CATALOG.items() if m in entry.ms] if example == "all" else [example]

    def reads():
        for name in examples:
            pipe = Pipeline(name, m, points, seed)
            # a negative control runs its negative suite alone
            for record in records if not pipe.entry.negative else ("negative",):
                yield record, functools.partial(getattr, pipe, f"{record}_record")

    return profile_reads(reads())


def profile_reads(reads):
    """:func:`profile` of the ``(name, read)`` pairs of ``reads``: each ``read()`` is called in
    turn, and the tree nodes it builds are charged to its ``name``."""
    import numpy as np

    from crgeo import chart as chart_module

    stats = defaultdict(lambda: [0.0, 0])
    seen, seen_any = set(), set()
    call = {}  # the chart of the jet_data_multi call in progress
    plans = Counter()
    nodes = {}
    record = {}  # the record being read
    real_multi, real_init, real_run = chart_module.jet_data_multi, chart_module._Plan.__init__, chart_module._Plan.run
    real_node = chart_module.Chart.node

    def multi(fields, *args, **kwargs):
        call["chart"] = fields[0].chart
        return real_multi(fields, *args, **kwargs)

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        # (chart, fields, keys) here, (fields, dim) before plans knew their chart
        self.profile_chart = args[0] if isinstance(args[0], chart_module.Chart) else args[0][0].chart
        nodes = {}
        for key, slot in self.slots.items():
            # (slot, order) since each node has its own order; a bare slot runs at the run's order
            slot, order = slot if isinstance(slot, tuple) else (slot, None)
            nodes.setdefault(slot, (key, order))  # a pull-back that is no op shares its operand's slot
        self.ops = [(timed(self, fn, *nodes.get(out, (None, None))), out, *rest) if fn is not None
                    else (fn, out, *rest) for fn, out, *rest in self.ops]

    def timed(plan, fn, key, node_order):
        kind = kind_of(fn)

        def op(*args):
            t0 = time.perf_counter()
            value = fn(*args)
            elapsed = time.perf_counter() - t0
            pts, run_order = plan.profile_run
            reader = call["chart"]
            if key is None:
                pulled, repeated, repeated_any = plan.profile_chart is not reader, False, False
            else:
                node, ctx = key
                pulled = node.chart is not reader or node.op == chart_module.LEAD
                at = (node, ctx, np.ascontiguousarray(pts[:, :node.chart.dim]).tobytes())
                order = run_order if node_order is None else node_order
                repeated, repeated_any = (at, order) in seen, at in seen_any
                seen.add((at, order))
                seen_any.add(at)
            entry = stats["pulled back" if pulled else "own chart", kind, repeated, repeated_any]
            entry[0] += elapsed
            entry[1] += 1
            return value

        return op

    def node(self, *args, **kwargs):
        held = len(self._nodes)
        field = real_node(self, *args, **kwargs)
        entry = nodes[record["name"]]
        entry[0] += 1
        entry[1] += len(self._nodes) > held
        return field

    def run(self, pts, *args):
        # (pts, order, held, start) before each node had its own order, (pts, held, start) since
        self.profile_run = (pts, args[0] if isinstance(args[0], int) else None)
        plans[self.profile_chart.dim] += 1
        return real_run(self, pts, *args)

    bound = [mod for name, mod in sys.modules.items()
             if name.startswith("crgeo") and getattr(mod, "jet_data_multi", None) is real_multi]
    for mod in bound:
        mod.jet_data_multi = multi
    chart_module._Plan.__init__, chart_module._Plan.run = init, run
    chart_module.Chart.node = node
    try:
        for record["name"], read in reads:
            nodes.setdefault(record["name"], [0, 0])  # listed when it builds none
            read()
    finally:
        for mod in bound:
            mod.jet_data_multi = real_multi
        chart_module._Plan.__init__, chart_module._Plan.run = real_init, real_run
        chart_module.Chart.node = real_node
    return stats, plans, dict(nodes)


def report(example, m, points, seed, stats, plans, nodes) -> str:
    total = sum(t for t, _ in stats.values())
    lines = [
        f"{example} m={m}, {points} points, seed {seed}: {sum(plans.values())} plan runs, "
        f"plan ops {total:.4f} s",
        "",
        "| group | ops | time_s | repeated ops | repeated_s | repeated at any order | any_order_s |",
        "|---|---|---|---|---|---|---|",
    ]
    for group in ("own chart", "pulled back"):
        rows = [(r, a, v) for (g, _, r, a), v in stats.items() if g == group]
        t = sum(v[0] for _, _, v in rows)
        n = sum(v[1] for _, _, v in rows)
        rt = sum(v[0] for r, _, v in rows if r)
        rn = sum(v[1] for r, _, v in rows if r)
        at = sum(v[0] for _, a, v in rows if a)
        an = sum(v[1] for _, a, v in rows if a)
        lines.append(f"| {group} | {n} | {t:.4f} | {rn} | {rt:.4f} | {an} | {at:.4f} |")
    lines += ["", "| kind | own ops | own_s | pulled-back ops | pulled-back_s |", "|---|---|---|---|---|"]
    per_kind = defaultdict(lambda: [0, 0.0, 0, 0.0])
    for (group, kind, _, _), (t, n) in stats.items():
        at = 0 if group == "own chart" else 2
        per_kind[kind][at] += n
        per_kind[kind][at + 1] += t
    for kind, (on, ot, pn, pt) in sorted(per_kind.items(), key=lambda kv: -(kv[1][1] + kv[1][3])):
        lines.append(f"| {kind} | {on} | {ot:.4f} | {pn} | {pt:.4f} |")
    lines += ["", "| record | node calls | new nodes | interned hits |", "|---|---|---|---|"]
    for name in [r for r in RECORDS + ("negative",) if r in nodes]:
        calls, new = nodes[name]
        lines.append(f"| {name} | {calls} | {new} | {calls - new} |")
    calls, new = (sum(column) for column in zip(*nodes.values())) if nodes else (0, 0)
    lines.append(f"| total | {calls} | {new} | {calls - new} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("example")
    parser.add_argument("m", type=int)
    parser.add_argument("points", type=int)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--records", default=",".join(RECORDS), help="comma-separated records to read")
    args = parser.parse_args(argv)
    records = tuple(r for r in args.records.split(",") if r)
    unknown = set(records) - set(RECORDS)
    if unknown:
        parser.error(f"unknown records: {', '.join(sorted(unknown))}")
    # before numpy is imported: one BLAS thread
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, args.src)
    stats, plans, nodes = profile(args.example, args.m, args.points, args.seed, records)
    print(report(args.example, args.m, args.points, args.seed, stats, plans, nodes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
