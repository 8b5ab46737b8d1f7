"""Per-layer tracing of crgeo, wrapped from outside the package.

``Tracer.install_crgeo`` replaces the public functions of each crgeo
module by timing wrappers, in every module namespace that binds them
(``curvature_from_connection`` is imported by name into
``pseudohermitian`` and ``constructions``, ``render_report`` into
``cli``).  Function-local imports such as ``from .chart import
jet_data_multi`` resolve through the module attribute at call time, so
they reach the wrapper without a separate binding.

Spans form a stack.  A span's self time is its duration minus the part
covered by the spans it encloses; its total time is counted only for the
outermost active span of a name, so recursion and nested members of one
group (``constructions.build``, ``metric.tensor``) are not counted twice.
Time spent in the counting hooks is charged to no span.

Blind spots, by design (private names are not wrapped):

* products made by ``pseudohermitian._jet_outer`` and by ``jet_solve``'s
  internal ``jets._jet_matmul`` are not counted by ``jets.mul``; their
  time lands in the self time of the enclosing span, usually
  ``chart.jet_data_multi`` (or ``jets.jet_solve`` for ``_jet_matmul``);
* private helpers such as ``metric._christoffel_arrays`` are charged to
  their caller; the public functions they call (``inverse_metric``) are
  still spans;
* references captured before installation (closures over a function
  object) bypass the wrappers; crgeo holds none for the wrapped names.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time

MAX_ORDER = 5

RECORDS = (
    "structure", "webster", "comparison", "submersion",
    "fefferman", "rescale", "theorem2", "negative",
)

# span name -> (module, public function names); each name is wrapped in
# every crgeo module that binds the same function object
SPANS = {
    "verify.render_report": ("verify", ("render_report",)),
    "constructions.build": ("constructions", (
        "make_kahler_einstein", "make_product_base", "anticanonical_structure",
        "fefferman_metric", "einstein_rescale", "explicit_einstein_metric",
    )),
    "chart.jet_data_multi": ("chart", ("jet_data_multi",)),
    "jets.jet_solve": ("jets", ("jet_solve",)),
    "metric.orthonormal_frame": ("metric", ("orthonormal_frame",)),
    "pseudohermitian.levi_adapted_frame": ("pseudohermitian", ("levi_adapted_frame",)),
    "metric.tensor": ("metric", (
        "riemann", "christoffel", "curvature_from_connection", "covariant_from_arrays",
        "inverse_metric", "killing_residual", "conformal_ricci_correction",
    )),
}

CRGEO_MODULES = ("cli", "verify", "constructions", "pseudohermitian", "metric", "chart", "jets")


class SpanStats:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    """Span stack, per-name span statistics and the layer counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list[float]] = []
        self.stats: dict[str, SpanStats] = {}
        self.covered_s = 0.0
        self.jdm_calls_order = [0] * (MAX_ORDER + 1)
        # key -> fields; holding the fields keeps their ids from being reused
        self.jdm_seen: dict[tuple, tuple] = {}
        # (a shape, b shape or None) -> calls; costs are computed at summary time
        self.mul_shapes: dict[tuple, int] = {}
        self.points: dict[str, int] = {}
        self.restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper of ``fn`` as span ``name``; ``hook`` sees the arguments.

        Kept flat (no helper calls) because it runs around every jet product.
        """
        tracer = self
        clock = self.clock
        stack = self.stack  # frames are [start, time covered by child spans]
        stat = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_start = clock()
            if hook is not None:
                hook(*args, **kwargs)
            stat.calls += 1
            stat.depth += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                stack.pop()
                duration = now - frame[0]
                stat.self_s += duration - frame[1]
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += duration
                # the enclosing span (or the root) also excludes the hook time
                if stack:
                    stack[-1][1] += now - outer_start
                else:
                    tracer.covered_s += now - outer_start

        return wrapper

    def replace(self, owner, attr: str, value) -> None:
        self.restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self.restore:
            owner, attr, value = self.restore.pop()
            setattr(owner, attr, value)

    # -- counting hooks --------------------------------------------------
    def count_jet_data_multi(self, fields, pts, order, *_args, **_kwargs) -> None:
        import numpy as np

        arr = np.ascontiguousarray(np.atleast_2d(np.asarray(pts, dtype=float)))
        fields = tuple(fields)
        key = (
            tuple(id(f) for f in fields),
            arr.shape,
            hashlib.blake2b(arr.tobytes(), digest_size=16).digest(),
            int(order),
        )
        self.jdm_seen.setdefault(key, fields)
        self.jdm_calls_order[min(int(order), MAX_ORDER)] += 1

    def count_mul(self, a, b) -> None:
        key = (a.comp.shape, b.comp.shape if type(b) is type(a) else None)
        shapes = self.mul_shapes
        shapes[key] = shapes.get(key, 0) + 1

    def count_points(self, name: str, index: int):
        import numpy as np

        def hook(*args, **_kwargs):
            n = np.atleast_2d(args[index]).shape[0]
            self.points[name] = self.points.get(name, 0) + n

        return hook

    # -- installation ------------------------------------------------------
    def install_crgeo(self) -> None:
        import importlib

        mods = {name: importlib.import_module(f"crgeo.{name}") for name in CRGEO_MODULES}
        hooks = {
            "chart.jet_data_multi": self.count_jet_data_multi,
            # orthonormal_frame(gval, ...) and levi_adapted_frame(ph, pts, ...)
            "metric.orthonormal_frame": self.count_points("metric.orthonormal_frame", 0),
            "pseudohermitian.levi_adapted_frame":
                self.count_points("pseudohermitian.levi_adapted_frame", 1),
        }
        wrappers = {}  # id(original) -> (original, wrapper)
        for span, (home, names) in SPANS.items():
            for fname in names:
                fn = getattr(mods[home], fname)
                wrappers[id(fn)] = (fn, self.wrap(span, fn, hooks.get(span)))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.replace(mod, attr, hit[1])

        jet = mods["jets"].Jet
        mul = jet.__dict__["__mul__"]
        wrapped_mul = self.wrap("jets.mul", mul, self.count_mul)
        for attr in ("__mul__", "__rmul__"):
            if jet.__dict__.get(attr) is mul:
                self.replace(jet, attr, wrapped_mul)

        pipeline = mods["verify"].Pipeline
        for record in RECORDS:
            prop = pipeline.__dict__[f"{record}_record"]
            self.replace(prop, "func", self.wrap(f"verify.record.{record}", prop.func))

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        mul_calls_order = [0] * (MAX_ORDER + 1)
        mul_flops = mul_bytes = 0
        for (a_shape, b_shape), calls in self.mul_shapes.items():
            flops, nbytes, k = mul_cost(a_shape, b_shape)
            mul_calls_order[min(k, MAX_ORDER)] += calls
            mul_flops += calls * flops
            mul_bytes += calls * nbytes
        return {
            "spans": {
                name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
                for name, s in self.stats.items()
            },
            "covered_s": self.covered_s,
            "jdm_calls_order": list(self.jdm_calls_order),
            "jdm_distinct": len(self.jdm_seen),
            "mul_calls_order": mul_calls_order,
            "mul_flops": mul_flops,
            "mul_bytes": mul_bytes,
            "points": dict(self.points),
        }


def mul_cost(a_shape: tuple, b_shape) -> tuple[int, int, int]:
    """Computed (flops, bytes, order) of one ``Jet.__mul__`` call.

    Follows the implementation: for order k > 0 the 3**k disjoint pairs of
    the 2**k coefficient rows are gathered and multiplied (one flop per
    element), then a dense (2**k, 3**k) scatter matrix is applied (two
    flops per multiply-add).  Bytes count every array the product reads
    or materialises once, at 8 bytes per element: both operands, the two
    gathered copies, the pairwise products, the scatter matrix and the
    result.  Cache effects are ignored.  ``b_shape`` is None when the
    other factor is not a jet (a scalar or array scaling).
    """
    rows = a_shape[0]
    k = rows.bit_length() - 1
    a_batch = a_shape[1:]
    if b_shape is None:
        size = math.prod(a_shape)
        return size, 8 * 2 * size, k
    b_batch = b_shape[1:]
    batch = math.prod(a_batch if a_batch == b_batch else _broadcast(a_batch, b_batch))
    a_size, b_size = math.prod(a_shape), math.prod(b_shape)
    if k == 0:
        return batch, 8 * (a_size + b_size + batch), 0
    pairs = 3 ** k
    flops = pairs * batch + 2 * rows * pairs * batch
    elements = (
        a_size + b_size
        + pairs * math.prod(a_batch) + pairs * math.prod(b_batch)
        + pairs * batch + rows * pairs + rows * batch
    )
    return flops, 8 * elements, k


def _broadcast(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    a = (1,) * (n - len(a)) + tuple(a)
    b = (1,) * (n - len(b)) + tuple(b)
    return tuple(max(x, y) for x, y in zip(a, b))


def scale_times(summary: dict, scale: float) -> dict:
    """A copy of a summary with its span times and covered time scaled."""
    out = dict(summary, covered_s=summary["covered_s"] * scale)
    out["spans"] = {
        name: dict(span, self_s=span["self_s"] * scale, total_s=span["total_s"] * scale)
        for name, span in summary["spans"].items()
    }
    return out


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer values of one repetition: the sum over its invocations."""
    def span(name, field):
        return sum(s["spans"].get(name, {}).get(field, 0) for s in summaries)

    out: dict[str, float] = {}
    for record in RECORDS:
        out[f"verify.record.{record}_s"] = span(f"verify.record.{record}", "total_s")
    out["verify.render_report_s"] = span("verify.render_report", "total_s")
    out["constructions.build_s"] = span("constructions.build", "total_s")

    calls = span("chart.jet_data_multi", "calls")
    distinct = sum(s["jdm_distinct"] for s in summaries)
    out["chart.jet_data_multi.calls"] = calls
    out["chart.jet_data_multi.distinct"] = distinct
    out["chart.jet_data_multi.useful_ratio"] = distinct / calls if calls else 0.0
    for k in range(MAX_ORDER + 1):
        out[f"chart.jet_data_multi.calls_order{k}"] = sum(s["jdm_calls_order"][k] for s in summaries)
    out["chart.jet_data_multi.self_s"] = span("chart.jet_data_multi", "self_s")
    out["chart.jet_data_multi.total_s"] = span("chart.jet_data_multi", "total_s")

    out["jets.mul.calls"] = span("jets.mul", "calls")
    for k in range(MAX_ORDER + 1):
        out[f"jets.mul.calls_order{k}"] = sum(s["mul_calls_order"][k] for s in summaries)
    out["jets.mul.self_s"] = span("jets.mul", "self_s")
    out["jets.mul.computed_flops"] = sum(s["mul_flops"] for s in summaries)
    out["jets.mul.computed_bytes"] = sum(s["mul_bytes"] for s in summaries)
    out["jets.jet_solve.calls"] = span("jets.jet_solve", "calls")
    out["jets.jet_solve.self_s"] = span("jets.jet_solve", "self_s")

    for name in ("metric.orthonormal_frame", "pseudohermitian.levi_adapted_frame"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.points"] = sum(s["points"].get(name, 0) for s in summaries)
        out[f"{name}.self_s"] = span(name, "self_s")
    out["metric.tensor.self_s"] = span("metric.tensor", "self_s")
    return out
