"""Every function of the package is reached by the command line, or is listed with its reason.

The runs below cover ``verify list`` and every record of every catalog
entry, at 2 points and, for complex_hyperbolic, at 129 points (two jet
blocks, wide enough for the staged products).  A function that none of
them calls is either kept for a reader named in :data:`UNREACHED` or is
code that nothing needs.  The runs call ``cli.main`` under a profiler in
a fresh interpreter (``python tests/test_reachability.py`` prints what
they called), since the jet engine interns its lift contexts for the
life of a process, and a test run before would have made them already.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import crgeo
from crgeo import cli

PACKAGE = Path(crgeo.__file__).resolve().parent

RUNS = [
    ["list"],
    ["list", "--machine"],
    ["run", "--example", "all", "--m", "1", "--suite", "all", "--points", "2"],
    ["run", "--example", "all", "--m", "2", "--suite", "all", "--points", "2"],
    ["run", "--example", "complex_hyperbolic", "--m", "1", "--suite", "all", "--points", "129"],
]

_PUBLIC = "public chart and jet API that the tests and demos use"
_TRACED = "named by perfbench/tracer.py's SPANS"
_F_TREE = "f's reference tree, which test_tensor_oracle.py and test_derivative_oracle.py read"

# module.qualname of each function no run reaches, with its reason
UNREACHED = {
    "chart.Chart.__repr__": "repr",
    "jets.Jet.__repr__": "repr",
    "chart._unary": "import-time factory of the elementary field functions",
    "pseudohermitian._member": "import-time decorator of the WebsterSample members",
    "chart.Chart.index": f"{_PUBLIC}: coordinates and partials by name",
    "chart.ScalarField.__init__": f"{_PUBLIC}: opaque fields, ScalarField(chart, fn)",
    "chart._opaque": f"{_PUBLIC}: the evaluation of opaque fields",
    "chart.ScalarField.__pow__": f"{_PUBLIC}: field ** exponent",
    "chart.TensorField.__call__": f"{_PUBLIC}: field(pts), the values at a point batch",
    "chart.GenericTensorField._like": f"{_PUBLIC}: algebra on generic tensors, as the tests' D",
    "pseudohermitian.ReebField._like": f"{_PUBLIC}: algebra on the solved Reeb field, as the tests'",
    "chart.derivative": f"{_PUBLIC}: one mixed partial (demo 01)",
    "chart.lie_bracket": f"{_PUBLIC}: the bracket field, the tests' reference for _bracket",
    "jets.Jet.__pow__": f"{_PUBLIC}: behind ScalarField.__pow__",
    "jets.Jet.__truediv__": f"{_PUBLIC}: behind field division",
    "jets.sin": f"{_PUBLIC}: behind chart.sin",
    "metric.MetricField.verify_signature": f"{_PUBLIC}: the signature at points, not values",
    "metric.christoffel": _TRACED,
    "metric.riemann": _TRACED,
    "pseudohermitian.levi_adapted_frame": _TRACED,
    "constructions.FeffermanChart.metric": _F_TREE,
    "pseudohermitian.PHStructure.levi_form": f"{_F_TREE}: its Levi form term",
    "chart._ComponentStack.__sub__": f"{_F_TREE}: A_theta = A_W - c theta",
}


def defined_functions() -> dict:
    """module.qualname of every function and method the package defines, by the (file,
    first line) of its code: the line of its first decorator, else of its ``def``."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    names[path, first] = f"{path.stem}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return names


def called_functions(runs) -> set:
    """The (file, first line) of every function called while ``cli.main`` runs each argv."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
    finally:
        sys.setprofile(previous)
    return {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in codes}


def test_every_function_is_reached_or_listed():
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, check=True)
    called = {(Path(file), line) for file, line in json.loads(proc.stdout)}
    unreached = {name for key, name in defined_functions().items() if key not in called}
    assert sorted(unreached - UNREACHED.keys()) == []  # reached by no run and listed nowhere
    assert sorted(UNREACHED.keys() - unreached) == []  # listed, but a run now reaches it


def test_the_profiler_is_restored():
    original = sys.getprofile()

    def outer(frame, event, arg):
        pass

    sys.setprofile(outer)
    try:
        called_functions([["list"]])
        restored = sys.getprofile()
    finally:
        sys.setprofile(original)
    assert restored is outer


if __name__ == "__main__":
    print(json.dumps(sorted([str(file), line] for file, line in called_functions(RUNS))))
