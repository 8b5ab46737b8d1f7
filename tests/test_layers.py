"""Layer boundary: only ``crgeo.jets`` knows the jet coefficient layout.

Every other module builds and reads jets through the public functions of
``crgeo.jets`` (``seed``, ``partials``, ``stack``, ...) and the
``Jet`` operators, so a change of layout touches ``jets.py`` alone.

Every module also reads each name it imports, or exports it in ``__all__``,
unless the import line is marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

import crgeo

SRC = Path(crgeo.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "jets.py")


def _is_jets_module(node: ast.ImportFrom) -> bool:
    return node.module == "crgeo.jets" or (node.level == 1 and node.module == "jets")


def layout_uses(source: str) -> list[str]:
    """Line-tagged reads of jet internals in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "comp":
            found.append(f"line {node.lineno}: reads .comp")
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and (
            isinstance(node.value, ast.Name) and node.value.id == "jets"
        ):
            found.append(f"line {node.lineno}: uses jets.{node.attr}")
        elif isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "Jet")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Jet")
        ):
            found.append(f"line {node.lineno}: calls Jet(...)")
        elif isinstance(node, ast.ImportFrom) and _is_jets_module(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: imports {alias.name} from jets")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_jet_layout_stays_in_jets(path):
    assert layout_uses(path.read_text()) == []


def test_boundary_check_sees_each_kind_of_use():
    source = (
        "from .jets import Jet, _convolve\n"
        "from . import jets\n"
        "x = Jet(arr)\n"
        "y = x.comp\n"
        "z = jets._mul_index(2)\n"
    )
    assert sorted(layout_uses(source)) == [
        "line 1: imports _convolve from jets",
        "line 3: calls Jet(...)",
        "line 4: reads .comp",
        "line 5: uses jets._mul_index",
    ]


def unused_imports(source: str) -> list[str]:
    """Line-tagged module-level imports that the module neither reads nor exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"line {alias.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_import_check_sees_each_kind_of_use():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from .chart import (\n"
        "    Chart,\n"
        "    OneForm,  # noqa: F401  kept bound\n"
        "    jet_data,\n"
        "    log as field_log,\n"
        ")\n"
        "from .errors import UsageError\n"
        "__all__ = ['UsageError']\n"
        "def f(c: Chart):\n"
        "    return np.zeros(sys.maxsize)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 7: jet_data", "line 8: field_log"]
