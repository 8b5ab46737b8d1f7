"""Layer boundary: only ``crgeo.jets`` knows the jet coefficient layout.

Every other module builds and reads jets through the public functions of
``crgeo.jets`` (``seed``, ``partials``, ``stack``, ``outer``, ...) and the
``Jet`` operators, so a change of layout touches ``jets.py`` alone.
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
