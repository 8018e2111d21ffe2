"""Only ``_cdkernel`` binds the compiled kernel: no other module of the
package imports ``ctypes`` or reads an attribute named ``ctypes``, so
no other module holds a raw address."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proxqn"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _ctypes_uses(source: str) -> list[int]:
    """Lines that import ctypes (or a module of it) or read ``.ctypes``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(name.split(".")[0] == "ctypes" for name in names):
            lines.append(node.lineno)
    return lines


def test_the_scan_sees_each_form():
    source = ("import ctypes\nimport ctypes.util as u\nfrom ctypes import c_int\n"
              "a = x.ctypes.data\nb = ctypesque\n")
    assert _ctypes_uses(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "_cdkernel.py"])
def test_only_the_kernel_module_touches_ctypes(module):
    assert _ctypes_uses((PACKAGE / module).read_text()) == []


def test_the_kernel_module_is_scanned():
    assert "_cdkernel.py" in MODULES
    assert _ctypes_uses((PACKAGE / "_cdkernel.py").read_text())
