"""The package kernels work on component planes.

An AST scan of the package modules: a call to ``np.einsum`` or
``np.cross`` is the mark of a kernel written on the interleaved (..., 3)
layout, which numpy runs several times slower per element than the same
work on contiguous (nx, ny) planes.  ``grid.dot`` and ``grid.cross`` are
the plane forms.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "driftlimit").glob("*.py"))
INTERLEAVED = {"einsum", "cross"}


def interleaved_calls(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in INTERLEAVED
                and isinstance(f.value, ast.Name)
                and f.value.id in ("np", "numpy")):
            found.append(f"line {node.lineno}: {f.value.id}.{f.attr}")
    return found


def test_scan_finds_interleaved_calls():
    src = ("import numpy as np\n"
           "d = np.einsum('...k,...k->...', a, b)\n"
           "c = np.cross(a, b)\n"
           "e = cross(a, b)\n")
    assert interleaved_calls(src) == ["line 2: np.einsum",
                                      "line 3: np.cross"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_calls_no_interleaved_kernel(path):
    assert interleaved_calls(path.read_text()) == []
