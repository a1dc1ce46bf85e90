"""The package kernels work on component planes, and solve with one CG.

AST scans of the package modules:

- a call to ``np.einsum`` or ``np.cross`` is the mark of a kernel written
  on the interleaved (..., 3) layout, which numpy runs several times
  slower per element than the same work on contiguous (nx, ny) planes.
  ``grid.dot`` and ``grid.cross`` are the plane forms;
- a call to a scipy Krylov solver (``cg``, ``minres``, ``gmres`` as an
  attribute, as in ``spla.cg``) would be a second CG path beside
  ``diffusion._cg_solve``, the in-place loop every solve shares;
- a ``.solve(`` call outside a method named ``solve`` would apply a
  factor directly, beside that loop.  Inside one, it is the one
  preconditioner adapter, ``diffusion._SymmetricILU``; elsewhere a factor
  is handed to the loop as its preconditioner, ``psolve=lu.solve``, and
  never called;
- a top-level function or class that no package module names outside its
  own definition (``__init__.py``'s re-exports do not count) is reached
  only from tests: an alternative path the package never runs.  The one
  exemption is ``cli.main``, the console entry point.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "driftlimit").glob("*.py"))
INTERLEAVED = {"einsum", "cross"}
KRYLOV = {"cg", "minres", "gmres"}


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


def krylov_calls(source: str) -> list[str]:
    return [f"line {node.lineno}: {ast.unparse(node.func)}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in KRYLOV]


def test_scan_finds_krylov_calls():
    src = ("import scipy.sparse.linalg as spla\n"
           "x, info = spla.cg(A, b)\n"
           "y = scipy.sparse.linalg.gmres(A, b)[0]\n"
           "z = cg(A, b)\n"
           "w = spla.splu(A).solve(b)\n")
    assert krylov_calls(src) == ["line 2: spla.cg",
                                 "line 3: scipy.sparse.linalg.gmres"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_calls_no_scipy_krylov_solver(path):
    assert krylov_calls(path.read_text()) == []


def factor_solve_calls(source: str) -> list[str]:
    found = []

    def visit(node, in_solve):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name == "solve")
                continue
            if (not in_solve and isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "solve"):
                found.append(f"line {child.lineno}: "
                             f"{ast.unparse(child.func)}")
            visit(child, in_solve)

    visit(ast.parse(source), False)
    return found


def test_scan_finds_direct_factor_solves():
    src = ("class Scaled:\n"
           "    def solve(self, r):\n"
           "        return self.lu.solve(r / self.d) / self.d\n"
           "def factored(lu, b):\n"
           "    return lu.solve(b)\n"
           "x = spla.splu(A).solve(b)\n"
           "h = cg(N1.dot, b, psolve=lu.solve)\n")
    assert factor_solve_calls(src) == ["line 5: lu.solve",
                                       "line 6: spla.splu(A).solve"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_applies_factors_only_as_preconditioners(path):
    assert factor_solve_calls(path.read_text()) == []


ENTRY_POINTS = {("cli.py", "main")}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the modules in sources (file
    name -> text) whose name no module uses, as a name or an attribute,
    outside the definition itself."""
    definitions, uses = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        definitions += [(module, node) for node in tree.body
                        if isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.append((module, name, node.lineno))

    def used_outside(module, node):
        return any(name == node.name
                   and not (where == module
                            and node.lineno <= line <= node.end_lineno)
                   for where, name, line in uses)

    return [f"{module}: {node.name}" for module, node in definitions
            if (module, node.name) not in ENTRY_POINTS
            and not used_outside(module, node)]


def test_scan_finds_unreferenced_definitions():
    sources = {
        "a.py": ("def used():\n"
                 "    return 1\n"
                 "def only_itself(n):\n"
                 "    return only_itself(n - 1) if n else used()\n"
                 "def unused():\n"
                 "    pass\n"
                 "class Kept:\n"
                 "    pass\n"),
        "b.py": ("from . import a\n"
                 "from .a import unused\n"
                 "x = used() + a.Kept()\n"),
        "cli.py": "def main():\n    pass\n",
    }
    assert unreferenced_definitions(sources) == ["a.py: only_itself",
                                                 "a.py: unused"]


def test_every_definition_is_reached_from_the_package():
    # "No alternative solver paths that only tests reach"
    sources = {path.name: path.read_text() for path in MODULES
               if path.name != "__init__.py"}
    assert unreferenced_definitions(sources) == []
