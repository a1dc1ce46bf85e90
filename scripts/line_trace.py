#!/usr/bin/env python3
"""List the statements of src/driftlimit that the reference runs never execute.

    scripts/line_trace.py

Runs the five runs of scripts/reference_outputs.sh in this process, with
the package imported from this checkout's src/ and the outputs written to a
temporary directory, under ``sys.settrace``.  It then prints, per module of
the package, each statement that no run executed, with its line number.

A statement is any statement of a function body other than a def, a class,
an import or a docstring; module and class bodies run on import.  A
statement counts as executed when a line of its own (its whole extent for a
simple statement, its header for a compound one) was traced.
"""

import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import driftlimit  # noqa: E402
from driftlimit import cli  # noqa: E402

# the runs of scripts/reference_outputs.sh: output name and command line
REFERENCE_RUNS = (
    ("simulate", ["simulate", "--override", "t_end=1e-7",
                  "--override", "output_interval=10"]),
    ("simulate_ap", ["simulate", "--override", "dt=1e-6",
                     "--override", "t_end=1.2e-5", "--override", "scheme=ap"]),
    ("diffusion_validate", ["diffusion-validate", "--scale", "0.5"]),
    ("c_study", ["c-study", "--scale", "0.5"]),
    ("diffusion_validate_full", ["diffusion-validate"]),
)


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def _statements(body, in_function: bool, is_def_body: bool = False):
    """The audited statements of a body, with those nested in them."""
    for k, node in enumerate(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _statements(node.body, True, True)
        elif isinstance(node, ast.ClassDef):
            yield from _statements(node.body, False)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            if in_function and not (is_def_body and k == 0
                                    and _is_docstring(node)):
                yield node
            for name in ("body", "orelse", "finalbody"):
                yield from _statements(getattr(node, name, []), in_function)
            for handler in getattr(node, "handlers", []):
                yield from _statements(handler.body, in_function)


def _own_lines(node) -> range:
    """The lines of a statement outside the statements nested in it."""
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if body else node.end_lineno
    return range(node.lineno, last + 1)


def unexecuted_statements(runs) -> dict:
    """Run each (name, argv) of runs through the CLI under a line trace
    and return, per module file of the package, the (line, source) of
    each statement that no run executed."""
    package = pathlib.Path(driftlimit.__file__).parent
    prefix = str(package) + os.sep
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    with tempfile.TemporaryDirectory() as out:
        previous = sys.gettrace()
        sys.settrace(enter)
        try:
            for name, argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv + ["--out", os.path.join(out, name)])
                if code != 0:
                    raise RuntimeError(f"run {name!r} exited with {code}")
        finally:
            sys.settrace(previous)

    missed = {}
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        filename = str(path)
        missed[path.name] = sorted(
            (node.lineno, lines[node.lineno - 1].strip())
            for node in _statements(ast.parse(source).body, False)
            if not any((filename, line) in executed
                       for line in _own_lines(node)))
    return missed


def main() -> int:
    for module, statements in unexecuted_statements(REFERENCE_RUNS).items():
        print(f"{module}: {len(statements)} statements not executed")
        for line, text in statements:
            print(f"  {line:5d}  {text}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
