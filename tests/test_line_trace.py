import ast
import importlib.util
import inspect
import pathlib
import textwrap

from driftlimit import ap_stepper, classical

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" \
    / "line_trace.py"


def load_script():
    spec = importlib.util.spec_from_file_location("line_trace", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def body_lines(func) -> list:
    """Source lines of the top-level statements of a function's body,
    after its docstring."""
    source, first = inspect.getsourcelines(func)
    body = ast.parse(textwrap.dedent("".join(source))).body[0].body
    if isinstance(body[0], ast.Expr):
        body = body[1:]
    return [first - 1 + node.lineno for node in body]


def test_line_trace_lists_what_one_simulate_run_skips():
    # an 8^2 simulate run with a null classical_dt never asks for the CFL
    # step, and it steps the AP scheme
    line_trace = load_script()
    missed = line_trace.unexecuted_statements([
        ("simulate", ["simulate", "--override", "nx=8", "--override", "ny=8",
                      "--override", "t_end=1e-8"])])
    assert set(missed) == {path.name for path in
                           pathlib.Path(ap_stepper.__file__).parent.glob("*.py")}
    listed = {module: {line for line, _ in statements}
              for module, statements in missed.items()}
    stable_dt = body_lines(classical.stable_dt)
    assert len(stable_dt) > 1 and set(stable_dt) <= listed["classical.py"]
    first_of_step = body_lines(ap_stepper.APStepper.step)[0]
    assert first_of_step not in listed["ap_stepper.py"]
