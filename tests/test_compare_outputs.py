import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" \
    / "compare_outputs.py"


def tree(root: pathlib.Path, files: dict) -> pathlib.Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def compare(tmp_path, files_a: dict, files_b: dict):
    a = tree(tmp_path / "a", files_a)
    b = tree(tmp_path / "b", files_b)
    run = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                         capture_output=True, text=True)
    return run.returncode, run.stdout.splitlines()


BASE = {"run/diagnostics.csv": "scheme,x,y\nap,1.0,-2.0\nap,3.0,2.0\n"
                               "classical,,\n",
        "run/stdout.txt": "done\n"}


def test_reports_the_largest_move_per_numeric_column(tmp_path):
    moved = dict(BASE, **{"run/diagnostics.csv":
                          "scheme,x,y\nap,1.0,-2.0\nap,3.5,2.0\n"
                          "classical,,\n"})
    code, lines = compare(tmp_path, BASE, moved)
    assert code == 0
    # x: move 0.5 against max|a| 3 and spread 2; y did not move
    assert lines == [
        "run/diagnostics.csv:x: max|a-b| 5.000e-01, rel. max|a| 1.667e-01, "
        "rel. spread 2.500e-01",
        "run/diagnostics.csv:y: max|a-b| 0.000e+00, rel. max|a| 0.000e+00, "
        "rel. spread 0.000e+00"]
    assert compare(tmp_path / "same", BASE, BASE) == (
        0, ["run/diagnostics.csv: identical"])


def test_structural_differences_exit_1(tmp_path):
    cases = {
        "header": {"run/diagnostics.csv": "scheme,x,z\nap,1.0,-2.0\n"
                                          "ap,3.0,2.0\nclassical,,\n"},
        "shape": {"run/diagnostics.csv": "scheme,x,y\nap,1.0,-2.0\n"},
        "text": {"run/diagnostics.csv": "scheme,x,y\nap,1.0,-2.0\n"
                                        "ap,3.0,2.0\nexplicit,,\n"},
        "one side": {"run/extra.csv": "x\n1\n"},
    }
    for case, change in cases.items():
        code, lines = compare(tmp_path / case.replace(" ", "_"), BASE,
                              dict(BASE, **change))
        assert code == 1, (case, lines)
