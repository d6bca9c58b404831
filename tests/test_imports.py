"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_skips_integrate_and_spatial():
    # phi_T runs a fixed Gauss-Legendre rule, and the icosahedron's faces
    # are a table, so neither module belongs on the import path.
    code = (
        "import sys, exactlaws\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'spatial'])))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_loads_no_scipy():
    # Every transform runs on numpy's pocketfft; scipy costs about 0.4 s and
    # 20 MB at import.
    assert run_python(f"import sys, exactlaws, exactlaws.cli\n{SCIPY_LOADED}\n") == "[]"


def test_operations_load_no_scipy(tmp_path):
    # A lazy scipy import on an operation path would bring that cost back.
    # Nor may an operation load numpy.polynomial: the radial Gauss-Legendre
    # rule is built by Newton's method, not by leggauss's LAPACK eigensolver.
    v = tmp_path / "v.fld"
    argvs = [
        ["gen", "--kind", "random", "--n", "16", "--kmin", "2", "--kmax", "5", "--out", str(v)],
        ["analyze", "--law", "helicity", "--v", str(v), "--scales", "0.2:0.8:2",
         "--dirs", "icosa:0", "--out", str(tmp_path / "a")],
        ["dissipation", "--law", "helicity", "--v", str(v), "--radial-nodes", "4",
         "--dirs", "icosa:0", "--out", str(tmp_path / "d")],
        ["verify", "--suite", "ballshell", "--n", "16", "--dirs", "icosa:0",
         "--out", str(tmp_path / "r")],
        ["selftest", "--out", str(tmp_path / "s")],
    ]
    code = (
        "import sys\n"
        "from exactlaws.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m.split('.')[:2] == ['numpy', 'polynomial']))\n"
    )
    assert run_python(code) == "[]"
