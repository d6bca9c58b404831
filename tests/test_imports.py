"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_skips_integrate_and_spatial():
    # Only phi_T needs scipy.integrate, and the icosahedron's faces are a
    # table, so neither module belongs on the import path.
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
