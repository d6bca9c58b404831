"""Report values of a small run matrix against ``tests/golden/reports.json``.

The matrix is ``MATRICES["golden"]`` of ``tools/report_hashes.py``, run by
its own ``run``: a fresh interpreter with one BLAS thread.  Record the file
again only together with an output change that CHANGES.md states, with the
largest relative move of each record:

    python tools/report_hashes.py run . OUT --matrix golden
    cp OUT/values.json tests/golden/reports.json
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "reports.json"


def load_report_hashes():
    spec = importlib.util.spec_from_file_location("report_hashes",
                                                  ROOT / "tools" / "report_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_match_golden_values(tmp_path):
    # Each number within 1e-12 of its column's largest magnitude (the
    # metric of report_hashes.py compare); exit codes, check names and every
    # other non-number exactly.
    report_hashes = load_report_hashes()
    assert report_hashes.run(ROOT, tmp_path, "golden") == 0
    got = json.loads((tmp_path / "values.json").read_text())
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for label, record in want.items():
        assert got[label]["exit"] == record["exit"], label
        rel, column = report_hashes._largest_difference(record["columns"], got[label]["columns"])
        assert rel <= 1e-12, (label, column, rel)
