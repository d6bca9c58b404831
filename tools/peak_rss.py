"""Peak memory of one ``exactlaws`` command, in total and per engine stage.

    python tools/peak_rss.py TREE -- ARGS...    # TREE holds src/exactlaws

Runs ``exactlaws ARGS`` twice, each time in a fresh interpreter on TREE's
package, with one OpenMP and one OpenBLAS thread and no bytecode written:

* untraced, for the peak resident set size of the process (``ru_maxrss``),
  which counts the interpreter, numpy and the BLAS as well as the arrays,
  and the resident set the command leaves at its end (``VmRSS`` of
  ``/proc/self/status``, None where there is no such file): the pages a
  later computation in the same process starts from;
* under ``tracemalloc``, for the traced peak of each engine stage: the most
  memory numpy and Python held at once while the stage ran, whatever the
  stage allocated itself.  The stages are those the tree's own stage clock
  times into ``provenance.stage_seconds`` (``_kernels.stage_clock``), each
  counted over its own time: a stage entered inside another stops the
  other's count until it is left.  Each switch of the clock charges the peak
  since the last one to the stage it leaves.  ``rest`` is the traced peak
  outside every stage.

Prints one line per number and, last, the JSON of both runs.  The command's
own output goes to standard error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path


def worker(traced: bool, argv: list[str]) -> None:
    """Run the command in this process and print the result as the last line."""
    import contextlib
    import resource
    import tracemalloc

    from exactlaws import _kernels
    from exactlaws.cli import main

    peaks = {}

    def charge(name):
        """Add the traced peak since the last charge to the stage ``name`` and
        start a new interval."""
        peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    if traced:
        timed = _kernels._StageClock.switch

        def switch(clock, name=None):
            """Charge the stage the clock leaves, its innermost open one or
            ``rest``, then switch."""
            charge(clock.open[-1] if clock.open else "rest")
            timed(clock, name)

        _kernels._StageClock.switch = switch
        tracemalloc.start()
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    result = {"exit": code}
    if traced:
        charge("rest")
        result["traced_peak_mb"] = {name: peak / 2**20 for name, peak in peaks.items()}
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["rss_at_exit_mb"] = _resident_mb()
    print(json.dumps(result))


def _resident_mb() -> float | None:
    """The resident set size now (VmRSS), in MB; None without /proc."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            lines = [line for line in status if line.startswith("VmRSS:")]
    except OSError:
        return None
    return int(lines[0].split()[1]) / 1024.0 if lines else None


def measure(tree: Path, argv: list[str], traced: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, __file__, "worker", str(int(traced)), *argv],
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["worker"]:
        worker(bool(int(args[1])), args[2:])
        return 0
    if len(args) < 3 or args[1] != "--":
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    tree, argv = Path(args[0]), args[2:]
    untraced, traced = measure(tree, argv, False), measure(tree, argv, True)
    print(f"peak_rss_mb {untraced['peak_rss_mb']:.1f}")
    at_exit = untraced["rss_at_exit_mb"]
    print(f"rss_at_exit_mb {'unknown' if at_exit is None else f'{at_exit:.1f}'}")
    for name, peak in traced["traced_peak_mb"].items():
        print(f"traced_peak_mb.{name} {peak:.1f}")
    print(json.dumps({"untraced": untraced, "traced": traced}))
    return 0 if untraced["exit"] == traced["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
