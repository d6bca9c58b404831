"""The benchmark's tracer wraps library functions by name; they must exist."""

import importlib.util
from pathlib import Path

import numpy as np

import exactlaws
from exactlaws import _kernels, laws

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls():
    # A rename of a wrapped name fails install here, and a change of how the
    # engine is called (the wrapper reads StatsEngine's fields argument by
    # position) fails the traced sweep.
    tracing = load_tracer()
    originals = (exactlaws.sweep_structure, _kernels.StatsEngine.__init__)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert laws.sweep_structure is not originals[0]
        grid = exactlaws.make_grid(8)
        v = exactlaws.VectorField3(grid, np.random.default_rng(0).standard_normal((3, 8, 8, 8)))
        exactlaws.sweep_structure(
            exactlaws.LawKind.HELICITY, v, [0.2, 0.4], exactlaws.direction_set_icosa(0)
        )
        # The sweep takes the vorticity from the engine's spectrum of v, so
        # the grid.curl wrapper is exercised by a call of its own.
        exactlaws.curl(v)
    finally:
        tracer.uninstall()
    assert (exactlaws.sweep_structure, _kernels.StatsEngine.__init__) == originals
    names = {span.name for span in tracer.spans}
    assert {"laws.sweep_structure", "kernels.engine_build", "kernels.angular_sums",
            "kernels.increments", "kernels.term_means", "grid.curl"} <= names
