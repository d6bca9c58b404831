"""Spans around calls into the library's public functions, installed at run time.

The program itself carries no tracing.  ``Tracer.install`` replaces each
target function with a timing wrapper, in the defining module and in every
``exactlaws`` module that imported the same object by name, and
``Tracer.uninstall`` puts the originals back and checks that it did.  Spans
(name, start, end, parent, operation) stay in memory until ``write_csv``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# (module, attribute path, span name).  Span names drop the leading underscore
# of ``_kernels`` because benchmark metric names must start with a letter.
TARGETS = (
    ("exactlaws.cli", "main", "cli.main"),
    ("exactlaws.grid", "read_field", "grid.read_field"),
    ("exactlaws.grid", "write_field", "grid.write_field"),
    ("exactlaws.grid", "curl", "grid.curl"),
    ("exactlaws.synth", "random_solenoidal", "synth.random_solenoidal"),
    ("exactlaws.geometry", "parse_direction_spec", "geometry.direction_set"),
    ("exactlaws.geometry", "direction_set_icosa", "geometry.direction_set"),
    ("exactlaws.geometry", "direction_set_random", "geometry.direction_set"),
    ("exactlaws.geometry", "identity227_batch", "geometry.identity227_batch"),
    ("exactlaws._kernels", "StatsEngine.__init__", "kernels.engine_build"),
    ("exactlaws._kernels", "StatsEngine.increments", "kernels.increments"),
    ("exactlaws._kernels", "term_means", "kernels.term_means"),
    ("exactlaws._kernels", "angular_term_sums", "kernels.angular_sums"),
    ("exactlaws.laws", "sweep_structure", "laws.sweep_structure"),
    ("exactlaws.mollifier", "dissipation_matrix", "mollifier.assembly"),
    ("exactlaws.mollifier", "d_ball", "mollifier.assembly"),
    ("exactlaws.mollifier", "coefficient_oracle", "mollifier.coefficient_oracle"),
    ("exactlaws.report", "write_report", "report.write_report"),
    ("exactlaws.report", "write_csv", "report.write_csv"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.info = parent, op, None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # engine -> (m, kmax, components transformed per increments call)
        self.engines: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if name == "kernels.engine_build":
                    engine, fields = args[0], (args[2] if len(args) > 2 else kwargs["fields"])
                    comps = 3 * sum(f is not None for f in fields.values())
                    span.info = self.engines[engine] = (engine.m, engine.kmax, comps)
                elif name == "kernels.increments":
                    m, _, comps = self.engines[args[0]]
                    span.info = comps * m**3  # points transformed
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        loaded = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "exactlaws"]
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name)
            homes = [owner] if outer else [m for m in loaded if m.__dict__.get(attr) is original]
            for home in homes:
                self._saved.append((home, attr, original))
                setattr(home, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original and confirm that no wrapper is left behind."""
        for home, attr, original in reversed(self._saved):
            setattr(home, attr, original)
        left = [f"{home.__name__}.{attr}" for home, attr, original in self._saved
                if home.__dict__[attr] is not original]
        self._saved.clear()
        if left:
            raise RuntimeError(f"tracing wrappers still installed on {left}")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write_csv(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{parent},{s.op}\n")
