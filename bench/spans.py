"""Outside-in tracing of `tripart`: spans around every module binding of
the public functions each layer exposes.

A function imported into another module is a separate binding (for
example `tripart.problem.equal_partition` or `tripart.svg.cut_line_offset`),
and every binding of the same function object gets the same wrapper, so a
call is caught whichever module makes it.  Spans stay in memory as
(name, start_ns, end_ns, parent, job) tuples until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("geometry", "rootfind", "partition", "masspart", "problem", "svg", "cli")

# (layer, function): the metric prefix is "layer.function"; the function is
# looked up in its layer first and then in any other module, so a move
# keeps the metric and a deletion makes it absent.
TRACED = (
    ("geometry", "region_polygon"),
    ("rootfind", "newton2d"),
    ("partition", "equal_partition"),
    ("partition", "classify"),
    ("partition", "solve_newton"),
    ("partition", "solve_exterior"),
    ("partition", "cut_line_offset"),
    ("partition", "boundary_point_closed_form"),
    ("masspart", "solve_translation"),
    ("masspart", "sector_areas"),
    ("problem", "parse_spec"),
    ("problem", "run"),
    ("problem", "report_json"),
    ("problem", "sweep_csv"),
    ("problem", "triangle_from_angles"),
    ("svg", "emit_svg"),
)




def _modules():
    pkg = importlib.import_module("tripart")
    return [pkg] + [importlib.import_module(f"tripart.{m}") for m in MODULES]


def find_function(layer: str, name: str):
    """The function object behind `layer.name`, or None if no module of the
    package defines a function by that name any more."""
    mods = _modules()
    home = importlib.import_module(f"tripart.{layer}")
    for mod in [home] + mods:
        fn = getattr(mod, name, None)
        if callable(fn) and getattr(fn, "__module__", "").startswith("tripart"):
            return fn
    return None


class Tracer:
    """Installs span-recording wrappers on entry and restores the original
    bindings on exit.  `job` is set by the caller before each job."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list = []
        self.newton = {"calls": 0, "fun_evals": 0, "iterations": 0, "restarts": 0, "converged": 0}
        self.present: set[str] = set()

    def span(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.job)

    def _wrapper(self, name: str, fn):
        if name == "rootfind.newton2d":
            newton = self.newton

            def traced(fun, *args, **kwargs):
                def counted(x, y):
                    newton["fun_evals"] += 1
                    return fun(x, y)

                res = self.span(name, fn, counted, *args, **kwargs)
                newton["calls"] += 1
                newton["iterations"] += res.iterations
                newton["restarts"] += res.restarts
                newton["converged"] += bool(res.converged)
                return res
        else:
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return traced

    def __enter__(self):
        mods = _modules()
        for layer, fname in TRACED:
            fn = find_function(layer, fname)
            if fn is None:
                continue
            name = f"{layer}.{fname}"
            self.present.add(name)
            wrapper = self._wrapper(name, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def totals(self):
        """Per span name: (calls, self time in ns, total time in ns).  Self
        time is a span's duration minus the durations of its direct
        children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start - child[i]
            row[2] += end - start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")
