"""Outside-in span tracer for the taskcov library.

The tracer wraps the public functions of the traced modules at every
module binding inside the package through which the library looks them
up, so a call from ``solver`` to ``assemble_kernel_matrix`` is recorded
just like a call from the benchmark. Nothing in the library is edited:
``install`` swaps module attributes and ``restore`` puts every original
back. Spans are kept in memory and written out once, when the run ends.
"""

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("kernels", "solver", "linalg", "newtask", "crossval", "io")


def _assemble_bytes(args, kwargs, result):
    n = result.shape[0]
    return {"bytes_computed": 8.0 * n * n}


def _solve_flops(args, kwargs, result):
    n = len(result)
    return {"flops_computed": 2.0 / 3.0 * n**3}


def _fit_iters(args, kwargs, result):
    # the trace holds the starting value, one value per outer iteration
    # and the final refresh
    return {"outer_iters": len(result.objective_trace) - 2}


def _incorporate_iters(args, kwargs, result):
    # one value per alternation, plus the final refresh
    return {"iters": len(result.objective_trace) - 1}


def _model_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"model_bytes": float(os.path.getsize(path))}


# Work counters taken from a call's arguments and result; computed, not
# measured (bytes and flops follow from the shapes alone).
COUNTERS = {
    "kernels.assemble_kernel_matrix": _assemble_bytes,
    "linalg.solve_linear": _solve_flops,
    "solver.fit": _fit_iters,
    "newtask.incorporate_new_task": _incorporate_iters,
    "io.save_model": _model_bytes,
}


class Span:
    """One call into a traced function."""

    __slots__ = ("id", "name", "site", "start", "end", "parent", "op", "counts")

    def __init__(self, id, name, site, start, end, parent, op, counts=None):
        self.id = id
        self.name = name
        self.site = site
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.counts = counts

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records a span for every call into the traced library functions.

    ``op`` is the id of the benchmark operation in progress; every span
    recorded while it is set carries it.
    """

    package = "taskcov"

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _package_modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def targets(self):
        """Map id(function) -> (function, 'module.function') for every
        public function defined in a traced module."""
        found = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{self.package}.{short}"]
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    found[id(value)] = (value, f"{short}.{attr}")
        return found

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        targets = self.targets()
        wrappers = {}
        for mod in self._package_modules():
            site = mod.__name__.rpartition(".")[2] if mod.__name__ != self.package else self.package
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                key = (id(value), site)
                if key not in wrappers:
                    wrappers[key] = self._wrap(value, hit[1], site)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[key])

    def restore(self):
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, name, site):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, site, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.bench_traced = True
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - _covered(children[span.id], span.start, span.end)
        for span in spans
    }


def _inside(span, name, by_id):
    """Whether a span runs inside a span of the given name."""
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == name:
            return True
    return False


def layer_totals(spans):
    """Totals per traced function: '<name>.calls', '<name>.self_s' and
    every work counter as '<name>.<counter>' (io.save_model's file size
    is reported as 'io.model_bytes'). Calls are also counted per binding
    site as '<site>.<function>.calls' when the site is another traced
    module, so crossval's own fits show as 'crossval.fit.calls'.
    'kernels.base_kernel_matrix.calls_in_fit' counts the base Grams built
    inside fits, apart from those that serve predictions."""
    totals = defaultdict(float)
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.name == "kernels.base_kernel_matrix" and _inside(span, "solver.fit", by_id):
            totals["kernels.base_kernel_matrix.calls_in_fit"] += 1
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.self_s"] += own[span.id]
        module, _, function = span.name.partition(".")
        if span.site != module and span.site in TRACED_MODULES:
            totals[f"{span.site}.{function}.calls"] += 1
        for key, value in (span.counts or {}).items():
            label = "io.model_bytes" if key == "model_bytes" else f"{span.name}.{key}"
            totals[label] += value
    return dict(totals)
