"""Span tracing from outside the program.

The tracer wraps the calls into each layer by replacing module
attributes of the imported `angleform` package while a `patched()` block
is open, so no file under src/ carries tracing code. Spans (name, start,
end, parent, call id, tag) are kept in memory; the runner writes them
out when the benchmark ends.

A layer's self time is its span's duration minus the durations of its
direct child spans. The program is single-threaded, so children of one
span never overlap.
"""

import contextlib
import importlib
import inspect
import sys
import time

# span name -> the attributes whose calls open that span. A function is
# wrapped under every angleform module name bound to it, so calls made
# through `from .x import f` copies are caught too; a class or a method
# is wrapped only where it is listed.
LAYERS = (
    ("kernels.integrate", "angleform._kernels", "integrate"),
    ("formation.simulate", "angleform.formation", "simulate"),
    ("formation.spec", "angleform.cli", "FormationSpec"),
    ("cli.load", "angleform.cli", "load_scenario"),
    ("cli.resolve", "angleform.cli", "resolve_angle_set"),
    ("cli.csv", "angleform.cli", "_trajectory_csv"),
    ("cli.csv", "angleform.cli", "_cost_csv"),
    ("rigidity.angle_matrix", "angleform.rigidity", "angle_rigidity_matrix"),
    ("rigidity.bearing_matrix", "angleform.rigidity", "bearing_rigidity_matrix"),
    ("rigidity.distance_matrix", "angleform.rigidity", "distance_rigidity_matrix"),
    ("rigidity.svd", "angleform.rigidity", "numerical_rank"),
    ("rigidity.nondegenerate", "angleform.rigidity", "is_strongly_nondegenerate"),
    ("rigidity.validate_for", "angleform.rigidity", "AngleIndexSet.validate_for"),
    ("graph.recognize", "angleform.graph", "recognize_triangulated_laman"),
    ("graph.build_laman", "angleform.graph", "build_laman"),
    ("index_sets.laman", "angleform.index_sets", "laman_minimal_set"),
    ("index_sets.laman", "angleform.index_sets", "laman_global_set"),
    ("index_sets.full_set", "angleform.index_sets", "full_angle_set"),
    ("index_sets.algorithm1", "angleform.index_sets", "algorithm1_set"),
)


def _integrate_counts(args, result):
    """RK4 steps taken and control evaluations made by one integrate call.

    Each completed step evaluates the control four times; a converged stop
    evaluates it once more at the stopping state.
    """
    from angleform import _kernels

    h, n_steps = args[4], args[5]
    status, t_stop = result[3], result[4]
    steps = n_steps if status == _kernels.STATUS_RAN else int(round(t_stop / h))
    evals = 4 * steps + (0 if status == _kernels.STATUS_RAN else 1)
    return {"kernels.steps": steps, "kernels.control_evals": evals}


def _bearing_flops(args, result):
    """Flops of the dense (2m x 2m) @ (2m x 2n) product."""
    g, p = args[0], args[1]
    return {"rigidity.assembly_flops": 2 * (2 * g.m) ** 2 * (2 * p.n)}


def _angle_flops(args, result):
    """Flops of the dense (w x 2m) @ (2m x 2n) product."""
    g, p, T = args[0], args[1], args[2]
    return {"rigidity.assembly_flops": 2 * len(T) * (2 * g.m) * (2 * p.n)}


COUNTERS = {
    "kernels.integrate": _integrate_counts,
    "rigidity.bearing_matrix": _bearing_flops,
    "rigidity.angle_matrix": _angle_flops,
}


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, call id, tag]
        self.counts = []  # (name, value, call id, tag)
        self._stack = []
        self.call_id = -1
        self.tag = ""

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.call_id, self.tag])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts.append((key, value, self.call_id, self.tag))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every layer in LAYERS for the duration of the block."""
        undo = []
        try:
            for name, module, attr in LAYERS:
                owner = importlib.import_module(module)
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
                if len(path) > 1 or inspect.isclass(original):
                    bindings = [owner]
                else:
                    bindings = [
                        mod
                        for key, mod in list(sys.modules.items())
                        if key.split(".")[0] == "angleform"
                        and getattr(mod, path[-1], None) is original
                    ]
                traced = self._wrap(name, original)
                for obj in bindings:
                    undo.append((obj, path[-1], original))
                    setattr(obj, path[-1], traced)
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    def self_times(self, call_ids):
        """Sum of self times per (span name, tag) over the given calls."""
        wanted = set(call_ids)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, call, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, call, tag) in enumerate(self.spans):
            if call in wanted:
                key = (name, tag)
                out[key] = out.get(key, 0.0) + (end - start) - child[idx]
        return out

    def count_totals(self, call_ids):
        """Sum of each count per (name, tag) over the given calls."""
        wanted = set(call_ids)
        out = {}
        for name, value, call, tag in self.counts:
            if call in wanted:
                out[(name, tag)] = out.get((name, tag), 0) + value
        return out

    def dump(self):
        keys = ("name", "start", "end", "parent", "call", "tag")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "counts": [dict(zip(("name", "value", "call", "tag"), c)) for c in self.counts],
        }
