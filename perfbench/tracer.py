"""Per-layer spans recorded from outside the package.

:func:`install` wraps the public functions of each ``crosstnn`` module
with timing wrappers.  A function is patched under every name it is
looked up by: the defining module, each module that imported it, and the
package namespace (so ``crosstnn.elimination.determinant`` is wrapped as
well as ``crosstnn.matrix.determinant``).  Methods are patched on their
class, under every attribute that holds them (``Poly.__mul__`` and
``Poly.__rmul__`` are one function).

Each call becomes a span (id, parent id, job id, layer, start, end) kept
in memory.  A layer's self time is its span's duration minus the time its
direct child spans cover.  Counters that the table in the README names
are read from return values at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (layer name, defining module, attribute); "Class.method" patches a class.
LAYERS = (
    ("cli.main", "cli", "main"),
    ("matrix.matrix_from_payload", "matrix", "matrix_from_payload"),
    ("matrix.Matrix.init", "matrix", "Matrix.__init__"),
    ("matrix.Matrix.mul", "matrix", "Matrix.__mul__"),
    ("matrix.determinant", "matrix", "determinant"),
    ("matrix.minor", "matrix", "minor"),
    ("matrix.brute_force_tnn", "matrix", "brute_force_tnn"),
    ("elimination.eliminate_detailed", "elimination", "eliminate_detailed"),
    ("elimination.neville_tnn_test", "elimination", "neville_tnn_test"),
    ("elimination.factorization_product", "elimination", "factorization_product"),
    ("elimination.materialize_atom", "elimination", "materialize_atom"),
    ("exact.RatFunc.init", "exact", "RatFunc.__init__"),
    ("exact.Poly.mul", "exact", "Poly.__mul__"),
    ("exact.Poly.gcd", "exact", "Poly.gcd"),
    ("exact.Poly.squarefree_part", "exact", "Poly.squarefree_part"),
    ("exact.sign_on_ray", "exact", "sign_on_ray"),
    ("amazing.amazing_matrix_symbolic", "amazing", "amazing_matrix_symbolic"),
    ("amazing.verify_amazing", "amazing", "verify_amazing"),
    ("amazing.report_to_doc", "amazing", "report_to_doc"),
    ("network.network_from_factorization", "network", "network_from_factorization"),
    ("network.network_from_doc", "network", "network_from_doc"),
    ("network.network_to_doc", "network", "network_to_doc"),
    ("network.path_matrix", "network", "path_matrix"),
)

COUNTERS = (
    "elimination.steps.bridge",
    "elimination.steps.center",
    "exact.sign_on_ray.mixed",
    "exact.sturm.calls",
)


class Tracer:
    """Span recorder with running per-layer call counts and self times."""

    def __init__(self):
        self.layers = [name for name, _, _ in LAYERS]
        self.index = {name: k for k, name in enumerate(self.layers)}
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.total_s = [0.0] * len(self.layers)  # outermost spans only
        self.active = [0] * len(self.layers)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []
        self.stack = []  # open spans: [span id, time covered by child spans]
        self.job = 0

    def wrap(self, layer: str, fn, on_return=None):
        k = self.index[layer]
        spans, stack, calls, self_s, total_s, active = (
            self.spans, self.stack, self.calls, self.self_s, self.total_s, self.active
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            active[k] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[k] -= 1
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                calls[k] += 1
                self_s[k] += duration - frame[1]
                if not active[k]:
                    total_s[k] += duration
                spans[frame[0]] = (
                    parent[0] if parent is not None else -1, self.job, k, start, end
                )
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def write_spans(self, path) -> None:
        """One JSON line per span: [id, parent, job, layer, start, end]."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"layers": self.layers}) + "\n")
            for span_id, (parent, job, k, start, end) in enumerate(self.spans):
                handle.write(f"[{span_id},{parent},{job},{k},{start!r},{end!r}]\n")


def _count_steps(tracer: Tracer, run) -> None:
    center = sum(1 for step in run.steps if step.is_center)
    tracer.count("elimination.steps.center", center)
    tracer.count("elimination.steps.bridge", len(run.steps) - center)


def _hooks(tracer: Tracer) -> dict:
    sign = tracer.index["exact.sign_on_ray"]

    def on_sign(result):
        if result.verdict == "mixed":
            tracer.count("exact.sign_on_ray.mixed")

    def on_squarefree(_result):
        # Only sign queries that left the shifted-coefficient fast path
        # reach root isolation, which starts with the square-free part.
        if tracer.active[sign]:
            tracer.count("exact.sturm.calls")

    return {
        "elimination.eliminate_detailed": lambda run: _count_steps(tracer, run),
        "exact.sign_on_ray": on_sign,
        "exact.Poly.squarefree_part": on_squarefree,
    }


def install(tracer: Tracer):
    """Wrap every layer in the loaded ``crosstnn`` modules; returns an undo function."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "crosstnn" or name.startswith("crosstnn.")]
    hooks = _hooks(tracer)
    patches = []  # (owner, attribute, original)
    for layer, module, attr in LAYERS:
        owner = sys.modules[f"crosstnn.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            wrapper = tracer.wrap(layer, original, hooks.get(layer))
            for name, value in list(vars(cls).items()):
                if value is original:
                    patches.append((cls, name, original))
                    setattr(cls, name, wrapper)
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(layer, original, hooks.get(layer))
        for m in modules:
            if vars(m).get(attr) is original:
                patches.append((m, attr, original))
                setattr(m, attr, wrapper)

    def undo():
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)

    return undo
