"""Spans around the package's public functions, installed from outside.

``install()`` wraps each function named in SPANS at every name it is looked
up under: its own module and every package module that imported it.  Each
call records a span (name, start, end, parent span, operation id) kept in
memory until the command ends.  ``LaurentPoly`` arithmetic runs hundreds of
thousands of times, so its methods keep per-method counts and summed self
time instead of spans; they still sit on the span stack, so every parent's
self time excludes them.

A span's self time is its duration minus the durations of its direct
children.  ``write_summary`` sums self time and calls per span name, the
whole-call time of the solver spans, the ring counters, and the time of
the root ``cli`` span, and writes them as one JSON object.
"""

from __future__ import annotations

import json
import os
import sys
import time

_now = time.perf_counter

# span name -> (module, function names)
SPANS = {
    "cli": ("cli", ["main"]),
    "solver.solve": ("solver", ["solve_integer", "solve_half", "rank1_series"]),
    "solver.verify": ("solver", ["verify_canonical"]),
    "gram.entry_on": ("gram", ["gram_entry_on"]),
    "gram.entry": ("gram", ["gram_entry"]),
    "gram.solve_descendants": ("gram", ["solve_descendants"]),
    "linalg.det_bareiss": ("linalg", ["det_bareiss"]),
    "linalg.adjugate": ("linalg", ["adjugate"]),
    "linalg.inverse_exact": ("linalg", ["inverse_exact"]),
    "virasoro.apply_mode": ("virasoro", ["apply_mode"]),
    "virasoro.tilde_word": ("virasoro", ["apply_tilde_word"]),
    "frames.dual_operator": ("frames", ["dual_operator", "odd_dual_operator"]),
    "gauge.obstructions": ("gauge", ["obstructions"]),
    "gauge.completion": ("gauge", ["scalar_completion_half"]),
    "gauge.checks": ("gauge", ["frobenius_verify", "lstar_certificate",
                               "integrate_potential", "apply_gauge_and_verify",
                               "completion_residuals"]),
    "serialize.from_doc": ("serialize", ["series_from_doc"]),
    "serialize.to_doc": ("serialize", ["series_to_doc", "report_doc", "truncated_doc"]),
    "serialize.dumps": ("serialize", ["dumps"]),
}

# ring counter -> LaurentPoly methods
RING = {
    "mul": ["__mul__", "__rmul__"],
    "add": ["__add__", "__radd__", "__neg__"],
    "exact_div": ["exact_div"],
}


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []   # [name, start, end, parent, op, self]
        self.stack: list[list] = []   # [child time, span index]
        self.ring = {key: [0, 0.0] for key in RING}
        self.term_products = 0

    def span(self, name: str, fn):
        spans, stack, op = self.spans, self.stack, self.op_id

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            record = [name, 0.0, 0.0, parent, op, 0.0]
            spans.append(record)
            frame = [0.0, len(spans) - 1]
            stack.append(frame)
            record[1] = start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = end = _now()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                record[5] = end - start - frame[0]

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn, products: bool):
        stack, agg = self.stack, self.ring[key]
        tracer = self

        def wrapper(a, *rest):
            if products:
                tracer.term_products += len(a.terms) * len(getattr(rest[0], "terms", (0,)))
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = _now()
            try:
                return fn(a, *rest)
            finally:
                dur = _now() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur - frame[0]

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        out: dict = {}
        for name, start, end, _parent, _op, self_time in self.spans:
            calls, self_s, total_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + self_time, total_s + end - start)
        metrics = {}
        for name, (calls, self_s, total_s) in out.items():
            metrics[f"{name}_calls"] = calls
            metrics[f"{name}_self_s"] = self_s
            metrics[f"{name}_total_s"] = total_s
        for key, (calls, self_s) in self.ring.items():
            metrics[f"ring.{key}_calls"] = calls
            metrics[f"ring.{key}_self_s"] = self_s
        metrics["ring.term_products"] = self.term_products
        return metrics

    def write_summary(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.summary(), handle, sort_keys=True)


def install() -> Tracer:
    """Wrap SPANS and RING in every loaded package module.  Spans carry the
    operation id from the PERFBENCH_OP environment variable."""
    from virasoro_irregular import ring

    tracer = Tracer(os.environ.get("PERFBENCH_OP", ""))
    package = {name: mod for name, mod in sys.modules.items()
               if name.split(".")[0] == "virasoro_irregular"}
    for span_name, (module, functions) in SPANS.items():
        home = package[f"virasoro_irregular.{module}"]
        for fname in functions:
            original = getattr(home, fname)
            wrapped = tracer.span(span_name, original)
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    for key, methods in RING.items():
        for method in methods:
            original = getattr(ring.LaurentPoly, method)
            setattr(ring.LaurentPoly, method,
                    tracer.counted(key, original, products=key == "mul"))
    return tracer
