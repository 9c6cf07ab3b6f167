"""Spans around calls into the public functions of each ``hdcp`` layer.

``Tracer`` wraps the functions named in ``TRACED`` for the duration of a
``with`` block. A function bound by ``from .engine import ...`` lives under
several module attributes, so every attribute of the ``PATCHED_MODULES``
that holds the original function object is replaced, and restored on exit.

Spans (name, start, end, parent) stay in memory; ``profile()`` turns them
into per-function call counts and self times (span time minus the time of
its child spans) plus three computed counters:

- ``engine.compute_gram.gflop``: sum of 2 n^2 p over the calls,
- ``engine.compute_gram.out_mb``: bytes of the returned ``GramSummary``
  arrays, read from the return value,
- ``cli.load_matrix.input_mb``: size of the text files parsed.

These three are computed from shapes and sizes, not measured.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time

TRACED = {
    "cli": ("cmd_detect", "cmd_simulate", "load_matrix"),
    "selector": ("lag_energy_curve",),
    "inference": ("test_global", "binary_segmentation"),
    "engine": (
        "compute_gram", "l_trace", "F_matrix", "build_trace_table",
        "trace_product_estimate", "variance_estimate", "b_aggregate",
    ),
    "simulator": ("generate_series", "build_coefficients"),
}

PATCHED_MODULES = (
    "hdcp", "hdcp.cli", "hdcp.engine", "hdcp.inference", "hdcp.selector", "hdcp.simulator",
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# counters computed from shapes and sizes, with their units
COMPUTED = {
    "engine.compute_gram.gflop": "GFLOP",
    "engine.compute_gram.out_mb": "MB",
    "cli.load_matrix.input_mb": "MB",
}

_MB = 1e6


def _gram_out_bytes(gram) -> int:
    # array fields carry nbytes; the float total_sum does not
    return sum(
        getattr(getattr(gram, f.name), "nbytes", 0) for f in dataclasses.fields(gram)
    )


class Tracer:
    """Context manager that records a span for each call into a traced function."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counters = dict.fromkeys(COMPUTED, 0.0)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _count(self, name: str, args, result) -> None:
        if name == "engine.compute_gram":
            n, p = args[0].values.shape
            self.counters["engine.compute_gram.gflop"] += 2.0 * n * n * p / 1e9
            self.counters["engine.compute_gram.out_mb"] += _gram_out_bytes(result) / _MB
        elif name == "cli.load_matrix":
            self.counters["cli.load_matrix.input_mb"] += os.path.getsize(args[0]) / _MB

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            self._count(name, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in PATCHED_MODULES]
        for short, names in TRACED.items():
            home = importlib.import_module(f"hdcp.{short}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def profile(self) -> dict:
        """Per span name: {"calls": int, "self_s": float}, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - children
        return {"spans": out, "counters": dict(self.counters)}
