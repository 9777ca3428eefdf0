"""Spans around the public functions of weitzlab, recorded from outside it.

:func:`install` wraps every function named in a module's ``__all__`` and
rebinds the wrapper in every module namespace of the package that holds the
original, so calls through ``from .x import f`` bindings are timed too.
Spans stay in memory as ``[name, start, end, parent, outermost]`` lists;
``outermost`` is false when a span of the same name is already open, so
inclusive times of recursive functions are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: Modules of the package, in layer order (command line down to the kernel).
MODULES = (
    "cli",
    "suites",
    "weitzenbock",
    "curvature",
    "representations",
    "spin",
    "so_algebra",
    "numerics",
    "casimir_weights",
    "report",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter
        # the row and column counts handed to nullspace size its SVD
        shaped = name == "numerics.nullspace"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, depth == 0]
            if shaped:
                span.append(list(getattr(args[0], "shape", ())))
            stack.append(len(spans))
            spans.append(span)
            open_[name] = depth + 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_[name] = depth
                stack.pop()

        return traced


def install(tracer: Tracer, package: str = "weitzlab") -> None:
    """Wrap the public functions of every loaded module of ``package``."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and name.startswith(package + ".")
    }
    wrapped: dict[int, tuple] = {}
    for name, mod in modules.items():
        short = name.rsplit(".", 1)[-1]
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == name:
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def reduce(spans: list[list]) -> dict:
    """Per-module self time and call count, per-function inclusive time and
    call count, and the shapes handed to ``numerics.nullspace``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, outermost, *shape) in enumerate(spans):
        module = name.split(".", 1)[0]
        dur = end - start
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + dur - child[i]
        out[f"{module}.calls"] = out.get(f"{module}.calls", 0) + 1
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if outermost:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
        if shape and len(shape[0]) == 2:
            rows, cols = shape[0]
            out[f"{name}.input_mb"] = out.get(f"{name}.input_mb", 0.0) + rows * cols * 16 / 2**20
            out[f"{name}.max_rows"] = max(out.get(f"{name}.max_rows", 0), rows)
    return out
