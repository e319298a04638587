"""Spans around the public functions of the hurwitzlab modules.

`Tracer.install` wraps every public function defined in a traced module, at
every module attribute callers look it up through (``bodies.validate_convex``,
``cli.run_suite``, ``hurwitzlab.validate_convex``, ...).  Calls that go through
another reference, such as a function stored in a dict, stay untraced.
Each call records a span (function, start, end, parent span) in memory.
A span's self time is its duration minus the durations of its direct
children.  `uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

PACKAGE = "hurwitzlab"
LAYERS = ("bodies", "quadrature", "functionals", "visual_angle", "verdicts", "render", "cli", "jsonio")


class Tracer:
    def __init__(self, keep_results=()):
        self.keep_results = frozenset(keep_results)  # names whose return value a span keeps
        self.names: list[str] = []
        self.spans: list = []    # [name index, start, end, parent span index or -1, result]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _targets(self):
        """{original function: span name} for the public functions of every layer."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[obj] = f"{layer}.{attr}"
        return targets

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        keep = name in self.keep_results
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span[4] = result
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def stats(self) -> dict[str, dict]:
        """Per function: calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for fid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (fid, t0, t1, _, _), inner in zip(self.spans, child):
            entry = out[self.names[fid]]
            entry["calls"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += t1 - t0 - inner
        return out

    def results(self, name: str) -> list:
        """Return values kept for the function `name`, in call order."""
        return [s[4] for s in self.spans if self.names[s[0]] == name]

    def count_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` with a call of `ancestor` somewhere above them."""
        hits = 0
        for span in self.spans:
            if self.names[span[0]] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.names[self.spans[parent][0]] == ancestor:
                    hits += 1
                    break
                parent = self.spans[parent][3]
        return hits
