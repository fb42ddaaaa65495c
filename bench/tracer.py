"""Span recorder that wraps the public functions of the fracsig modules.

The recorder lives in the benchmark, outside the package: it replaces
each public module-level function with a wrapper that opens a span, and
binds the wrapper in every namespace that holds the original.  That last
step matters because ``fracdyn`` imports ``dfa_exponents`` by name;
wrapping ``mfdfa.dfa_exponents`` alone would miss every call made
through ``fracdyn.estimate_alpha(s)``.

A span records calls, inclusive seconds ``s`` and self seconds
``self_s`` (inclusive time minus the time of the spans it directly
encloses).  Spans are kept in memory as per-name totals.  The time the
wrappers themselves add is estimated from a calibrated per-call cost.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("records", "synth", "fracdyn", "mfdfa", "classify", "viral")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []  # [start, child_seconds] per open span

    @contextmanager
    def span(self, name):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - frame[0]
            self._stack.pop()
            self.calls[name] += 1
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def count(self, name, amount=1.0):
        self.counters[name] += amount

    def wrap(self, func, name, hook=None):
        """Wrapper recording ``name`` spans; ``hook(tracer, bound_args, result)``
        adds work counters after a successful call."""
        signature = inspect.signature(func) if hook else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = func(*args, **kwargs)
                except Exception:
                    self.count(f"{name}.errors")
                    raise
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    def install(self, package, hooks=None):
        """Wrap every public function defined in the package's layer modules.

        Every module of the package is searched for attributes that are the
        original function object, and each is rebound to the wrapper.
        """
        hooks = hooks or {}
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(value)] = (value, self.wrap(value, name, hooks.get(name)))
        for key, module in list(sys.modules.items()):
            if key != package and not key.startswith(package + "."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]

    def overhead_s(self, repeats: int = 20000, trials: int = 5) -> float:
        """Estimated seconds the wrappers added: the cost of one wrapped call
        over a bare one, timed on a no-op, times the spans recorded.  Work
        counters (hooks) are not included."""

        def noop():
            return None

        def timed(func):
            t0 = time.perf_counter()
            for _ in range(repeats):
                func()
            return time.perf_counter() - t0

        wrapped = Tracer().wrap(noop, "noop")
        per_call = min(timed(wrapped) - timed(noop) for _ in range(trials)) / repeats
        return max(per_call, 0.0) * sum(self.calls.values())

    def snapshot(self) -> dict:
        """Per-span totals and counters as one flat ``name -> number`` dict."""
        out = dict(self.counters)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self.seconds[name]
            out[f"{name}.self_s"] = self.self_seconds[name]
        return out
