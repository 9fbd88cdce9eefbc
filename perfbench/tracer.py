"""Outside-in layer trace of the oqmetro package.

Wraps every public module-level function of each layer module in a span
that counts calls, self time (duration minus the time of nested spans) and
exceptions leaving it.  ``cli``, ``fisher`` and ``estimation`` bind
functions with ``from .x import y``, so a function is replaced under every
name that holds it in every loaded oqmetro module; otherwise calls through
those names would escape the trace.

Spans keep one stack per tracer, so traced code must run on one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "oqmetro"
LAYERS = ("measurement", "probe", "oq", "fisher", "estimation", "cli")
# private functions traced under the name of the work they do
RENAMED = {"cli._write_table": "cli.write_table"}


class Tracer:
    def __init__(self):
        self.spans = {}         # "layer.function" -> [calls, self_s, raised]
        self.layer_raised = {}  # layer -> distinct exceptions leaving it
        self.omitted = 0        # sampled tables with negative W-counts
        self._last_raised = {}  # layer -> last exception counted there
        self._stack = []        # child time accumulated by open spans
        self._patched = []      # (module, name, original)

    def _targets(self) -> dict:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                key = RENAMED.get(f"{layer}.{name}", f"{layer}.{name}")
                if not key.split(".")[1].startswith("_"):
                    targets[obj] = (key, layer)
        return targets

    def install(self) -> None:
        """Replace each traced function wherever an oqmetro module binds it."""
        wrappers = {fn: self._wrap(fn, key, layer)
                    for fn, (key, layer) in self._targets().items()}
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)

    def restored(self) -> bool:
        """True when every replaced name holds its original function again."""
        return all(getattr(module, name) is original
                   for module, name, original in self._patched)

    def reset(self) -> None:
        for span in self.spans.values():
            span[:] = [0, 0.0, 0]
        self.layer_raised = dict.fromkeys(self.layer_raised, 0)
        self._last_raised.clear()
        self.omitted = 0

    def _raised(self, layer: str, exc: BaseException) -> None:
        # an exception propagating through several functions of one layer
        # is one failed operation of that layer
        if self._last_raised.get(layer) is not exc:
            self._last_raised[layer] = exc
            self.layer_raised[layer] = self.layer_raised.get(layer, 0) + 1

    def _wrap(self, fn, key: str, layer: str):
        span = self.spans.setdefault(key, [0, 0.0, 0])
        self.layer_raised.setdefault(layer, 0)
        stack = self._stack
        clock = time.perf_counter
        counts_tables = key == "estimation.sample_counts"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] += 1
                self._raised(layer, exc)
                raise
            finally:
                elapsed = clock() - start
                span[0] += 1
                span[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counts_tables and result.has_negative:
                self.omitted += 1
            return result

        return traced
