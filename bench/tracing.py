"""Per-layer counts and self times, taken by wrapping egl from outside.

A layer is a module of ``src/egl``.  ``Tracer.install`` replaces every
public function of those modules, in the namespace of every egl module
that binds it, with a wrapper that opens a span and counts the call.
Modules bind their helpers with ``from ... import``, so wrapping only the
defining module would miss their calls.  Root-finder callbacks are wrapped
too: each evaluation is counted and timed as a span of the layer that
passed the callback in, so the closures' own arithmetic is charged to that
layer and not to ``numerics``.  A span's self time is its duration minus
the time covered by its child spans.

Fallback paths of the phi solve have no public boundary; they are counted
from the log records ``egl.surplus`` emits for them.
"""

from __future__ import annotations

import importlib
import inspect
import logging
import time
from collections import Counter, defaultdict

LAYERS = ("core", "numerics", "embodied", "surplus", "demand", "growth",
          "statics", "reports", "svgfig", "cli")
_PARSE = ("core.load_scenario", "core.scenario_from_dict")
_SOLVE = "surplus.solve_energy_side"
_DEMAND = "demand.solve_demands"
_ROOT = "numerics.bracketed_root"


class _FallbackCounter(logging.Handler):
    def __init__(self, events: Counter):
        super().__init__(logging.INFO)
        self.events = events

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "non-monotone" in message:
            self.events["surplus.fallback_scans"] += 1
        elif "imposing the constraint directly" in message:
            self.events["surplus.usability_rescues"] += 1


class Tracer:
    """Spans and counters for one traced pass; undo with ``uninstall``."""

    def __init__(self):
        self.calls: Counter = Counter()        # "layer.function" -> calls
        self.events: Counter = Counter()       # derived counts
        self.self_s: defaultdict = defaultdict(float)   # layer -> seconds
        self.key_self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        self.solve_self_s = 0.0
        self._stack: list[list] = []           # [layer, key, start, child]
        self._active: Counter = Counter()
        self._saved: list[tuple] = []
        self._logger = logging.getLogger("egl.surplus")
        self._handler = _FallbackCounter(self.events)
        self._log_state = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"egl.{name}")
                   for name in LAYERS}
        for caller, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                package, _, owner = fn.__module__.rpartition(".")
                if package != "egl" or owner not in modules:
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(owner, caller, name, fn))
        self._log_state = (self._logger.level, self._logger.propagate)
        self._logger.setLevel(logging.INFO)
        self._logger.propagate = False
        self._logger.addHandler(self._handler)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        self._logger.removeHandler(self._handler)
        level, propagate = self._log_state
        self._logger.setLevel(level)
        self._logger.propagate = propagate

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str, key: str) -> None:
        self._active[key] += 1
        if layer == "embodied":
            if self._active[_SOLVE]:
                self.events["surplus.kernel_calls"] += 1
            if self._active[_DEMAND]:
                self.events["demand.kernel_calls"] += 1
        self._stack.append([layer, key, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        layer, key, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        own = duration - child
        self.self_s[layer] += own
        self.key_self_s[key] += own
        if layer == "surplus" and self._active[_SOLVE]:
            self.solve_self_s += own
        self._active[key] -= 1
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    def _outermost(self, layer: str) -> bool:
        return not self._stack or self._stack[-1][0] != layer

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, caller: str, name: str, fn):
        key = f"{layer}.{name}"
        if key == _ROOT:
            return self._wrap_root(caller, fn)

        def traced(*args, **kwargs):
            self.calls[key] += 1
            outer = self._outermost(layer)
            self._enter(layer, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.inclusive_s[key] += self._exit()
            self._observe(layer, key, outer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_root(self, caller: str, fn):
        callback_key = f"{caller}.root_callback"

        def traced(f, *args, **kwargs):
            self.calls[_ROOT] += 1
            self.events[f"{caller}.root_calls"] += 1

            def counted(x):
                self.events["numerics.root_fevals"] += 1
                self._enter(caller, callback_key)
                try:
                    return f(x)
                finally:
                    self._exit()

            self._enter("numerics", _ROOT)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._exit()

        traced.__wrapped__ = fn
        return traced

    def _observe(self, layer: str, key: str, outer: bool, args,
                 result) -> None:
        if key == _SOLVE:
            if result.phi > 0.0:
                self.events["surplus.phi_positive"] += 1
            state = args[1] if len(args) > 1 and args[1] is not None \
                else None
            goods = state.energy_goods.values() if state is not None \
                else args[0].energy_goods
            if any(g.technology.kind == "fixed_proportions" for g in goods):
                self.events["surplus.fixed_proportions_solves"] += 1
        elif key == "embodied.sample_curve":
            self.events["embodied.sample_points"] += len(result)
        elif key == "growth.simulate":
            self.events["growth.periods"] += len(result.records)
        elif key == "statics.proposition_suite":
            self.events["statics.discarded"] += sum(
                t.discarded for t in result.values())
        elif layer in ("reports", "svgfig") and outer \
                and isinstance(result, str):
            self.events[f"{layer}.bytes"] += len(result.encode("utf-8"))

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics with units; counts and times are per op."""
        c, e = self.calls, self.events
        roots, solves = c[_ROOT], c[_SOLVE]
        periods = e["growth.periods"]

        def count(value):
            return value / ops, "count/op"

        def ms(seconds):
            return seconds * 1e3 / ops, "ms/op"

        def size(value):
            return value / ops, "B/op"

        def ratio(num, den, unit="ratio"):
            return (num / den if den else 0.0), unit

        return {
            "core.parse_calls": count(c["core.scenario_from_dict"]),
            "core.parse_self_ms": ms(sum(self.key_self_s[k]
                                         for k in _PARSE)),
            "numerics.root_calls": count(roots),
            "numerics.root_fevals": count(e["numerics.root_fevals"]),
            "numerics.fevals_per_root": ratio(e["numerics.root_fevals"],
                                              roots, "count/call"),
            "numerics.self_ms": ms(self.self_s["numerics"]),
            "embodied.kernel_calls": count(sum(
                n for k, n in c.items() if k.startswith("embodied."))),
            "embodied.sample_points": count(e["embodied.sample_points"]),
            "embodied.self_ms": ms(self.self_s["embodied"]),
            "surplus.solve_calls": count(solves),
            "surplus.solve_self_ms": ms(self.solve_self_s),
            "surplus.root_calls": count(e["surplus.root_calls"]),
            "surplus.kernel_calls_per_solve": ratio(
                e["surplus.kernel_calls"], solves, "count/call"),
            "surplus.fallback_scans": count(e["surplus.fallback_scans"]),
            "surplus.usability_rescues": count(
                e["surplus.usability_rescues"]),
            "surplus.phi_positive_frac": ratio(e["surplus.phi_positive"],
                                               solves),
            "demand.solve_calls": count(c[_DEMAND]),
            "demand.self_ms": ms(self.self_s["demand"]),
            "demand.root_calls": count(e["demand.root_calls"]),
            "demand.kernel_calls": count(e["demand.kernel_calls"]),
            "growth.periods": count(periods),
            "growth.self_ms": ms(self.self_s["growth"]),
            "growth.ms_per_period": ratio(
                self.inclusive_s["growth.simulate"] * 1e3, periods, "ms"),
            "statics.perturb_calls": count(c["statics.perturb_and_sign"]),
            "statics.self_ms": ms(self.self_s["statics"]),
            "statics.discarded": count(e["statics.discarded"]),
            "reports.self_ms": ms(self.self_s["reports"]),
            "reports.bytes": size(e["reports.bytes"]),
            "svgfig.self_ms": ms(self.self_s["svgfig"]),
            "svgfig.bytes": size(e["svgfig.bytes"]),
            "cli.self_ms": ms(self.self_s["cli"]),
            "cli.bytes_written": size(e["cli.bytes_written"]),
        }
