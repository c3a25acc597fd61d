"""Span tracing of polycrit's public functions, installed from outside.

``install`` wraps every public function of the layer modules and patches
every binding of it: the home module, modules that imported it by name,
the package namespace, lists of functions (``suite.ALL_CRITERIA``) and
``Polynomial.find_roots``.  Each wrapper opens a span; a span's self time
is its duration minus the time of the spans nested in it.  ``uninstall``
puts every original back.
"""
from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = (
    "poly",
    "lp",
    "metrics",
    "variation_first",
    "variation_second",
    "maximal_zero",
    "normal_ops",
    "majorization",
    "suite",
    "cli",
)

# tiny helpers called in hot loops; their time stays in the caller's self time
UNTRACED = {
    "poly.sort_lex",
    "poly.cluster_indices",
    "poly.cluster_points",
    "normal_ops.principal_submatrix",
    "normal_ops.spectral_radius",
    "normal_ops.dft_unitary",
    "normal_ops.as_normal",
    "cli.parse_complex",
    "cli.parse_grid",
    "cli.parse_range",
    "majorization.resolve_convex_test",
}


class Stat:
    __slots__ = ("calls", "ms", "self_ms", "errors", "active")

    def __init__(self):
        self.calls = 0
        self.ms = 0.0
        self.self_ms = 0.0
        self.errors = 0
        self.active = 0  # recursion depth; inclusive time counts the outermost span only


class Tracer:
    """Span statistics per function; ``cell`` labels the op being run."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stack: list[list[float]] = []
        self.cell = ""
        self.root_coeffs: set[tuple] = set()
        self.cell_roots_ms: dict[str, list[float]] = defaultdict(list)
        self.infeasible = 0
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        on_exit = {
            "poly.find_roots": self._find_roots_exit,
            "lp.eq_nonneg_feasibility": self._eq_nonneg_exit,
        }.get(name)

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_ms += (dt - frame[0]) * 1e3
                if stat.active == 0:
                    stat.ms += dt * 1e3
                if stack:
                    stack[-1][0] += dt
                if on_exit is not None:
                    on_exit(args, result, dt)

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        return span

    def _find_roots_exit(self, args, result, dt):
        self.root_coeffs.add(args[0].coeffs)
        self.cell_roots_ms[self.cell].append(dt * 1e3)

    def _eq_nonneg_exit(self, args, result, dt):
        if result is None:
            self.infeasible += 1

    def install(self) -> None:
        modules = {m: importlib.import_module(f"polycrit.{m}") for m in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[id(obj)] = (obj, self.wrap(name, obj))
        poly = modules["poly"]
        find_roots = poly.Polynomial.find_roots
        self._patches.append((poly.Polynomial, "find_roots", find_roots))
        poly.Polynomial.find_roots = self.wrap("poly.find_roots", find_roots)

        holders = [m for n, m in list(sys.modules.items()) if n == "polycrit" or n.startswith("polycrit.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patches.append((obj, i, item))
                            obj[i] = hit[1]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, list):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.<stat>`` for every traced function plus
        ``<module>.self_ms`` totals and the find_roots extras, among them
        the median find_roots time per op cell (``disk.d16``, ...)."""
        out: dict[str, float] = {}
        per_module: dict[str, float] = defaultdict(float)
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.ms"] = st.ms
            out[f"{name}.self_ms"] = st.self_ms
            out[f"{name}.errors"] = st.errors
            per_module[name.split(".")[0]] += st.self_ms
        for short in LAYERS:
            out[f"{short}.self_ms"] = per_module[short]
        for cell, samples in self.cell_roots_ms.items():
            out[f"poly.find_roots.p50_ms.{cell}"] = statistics.median(samples)
        calls = self.stats["poly.find_roots"].calls
        out["poly.find_roots.repeat_ratio"] = calls / len(self.root_coeffs) if self.root_coeffs else 0.0
        out["lp.eq_nonneg_feasibility.infeasible"] = self.infeasible
        return out
