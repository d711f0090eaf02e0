"""Per-layer tracing from outside the program.

The tracer replaces each traced covham function with a wrapper in every
covham module that binds it (for example both covham.dynamics and
covham.verify bind evolve_amplitudes, and covham re-exports it), and
each verification suite in covham.verify._SUITES.  A wrapper counts
calls, adds up inclusive and self time (inclusive minus the time of
traced callees) and, for the layers that have one, a work count taken
from the arguments.  Nothing under src/ changes; uninstall() puts the
original functions back.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _source_rate_work(a, result):
    k = np.asarray(a["k"])
    modes = 1 if k.ndim == 1 else k.shape[0]
    active = sum(1 for w in a["worldlines"] if w.active_at(a["x0"]))
    return {"mode_source_evals": modes * active}


def _evolve_work(a, result):
    return {"mode_steps": len(a["grid"]) * int(a["steps"])}


def _reconstruct_work(a, result):
    x = np.asarray(a["x"])
    points = 1 if x.ndim == 1 else int(np.prod(x.shape[:-1]))
    return {"mode_points": len(a["grid"]) * points}


def _grid_work(a, result):
    return {"modes": len(result)}


def _bracket_work(a, result):
    return {"state_vars": int(np.asarray(a["state"]).size)}


def _parseval_work(a, result):
    entries = a["entries"]
    n_x = a["n_x"]
    if n_x is None:  # the program's default, 4 max|n| + 1 points per axis
        n_x = 4 * max(int(np.max(np.abs(n))) for n, _, _ in entries) + 1
    return {"point_modes": n_x**3 * int(a["n_t"]) * len(entries)}


def _report_work(a, result):
    return {"bytes": sum(p.stat().st_size for p in result)}


# (module, function, work counter); the metric prefix is module.function
TRACED = [
    ("scenario", "load_scenario", None),
    ("modes", "build_mode_grid", _grid_work),
    ("dynamics", "source_rate", _source_rate_work),
    ("minkowski", "minkowski_dot", None),
    ("dirac", "slash", None),
    ("dynamics", "evolve_amplitudes", _evolve_work),
    ("dynamics", "reconstruct_field", _reconstruct_work),
    ("dynamics", "mode_equation_residual", None),
    ("verify", "averaged_profile", None),
    ("verify", "write_report", _report_work),
    ("green", "green_oracle", None),
    ("brackets", "poisson_bracket", _bracket_work),
    ("brackets", "bracket_observable", None),
    ("brackets", "jacobi_defect", None),
    ("brackets", "dw_conservation_check", None),
    ("position", "parseval_check", _parseval_work),
    ("canonical", "to_canonical", None),
    ("canonical", "from_canonical", None),
    ("canonical", "gradient_consistency", None),
    ("canonical", "hamilton_residual", None),
    ("canonical", "mode_hamiltonian_gradients", None),
]


class Tracer:
    """Installs wrappers; stats() returns and clears the counters."""

    def __init__(self):
        self._stats = defaultdict(float)
        self._children = [0.0]  # traced-callee time of each open call
        self._patched = []  # (namespace, key, original)

    def _wrap(self, name, fn, work):
        stats = self._stats
        children = self._children
        sig = inspect.signature(fn) if work is not None else None

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = children.pop()
                children[-1] += dt
                stats[name + ".calls"] += 1
                stats[name + ".s"] += dt
                stats[name + ".self_s"] += dt - inner
            if work is not None:
                t1 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, val in work(bound.arguments, result).items():
                    stats[name + "." + key] += val
                stats["trace.count_s"] += time.perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items())
                  if (n == "covham" or n.startswith("covham.")) and m]
        for mod_name, fn_name, work in TRACED:
            module = importlib.import_module("covham." + mod_name)
            fn = getattr(module, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, work)
            for mod in loaded:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((vars(mod), attr, fn))
                        setattr(mod, attr, wrapper)
        suites = importlib.import_module("covham.verify")._SUITES
        for suite, fn in list(suites.items()):
            self._patched.append((suites, suite, fn))
            suites[suite] = self._wrap(f"verify.suite.{suite}", fn, None)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def stats(self) -> dict:
        out = dict(self._stats)
        self._stats.clear()
        return out


def call_overhead_s(n: int = 20000) -> float:
    """Cost of one call through a tracing wrapper, beyond the call itself."""

    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop, None)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)
