"""Spans recorded from outside tlab, by wrapping the names its modules look up.

Every public function of a tlab module is replaced, in each namespace that
holds it (the package, the defining module and every module that imported
it by name), with a wrapper that records one span: name, start, end, parent
span and run id, plus the tracer's current ``tags``. ``tlab.solver`` reaches
scipy through its ``spla`` name, so that name is replaced by a proxy whose
entry points are wrapped too. Nothing under ``src/`` is modified;
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

LAYERS = ("solver", "geometry", "checks", "reporting", "solitons", "cli")

class Tracer:
    """Keeps spans and counters in memory until the benchmark writes them out."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.run = 0
        self.tags = {}
        self._stack = []
        self._undo = []

    def count(self, name, amount=1):
        key = (self.run, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run,
                    "parent": self._stack[-1] if self._stack else None, **self.tags}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                result = hook(self, args, kwargs, result)
            return result
        return traced

    def run_counts(self, run):
        return {name: n for (r, name), n in self.counts.items() if r == run}

    def _set(self, namespace, attr, value):
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self):
        """Wrap tlab's public functions and the solver's scipy entry points."""
        import tlab
        import tlab.cli  # not imported by the package itself

        modules = [tlab] + [getattr(tlab, layer) for layer in LAYERS]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("tlab.")):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__[len('tlab.'):]}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, name, _HOOKS.get(name))
                self._set(module, attr, wrapped[obj])
        self._set(tlab.solver, "spla", _LinalgProxy(self, tlab.solver.spla))

    def uninstall(self):
        while self._undo:
            namespace, attr, value = self._undo.pop()
            setattr(namespace, attr, value)


class _LinalgProxy:
    """Stands in for scipy.sparse.linalg inside tlab.solver."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module
        self._wrapped = {}

    def __getattr__(self, attr):
        obj = getattr(self._module, attr)
        if not inspect.isfunction(obj):
            return obj
        if attr not in self._wrapped:
            self._wrapped[attr] = self._tracer.wrap(obj, f"spla.{attr}")
        return self._wrapped[attr]


def _newton_hook(tracer, args, kwargs, out):
    tracer.count("solver.newton_iters", out.iterations)
    tracer.count("solver.unconverged", 0 if out.converged else 1)
    return out


def _relax_hook(tracer, args, kwargs, out):
    tracer.count("solver.relax_steps", out.iterations)
    return out


def _bowl_hook(tracer, args, kwargs, profile):
    tracer.count("solitons.bowl_ode_steps", len(profile.r) - 2)
    return profile


def _suite_hook(tracer, args, kwargs, reports):
    tracer.count("checks.failed", sum(1 for r in reports if not r.passed))
    return reports


def _write_grid_hook(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("reporting.grid_bytes", os.path.getsize(path))
    return result


_HOOKS = {
    "solver.newton_solve": _newton_hook,
    "solver.parabolic_relax": _relax_hook,
    "solitons.bowl_profile_solve": _bowl_hook,
    "checks.run_suite": _suite_hook,
    "reporting.write_grid": _write_grid_hook,
}


CHECK_FUNCTIONS = ("convexity", "strip_H_bound", "harnack", "gradient_bounds",
                   "soliton_identities", "strip_asymptotics", "symmetry", "A_bound",
                   "halfstrip_W_bound")


def layer_metrics(spans, counts, cli_steps):
    """Per-layer figures of one run from its spans and counts.

    A function's time is the summed duration of its outermost spans; a
    layer's self time is the duration of its spans minus the time their
    child spans cover.
    """
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur[s["id"]]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def outermost(pred):
        return [s for s in spans
                if pred(s["name"]) and not any(pred(a["name"]) for a in ancestors(s))]

    def total(name):
        return sum(dur[s["id"]] for s in outermost(lambda n: n == name))

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    linalg = outermost(lambda n: n.startswith("spla."))
    linear_s = sum(dur[s["id"]] for s in linalg)
    in_newton = sum(dur[s["id"]] for s in linalg
                    if any(a["name"] == "solver.newton_solve" for a in ancestors(s)))
    relax_steps = counts.get("solver.relax_steps", 0)
    m = {
        "solver.linear_solve_s": linear_s,
        # spilu builds a preconditioner; spsolve and lgmres solve
        "solver.linear_solves": sum(1 for s in linalg if s["name"] != "spla.spilu"),
        "solver.newton_iters": counts.get("solver.newton_iters", 0),
        "solver.unconverged": counts.get("solver.unconverged", 0),
        "solver.newton_other_s": total("solver.newton_solve") - in_newton,
        "solver.relax_steps": relax_steps,
        "solver.relax_step_us": (1e6 * total("solver.parabolic_relax") / relax_steps
                                 if relax_steps else 0.0),
        "solver.fill_s": total("solver.fill_from_boundary"),
        "geometry.fields_s": total("geometry.geometry_fields"),
        "geometry.fields_calls": calls("geometry.geometry_fields"),
        "geometry.partials_s": total("geometry.partials"),
        "geometry.drift_s": total("geometry.drift_identity_residuals"),
        "geometry.path_length_s": total("geometry.path_intrinsic_length"),
        "geometry.path_length_calls": calls("geometry.path_intrinsic_length"),
        "checks.suite_s": total("checks.run_suite"),
        "checks.paths_s": total("checks.random_monotone_paths"),
        "checks.failed": counts.get("checks.failed", 0),
        "reporting.write_grid_s": total("reporting.write_grid"),
        "reporting.read_grid_s": total("reporting.read_grid"),
        "reporting.grid_bytes": counts.get("reporting.grid_bytes", 0),
        "reporting.write_report_s": total("reporting.write_report"),
        "solitons.bowl_ode_s": total("solitons.bowl_profile_solve"),
        "solitons.bowl_ode_steps": counts.get("solitons.bowl_ode_steps", 0),
        "solitons.sample_s": total("solitons.sample_to_grid"),
    }
    for check in CHECK_FUNCTIONS:
        m[f"checks.{check}_s"] = total(f"checks.check_{check}")
    for step in cli_steps:
        m[f"cli.main_s.{step}"] = sum(dur[s["id"]] for s in spans
                                      if s["name"] == "cli.main" and s.get("step") == step)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(dur[s["id"]] - child_time.get(s["id"], 0.0)
                                   for s in spans if s["name"].startswith(layer + "."))
    m["trace.spans"] = len(spans)
    return m

