"""Outside-in tracing of the nspshock layers.

The tracer replaces module and class attributes of the package with
wrappers that record one span per call: name, start, end, parent span
and run id (one run per pipeline.run call).  Nothing under src/ changes;
the wrappers are installed only in the traced worker process and removed
afterwards.  Spans stay in memory, in flat arrays so that the ~1.3 million
spans of a reference run fit in about 40 MB, and are written out at the
end.

A name is patched where it is looked up: pipeline.py calls
build_evans_system through its own namespace, evans.py calls solve_ivp
through its own, so both are wrapped there.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name).  An attribute "Class.method" patches the
# method on the class.
WRAPS = (
    ("nspshock.pipeline", "run", "pipeline.run"),
    ("nspshock.pipeline", "write_report", "pipeline.io"),
    ("nspshock.pipeline", "write_profile_csv", "pipeline.io"),
    ("nspshock.pipeline", "write_spectrum_csv", "pipeline.io"),
    ("nspshock.pipeline", "write_evans_csv", "pipeline.io"),
    ("nspshock.pipeline", "solve_profile", "profile.solve"),
    ("nspshock.evans", "solve_profile", "profile.solve"),
    ("nspshock.profile", "splu", "profile.newton_step"),
    ("nspshock.profile", "ProfileGrid.state_jets", "jets.state_jets"),
    ("nspshock.evans", "interior_coefficients", "eigensystem.tables"),
    ("nspshock.evans", "interior_matrix_coeffs", "eigensystem.tables"),
    ("nspshock.transversality", "interior_coefficients", "eigensystem.tables"),
    ("nspshock.transversality", "interior_matrix_coeffs",
     "eigensystem.tables"),
    ("nspshock.pipeline", "dispersion_curve", "dispersion.curve"),
    ("nspshock.pipeline", "_eigensolve_distance", "dispersion.eigensolve"),
    ("nspshock.pipeline", "build_reduced_system", "transversality.tables"),
    ("nspshock.transversality", "_propagate_plane",
     "transversality.transport"),
    ("nspshock.transversality", "solve_ivp", "transversality.ivp"),
    ("nspshock.pipeline", "manufactured_convergence", "poisson.manufactured"),
    ("nspshock.pipeline", "solve_linearized_poisson", "poisson.solve"),
    ("nspshock.pipeline", "smallest_symmetric_eigenvalue", "poisson.eig"),
    ("nspshock.poisson", "solve_with_rhs", "poisson.banded_solve"),
    ("nspshock.pipeline", "build_evans_system", "evans.build"),
    ("nspshock.pipeline", "evans_report", "evans.report"),
    ("nspshock.evans", "make_evaluator", "evans.make_evaluator"),
    ("nspshock.evans", "evans_value", "evans.sample"),
    ("nspshock.evans", "winding_number", "evans.winding"),
    ("nspshock.evans", "evans_derivative_origin", "evans.cauchy"),
    ("nspshock.evans", "gamma_transversality", "evans.gamma"),
    ("nspshock.evans", "integrate_wedge", "evans.transport"),
    ("nspshock.evans", "solve_ivp", "evans.ivp"),
    ("nspshock.evans", "EvansSystem.coefficient_matrix", "evans.coeff_lookup"),
    ("nspshock.evans", "lift2", "wedge.lift"),
    ("nspshock.evans", "lift3", "wedge.lift"),
    ("nspshock.evans", "analytic_eigenpairs", "modes.continuation"),
    ("nspshock.evans", "default_disk_radius", "modes.disk_radius"),
)


class Tracer:
    """Span recorder with work counters taken from call results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run_id = array("i")
        self.current_run = 0
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _on_result(self, span: str, args, result):
        """Work counts read from what the wrapped call returned."""
        if span in ("evans.ivp", "transversality.ivp"):
            layer = span.split(".")[0]
            self.count(f"{layer}.rhs_calls", result.nfev)
            self.count(f"{layer}.ivp_steps", result.t.size - 1)
        elif span == "profile.solve":
            self.count("profile.nodes", result.n)
        elif span == "poisson.banded_solve":
            self.count("poisson.unknowns", args[0].n - 2)
        elif span == "dispersion.curve":
            self.count("dispersion.points", result.xi.shape[0])
        elif span == "evans.winding":
            contour = args[1]
            self.count("evans.refine_points",
                       len(result[1]) - len(contour.points))
        elif span == "evans.make_evaluator":
            evaluate, store = result
            return self.wrap_function(evaluate, "evans.evaluate"), store
        return result

    def wrap_function(self, fn, span: str):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        counted = span in _COUNTED

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run_id.append(self.current_run)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counted:
                result = self._on_result(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, span in WRAPS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap_function(original, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 run_id=np.frombuffer(self.run_id, dtype=np.int32))

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct child
        spans cover; calls run on one thread, so children never overlap.
        """
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_time = np.bincount(names, weights=dur - covered, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_time[i])}
                for i, name in enumerate(self.names)}


_COUNTED = {"evans.ivp", "transversality.ivp", "profile.solve",
            "poisson.banded_solve", "dispersion.curve", "evans.winding",
            "evans.make_evaluator"}


def per_layer_metrics(totals: dict, counts: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics from span totals and counters."""
    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def secs(name, kind="total_s"):
        return totals.get(name, {}).get(kind, 0.0)

    samples = calls("evans.sample")
    evaluations = calls("evans.evaluate")
    steps = counts.get("evans.ivp_steps", 0)
    return {
        "evans.build_s": secs("evans.build"),
        "evans.transport_s": secs("evans.transport"),
        "evans.ivp_self_s": secs("evans.ivp", "self_s"),
        "evans.coeff_lookup_s": secs("evans.coeff_lookup"),
        "evans.winding_s": secs("evans.winding"),
        "evans.cauchy_s": secs("evans.cauchy"),
        "evans.gamma_s": secs("evans.gamma"),
        "evans.coeff_lookups": calls("evans.coeff_lookup"),
        "evans.integrations": calls("evans.transport"),
        "evans.ivp_segments": calls("evans.ivp"),
        "evans.rhs_calls": counts.get("evans.rhs_calls", 0),
        "evans.ivp_steps": steps,
        "evans.rhs_per_step": (counts.get("evans.rhs_calls", 0) / steps
                               if steps else 0.0),
        "evans.samples": samples,
        "evans.evaluate_calls": evaluations,
        "evans.cache_hit_ratio": (1.0 - samples / evaluations
                                  if evaluations else 0.0),
        "evans.refine_points": counts.get("evans.refine_points", 0),
        "wedge.lift_s": secs("wedge.lift"),
        "wedge.lift_calls": calls("wedge.lift"),
        "modes.continuation_s": secs("modes.continuation"),
        "modes.continuations": calls("modes.continuation"),
        "modes.disk_radius_s": secs("modes.disk_radius"),
        "profile.solve_s": secs("profile.solve"),
        "profile.solves": calls("profile.solve"),
        "profile.nodes": counts.get("profile.nodes", 0),
        "profile.newton_iters": calls("profile.newton_step"),
        "jets.state_jets_s": secs("jets.state_jets"),
        "jets.state_jets_calls": calls("jets.state_jets"),
        "eigensystem.tables_s": secs("eigensystem.tables"),
        "transversality.tables_s": secs("transversality.tables"),
        "transversality.transport_s": secs("transversality.transport"),
        "transversality.ivp_segments": calls("transversality.ivp"),
        "transversality.rhs_calls": counts.get("transversality.rhs_calls", 0),
        "transversality.ivp_steps": counts.get("transversality.ivp_steps", 0),
        "poisson.manufactured_s": secs("poisson.manufactured"),
        "poisson.solve_s": secs("poisson.solve"),
        "poisson.eig_s": secs("poisson.eig"),
        "poisson.unknowns": counts.get("poisson.unknowns", 0),
        "dispersion.curve_s": secs("dispersion.curve"),
        "dispersion.points": counts.get("dispersion.points", 0),
        "dispersion.eigensolve_s": secs("dispersion.eigensolve"),
        "pipeline.io_s": secs("pipeline.io"),
        "trace.spans": sum(t["calls"] for t in totals.values()),
    }
