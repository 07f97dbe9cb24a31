"""Correctness gate applied to every report the benchmark produces.

A report passes the gate when
  * report["passed"] is true and no task raised,
  * the Evans winding counts are exactly 1 (small circle) and 0 (D-contour),
  * Gamma, D'(0) from the Cauchy integral, theta0 and xi0 agree with the
    values recorded from the seed commit (expected.json) to 1e-6 relative,
    the tolerance of the robustness guarantee, and
  * the report serialises as strict JSON (no NaN or infinity).

The recorded values pin the numerics: a change that buys speed by
loosening an ODE or Newton tolerance would still pass the report's own
thresholds, but it moves these quantities.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-6

# Direction of each report check that has a nonzero numeric threshold:
# "<=" means the value must stay below the threshold, ">=" above it.
# Equality checks (winding counts, exact zeros, signs) have no margin.
CHECK_DIRECTIONS = {
    "profile.ode_residual": "<=",
    "profile.midpoint_pinned": "<=",
    "profile.boundary_mismatch": "<=",
    "dispersion.dissipation_margin": ">=",
    "dispersion.imaginary_part_linear": "<=",
    "dispersion.resonance_root": "<=",
    "dispersion.closed_form_vs_eigensolve": "<=",
    "evans.origin_zero": "<=",
    "evans.derivative_agreement": "<=",
    "evans.factorization_residual": "<=",
    "transversality.wave_angle": "<=",
    "transversality.wave_residual": "<=",
    "transversality.limit_rates_closed_form": "<=",
    "poisson.manufactured_order": ">=",
    "poisson.wave_consistency": "<=",
    "poisson.coercivity": ">=",
}


def gated_values(report: dict) -> dict[str, list[float]]:
    """The recorded quantities present in a report, each as a real vector."""
    tasks = report.get("tasks", {})
    out = {}
    disp = tasks.get("dispersion", {}).get("metrics")
    if disp is not None:
        out["theta0"] = [disp["theta0"]]
        out["xi0.minus"] = [disp["xi0"]["minus"]]
        out["xi0.plus"] = [disp["xi0"]["plus"]]
    ev = tasks.get("evans", {}).get("metrics")
    if ev is not None:
        out["Gamma"] = [ev["Gamma"]]
        out["Dprime0_cauchy"] = list(ev["Dprime0_cauchy"])
    return out


def _relative_error(got: list[float], want: list[float]) -> float:
    diff = math.sqrt(sum((g - w) ** 2 for g, w in zip(got, want)))
    return diff / math.sqrt(sum(w * w for w in want))


def gate(report: dict, tasks: list[str], expected: dict) -> list[tuple]:
    """Every item checked on one report, as (name, ok, detail) tuples.

    The items are the report's own checks, one "did not raise" item per
    task, and the gate conditions listed in the module docstring.
    """
    items = []
    for task in tasks:
        entry = report["tasks"].get(task, {"error": "task missing"})
        items.append((f"{task}.no_error", "error" not in entry,
                      entry.get("error", "")))
        for name, check in entry.get("checks", {}).items():
            items.append((f"{task}.{name}", bool(check["pass"]),
                          f"value {check['value']} threshold "
                          f"{check['threshold']}"))

    items.append(("gate.report_passed", report.get("passed") is True, ""))
    if "evans" in tasks:
        ev = report["tasks"].get("evans", {}).get("metrics", {})
        for key, want in (("winding_circle", 1), ("winding_d_contour", 0)):
            items.append((f"gate.{key}", ev.get(key) == want,
                          f"got {ev.get(key)}, want {want}"))
    got = gated_values(report)
    for key, want in expected.items():
        if key not in got:
            items.append((f"gate.{key}", False, "missing from report"))
            continue
        err = _relative_error(got[key], want)
        items.append((f"gate.{key}", err <= REL_TOL,
                      f"relative error {err:.3e} against seed value"))
    try:
        json.dumps(report, allow_nan=False)
        items.append(("gate.strict_json", True, ""))
    except ValueError as exc:
        items.append(("gate.strict_json", False, str(exc)))
    return items


def check_margins(report: dict) -> list[tuple[float, str]]:
    """(relative margin, check name) for every check with a margin.

    The margin is the distance from the value to the threshold on the
    passing side, as a share of |threshold|; it is negative when the
    check fails.
    """
    out = []
    for task, entry in report["tasks"].items():
        for name, check in entry.get("checks", {}).items():
            direction = CHECK_DIRECTIONS.get(f"{task}.{name}")
            if direction is None:
                continue
            value, thr = float(check["value"]), float(check["threshold"])
            gap = thr - value if direction == "<=" else value - thr
            out.append((gap / abs(thr), f"{task}.{name}"))
    return out
