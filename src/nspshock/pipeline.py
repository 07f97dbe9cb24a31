"""Config-driven end-to-end runs with machine-readable reports.

A run loads a JSON config, executes the selected tasks in canonical
order (profile, dispersion, evans, transversality, poisson), writes
the per-task curve files (profile.csv, spectrum.csv, evans.csv) next
to a report.json, and reports pass/fail per check with the measured
value and the threshold it was held against.

The report is deterministic for a fixed config: keys are sorted and
wall-clock timings are quarantined under a single "timings" key, so
two runs differ at most there; non-finite numbers are written as null.
The profile task, Evans, transversality and Poisson share one profile
grid from the lazy provider _profile_grid, so each task still runs
alone: it solves the grid, and with it the grid's jets to order 3, the
highest that profile, transversality and Poisson read, on first use.
The Evans table derives its own jets at the nodes it keeps.  A run solves
one grid, whichever tasks it runs and whether the solve succeeds or
fails: a failed solve is stored and raised again in every task that
reads the grid.  Every task that reads the grid reports the Newton work
of its solve as metrics.newton.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dispersion import (default_xi_grid, dispersion_curve,
                         essential_eigenvalues, resonance_polynomial,
                         symbol_eigenvalues, symbol_matrix,
                         write_spectrum_csv, xi0_threshold)
from . import evans  # the report reads evans.RTOL and ATOL as run
from .evans import N_CIRCLE, build_evans_system, evans_report, write_evans_csv
from .modes import fast_roots, slow_expansion
from .params import (PlasmaParams, finite_number, params_from_dict,
                     solve_rankine_hugoniot)
from .poisson import (discretize_profile, manufactured_convergence,
                      richardson, smallest_symmetric_eigenvalue,
                      solve_linearized_poisson)
from .profile import solve_profile, verify_profile, write_profile_csv
from .transversality import (TRANSPORT_TOL, angle_to_wave,
                             bounded_solution_dim, build_reduced_system,
                             reduced_wave_residual)

TASKS = ("profile", "dispersion", "evans", "transversality", "poisson")


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    params: PlasmaParams
    tasks: tuple[str, ...]
    out_dir: str
    X: float | None = None
    n: int | None = None
    n_circle: int = N_CIRCLE
    raw: dict | None = None


# the top-level keys of a config
CONFIG_KEYS = ("params", "tasks", "numerics", "out")
# the kind of value each numerics key takes; null leaves the default.
# The winding circle needs three points, the fewest whose polygon
# encloses the origin
_NUMERIC_KINDS = {"X": "number", "n": "odd integer >= 3",
                  "n_circle": "integer >= 3"}


def _numeric(key: str, value):
    """numerics.key checked against its kind: a finite number > 0, also
    integral and at least 3 for the counts, and odd for the node count."""
    kind = _NUMERIC_KINDS[key]
    if not (finite_number(value) and value > 0
            and (kind == "number" or (value % 1 == 0 and value >= 3))
            and (key != "n" or value % 2 == 1)):
        raise ConfigError(f"numerics.{key} must be a positive {kind}, "
                          f"got {value!r}")
    return value if kind == "number" else int(value)


def _known_keys(block: dict, valid, prefix: str = "") -> None:
    """Raise a ConfigError naming the keys of block outside valid."""
    unknown = sorted(prefix + k for k in set(block) - set(valid))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}; "
                          f"valid: {', '.join(valid)}")


def load_config(path, tasks=None, out_dir=None) -> RunConfig:
    """Parse and validate a config file; CLI overrides win."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "params" not in raw:
        raise ConfigError("config must be an object with a 'params' entry")
    _known_keys(raw, CONFIG_KEYS)

    try:
        params = params_from_dict(raw["params"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params block: {exc}") from exc

    extra = raw.get("numerics", {})
    if not isinstance(extra, dict):
        raise ConfigError(f"numerics must be an object, got {extra!r}")
    _known_keys(extra, _NUMERIC_KINDS, "numerics.")
    # RunConfig holds the defaults
    numerics = {k: _numeric(k, v) for k, v in extra.items() if v is not None}

    chosen = tasks if tasks is not None else raw.get("tasks", list(TASKS))
    if isinstance(chosen, str):
        chosen = [t for t in chosen.split(",") if t]
    if not isinstance(chosen, (list, tuple)) or not chosen:
        raise ConfigError(f"tasks must be a non-empty list of task names, "
                          f"got {chosen!r}; valid: {', '.join(TASKS)}")
    bad = [t for t in chosen if t not in TASKS]
    if bad:
        raise ConfigError(f"unknown tasks {bad}; valid: {', '.join(TASKS)}")

    out = raw.get("out", "out")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a string, got {out!r}")
    return RunConfig(params=params,
                     tasks=tuple(t for t in TASKS if t in chosen),
                     out_dir=str(out_dir if out_dir is not None else out),
                     raw=raw, **numerics)


def config_hash(config: RunConfig) -> str:
    canon = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _py(obj):
    """Recursively coerce numpy scalars/arrays into strict-JSON values."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (complex, np.complexfloating)):
        return _py([obj.real, obj.imag])
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    return obj


# how a check holds its value against its threshold
_OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt,
        "==": operator.eq}


def _check(value, op, threshold) -> dict:
    """The report entry of the check value op threshold."""
    return {"value": _py(value), "threshold": _py(threshold),
            "pass": bool(_OPS[op](value, threshold))}


def _newton(grid) -> dict:
    """The Newton work and final defect of the solve behind a grid."""
    return {"iterations": grid.newton_iterations,
            "defect": grid.newton_defect}


def _task_profile(config, end, ctx, outdir):
    grid = _profile_grid(config, end, ctx)
    rep = verify_profile(grid)
    res = float(np.max(rep.max_residual))
    mid = float(grid.v[grid.n // 2])
    target = 0.5 * (config.params.v_minus + config.params.v_plus)
    write_profile_csv(grid, outdir / "profile.csv")
    checks = {
        "ode_residual": _check(res, "<=", 1e-8),
        "monotone": _check(rep.monotonicity_margin, ">", 0.0),
        "midpoint_pinned": _check(abs(mid - target), "<=", 1e-12),
        "boundary_mismatch": _check(rep.boundary_mismatch, "<=", 1e-6),
    }
    metrics = {
        "X": grid.X, "n": grid.n, "v_mid": mid,
        "residual_per_equation": rep.max_residual,
        "decay_exponent": rep.decay_exponent,
        "ratio_bounds": [rep.ratio_low, rep.ratio_high],
        "newton": _newton(grid),
    }
    return checks, metrics


def _eigensolve_distance(params, end, side, xi, lam1, lam2):
    # the oracle solves the assembled symbol, not the closed form's
    # discriminant; LAPACK checks both in the tests
    eig = symbol_eigenvalues(symbol_matrix(params, end, side, xi))
    direct = np.maximum(np.abs(lam1 - eig[:, 0]), np.abs(lam2 - eig[:, 1]))
    swapped = np.maximum(np.abs(lam1 - eig[:, 1]), np.abs(lam2 - eig[:, 0]))
    return float(np.max(np.minimum(direct, swapped)))


def _task_dispersion(config, end, ctx, outdir):
    params = config.params
    xi = default_xi_grid()
    curves, margin_min, eig_dist, im_dev, res_poly = [], np.inf, 0.0, 0.0, 0.0
    xi0s = {}
    for side in ("minus", "plus"):
        curve = dispersion_curve(params, end, side, xi)
        curves.append(curve)
        margin_min = min(margin_min, float(np.min(curve.margin)))
        eig_dist = max(eig_dist, _eigensolve_distance(
            params, end, side, xi, curve.lam1, curve.lam2))
        outside = np.abs(xi) > curve.xi0
        for lam in (curve.lam1, curve.lam2):
            im_dev = max(im_dev, float(np.max(
                np.abs(lam.imag[outside] - end.s * xi[outside]))))
        eta0, xi0 = xi0_threshold(params, side)
        res_poly = max(res_poly, abs(float(resonance_polynomial(
            params, side, eta0))))
        xi0s[side] = xi0
    l0 = np.concatenate([np.abs(np.asarray(
        essential_eigenvalues(params, end, side, 0.0)))
        for side in ("minus", "plus")])
    origin = float(np.max(l0))
    write_spectrum_csv(curves, outdir / "spectrum.csv")
    checks = {
        "dissipation_margin": _check(margin_min, ">=", -1e-12),
        "origin_eigenvalues": _check(origin, "==", 0.0),
        "imaginary_part_linear": _check(im_dev, "<=", 1e-10),
        "resonance_root": _check(res_poly, "<=", 1e-10),
        "closed_form_vs_eigensolve": _check(eig_dist, "<=", 1e-12),
    }
    metrics = {"theta0": curves[0].theta0, "xi0": xi0s, "s": end.s,
               "xi_points": int(xi.shape[0])}
    return checks, metrics


def _mode_metrics(params, end):
    out = {}
    for side in ("minus", "plus"):
        fr = fast_roots(params, end, side)
        sl = slow_expansion(params, end, side)
        out[side] = {"gamma": [fr.gamma1, fr.gamma2, fr.gamma3],
                     "a": [sl.a1, sl.a2], "beta": [sl.beta1, sl.beta2]}
    return out


def _profile_grid(config, end, ctx):
    """The grid every task but dispersion reads; a failed solve is kept
    and raised again, so that a run solves at most once."""
    if "grid" not in ctx:
        try:
            ctx["grid"] = solve_profile(config.params, end, X=config.X,
                                        n=config.n)
        except Exception as exc:  # noqa: BLE001 - raised in every reader
            ctx["grid"] = exc
    if isinstance(ctx["grid"], Exception):
        raise ctx["grid"]
    return ctx["grid"]


def _task_evans(config, end, ctx, outdir):
    grid = _profile_grid(config, end, ctx)
    esys = build_evans_system(grid)
    rep = evans_report(esys, n_circle=config.n_circle)
    ctx["evans"] = rep
    write_evans_csv(rep.samples, outdir / "evans.csv")
    checks = {
        "origin_zero": _check(abs(rep.D0), "<=", 1e-8 * rep.circle_max),
        "winding_circle": _check(rep.winding_circle, "==", 1),
        "winding_d_contour": _check(rep.winding_d_contour, "==", 0),
        "derivative_agreement": _check(rep.derivative_agreement, "<=", 1e-6),
        "factorization_residual": _check(rep.factorization_residual, "<=",
                                         0.01),
        "factorization_sign": _check(rep.sign_match, "==", True),
        "gamma_nonzero": _check(abs(rep.Gamma), ">", 0.0),
        "closure_residual": _check(esys.closure_residual, "<=", 1e-6),
        "table_error": _check(esys.table_error, "<=", 1e-8),
    }
    metrics = rep.as_dict()
    metrics.update({
        "X": esys.X, "n": esys.n, "table": esys.table_shape,
        "tolerance": {"rtol": evans.RTOL, "atol": evans.ATOL},
        "det_R0": rep.gamma.det_R0, "a2_minus": rep.gamma.a2_minus,
        "containment_minus": rep.gamma.containment_minus,
        "factor_residual_plus": rep.gamma.factor_residual_plus,
        "factor_residual_fast": rep.gamma.factor_residual_fast,
        "modes": _mode_metrics(config.params, end),
        "newton": _newton(grid),
    })
    return checks, metrics


def _task_transversality(config, end, ctx, outdir):
    grid = _profile_grid(config, end, ctx)
    rsys = build_reduced_system(grid)
    wave_res = reduced_wave_residual(rsys, grid)
    result = bounded_solution_dim(rsys)
    sig = np.sort(rsys.sigma)
    eig = np.sort(np.linalg.eigvals(rsys.A0).real)
    sig_err = float(np.max(np.abs(sig - eig)))
    checks = {
        "bounded_dimension": _check(result.dimension, "==", 1),
        "wave_angle": _check(angle_to_wave(result.vector, grid), "<=", 1e-5),
        "wave_residual": _check(wave_res, "<=", 1e-6),
        "limit_rates_closed_form": _check(sig_err, "<=", 1e-10),
        "transport_error": _check(result.transport_error, "<=",
                                  TRANSPORT_TOL),
    }
    if "evans" in ctx:
        gamma = ctx["evans"].Gamma
        agree = (result.dimension == 1) == (abs(gamma) > 0.0)
        # the verdict is the agreement, not the comparison
        checks["gamma_consistency"] = {**_check(abs(gamma), ">", 0.0),
                                       "pass": agree}
    metrics = {
        "sigma": list(rsys.sigma),
        "deviation_sup": rsys.deviation_sup(),
        "singular_values": result.singular_values,
        "intersection_vector": result.vector,
        "transport_error": result.transport_error,
        "work": result.work,
        "newton": _newton(grid),
    }
    return checks, metrics


def _task_poisson(config, end, ctx, outdir):
    params = config.params
    order, errors = manufactured_convergence()

    grid = _profile_grid(config, end, ctx)
    disc = discretize_profile(grid)
    vj, _, sj = grid.jets
    phi = richardson(solve_linearized_poisson, disc, vj.derivative(1),
                     vj.derivative(2))
    rel = float(np.max(np.abs(phi - sj.value[::2]))
                / np.max(np.abs(sj.value)))

    # a proved lower bound on the spectrum of the symmetric part
    lower = smallest_symmetric_eigenvalue(disc)
    bound = min(params.v_minus / params.v_plus, params.eps**2 / params.v_plus)
    checks = {
        "manufactured_order": _check(order, ">=", 1.9),
        "wave_consistency": _check(rel, "<=", 1e-6),
        "coercivity": _check(lower, ">=", 0.5 * bound),
    }
    metrics = {"manufactured_errors": errors, "consistency_X": grid.X,
               "consistency_n": grid.n, "symmetric_lower_bound": lower,
               "newton": _newton(grid)}
    return checks, metrics


_RUNNERS = {
    "profile": _task_profile,
    "dispersion": _task_dispersion,
    "evans": _task_evans,
    "transversality": _task_transversality,
    "poisson": _task_poisson,
}


def run(config: RunConfig) -> dict:
    """Execute the configured tasks; returns the report dict.

    A failing check marks its task failed; an exception inside a task
    is recorded and later tasks still run.  The report carries
    report["passed"] for the overall verdict.  A regime without fast
    roots or an out directory that cannot be created is a ConfigError.
    """
    try:
        end = solve_rankine_hugoniot(config.params)
        for side in ("minus", "plus"):
            fast_roots(config.params, end, side)  # regime admissibility
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    outdir = Path(config.out_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create the directory {str(outdir)!r}"
                          f": {exc.strerror or exc}") from exc
    report = {
        "config_hash": config_hash(config),
        "params": _py(config.raw["params"]) if config.raw else {},
        "endstates": {"s": end.s, "u_plus": end.u_plus,
                      "phi_minus": end.phi_minus, "phi_plus": end.phi_plus},
        "tasks": {}, "timings": {},
    }
    ctx: dict = {}
    all_passed = True
    for name in config.tasks:
        t0 = time.perf_counter()
        entry: dict = {}
        try:
            checks, metrics = _RUNNERS[name](config, end, ctx, outdir)
            entry["checks"] = checks
            entry["metrics"] = _py(metrics)
            entry["passed"] = all(c["pass"] for c in checks.values())
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["passed"] = False
        report["timings"][name] = time.perf_counter() - t0
        report["tasks"][name] = entry
        all_passed = all_passed and entry["passed"]
    report["passed"] = all_passed
    return report


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
