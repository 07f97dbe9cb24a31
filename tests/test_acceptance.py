"""Desk-scale acceptance suite: one test per shipped guarantee.

Each test checks the stated tolerances for one numbered guarantee (the
numbering matches the README) and prints a single line with the measured
quantities next to their thresholds, visible under ``pytest -s`` or on
failure.  Wall-clock budgets are asserted where a guarantee states one;
the expensive Evans scaffolding is built once and shared, with its setup
cost charged to every guarantee that needs it.
"""

import time

import numpy as np
import pytest

from nspshock.dispersion import (
    default_xi_grid,
    dispersion_curve,
    essential_eigenvalues,
    resonance_polynomial,
    symbol_matrix,
    xi0_threshold,
)
from nspshock.eigensystem import (
    background_wave,
    interior_coefficients,
    interior_matrix_coeffs,
    wave_residual,
)
from nspshock.evans import (
    build_evans_system,
    circle_contour,
    evans_report,
    evans_value,
    gamma_transversality,
    make_evaluator,
    winding_number,
)
from nspshock.modes import (
    analytic_eigenpairs,
    cubic_coefficients,
    fast_roots,
    slow_expansion,
)
from nspshock.params import solve_rankine_hugoniot
from nspshock.poisson import (
    discretize_profile,
    manufactured_convergence,
    solve_linearized_poisson,
)
from nspshock.profile import (
    DEFAULT_NODES,
    default_half_length,
    profile_residual,
    solve_profile,
    verify_profile,
)
from nspshock.transversality import (
    bounded_solution_dim,
    build_reduced_system,
    limit_eigenvalues,
)

from conftest import make_params, slow_mu_quadratic


@pytest.fixture(scope="module")
def production_evans(params_ref, end_ref):
    t0 = time.perf_counter()
    system = build_evans_system(solve_profile(params_ref, end_ref))
    report = evans_report(system)
    return system, report, time.perf_counter() - t0


def test_criterion_01_dispersion_bound(params_ref, end_ref):
    t0 = time.perf_counter()
    xi = default_xi_grid()
    assert xi.size == 10000 and xi[0] == -50.0 and xi[-1] == 50.0
    worst_margin = np.inf
    worst_dist = 0.0
    for side in ("minus", "plus"):
        curve = dispersion_curve(params_ref, end_ref, side, xi)
        assert abs(curve.theta0 - 5.0 / 11.0) <= 1e-12
        assert abs(curve.theta0 - 0.454545) <= 5e-7
        bound = -curve.theta0 * xi**2 / (1.0 + xi**2)
        worst_margin = min(worst_margin,
                           float(np.min(bound - curve.lam1.real)),
                           float(np.min(bound - curve.lam2.real)))
        eig = np.linalg.eigvals(symbol_matrix(params_ref, end_ref, side, xi))
        direct = np.maximum(np.abs(eig[:, 0] - curve.lam1),
                            np.abs(eig[:, 1] - curve.lam2))
        swapped = np.maximum(np.abs(eig[:, 0] - curve.lam2),
                             np.abs(eig[:, 1] - curve.lam1))
        worst_dist = max(worst_dist, float(np.max(np.minimum(direct, swapped))))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 01] dissipation margin {worst_margin:.3e} >= -1e-12, "
          f"eigensolve distance {worst_dist:.3e} <= 1e-12, "
          f"theta0 {5.0 / 11.0:.6f} ({elapsed:.2f} s)")
    assert worst_margin >= -1e-12
    assert worst_dist <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_origin_and_resonance(params_ref, end_ref):
    t0 = time.perf_counter()
    xi = default_xi_grid()
    s = end_ref.s
    worst_lin = 0.0
    worst_root = 0.0
    thresholds = {}
    for side in ("minus", "plus"):
        lam1, lam2 = essential_eigenvalues(params_ref, end_ref, side, 0.0)
        assert lam1 == 0.0 and lam2 == 0.0
        eta0, xi0 = xi0_threshold(params_ref, side)
        thresholds[side] = xi0
        worst_root = max(worst_root, abs(resonance_polynomial(params_ref,
                                                              side, eta0)))
        lam1, lam2 = essential_eigenvalues(params_ref, end_ref, side, xi)
        mask = np.abs(xi) > xi0
        worst_lin = max(worst_lin,
                        float(np.max(np.abs(lam1.imag[mask] - s * xi[mask]))),
                        float(np.max(np.abs(lam2.imag[mask] - s * xi[mask]))))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 02] lam(0) = 0 exactly, |Im lam - s xi| "
          f"{worst_lin:.3e} <= 1e-10 beyond xi0 "
          f"({thresholds['minus']:.7f}, {thresholds['plus']:.7f}), "
          f"resonance root residual {worst_root:.3e} <= 1e-10 "
          f"({elapsed:.2f} s)")
    assert worst_lin <= 1e-10
    assert worst_root <= 1e-10
    assert elapsed < 1.0


def test_criterion_03_profile(params_ref, end_ref):
    t0 = time.perf_counter()
    grid = solve_profile(params_ref, end_ref, X=200.0, n=4001)
    rep = verify_profile(grid)
    residual = float(np.max(rep.max_residual))
    s = end_ref.s
    vj = grid.jets[0]
    uj = params_ref.u_minus - s * (vj - params_ref.v_minus)
    assert np.all(s * vj.derivative(1) + uj.derivative(1) == 0.0)
    mid = (grid.n - 1) // 2
    assert grid.x[mid] == 0.0 and grid.v[mid] == 1.05
    res = []
    for n in (501, 1001):
        g = solve_profile(params_ref, end_ref, X=200.0, n=n)
        res.append(np.max(profile_residual(g)))
    order = float(np.log2(res[0] / res[1]))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 03] residual {residual:.3e} <= 1e-8, monotone margin "
          f"{rep.monotonicity_margin:.3e} > 0, v(0) = {grid.v[mid]}, "
          f"refinement order {order:.2f} >= 3.5 ({elapsed:.2f} s)")
    assert residual <= 1e-8
    assert rep.monotonicity_margin > 0.0
    assert order >= 3.5
    assert elapsed < 30.0


def test_criterion_04_fast_slow_structure(params_ref, end_ref):
    t0 = time.perf_counter()
    worst_vieta = 0.0
    for delta in (0.02, 0.05, 0.1):
        p = make_params(delta)
        e = solve_rankine_hugoniot(p)
        minus = fast_roots(p, e, "minus")
        plus = fast_roots(p, e, "plus")
        assert minus.gamma2 < 0 < minus.gamma1 < minus.gamma3
        assert plus.gamma1 < 0 and plus.gamma2 < 0 < plus.gamma3
        for side, fr in (("minus", minus), ("plus", plus)):
            b, c, d = cubic_coefficients(p, e, side)
            worst_vieta = max(worst_vieta,
                              abs(fr.gamma1 * fr.gamma2 * fr.gamma3 + d))
            for g in (fr.gamma1, fr.gamma2, fr.gamma3):
                worst_vieta = max(worst_vieta, abs(((g + b) * g + c) * g + d))
    # cubic-remainder exponent of the slow branches; a branch is fitted
    # over the stated decades only where its fold radius covers them,
    # otherwise over three decades inside its own validity region
    stated = (1e-2, 1e-3, 1e-4)
    shifted = (1e-4, 1e-5, 1e-6)
    slopes = []
    for side in ("minus", "plus"):
        sl = slow_expansion(params_ref, end_ref, side)
        for j in (1, 2):
            a = sl.a1 if j == 1 else sl.a2
            beta = sl.beta1 if j == 1 else sl.beta2
            fold = a * a / (4.0 * beta)
            lams = stated if stated[0] <= 0.5 * abs(fold) else shifted
            errs = []
            for lam in lams:
                path = np.linspace(0.0, lam, 9).astype(complex)
                mp = analytic_eigenpairs(params_ref, end_ref, side, path)
                errs.append(abs(mp.mu[-1, 2 + j]
                                - slow_mu_quadratic(sl, j, lam)))
            slopes.append(float(np.polyfit(np.log(lams), np.log(errs), 1)[0]))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 04] sign pattern ok for delta in (0.02, 0.05, 0.1), "
          f"Vieta residual {worst_vieta:.3e} <= 1e-10, remainder exponents "
          f"{[f'{s:.2f}' for s in slopes]} in 3 +/- 0.2 ({elapsed:.2f} s)")
    assert worst_vieta <= 1e-10
    for slope in slopes:
        assert abs(slope - 3.0) <= 0.2
    assert elapsed < 5.0


def test_criterion_05_closure_guard(params_ref, end_ref):
    t0 = time.perf_counter()
    grid = solve_profile(params_ref, end_ref, X=200.0, n=2001)
    vj, pj, sj = grid.state_jets(5)
    tab = interior_coefficients(grid.x, vj, pj, sj, params_ref, end_ref)
    A0 = interior_matrix_coeffs(tab)[0].value
    W0, dW0 = background_wave(vj, pj, sj, params_ref, end_ref)
    base = wave_residual(A0, W0, dW0)
    weakest = np.inf
    for i in range(5):
        for j in range(5):
            bumped = A0.copy()
            bumped[:, i, j] += 0.01
            weakest = min(weakest, wave_residual(bumped, W0, dW0))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 05] closure residual {base:.3e} <= 1e-6, weakest "
          f"response over 25 single-entry bumps {weakest:.3e} > 1e-3 "
          f"({elapsed:.2f} s)")
    assert base <= 1e-6
    assert weakest > 1e-3
    assert elapsed < 5.0


def test_criterion_06_evans_zero_structure(production_evans):
    _, rep, setup_s = production_evans
    t0 = time.perf_counter()
    ratio = abs(rep.D0) / rep.circle_max
    elapsed = setup_s + (time.perf_counter() - t0)
    print(f"[criterion 06] |D(0)|/max contour |D| = {ratio:.3e} <= 1e-8, "
          f"winding on |lam| = rho: {rep.winding_circle} (want 1), winding "
          f"on the D-contour: {rep.winding_d_contour} (want 0) "
          f"({elapsed:.2f} s)")
    assert abs(rep.D0) <= 1e-8 * rep.circle_max
    assert rep.winding_circle == 1
    assert rep.winding_d_contour == 0
    assert elapsed < 300.0


def test_criterion_07_derivative_factorization(production_evans):
    _, rep, setup_s = production_evans
    t0 = time.perf_counter()
    assert abs(rep.Delta - 0.195346258924559) <= 1e-12
    elapsed = setup_s + (time.perf_counter() - t0)
    print(f"[criterion 07] D'(0) Cauchy {rep.Dprime0_cauchy.real:.9f} vs finite "
          f"differences, relative gap {rep.derivative_agreement:.3e} <= 1e-6; "
          f"|D'(0) - Gamma Delta|/|Gamma Delta| = "
          f"{rep.factorization_residual:.3e} <= 0.01 with "
          f"Delta = {rep.Delta:.9f} ({elapsed:.2f} s)")
    assert rep.derivative_agreement <= 1e-6
    assert rep.factorization_residual <= 0.01
    assert rep.sign_match
    assert elapsed < 120.0


def test_criterion_08_transversality(params_ref, end_ref):
    t0 = time.perf_counter()
    grid = solve_profile(params_ref, end_ref, n=3001)
    system = build_reduced_system(grid)
    res = bounded_solution_dim(system, grid)
    gammas = []
    for delta in (0.02, 0.05, 0.1):
        p = make_params(delta)
        e = solve_rankine_hugoniot(p)
        X = default_half_length(p, e)
        n = 2 * int(round(X / 0.05)) + 1
        esys = build_evans_system(solve_profile(p, e, X=X, n=n))
        gammas.append(
            gamma_transversality(esys, evans_value(esys, 0.0)).Gamma)
    sigma_minus, sigma_zero, sigma_plus = limit_eigenvalues(params_ref)
    elapsed = time.perf_counter() - t0
    print(f"[criterion 08] bounded-solution dimension {res.dimension} "
          f"(want 1), angle to the wave derivative {res.angle_to_wave:.3e} "
          f"<= 1e-5 rad, Gamma over the sweep "
          f"{[f'{g:.2f}' for g in gammas]} all nonzero, sigma- "
          f"{sigma_minus:.9f}, sigma+ {sigma_plus:.9f} ({elapsed:.2f} s)")
    assert res.dimension == 1
    assert res.angle_to_wave <= 1e-5
    assert all(abs(g) > 0.0 for g in gammas)
    assert min(abs(g) for g in gammas) > 1.0
    assert sigma_zero == 0.0
    assert abs(sigma_minus + np.sqrt(2.0)) <= 1e-10
    assert abs(sigma_plus - 1.0 / np.sqrt(2.0)) <= 1e-10
    assert abs(sigma_minus - (-1.414214)) <= 5e-7
    assert abs(sigma_plus - 0.707107) <= 5e-7
    assert elapsed < 30.0


def test_criterion_09_poisson(params_ref, end_ref):
    t0 = time.perf_counter()
    discs = [discretize_profile(solve_profile(params_ref, end_ref,
                                              X=72.0, n=n))
             for n in (1441, 2881, 5761)]
    order, _ = manufactured_convergence(discs)
    grid = solve_profile(params_ref, end_ref, X=175.0, n=24001)
    disc = discretize_profile(grid)
    vj, _, sj = grid.state_jets(order=2)
    phi = solve_linearized_poisson(disc, vj.derivative(1), vj.derivative(2))
    rel = float(np.max(np.abs(phi - sj.value)) / np.max(np.abs(sj.value)))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 09] manufactured order {order:.3f} >= 1.9, wave "
          f"consistency {rel:.3e} <= 1e-6 ({elapsed:.2f} s)")
    assert order >= 1.9
    assert rel <= 1e-6
    assert elapsed < 10.0


def test_criterion_10_robustness(params_ref, end_ref):
    t0 = time.perf_counter()
    # the default grid every task reads, then twice the nodes, then twice
    # the half-length at the same step
    base = build_evans_system(solve_profile(params_ref, end_ref))
    assert base.n == DEFAULT_NODES
    double = 2 * base.n - 1
    variants = {
        "2n": build_evans_system(solve_profile(params_ref, end_ref, n=double)),
        "2X": build_evans_system(solve_profile(params_ref, end_ref,
                                               X=2.0 * base.X, n=double)),
    }
    rho = 0.5 * base.disk_radius
    probes = rho * np.exp(2j * np.pi * np.arange(8) / 8)

    def summarize(system):
        evaluate, _ = make_evaluator(system)
        vals = np.array([evaluate(lam) for lam in probes])
        w, _, _ = winding_number(evaluate, circle_contour(rho, 16))
        gamma = gamma_transversality(system, evans_value(system, 0.0))
        return vals, w, gamma.Gamma

    vals0, w0, g0 = summarize(base)
    worst_d = 0.0
    worst_g = 0.0
    for system in variants.values():
        vals, w, g = summarize(system)
        worst_d = max(worst_d, float(np.max(np.abs(vals - vals0)
                                            / np.abs(vals0))))
        worst_g = max(worst_g, abs(g - g0) / abs(g0))
        assert w == w0
    elapsed = time.perf_counter() - t0
    print(f"[criterion 10] doubling X or n moves the D samples by "
          f"{worst_d:.3e} and Gamma by {worst_g:.3e} (both <= 1e-6); "
          f"winding unchanged ({elapsed:.2f} s)")
    assert worst_d <= 1e-6
    assert worst_g <= 1e-6
