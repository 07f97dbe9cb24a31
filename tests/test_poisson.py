"""Finite-difference field solver: oracles, convergence, coercivity."""

import numpy as np
import pytest

from nspshock.params import solve_rankine_hugoniot
from nspshock.poisson import (
    constant_discretization,
    discretize_profile,
    manufactured_convergence,
    rhs_from_velocity,
    smallest_symmetric_eigenvalue,
    solve_linearized_poisson,
    solve_with_rhs,
)
from nspshock.profile import solve_profile

from conftest import make_params


def discrete_h1(disc, phi):
    dphi = np.gradient(phi, disc.h, edge_order=2)
    return float(np.sqrt(np.trapezoid(phi**2 + dphi**2, dx=disc.h)))


def discrete_l2(disc, v):
    return float(np.sqrt(np.trapezoid(np.asarray(v)**2, dx=disc.h)))


@pytest.fixture(scope="module")
def profile_ref():
    params = make_params(0.1)
    end = solve_rankine_hugoniot(params)
    return params, end, solve_profile(params, end, n=6001)


def test_zero_velocity_gives_zero(profile_ref):
    _, _, grid = profile_ref
    disc = discretize_profile(grid)
    phi = solve_linearized_poisson(disc, np.zeros(disc.n))
    assert np.max(np.abs(phi)) == 0.0


def test_constant_profile_sine():
    # with vbar = 1, phibar = 0, eps = 1 the operator is (1 - dxx), so
    # f = 5 sin(2x) must return sin(2x): the Fourier factor 1 + k^2 at
    # k = 2 is exactly 5
    X = 10.0 * np.pi
    disc = constant_discretization(X, 8001)
    phi = solve_with_rhs(disc, 5.0 * np.sin(2.0 * disc.x))
    assert np.max(np.abs(phi - np.sin(2.0 * disc.x))) < 5e-5


def test_exact_discrete_representation():
    # central differences are exact on quadratics, so the discrete
    # solution matches the parabola to solver roundoff
    X = 12.0
    disc = constant_discretization(X, 501)
    target = X**2 - disc.x**2
    phi = solve_with_rhs(disc, target + 2.0)
    assert np.max(np.abs(phi - target)) < 1e-10


def test_dirichlet_ends(profile_ref):
    _, _, grid = profile_ref
    disc = discretize_profile(grid)
    vj, _, _ = grid.state_jets(order=2)
    phi = solve_linearized_poisson(disc, vj.derivative(1), vj.derivative(2))
    assert phi[0] == 0.0 and phi[-1] == 0.0


def test_manufactured_order_constant_coefficients():
    discs = [constant_discretization(30.0, 2 * int(round(30.0 / h)) + 1)
             for h in (0.1, 0.05, 0.025)]
    order, errors = manufactured_convergence(discs)
    assert np.all(np.diff(errors) < 0.0)
    assert 1.9 <= order <= 2.1


def test_manufactured_order_profile_coefficients():
    params = make_params(0.1)
    end = solve_rankine_hugoniot(params)
    discs = [discretize_profile(solve_profile(params, end, X=72.0, n=n))
             for n in (1441, 2881, 5761)]
    order, _ = manufactured_convergence(discs)
    assert order >= 1.9


def test_domain_doubling_below_discretization_error():
    errs = {}
    for X in (15.0, 30.0):
        n = 2 * int(round(X / 0.05)) + 1
        _, e = manufactured_convergence([constant_discretization(X, n)])
        errs[X] = e[0]
    assert abs(errs[30.0] - errs[15.0]) < 1e-6 * errs[15.0]


def test_profile_consistency():
    # differentiating the steady field equation: v = vbar' must map to
    # phi = phibar'; the error is dominated by tail truncation, so the
    # half-length is pushed past the default
    params = make_params(0.1)
    end = solve_rankine_hugoniot(params)
    grid = solve_profile(params, end, X=175.0, n=24001)
    disc = discretize_profile(grid)
    vj, _, sj = grid.state_jets(order=2)
    phi = solve_linearized_poisson(disc, vj.derivative(1), vj.derivative(2))
    rel = np.max(np.abs(phi - sj.value)) / np.max(np.abs(sj.value))
    assert rel <= 1e-6


def test_h1_bound_stable_under_refinement():
    params = make_params(0.1)
    end = solve_rankine_hugoniot(params)
    ratios = []
    for n in (6001, 12001):
        grid = solve_profile(params, end, n=n)
        disc = discretize_profile(grid)
        vj, _, _ = grid.state_jets(order=2)
        phi = solve_linearized_poisson(disc, vj.derivative(1), vj.derivative(2))
        ratios.append(discrete_h1(disc, phi) / discrete_l2(disc, vj.derivative(1)))
    assert abs(ratios[1] - ratios[0]) < 1e-3 * ratios[0]


def test_coercivity_and_dominance(profile_ref):
    params, _, grid = profile_ref
    disc = discretize_profile(grid)
    bound = min(params.v_minus / params.v_plus,
                params.eps**2 / params.v_plus)
    lam = smallest_symmetric_eigenvalue(disc)
    assert lam > 0.0
    assert lam >= 0.5 * bound

    # constant profile: strict diagonal dominance, margin the zeroth-order term
    cdisc = constant_discretization(20.0, 801)
    sub, diag, sup = cdisc.operator_bands()
    assert np.all(np.abs(diag) > np.abs(sub) + np.abs(sup))


def test_rhs_uses_given_derivative(profile_ref):
    _, _, grid = profile_ref
    disc = discretize_profile(grid)
    vj, _, _ = grid.state_jets(order=2)
    v, dv = vj.derivative(1), vj.derivative(2)
    f_exact = rhs_from_velocity(disc, v, dv)
    f_diff = rhs_from_velocity(disc, v)
    # the central-difference fallback agrees to second order only
    assert np.max(np.abs(f_exact - f_diff)) < 1e-6
    assert np.max(np.abs(f_exact - f_diff)) > 0.0
