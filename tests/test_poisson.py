"""Finite-difference field solver: oracles, convergence, coercivity."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded

import nspshock.poisson as poisson_module
from nspshock.params import solve_rankine_hugoniot
from nspshock.poisson import (
    constant_discretization,
    discretize_profile,
    manufactured_convergence,
    rhs_from_velocity,
    richardson,
    smallest_symmetric_eigenvalue,
    solve_linearized_poisson,
    solve_tridiagonal,
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
    phi = solve_linearized_poisson(disc, np.zeros(disc.n), np.zeros(disc.n))
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


def test_manufactured_order_constant_coefficients(monkeypatch):
    # the extrapolated solve is fourth order on the frozen operator (it
    # reads 4.01); without the extrapolation, the fine solve alone read at
    # the same nodes, the central scheme is second order
    discs = [constant_discretization(30.0, 2 * int(round(30.0 / h)) + 1)
             for h in (0.1, 0.05, 0.025)]
    order, errors = manufactured_convergence(discs)
    assert np.all(np.diff(errors) < 0.0)
    assert order >= 3.5
    monkeypatch.setattr(poisson_module, "richardson",
                        lambda solve, disc, *data: solve(disc, *data)[::2])
    order, errors = manufactured_convergence(discs)
    assert np.all(np.diff(errors) < 0.0)
    assert 1.9 <= order <= 2.1


def test_richardson_reads_the_subgrid_at_shared_nodes():
    # the subgrid is every other node of every coefficient array, and the
    # extrapolated value combines the two solves at the shared nodes
    disc = constant_discretization(12.0, 41)
    sub = disc.subgrid()
    for name in ("x", "av", "ap", "axx", "b0", "b1"):
        assert np.array_equal(getattr(sub, name), getattr(disc, name)[::2])
    f = np.exp(-disc.x**2)
    fine, coarse = solve_with_rhs(disc, f), solve_with_rhs(sub, f[::2])
    assert np.array_equal(richardson(solve_with_rhs, disc, f),
                          (4.0 * fine[::2] - coarse) / 3.0)
    for n in (40, 3):
        with pytest.raises(ValueError, match="subgrid"):
            constant_discretization(12.0, n).subgrid()


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
    # the right-hand side is b0 v + b1 v' with the v' it is given, here
    # from the profile's jets; it never differences v itself
    _, _, grid = profile_ref
    disc = discretize_profile(grid)
    vj, _, _ = grid.jets
    v, dv = vj.derivative(1), vj.derivative(2)
    f = rhs_from_velocity(disc, v, dv)
    assert np.array_equal(f, disc.b0 * v + disc.b1 * dv)
    with pytest.raises(TypeError):
        rhs_from_velocity(disc, v)


def _banded(sub, diag, sup):
    """(sub, diag, sup) in scipy.linalg.solve_banded's (1, 1) storage."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = sup[:-1]
    ab[1] = diag
    ab[2, :-1] = sub[1:]
    return ab


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 15, 16, 17, 1000, 1001])
def test_cyclic_reduction_matches_solve_banded(rng, size):
    # diagonally dominant random systems, every parity of every level
    sub, sup, f = rng.normal(size=(3, size))
    diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.1, 1.0, size)
    expected = solve_banded((1, 1), _banded(sub, diag, sup), f)
    got = solve_tridiagonal(sub, diag, sup, f)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("delta", [0.02, 0.1, 0.19])
def test_profile_operator_solve_and_coercivity_bound(rng, delta):
    # on the default grid: the cyclic reduction against solve_banded, and
    # the Gershgorin bound between the check threshold and the lowest
    # eigenvalue of the symmetric part
    params = make_params(delta)
    end = solve_rankine_hugoniot(params)
    disc = discretize_profile(solve_profile(params, end))
    sub, diag, sup = disc.operator_bands()
    f = rng.normal(size=diag.size)
    expected = solve_banded((1, 1), _banded(sub, diag, sup), f)
    got = solve_tridiagonal(sub, diag, sup, f)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    lowest = eigh_tridiagonal(diag, 0.5 * (sub[1:] + sup[:-1]),
                              eigvals_only=True, select="i",
                              select_range=(0, 0))[0]
    bound = smallest_symmetric_eigenvalue(disc)
    threshold = 0.5 * min(params.v_minus / params.v_plus,
                          params.eps**2 / params.v_plus)
    assert threshold <= bound <= lowest
