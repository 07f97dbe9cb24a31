import numpy as np
import pytest

from nspshock.eigensystem import (
    background_wave,
    interior_coefficients,
    interior_matrix_coeffs,
    limit_matrix,
    limit_matrix_coeffs,
    wave_residual,
)
from nspshock.jets import Jet
from nspshock.params import PlasmaParams, solve_rankine_hugoniot
from nspshock.profile import solve_profile


@pytest.fixture(scope="module")
def setup():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    grid = solve_profile(p, end, X=200.0, n=2001)
    vj, pj, sj = grid.state_jets(5)
    tab = interior_coefficients(grid.x, vj, pj, sj, p, end)
    A0, A1, A2 = (a.value for a in interior_matrix_coeffs(tab))
    return p, end, grid, (vj, pj, sj), tab, (A0, A1, A2)


def _constant_jets(v, phi, m, order=5):
    vj = Jet.constant(np.full(m, v), order)
    pj = Jet.constant(np.full(m, phi), order)
    sj = Jet.constant(np.zeros(m), order)
    return vj, pj, sj


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_interior_assembly_freezes_to_limit(side):
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    v = p.v_minus if side == "minus" else p.v_plus
    phi = -np.log(v)
    m = 4
    vj, pj, sj = _constant_jets(v, phi, m)
    tab = interior_coefficients(np.zeros(m), vj, pj, sj, p, end)
    A0, A1, A2 = (a.value for a in interior_matrix_coeffs(tab))
    L0, L1 = limit_matrix_coeffs(p, end, side)
    assert np.max(np.abs(A0 - L0)) < 1e-13
    assert np.max(np.abs(A1 - L1)) < 1e-13
    assert np.max(np.abs(A2)) < 1e-15


def test_profile_tables_approach_limits_at_ends(setup):
    p, end, grid, jets, tab, (A0, A1, A2) = setup
    for idx, side in ((0, "minus"), (-1, "plus")):
        L0, L1 = limit_matrix_coeffs(p, end, side)
        assert np.max(np.abs(A0[idx] - L0)) < 1e-9
        assert np.max(np.abs(A1[idx] - L1)) < 1e-9


def test_wave_derivative_solves_zero_lambda_system(setup):
    p, end, grid, (vj, pj, sj), tab, (A0, A1, A2) = setup
    W0, dW0 = background_wave(vj, pj, sj, p, end)
    assert wave_residual(A0, W0, dW0) < 1e-10


def test_single_entry_perturbations_are_detected(setup):
    p, end, grid, (vj, pj, sj), tab, (A0, A1, A2) = setup
    W0, dW0 = background_wave(vj, pj, sj, p, end)
    for entry in ((0, 0), (2, 4), (4, 3)):
        bumped = A0.copy()
        bumped[:, entry[0], entry[1]] += 0.01
        assert wave_residual(bumped, W0, dW0) > 1e-3


def test_quadratic_term_only_couples_density_to_flux_row(setup):
    p, end, grid, jets, tab, (A0, A1, A2) = setup
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 0] = True
    assert np.max(np.abs(A2[:, ~mask])) == 0.0
    expected = tab.b1.value * tab.b2.value / (tab.s * tab.P.value)
    assert np.allclose(A2[:, 2, 0], expected, rtol=1e-12)


def test_pivot_positive_on_grid(setup):
    p, end, grid, jets, tab, A = setup
    assert np.all(tab.P.value > 0.0)
    assert np.allclose(tab.P.value, tab.s * tab.b2.value - tab.b1.value,
                       rtol=1e-14)


def test_limit_matrix_affine_in_lambda():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    lam = 0.3 + 0.2j
    M = limit_matrix(p, end, "plus", lam)
    A0, A1 = limit_matrix_coeffs(p, end, "plus")
    assert np.allclose(M, A0 + lam * A1, atol=0.0)
