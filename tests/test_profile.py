from dataclasses import fields, replace

import numpy as np
import pytest

from nspshock.modes import fast_roots
from nspshock.params import PlasmaParams, ShockEndstates, solve_rankine_hugoniot
from nspshock.profile import (
    default_half_length,
    profile_interpolant,
    profile_residual,
    solve_profile,
    verify_profile,
    write_profile_csv,
)


@pytest.fixture(scope="module")
def grid_ref():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0, v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    return solve_profile(p, end, X=200.0, n=4001)


def test_reference_profile_passes(grid_ref):
    rep = verify_profile(grid_ref)
    assert rep.monotonicity_margin > 0.0
    assert np.max(rep.max_residual) <= 1e-8
    assert rep.boundary_mismatch <= 1e-6


def test_phase_condition_exact(grid_ref):
    mid = (grid_ref.n - 1) // 2
    assert grid_ref.x[mid] == 0.0
    assert grid_ref.v[mid] == 1.05


def test_monotonicity_from_tables(grid_ref):
    s = grid_ref.end.s
    assert np.min(s * grid_ref.taylor_jets(1)[0].derivative(1)) > 0.0


def test_mass_balance_exact_at_nodes(grid_ref):
    # u is slaved to v, so s*v' + u' cancels bitwise
    s, p = grid_ref.end.s, grid_ref.params
    vj = grid_ref.taylor_jets(1)[0]
    uj = p.u_minus - s * (vj - p.v_minus)
    assert np.all(uj.value == grid_ref.u)
    assert np.all(s * vj.derivative(1) + uj.derivative(1) == 0.0)


def test_potential_between_endpoint_values(grid_ref):
    # enclosure is strict on the line; the truncated ends sit within
    # domain-truncation error of the limits, so allow that much slack
    phi_minus = -np.log(grid_ref.params.v_minus)
    phi_plus = -np.log(grid_ref.params.v_plus)
    assert np.all(grid_ref.phi < phi_minus + 1e-10)
    assert np.all(grid_ref.phi > phi_plus - 1e-10)
    interior = np.abs(grid_ref.x) < 50.0
    assert np.all(grid_ref.phi[interior] < phi_minus - 1e-8)
    assert np.all(grid_ref.phi[interior] > phi_plus + 1e-8)


def test_steepest_point_near_origin(grid_ref):
    k = np.argmax(grid_ref.taylor_jets(1)[0].derivative(1))
    assert abs(grid_ref.x[k]) <= 1.0


def test_derivative_table_against_finite_differences(grid_ref):
    v, h = grid_ref.v, grid_ref.h
    fd = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    dv = grid_ref.taylor_jets(1)[0].derivative(1)
    assert np.max(np.abs(fd - dv[2:-2])) < 1e-9


def test_interpolant_reproduces_nodes(grid_ref):
    vals = profile_interpolant(grid_ref)(grid_ref.x)
    stored = np.stack([grid_ref.v, grid_ref.u, grid_ref.phi, grid_ref.psi],
                      axis=-1)
    assert np.max(np.abs(vals - stored)) < 1e-13


def test_decay_rate_matches_slow_root(grid_ref):
    rep = verify_profile(grid_ref)
    g1p = fast_roots(grid_ref.params, grid_ref.end, "plus").gamma1
    assert abs(rep.decay_exponent - g1p) < 1e-5


def test_ratio_constants_positive_and_bounded(grid_ref):
    rep = verify_profile(grid_ref)
    s, vm = grid_ref.end.s, grid_ref.params.v_minus
    assert 0.0 < rep.ratio_low <= rep.ratio_high < 2.0 / (s * vm)


def test_residual_order_under_refinement():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    res = []
    for n in (501, 1001):
        g = solve_profile(p, end, X=200.0, n=n)
        res.append(np.max(profile_residual(g)))
    order = np.log2(res[0] / res[1])
    assert order >= 3.5


def test_default_domain_converges():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.05)
    end = solve_rankine_hugoniot(p)
    g = solve_profile(p, end)
    rep = verify_profile(g)
    assert np.max(rep.max_residual) <= 1e-8
    assert rep.monotonicity_margin > 0.0
    assert rep.boundary_mismatch <= 1e-6


def test_short_domain_fails_boundary_check():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    g = solve_profile(p, end, X=50.0, n=1001)
    rep = verify_profile(g)
    assert rep.boundary_mismatch > 1e-6
    assert not (np.max(rep.max_residual) <= 1e-8
                and rep.monotonicity_margin > 0.0
                and rep.boundary_mismatch <= 1e-6)


def test_zero_amplitude_profile_is_constant():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.0)
    s = np.sqrt((p.T + 1.0) / (p.v_minus * p.v_plus))
    end = ShockEndstates(s=s, u_plus=p.u_minus, phi_minus=0.0, phi_plus=0.0)
    g = solve_profile(p, end, X=40.0, n=201)
    assert np.all(g.v == p.v_minus)
    assert np.max(profile_residual(g)) == 0.0


def test_zero_amplitude_needs_explicit_domain():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.0)
    s = np.sqrt((p.T + 1.0) / (p.v_minus * p.v_plus))
    end = ShockEndstates(s=s, u_plus=p.u_minus, phi_minus=0.0, phi_plus=0.0)
    with pytest.raises(ValueError, match="X"):
        default_half_length(p, end)


def test_even_node_count_rejected():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    with pytest.raises(ValueError, match="odd"):
        solve_profile(p, end, X=100.0, n=1000)


def test_profile_csv_roundtrip(grid_ref, tmp_path):
    path = tmp_path / "profile.csv"
    write_profile_csv(grid_ref, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "x,v,u,phi,dv,du,dphi,d2phi"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (grid_ref.n, 8)
    assert np.allclose(data[:, 1], grid_ref.v, atol=1e-12)
    assert np.allclose(data[:, 7], grid_ref.taylor_jets(2)[1].derivative(2),
                       atol=1e-12)


def test_bare_grid_gives_stored_jet_results(grid_ref, tmp_path):
    # fresh jets agree exactly with stored ones in every shared
    # coefficient, so a bare grid gives the same floats and bytes
    stored = replace(grid_ref, jets=grid_ref.state_jets(5))
    assert grid_ref.jets is None
    assert np.array_equal(profile_residual(grid_ref), profile_residual(stored))
    bare_rep, stored_rep = verify_profile(grid_ref), verify_profile(stored)
    for f in fields(bare_rep):
        assert np.array_equal(getattr(bare_rep, f.name),
                              getattr(stored_rep, f.name), equal_nan=True)
    write_profile_csv(grid_ref, tmp_path / "bare.csv")
    write_profile_csv(stored, tmp_path / "stored.csv")
    assert ((tmp_path / "bare.csv").read_bytes()
            == (tmp_path / "stored.csv").read_bytes())
