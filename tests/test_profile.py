from dataclasses import fields, replace

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import PPoly
from scipy.linalg import LinAlgError, solve_banded

from nspshock.eigensystem import refined_values
from nspshock.modes import fast_roots
from nspshock.params import PlasmaParams, ShockEndstates, solve_rankine_hugoniot
import nspshock.profile as profile_module
from nspshock.profile import (
    BANDS,
    _band_solve,
    _banded_system,
    _residual_vector,
    default_half_length,
    initial_guess,
    profile_cells,
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
    # one point per cell and the right end: the nodes
    vals = refined_values(profile_cells(grid_ref), grid_ref.h, 1)
    stored = np.stack([grid_ref.v, grid_ref.u, grid_ref.phi, grid_ref.psi],
                      axis=-1)
    assert np.max(np.abs(vals - stored)) < 1e-13


def test_interpolant_matches_ppoly_of_its_cells(grid_ref):
    # the cells read as scipy's piecewise polynomial reads them, on the
    # refined residual grid with both ends
    cells = profile_cells(grid_ref)
    poly = PPoly(cells, grid_ref.x)
    xs = np.linspace(grid_ref.x[0], grid_ref.x[-1], 4 * (grid_ref.n - 1) + 1)
    for nu in (0, 1):
        ref = poly(xs, nu)
        assert np.all(np.isfinite(ref))
        assert np.max(np.abs(refined_values(cells, grid_ref.h, 4, nu)
                             - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def _dense_from_band(ab, upper):
    """Dense matrix with a[row, col] = ab[upper + row - col, col]."""
    size = ab.shape[1]
    dense = np.zeros((size, size))
    cols = np.arange(size)
    for d in range(ab.shape[0]):
        rows = cols + d - upper
        inside = (rows >= 0) & (rows < size)
        dense[rows[inside], cols[inside]] = ab[d, inside]
    return dense


@pytest.fixture(scope="module")
def small_system():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    n, X = 21, 10.0
    x = np.linspace(-X, X, n)
    return p, end, initial_guess(x, p, end), x[1] - x[0], (n - 1) // 2


def test_band_matrix_is_the_jacobian_of_its_residual(small_system):
    # oracle: central differences of the banded residual itself
    p, end, y, h, mid = small_system
    ab, F = _banded_system(y, h, mid, p, end)
    assert ab.shape == (3 * BANDS + 1, F.size)
    assert np.all(ab[:BANDS] == 0.0)
    dense = _dense_from_band(ab[BANDS:], BANDS)

    def residual(flat):
        return _banded_system(flat.reshape(y.shape), h, mid, p, end)[1]

    step = 1e-6
    fd = np.empty_like(dense)
    for k in range(F.size):
        e = np.zeros(F.size)
        e[k] = step
        fd[:, k] = (residual(y.ravel() + e) - residual(y.ravel() - e)) / (2 * step)
    assert np.max(np.abs(dense - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_band_assembly_does_not_depend_on_the_block_size(small_system,
                                                          monkeypatch):
    # one block per side is the reference; smaller blocks, one that ends
    # on the phase row included, must give the same floats
    p, end, y, h, mid = small_system
    ab, F = _banded_system(y, h, mid, p, end)
    assert ab.flags.f_contiguous
    for cells in (1, 2, 7, mid):
        monkeypatch.setattr(profile_module, "BLOCK_CELLS", cells)
        ab_blocks, F_blocks = _banded_system(y, h, mid, p, end)
        assert np.array_equal(ab_blocks, ab)
        assert np.array_equal(F_blocks, F)


def test_band_solve_matches_solve_banded(small_system):
    p, end, y, h, mid = small_system
    ab, F = _banded_system(y, h, mid, p, end)
    expected = solve_banded((BANDS, BANDS), ab[BANDS:], -F)
    assert np.array_equal(_band_solve(ab, -F), expected)

    ab, F = _banded_system(y, h, mid, p, end)
    ab[:, 5] = 0.0
    with pytest.raises(LinAlgError):
        _band_solve(ab, -F)


def test_newton_memory_is_within_twice_the_band_storage():
    # tracemalloc counts numpy's buffers, so the bound does not depend on
    # the host: one gbsv band array and a few (n, 3) arrays at a time
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    n = 20001
    tracemalloc.start()
    try:
        solve_profile(p, end, X=250.0, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * (3 * BANDS + 1) * 3 * n


def test_band_residual_is_a_row_permutation(small_system):
    # banded rows: left clamp, cells left of mid, phase, other cells,
    # right clamp; _residual_vector: all cells, left, right, phase
    p, end, y, h, mid = small_system
    _, F = _banded_system(y, h, mid, p, end)
    size = F.size
    phase = 3 * mid + 1
    natural = np.concatenate([F[1:phase], F[phase + 1:size - 1],
                              [F[0], F[size - 1], F[phase]]])
    assert np.array_equal(natural, _residual_vector(y, h, mid, p, end))


def test_newton_work_recorded_on_grid(grid_ref):
    assert isinstance(grid_ref.newton_iterations, int)
    assert grid_ref.newton_iterations > 0
    assert 0.0 <= grid_ref.newton_defect <= 1e-12


def test_non_finite_newton_matrix_is_a_typed_failure(monkeypatch):
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    monkeypatch.setattr(profile_module, "rhs_jacobian",
                        lambda y, params, end: np.full(y.shape + (3,), np.nan))
    with pytest.raises(RuntimeError) as info:
        solve_profile(p, end, X=100.0, n=201)
    msg = str(info.value)
    assert msg.startswith("profile Newton: step 1 failed on n=201, X=100")
    assert "defect" in msg
