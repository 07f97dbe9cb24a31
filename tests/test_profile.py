import tracemalloc

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.interpolate import PPoly
from scipy.linalg import solve_banded

from nspshock.eigensystem import cell_values
from nspshock.modes import fast_roots
from nspshock.params import PlasmaParams, ShockEndstates, solve_rankine_hugoniot
import nspshock.profile as profile_module
from nspshock.profile import (
    RESIDUAL_REFINE,
    _cell_blocks,
    _newton_step,
    _newton_system,
    _residual,
    default_half_length,
    far_field_rows,
    initial_guess,
    profile_cells,
    profile_residual,
    rhs_jacobian,
    solve_profile,
    verify_profile,
    write_profile_csv,
)
from nspshock.transversality import _GAUSS, SUBSTEPS


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
    assert np.min(s * grid_ref.jets[0].derivative(1)) > 0.0


def test_mass_balance_exact_at_nodes(grid_ref):
    # u is slaved to v, so s*v' + u' cancels bitwise
    s, p = grid_ref.end.s, grid_ref.params
    vj = grid_ref.jets[0]
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
    k = np.argmax(grid_ref.jets[0].derivative(1))
    assert abs(grid_ref.x[k]) <= 1.0


def test_derivative_table_against_finite_differences(grid_ref):
    v, h = grid_ref.v, grid_ref.h
    fd = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    dv = grid_ref.jets[0].derivative(1)
    assert np.max(np.abs(fd - dv[2:-2])) < 1e-9


def test_interpolant_reproduces_nodes(grid_ref):
    # both ends of every cell: the nodes
    ends = cell_values(profile_cells(grid_ref), [0.0, grid_ref.h])
    stored = np.stack([grid_ref.v, grid_ref.u, grid_ref.phi, grid_ref.psi],
                      axis=-1)
    assert np.max(np.abs(ends[:, 0] - stored[:-1])) < 1e-13
    assert np.max(np.abs(ends[:, 1] - stored[1:])) < 1e-13


def test_interpolant_matches_ppoly_of_its_cells(grid_ref):
    # the cells read as scipy's piecewise polynomial reads them: at the
    # residual check's offsets, both ends included, and at the two Gauss
    # points of one Magnus step, which are not equally spaced
    cells = profile_cells(grid_ref)
    poly = PPoly(cells, grid_ref.x)
    h = grid_ref.h
    step = h / SUBSTEPS
    reads = [(np.arange(RESIDUAL_REFINE + 1) * (h / RESIDUAL_REFINE), (0, 1)),
             (step * (1 + _GAUSS), (0, 1, 2))]
    for offsets, orders in reads:
        xs = grid_ref.x[:-1, None] + offsets
        for nu in orders:
            ref = poly(xs.ravel(), nu).reshape(xs.shape + (4,))
            assert np.all(np.isfinite(ref))
            assert np.max(np.abs(cell_values(cells, offsets, nu) - ref)) \
                <= 1e-13 * np.max(np.abs(ref))


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
    assert np.allclose(data[:, 7], grid_ref.jets[1].derivative(2),
                       atol=1e-12)


def test_solved_grid_carries_its_order_3_jets(grid_ref):
    # solve_profile attaches state_jets(3); jets of any other order agree
    # with them exactly in every coefficient they share, so every reader
    # of grid.jets gets the floats it would get from jets of its own order
    assert [j.order for j in grid_ref.jets] == [3, 3, 3]
    for order in (1, 3, 5):
        fresh = grid_ref.state_jets(order)
        shared = min(order, 3) + 1
        for stored, own in zip(grid_ref.jets, fresh):
            assert np.array_equal(stored.coef[:shared], own.coef[:shared])


def _newton_band(y, h, mid, p, end, ym, far):
    """The Newton matrix in scipy.linalg.solve_banded's (4, 4) band
    storage, a[row, col] at ab[4 + row - col, col], rows in the order of
    _residual's F; built from the cells' blocks and the end and phase
    rows."""
    L, R = _cell_blocks(y, h, p, end, ym)
    rows = far[0]
    size = y.size
    ab = np.zeros((9, size))

    def put(row, col, value):
        ab[4 + row - col, col] = value

    k = np.arange(L.shape[0])
    first = 3 * k + 1 + (k >= mid)      # first row of cell k
    for i in range(3):
        for c in range(3):
            put(first + i, 3 * k + c, L[:, i, c])
            put(first + i, 3 * k + 3 + c, R[:, i, c])
    cols = np.arange(3)
    put(np.zeros(3, dtype=int), cols, rows[0])
    put(3 * mid + 1, 3 * mid, 1.0)
    put(np.full(3, size - 1), size - 3 + cols, rows[1])
    return ab


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


def _first_newton_system(delta, n, X=None):
    """(p, end, y, h, mid, far, F, ym) at the initial guess."""
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.0 + delta)
    end = solve_rankine_hugoniot(p)
    if X is None:
        X = default_half_length(p, end)
    x = np.linspace(-X, X, n)
    y, h, mid = initial_guess(x, p, end), x[1] - x[0], (n - 1) // 2
    far = far_field_rows(p, end)
    F, ym = _residual(y, h, mid, p, end, far)
    return p, end, y, h, mid, far, F, ym


@pytest.fixture(scope="module")
def small_system():
    p, end, y, h, mid, far, _, _ = _first_newton_system(0.1, 21, X=10.0)
    return p, end, y, h, mid, far


def test_band_matrix_is_the_jacobian_of_its_residual(small_system):
    # oracle: central differences of the residual
    p, end, y, h, mid, far = small_system
    F, ym = _residual(y, h, mid, p, end, far)
    dense = _dense_from_band(_newton_band(y, h, mid, p, end, ym, far), 4)

    def residual(flat):
        return _residual(flat.reshape(y.shape), h, mid, p, end, far)[0]

    step = 1e-6
    fd = np.empty_like(dense)
    for k in range(F.size):
        e = np.zeros(F.size)
        e[k] = step
        fd[:, k] = (residual(y.ravel() + e) - residual(y.ravel() - e)) / (2 * step)
    assert np.max(np.abs(dense - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_band_assembly_does_not_depend_on_the_block_size(small_system,
                                                          monkeypatch):
    # one block per chain is the reference; smaller blocks, odd ones that
    # start on either cell of a pair included, must give the same floats
    p, end, y, h, mid, far = small_system
    F, ym = _residual(y, h, mid, p, end, far)
    W, carry = _newton_system(y, h, mid, p, end, ym, F)
    for cells in (1, 2, 7, mid):
        monkeypatch.setattr(profile_module, "BLOCK_CELLS", cells)
        W2, carry2 = _newton_system(y, h, mid, p, end, ym, F)
        assert np.array_equal(W2, W) and np.array_equal(carry2, carry)


def test_band_solve_matches_solve_banded(monkeypatch):
    # the small systems have an even and an odd chain; the 4001-node ones
    # are the first Newton matrices of the default grid
    for case in ((0.1, 21, 10.0), (0.1, 23, 10.0), (0.02, 4001, None),
                 (0.1, 4001, None), (0.19, 4001, None)):
        p, end, y, h, mid, far, F, ym = _first_newton_system(*case)
        band = _newton_band(y, h, mid, p, end, ym, far)
        expected = solve_banded((4, 4), band, -F).reshape(y.shape)
        step = _newton_step(y, h, mid, p, end, ym, far, F)
        assert (np.max(np.abs(step - expected))
                <= 1e-13 * np.max(np.abs(expected))), case

    # zero the column of unknown 5 (y_1[2]): cells 0 and 1 are the only
    # rows that read it, so the first pair's middle block loses rank
    p, end, y, h, mid, far, F, ym = _first_newton_system(0.1, 21, X=10.0)
    blocks = profile_module._cell_blocks

    def zeroed(y, h, params, end, ym):
        L, R = blocks(y, h, params, end, ym)
        R[0, :, 2] = L[1, :, 2] = 0.0
        return L, R

    monkeypatch.setattr(profile_module, "_cell_blocks", zeroed)
    with pytest.raises(LinAlgError):
        _newton_step(y, h, mid, p, end, ym, far, F)


def test_newton_memory_is_within_twice_the_band_storage():
    # tracemalloc counts numpy's buffers, so the bound does not depend on
    # the host.  The bound is twice the (13, 3n) float band array that the
    # LAPACK gbsv solver of earlier versions factored in place at
    # n = 20001, 2 * 8 * 13 * 3 * 20001 bytes: the reduction's first level,
    # the triangular rows it keeps and the next level fit in it
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    tracemalloc.start()
    try:
        solve_profile(p, end, X=250.0, n=20001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12_480_624


@pytest.mark.parametrize("n", [3, 5, 7])
def test_tiny_grids_report_no_decay_fit(n):
    # the fit window [X/2, 3X/4] holds fewer than two of these nodes, so
    # the decay exponent is NaN, as when the tail touches v+; below three
    # nodes there is no grid
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.1)
    end = solve_rankine_hugoniot(p)
    assert np.isnan(verify_profile(solve_profile(p, end, n=n)).decay_exponent)
    with pytest.raises(ValueError, match="at least 3"):
        solve_profile(p, end, n=1)


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


@pytest.mark.parametrize("delta", [0.02, 0.1, 0.19])
def test_far_rows_are_left_eigenvectors(delta):
    # row k is the left eigenvector of J at its end for the one fast
    # root the orbit misses there: gamma2 at y-, gamma3 at y+
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.0 + delta)
    end = solve_rankine_hugoniot(p)
    rows, ends = far_field_rows(p, end)
    assert np.array_equal(ends, [[p.v_minus, end.phi_minus, 0.0],
                                 [p.v_plus, end.phi_plus, 0.0]])
    gammas = (fast_roots(p, end, "minus").gamma2,
              fast_roots(p, end, "plus").gamma3)
    for row, J, g in zip(rows, rhs_jacobian(ends, p, end), gammas):
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(row @ (J - g * np.eye(3)))) <= 1e-13


@pytest.mark.parametrize("delta", [0.02, 0.1, 0.19])
def test_default_grid_matches_a_doubled_domain(delta):
    # the projection rows leave an error second order in the tail gap:
    # the default grid is the middle of a solve on twice the domain with
    # the same step (clamping v at the ends misses it by about 3e-8 delta)
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                     v_plus=1.0 + delta)
    end = solve_rankine_hugoniot(p)
    grid = solve_profile(p, end)
    half = (grid.n - 1) // 2
    wide = solve_profile(p, end, X=2.0 * grid.X, n=2 * grid.n - 1)
    middle = slice(half, half + grid.n)
    assert np.allclose(wide.x[middle], grid.x, rtol=0.0, atol=1e-12 * grid.X)
    for name in ("v", "phi", "psi"):
        gap = np.max(np.abs(getattr(wide, name)[middle] - getattr(grid, name)))
        assert gap <= 1e-11 * delta, name
