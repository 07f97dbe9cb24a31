"""Reduced 3-D system: wave residual, limit rates, bounded-solution count."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from nspshock.cli import main
from nspshock.eigensystem import background_wave, cell_values, hermite_table
from nspshock.modes import fast_roots
from nspshock.params import PlasmaParams, ShockEndstates, solve_rankine_hugoniot
from nspshock.profile import (far_field_rows, profile_cells, rhs_jacobian,
                              solve_profile)
import nspshock.transversality as transversality_module
from nspshock.transversality import (
    RANK_THRESHOLD,
    TRANSPORT_TOL,
    ReducedSystem,
    angle_to_wave,
    bounded_solution_dim,
    build_reduced_system,
    limit_eigenvalues,
    propagator,
    reduced_limit_matrix,
    reduced_matrix,
    reduced_wave_residual,
)

from conftest import make_params


def constant_reduced_system(params: PlasmaParams, X: float = 40.0,
                            n: int = 401) -> ReducedSystem:
    """Degenerate zero-amplitude system: the profile frozen at y- in
    constant cells, so Atilde is A0, with v+ = v-, so that both projection
    rows are left eigenvectors of A0."""
    params = replace(params, v_plus=params.v_minus)
    A0 = reduced_limit_matrix(params)
    x = np.linspace(-X, X, n)
    tables = np.broadcast_to(A0, (n, 3, 3)).copy()
    phi = -np.log(params.v_minus)
    end = ShockEndstates(s=np.sqrt(params.T + 1.0) / params.v_minus,
                         u_plus=params.u_minus, phi_minus=phi, phi_plus=phi)
    # (v, u, phi, psi) of profile.profile_cells, constant on every node
    values = np.tile([params.v_minus, params.u_minus, phi, 0.0], (n, 1))
    zeros = np.zeros((n, 4))
    return ReducedSystem(
        params=params, end=end, x=x, tables=tables,
        cells=hermite_table(x, values, zeros, zeros),
        A0=A0, sigma=limit_eigenvalues(params))


# independent oracle: the planes carried as QR-orthonormalized frames
# under V' = Atilde V, read from a CubicSpline through the tables, on
# segments sized by the spread of the rates inside each plane
def _qr_frame(spline, basis, x_from, x_to, rtol, atol, nseg):
    Q, _ = np.linalg.qr(basis)

    def rhs(x, y):
        return (spline(x).reshape(3, 3) @ y.reshape(3, 2)).ravel()

    xs = np.linspace(x_from, x_to, nseg + 1)
    for a, b in zip(xs[:-1], xs[1:]):
        sol = solve_ivp(rhs, (a, b), Q.ravel(), method="DOP853",
                        rtol=rtol, atol=atol)
        assert sol.success
        Q, _ = np.linalg.qr(sol.y[:, -1].reshape(3, 2))
    return Q


def frame_intersection(S, U):
    """(dimension, singular values, unit intersection vector) of the planes
    spanned by the orthonormal (3, 2) frames S and U, by the SVD route:
    the singular values of the 3 x 4 stack [S, U], and the combination of
    the S columns that lies in span(U), the last right singular vector of
    (I - U U^T) S, signed so that its largest entry is positive."""
    sv = np.linalg.svd(np.concatenate([S, U], axis=1), compute_uv=False)
    dim = 4 - int(np.sum(sv > RANK_THRESHOLD * sv[0]))
    vec = S @ np.linalg.svd((np.eye(3) - U @ U.T) @ S)[2][-1]
    vec = vec / (np.linalg.norm(vec) * np.sign(vec[np.argmax(np.abs(vec))]))
    return dim, sv, vec


def qr_frame_intersection(system, rtol=1e-11, atol=1e-13):
    """frame_intersection of the QR frames carried to x = 0."""
    frames = []
    spline = CubicSpline(system.x, system.tables.reshape(-1, 9), axis=0)
    ends = ((system.tables[-1], system.X, lambda w: w <= 1e-10),
            (system.tables[0], -system.X, lambda w: w >= -1e-10))
    for M, x_from, keep in ends:
        w, V = np.linalg.eig(M)
        w, V = w.real, V.real
        spread = float(np.ptp(w[keep(w)]))
        nseg = max(4, int(np.ceil(system.X * spread / 12.0)))
        frames.append(_qr_frame(spline, V[:, keep(w)], x_from, 0.0, rtol,
                                atol, nseg))
    return frame_intersection(*frames)


@pytest.fixture(scope="module")
def systems():
    """delta -> (grid, reduced system) for the swept amplitudes."""
    out = {}
    for delta in (0.02, 0.05, 0.1):
        params = make_params(delta)
        end = solve_rankine_hugoniot(params)
        grid = solve_profile(params, end, n=3001)
        out[delta] = (grid, build_reduced_system(grid))
    return out


def test_limit_eigenvalues_reference():
    params = make_params(0.1)
    sm, s0, sp = limit_eigenvalues(params)
    assert s0 == 0.0
    assert abs(sm - (-1.414214)) < 5e-7
    assert abs(sp - 0.707107) < 5e-7
    assert abs(sm + np.sqrt(2.0)) < 1e-12
    assert abs(sp - 1.0 / np.sqrt(2.0)) < 1e-12
    # both solve sigma^2 + sigma/sqrt(2) - 1 = 0
    for sig in (sm, sp):
        assert abs(sig**2 + sig / np.sqrt(2.0) - 1.0) < 1e-12


def test_limit_eigenvalues_match_matrix_and_vieta():
    for params in (
        make_params(0.1),
        PlasmaParams(T=1.7, nu=0.8, eps=1.3, v_minus=0.9, u_minus=0.4, v_plus=0.95),
    ):
        sm, _, sp = limit_eigenvalues(params)
        assert sm < 0.0 < sp
        assert abs(sm * sp + params.v_minus / params.eps**2) < 1e-12
        T, nu = params.T, params.nu
        assert abs(sm + sp + 1.0 / (nu * np.sqrt(T + 1.0))) < 1e-12
        eigs = np.sort(np.linalg.eigvals(reduced_limit_matrix(params)).real)
        assert np.max(np.abs(eigs - np.sort([sm, 0.0, sp]))) < 1e-12


def test_wave_solves_reduced_system(systems):
    grid, sys_ = systems[0.1]
    assert reduced_wave_residual(sys_, grid) < 1e-6


def test_reduced_matrix_matches_tables(systems):
    # the reader at each cell's left node is the matrix of that node
    grid, sys_ = systems[0.1]
    read = sys_.reader(slice(None))
    assert np.allclose(read([0.0])[:, 0], sys_.tables[:-1],
                       rtol=0.0, atol=1e-12)


def test_zero_amplitude_matrix_is_constant_reference():
    params = make_params(0.1)
    sys0 = constant_reduced_system(params, X=30.0, n=201)
    A0 = reduced_limit_matrix(params)
    assert sys0.end.s == np.sqrt(params.T + 1.0) / params.v_minus
    assert np.max(np.abs(sys0.tables - A0)) == 0.0
    read = sys0.reader(slice(None))
    assert np.allclose(read([0.0])[:, 0], sys0.tables[:-1],
                       rtol=0.0, atol=1e-12)
    assert np.max(np.abs(read([0.0, 0.1, 0.2]) - A0)) < 1e-13
    assert sys0.deviation_sup() == 0.0


def test_deviation_sup_equals_the_matrix_two_norm(params_ref, end_ref):
    # the largest singular value read straight from svd is the same LAPACK
    # result as norm(ord=2), bit for bit, on the reference grid
    sys_ = build_reduced_system(solve_profile(params_ref, end_ref))
    old = float(np.max(np.linalg.norm(sys_.tables - sys_.A0, ord=2,
                                      axis=(1, 2))))
    assert sys_.deviation_sup() == old


def test_deviation_scales_linearly(systems):
    ratios = [sys_.deviation_sup() / delta for delta, (_, sys_) in systems.items()]
    assert max(ratios) / min(ratios) < 1.1


def test_bounded_solution_dim_reference(systems):
    grid, sys_ = systems[0.1]
    res = bounded_solution_dim(sys_)
    assert res.dimension == 1
    assert angle_to_wave(res.vector, grid) <= 1e-5
    # the three transported directions span confidently above threshold
    assert res.singular_values[2] > 0.1 * res.singular_values[0]


def test_bounded_solution_dim_small_amplitude(systems):
    grid, sys_ = systems[0.02]
    res = bounded_solution_dim(sys_)
    assert res.dimension == 1
    assert angle_to_wave(res.vector, grid) <= 1e-5


@pytest.mark.parametrize("delta", [0.02, 0.1])
def test_normals_match_qr_frames(systems, delta):
    grid, sys_ = systems[delta]
    res = bounded_solution_dim(sys_)
    dim, sv, vec = qr_frame_intersection(sys_)
    assert res.dimension == dim == 1
    assert np.max(np.abs(res.singular_values - sv) / sv) <= 1e-9
    assert min(np.max(np.abs(res.vector - vec)),
               np.max(np.abs(res.vector + vec))) <= 1e-9


@pytest.mark.parametrize("delta", [0.02, 0.1, 0.19])
def test_start_normals_are_the_projection_rows(monkeypatch, delta):
    # each plane's normal starts as the profile's projection row at its
    # end, written in V and normalized; it annihilates the plane bounded at
    # that end, classified here by np.linalg.eig of J(y+-) in V
    params = make_params(delta)
    end = solve_rankine_hugoniot(params)
    grid = solve_profile(params, end)
    starts = {}
    propagate = transversality_module._propagate_plane

    def spy(read, h, normal, backward):
        starts["+" if backward else "-"] = normal
        return propagate(read, h, normal, backward)

    monkeypatch.setattr(transversality_module, "_propagate_plane", spy)
    res = bounded_solution_dim(build_reduced_system(grid))
    assert res.dimension == 1
    rows, ends = far_field_rows(params, end)
    ends_V = reduced_matrix(ends, params, end)
    for row, M, side in zip(rows, ends_V, "-+"):
        normal = starts[side]
        mapped = row * [-1.0 / end.s, 1.0, 1.0]
        mapped = mapped / np.linalg.norm(mapped)
        assert np.max(np.abs(normal - mapped)) <= 1e-15
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-15
        w, V = np.linalg.eig(M)
        assert np.max(np.abs(w.imag)) == 0.0
        bounded = w.real < 0.0 if side == "+" else w.real > 0.0
        assert np.count_nonzero(bounded) == 2
        assert np.max(np.abs(normal @ V[:, bounded].real)) < 1e-14


@pytest.mark.parametrize("delta", [0.02, 0.19])
def test_magnus_steps_read_the_jacobian_of_the_profile_cells(monkeypatch,
                                                            delta):
    # every matrix the Magnus steps read is diag(-s, 1, 1) J diag(-1/s, 1, 1)
    # of the profile Jacobian J at the (v, phi, psi) of profile.profile_cells,
    # at the two Gauss points of each step: of the cells right of x = 0 on
    # the backward side and left of it on the forward one
    params = make_params(delta)
    end = solve_rankine_hugoniot(params)
    grid = solve_profile(params, end)
    seen = []
    propagate = transversality_module._propagate_plane

    def spy(read, h, normal, backward):
        def recording(offsets):
            A = read(offsets)
            seen.append((backward, h, np.array(offsets), A.copy()))
            return A
        return propagate(recording, h, normal, backward)

    monkeypatch.setattr(transversality_module, "_propagate_plane", spy)
    res = bounded_solution_dim(build_reduced_system(grid))
    assert res.dimension == 1 and res.work["substeps"] == 4

    cells, mid = profile_cells(grid), (grid.n - 1) // 2
    to_V = np.diag([-end.s, 1.0, 1.0]), np.diag([-1.0 / end.s, 1.0, 1.0])
    gauss = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
    # each side reads 4 steps per cell, then 2 for the check
    assert [(b, o.size) for b, _, o, _ in seen] == [
        (True, 8), (True, 4), (False, 8), (False, 4)]
    for backward, h, offsets, A in seen:
        assert h == 2.0 * grid.X / (grid.n - 1)
        steps = offsets.size // 2
        assert np.allclose(
            offsets, (h / steps) * (np.arange(steps)[:, None] + gauss).ravel(),
            rtol=1e-15, atol=0.0)
        side = cells[:, mid:] if backward else cells[:, :mid]
        y = cell_values(side, offsets)[..., [0, 2, 3]]
        ref = to_V[0] @ rhs_jacobian(y, params, end) @ to_V[1]
        assert A.shape == ref.shape == (mid, offsets.size, 3, 3)
        scale = np.max(np.abs(ref), axis=(2, 3), keepdims=True)
        assert np.max(np.abs(A - ref) / scale) <= 1e-14


def test_angle_to_wave_resolves_tiny_angles(systems):
    # arccos of the cosine reads 0 below about 1.5e-8; the chord between
    # the unit vectors resolves the angle itself
    grid, sys_ = systems[0.1]
    res = bounded_solution_dim(sys_)
    Vbar = background_wave(*grid.jets, grid.params,
                           grid.end)[0][grid.n // 2, [1, 3, 4]]
    Vbar = np.sign(res.vector @ Vbar) * Vbar / np.linalg.norm(Vbar)
    chord = np.linalg.norm(res.vector - Vbar)
    angle = angle_to_wave(res.vector, grid)
    assert 0.0 < angle < 1e-8
    assert abs(angle - chord) <= 1e-3 * chord


def test_intersection_vector_tracks_wave(systems):
    grid, sys_ = systems[0.05]
    res = bounded_solution_dim(sys_)
    Vbar = background_wave(*grid.jets, grid.params,
                           grid.end)[0][grid.n // 2, [1, 3, 4]]
    Vbar = Vbar / np.linalg.norm(Vbar)
    assert abs(abs(res.vector @ Vbar) - 1.0) < 1e-9
    # the sign is fixed: the largest entry is positive
    assert res.vector[np.argmax(np.abs(res.vector))] > 0.0


def _fixed_normals(monkeypatch, n_plus, n_minus):
    """Make _propagate_plane return n_plus backward and n_minus forward,
    with no transport error, in place of the transported normals."""
    def fixed(read, h, normal, backward):
        return (n_plus if backward else n_minus), 0.0, 4

    monkeypatch.setattr(transversality_module, "_propagate_plane", fixed)


def test_closed_form_matches_the_svd_route(monkeypatch):
    eps = np.finfo(float).eps
    sys0 = constant_reduced_system(make_params(0.1), X=4.0, n=41)
    rng = np.random.default_rng(34)
    for _ in range(200):
        n_plus, n_minus = rng.standard_normal((2, 3))
        n_plus, n_minus = (n / np.linalg.norm(n) for n in (n_plus, n_minus))
        _fixed_normals(monkeypatch, n_plus, n_minus)
        res = bounded_solution_dim(sys0)
        # the planes' orthonormal frames: the complements of the normals
        dim, sv, vec = frame_intersection(
            *(np.linalg.svd(n[None])[2][1:].T for n in (n_plus, n_minus)))
        assert res.dimension == dim == 1
        assert np.max(np.abs(res.singular_values - sv)) <= 4 * eps
        # either route fixes the direction to about eps over the sine of
        # the angle between the normals
        sine = np.linalg.norm(np.cross(n_plus, n_minus))
        assert np.max(np.abs(res.vector - vec)) <= 4 * eps / sine
    # orthogonal normals: the planes meet along the third axis
    _fixed_normals(monkeypatch, np.array([1.0, 0.0, 0.0]),
                   np.array([0.0, 1.0, 0.0]))
    res = bounded_solution_dim(sys0)
    assert np.array_equal(res.singular_values, [np.sqrt(2.0), 1.0, 1.0])
    assert np.array_equal(res.vector, [0.0, 0.0, 1.0])


def test_coinciding_planes_read_dimension_two(monkeypatch, tmp_path):
    # the same normal on both sides: the planes coincide, so the bounded
    # solutions form a plane with no single direction
    normal = np.array([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5])
    _fixed_normals(monkeypatch, normal, normal)
    res = bounded_solution_dim(
        constant_reduced_system(make_params(0.1), X=4.0, n=41))
    assert res.dimension == 2
    assert np.allclose(res.singular_values, [np.sqrt(2.0), np.sqrt(2.0), 0.0],
                       rtol=0.0, atol=1e-15)
    assert res.singular_values[2] == 0.0
    assert np.all(np.isnan(res.vector))
    # the run reports it as a failed bounded_dimension check, in strict JSON
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"T": 1.0, "nu": 1.0, "eps": 1.0, "v_minus": 1.0,
                   "u_minus": 0.0, "v_plus": 1.1},
        "out": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg), "--tasks", "transversality"]) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=reject)
    task = report["tasks"]["transversality"]
    assert task["checks"]["bounded_dimension"] == {
        "value": 2, "threshold": 1, "pass": False}
    assert task["metrics"]["intersection_vector"] == [None, None, None]
    assert report["passed"] is False


def test_bounded_solution_dim_takes_no_svd(systems, monkeypatch):
    # two unit normals give the count, its singular values and the vector
    # in closed form; no LAPACK SVD is taken
    _, sys_ = systems[0.1]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    res = bounded_solution_dim(sys_)
    assert res.dimension == 1


def test_constant_coefficients_give_neutral_direction():
    params = make_params(0.1)
    sys0 = constant_reduced_system(params)
    res = bounded_solution_dim(sys0)
    assert res.dimension == 1
    A0 = reduced_limit_matrix(params)
    w, V = np.linalg.eig(A0)
    r0 = V[:, np.argmin(np.abs(w))].real
    r0 = r0 / np.linalg.norm(r0)
    # the start normals are exact left eigenvectors of A0, whose planes
    # the constant transport keeps, so only rounding is left
    assert abs(abs(res.vector @ r0) - 1.0) < 1e-13
    # it is the constant solution: annihilated by the matrix
    assert np.linalg.norm(A0 @ res.vector) < 1e-13


@pytest.mark.parametrize("backward", [False, True])
def test_constant_coefficient_propagator_is_the_exponential(backward):
    # across [-X, 0] the propagator of y' = -A0^T y is exp(-A0^T X)
    # forward and exp(A0^T X) backward; both are compared after scaling
    # by the max-abs entry, as propagator returns them
    params = make_params(0.1)
    A0 = reduced_limit_matrix(params)
    sys0 = constant_reduced_system(params, X=4.0, n=41)
    P = propagator(sys0.reader(slice(0, 20)), 0.2, 4, backward)
    exact = expm((1.0 if backward else -1.0) * A0.T * 4.0)
    assert np.max(np.abs(P - exact / np.max(np.abs(exact)))) <= 1e-13


@pytest.mark.parametrize("backward", [False, True])
def test_propagator_converges_at_order_four(backward):
    # smooth variable coefficients, read exactly at the offsets of 20 cells
    # of width 0.4, so only the Magnus steps err; oracle: DOP853 on the
    # same function
    rng = np.random.default_rng(7)
    C, D = 0.5 * rng.standard_normal((2, 3, 3))
    A0 = reduced_limit_matrix(make_params(0.1))

    def coefficients(t):
        t = np.asarray(t)[..., None, None]
        return A0 + np.sin(t) * C + np.cos(2.0 * t) * D

    left = np.linspace(-4.0, 3.6, 20)

    def read(offsets):
        return coefficients(left[:, None] + np.asarray(offsets))

    span = (4.0, -4.0) if backward else (-4.0, 4.0)
    sol = solve_ivp(
        lambda t, y: (-coefficients(t).T @ y.reshape(3, 3)).ravel(),
        span, np.eye(3).ravel(), method="DOP853", rtol=1e-13, atol=1e-16)
    exact = sol.y[:, -1].reshape(3, 3)
    exact = exact / np.max(np.abs(exact))
    errors = [np.max(np.abs(propagator(read, 0.4, k, backward) - exact))
              for k in (1, 2, 4)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


# each example solves a profile and a DOP853 oracle (up to 1.5 s), so a
# failure is reported as found rather than shrunk
@settings(max_examples=4, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(delta=st.floats(min_value=0.02, max_value=0.19))
def test_normals_match_qr_frames_at_random_amplitudes(delta):
    # default numerics: the pipeline's short grid
    params = make_params(delta)
    grid = solve_profile(params, solve_rankine_hugoniot(params))
    sys_ = build_reduced_system(grid)
    res = bounded_solution_dim(sys_)
    dim, sv, vec = qr_frame_intersection(sys_)
    assert res.dimension == dim == 1
    assert np.max(np.abs(res.singular_values - sv) / sv) <= 1e-9
    assert min(np.max(np.abs(res.vector - vec)),
               np.max(np.abs(res.vector + vec))) <= 1e-9


# each example solves a default profile (about 0.2 s); a draw outside the
# regime must be refused by fast_roots' typed error
@settings(max_examples=6, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(T=st.floats(0.5, 2.0), nu=st.floats(0.5, 2.0),
       eps=st.floats(0.5, 2.0), v_minus=st.floats(0.5, 2.0),
       delta=st.floats(0.02, 0.19))
def test_reduced_matrix_at_general_parameters(T, nu, eps, v_minus, delta):
    params = PlasmaParams(T=T, nu=nu, eps=eps, v_minus=v_minus,
                          u_minus=0.0, v_plus=v_minus + delta)
    end = solve_rankine_hugoniot(params)
    try:
        roots = [fast_roots(params, end, side) for side in ("minus", "plus")]
    except ValueError:
        return
    # at y-+ the reduced matrix has the profile's fast rates
    ends = np.array([[params.v_minus, end.phi_minus, 0.0],
                     [params.v_plus, end.phi_plus, 0.0]])
    for M, r in zip(reduced_matrix(ends, params, end), roots):
        gammas = np.sort([r.gamma1, r.gamma2, r.gamma3])
        eigs = np.sort_complex(np.linalg.eigvals(M))
        assert np.max(np.abs(eigs - gammas)) <= 1e-12 * np.max(np.abs(gammas))
    grid = solve_profile(params, end)
    res = bounded_solution_dim(build_reduced_system(grid))
    assert res.dimension == 1
    assert res.transport_error <= 1e-8


def test_wide_cells_double_the_magnus_steps(monkeypatch):
    # a long domain off the reference parameters: on 4001 nodes the cells
    # are 1.48 wide and 4 steps per cell leave a gap of 7.8e-8 to 2 steps
    # (their vector misses the 32-step one by 1.5e-8), so the steps double
    # once; the result then meets the bound against 32 steps per cell.
    # (The default grid's cells are twice as wide, and it doubles twice.)
    params = PlasmaParams(T=0.5, nu=2.0, eps=0.5, v_minus=2.0, u_minus=0.0,
                          v_plus=2.02)
    grid = solve_profile(params, solve_rankine_hugoniot(params), n=4001)
    sys_ = build_reduced_system(grid)
    res = bounded_solution_dim(sys_)
    assert res.work["substeps"] == 8
    assert res.dimension == 1
    assert res.transport_error <= TRANSPORT_TOL
    monkeypatch.setattr(transversality_module, "SUBSTEPS", 32)
    monkeypatch.setattr(transversality_module, "CHECK_SUBSTEPS", 16)
    ref = bounded_solution_dim(sys_)
    assert ref.work["substeps"] == 32
    assert np.max(np.abs(res.vector - ref.vector)) <= TRANSPORT_TOL
    assert np.max(np.abs(res.singular_values - ref.singular_values)
                  / ref.singular_values) <= 1e-10
