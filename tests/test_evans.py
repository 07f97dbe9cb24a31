import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.interpolate import BPoly, CubicSpline

from nspshock.eigensystem import (hermite_table, interior_coefficients,
                                  interior_matrix_coeffs,
                                  limit_matrix_coeffs, uniform_reader)
from nspshock.evans import (
    BLOCKS,
    MINUS_FAST,
    MINUS_TRIPLE,
    PLUS_PAIR,
    EvansSample,
    EvansSystem,
    build_evans_system,
    evans_grid,
    circle_contour,
    d_contour,
    derivative_points,
    evans_derivative_origin,
    evans_report,
    evans_value,
    gamma_transversality,
    integrate_wedge,
    make_evaluator,
    solve_ivp,
    table_error,
    table_stride,
    wedge_rhs,
    winding_number,
    write_evans_csv,
)
from nspshock import evans as evans_module
from nspshock.params import solve_rankine_hugoniot
from nspshock.profile import solve_profile
from nspshock.transversality import build_reduced_system, reduced_tables
from nspshock.wedge import lift2, lift3, pairing, wedge2, wedge3

from conftest import limit_matrix, make_params

# reduced resolution keeps the suite quick; the acceptance run uses the
# production defaults
_N_TEST = 5601
_RTOL = 1e-10
_ATOL = 1e-13


@pytest.fixture(scope="module")
def long_grid(params_ref, end_ref):
    return evans_grid(params_ref, end_ref, n=_N_TEST)


@pytest.fixture(scope="module")
def esys(long_grid):
    return build_evans_system(long_grid, rtol=_RTOL, atol=_ATOL)


@pytest.fixture(scope="module")
def report(esys):
    return evans_report(esys, n_circle=16)


def test_contour_shapes():
    c = circle_contour(2.0, 12)
    assert c.closed and len(c.points) == 12
    assert np.allclose(np.abs(c.points), 2.0)
    d = d_contour(0.5, 2.0)
    assert d.closed
    assert np.all(d.points.real > -1e-15)
    assert np.min(np.abs(d.points)) > 0.45
    with pytest.raises(ValueError):
        d_contour(2.0, 0.5)


def test_winding_synthetic_zeros():
    circ = circle_contour(1.0, 16)
    w, _, _ = winding_number(lambda z: z - 0.2, circ)
    assert w == 1
    w, _, _ = winding_number(lambda z: z - 3.0, circ)
    assert w == 0
    w, _, _ = winding_number(lambda z: (z - 0.3) * (z + 0.4j), circ)
    assert w == 2
    w, _, _ = winding_number(lambda z: 2.7 + 0j, circ)
    assert w == 0


def test_winding_refines_coarse_start():
    # 8 samples of z^3 start with phase steps of 3pi/4; refinement has
    # to subdivide before the count becomes trustworthy
    w, pts, _ = winding_number(lambda z: z**3, circle_contour(1.0, 8))
    assert w == 3
    assert len(pts) > 8


def test_winding_error_paths():
    circ = circle_contour(1.0, 8)
    with pytest.raises(RuntimeError, match="zero"):
        winding_number(lambda z: z - circ.points[0], circ)
    with pytest.raises(RuntimeError, match="refinement"):
        winding_number(lambda z: z**3, circle_contour(1.0, 4), max_rounds=1)


def test_winding_batches_each_refinement_round():
    # z^3 on 8 points refines every edge twice (phase steps 3pi/4, then
    # 3pi/8) before all steps drop below pi/4
    sizes = []

    def counting(z):
        sizes.append(np.size(z))
        return z**3

    w, pts, _ = winding_number(counting, circle_contour(1.0, 8))
    assert w == 3
    assert sizes == [8, 8, 16]
    assert len(pts) == sum(sizes)
    # a constant evaluator returns a scalar for the whole array
    w, _, _ = winding_number(lambda z: 2.7 + 0j, circle_contour(1.0, 8))
    assert w == 0


def test_derivative_origin_synthetic():
    dc, dfd = evans_derivative_origin(lambda z: z, 0.3)
    assert abs(dc - 1.0) < 1e-13
    assert abs(dfd - 1.0) < 1e-13
    dc, dfd = evans_derivative_origin(lambda z: z + z**3, 0.1)
    assert abs(dc - 1.0) < 1e-8
    assert abs(dfd - 1.0) < 1e-8


def _frozen_minus_system(params, end):
    """EvansSystem on [-40, 40] with the coefficients of the minus limit."""
    A0c, A1c = limit_matrix_coeffs(params, end, "minus")
    x = np.linspace(-40.0, 40.0, 161)
    stacked = np.tile(np.concatenate([A0c.ravel(), A1c.ravel(),
                                      np.zeros(25)]), (161, 1))
    return EvansSystem(
        params=params, end=end, X=40.0, n=161,
        table=hermite_table(x, stacked, np.zeros_like(stacked)),
        W0_mid=np.zeros(5), b1_mid=0.0, b2_mid=0.0, disk_radius=1e-3,
        boundary_gap=0.0, rtol=1e-12, atol=1e-14, nseg=4)


def _tabulated_systems(long_grid, esys, stride):
    """(x, derivatives, reader) of the Evans and the reduced system: the
    values, slopes and, for Evans, second derivatives the tables are built
    from, on every stride-th node of the Evans grid and on every node of
    the reduced grid."""
    params, end = long_grid.params, long_grid.end
    kept = slice(None, None, stride)
    vj, pj, sj = long_grid.taylor_jets(4)
    A = interior_matrix_coeffs(interior_coefficients(
        long_grid.x, vj, pj, sj, params, end, order=4))
    coef = np.stack([a.coef for a in A], axis=2).reshape(3, long_grid.n, 75)
    grid = solve_profile(params, end, n=3001)
    At = reduced_tables(grid)
    rsys = build_reduced_system(grid)
    return ((long_grid.x[kept],
             [coef[0, kept], coef[1, kept], 2.0 * coef[2, kept]],
             esys.coefficients),
            (grid.x, [At.value.reshape(grid.n, 9),
                      At.derivative(1).reshape(grid.n, 9)],
             uniform_reader(rsys.X, rsys.table, (3, 3))))


def test_table_slopes_match_spline_derivative(long_grid, esys):
    # the jet slopes of A0, A1, A2 and of Atilde are the derivatives of
    # the tabulated functions: a wrong slope leaves every node value,
    # and so the closure residual, unchanged.  A spline derivative is only
    # accurate enough on the fine grid, so every grid node is used
    for x, (values, slopes, *_), _ in _tabulated_systems(long_grid, esys, 1):
        ref = CubicSpline(x, values, axis=0).derivative()(x)
        assert np.max(np.abs(slopes - ref)) <= 1e-8 * np.max(np.abs(slopes))


def test_uniform_lookup_matches_spline(long_grid, esys):
    # the Evans system (quintic cells on every esys.stride-th node) and the
    # reduced system (cubic cells on every node) read through one lookup:
    # node values to round-off (a node whose cell index rounds down is
    # read at the right end of the cell before it), and between the nodes
    # scipy's Hermite interpolant of the same node derivatives
    assert esys.stride > 1
    for x, derivs, read in _tabulated_systems(long_grid, esys, esys.stride):
        for xi, value in zip(x, derivs[0]):
            got = read(xi).ravel()
            assert np.max(np.abs(got - value)) <= 1e-15 * np.max(np.abs(value))
        hermite = BPoly.from_derivatives(x, np.stack(derivs, axis=1))
        worst = 0.0
        for xi in 0.5 * (x[1:] + x[:-1]):
            ref = hermite(xi)
            got = read(xi).ravel()
            worst = max(worst, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        assert worst <= 1e-12


def test_table_error_detects_wrong_curvature(long_grid, esys):
    # the reported error of the table against the exact closure between
    # its nodes; a table built with half the second derivatives keeps
    # every node value and slope, and only this check sees it
    (x, (values, slopes, curvatures), _), _ = _tabulated_systems(
        long_grid, esys, esys.stride)
    assert 0.0 < esys.table_error <= 1e-8
    for factor, fails in ((1.0, False), (0.5, True)):
        table = hermite_table(x, values, slopes, factor * curvatures)
        err = table_error(long_grid, esys.stride,
                          uniform_reader(esys.X, table, (3, 5, 5)))
        assert (err > 1e-8) == fails


def test_thinned_table_keeps_gamma(long_grid, esys, monkeypatch):
    # quintic cells on every stride-th node against cells on every node,
    # at the production tolerances
    def gamma(system):
        return gamma_transversality(system, evans_value(system, 0.0)).Gamma

    thin = build_evans_system(long_grid)
    monkeypatch.setattr(evans_module, "TABLE_STEP", 0.0)
    full = build_evans_system(long_grid)
    assert full.table_shape["nodes"] == long_grid.n and full.table_error == 0
    assert thin.table_shape["stride"] == esys.stride > 1
    assert abs(gamma(thin) - gamma(full)) <= 1e-10 * abs(gamma(full))


def test_table_stride_keeps_ends_and_origin(long_grid, monkeypatch):
    # the largest divisor of (n - 1)/2 with cells at most TABLE_STEP wide
    assert table_stride(2 * 7220 + 1, 180.4) == 20
    # 7207 has no divisor from 2 to 20
    assert table_stride(2 * 7207 + 1, 180.2) == 1
    assert table_stride(2 * 2800 + 1, 2800 * 0.6) == 1
    # a stride that misses an end or x = 0 (long_grid has n = 5601) is a
    # typed build error
    for stride, where in ((3, "end"), (32, "x = 0")):
        monkeypatch.setattr(evans_module, "table_stride",
                            lambda n, X: stride)
        with pytest.raises(RuntimeError, match=f"Evans build: .*{where}"):
            build_evans_system(long_grid)


def test_lookup_rejects_nonuniform_grid():
    # the readers assume a uniform grid on [-X, X]
    for x in (np.linspace(-1.0, 1.0, 11) ** 3, np.linspace(-1.0, 0.0, 11)):
        with pytest.raises(ValueError, match="uniform"):
            hermite_table(x, np.zeros((11, 75)), np.zeros((11, 75)))


@pytest.mark.parametrize("m", [1, 5])
def test_wedge_rhs_is_lifted_polynomial(esys, rng, m):
    # the fused right-hand side lifts A0, A1, A2 once per block and
    # combines per lam; the reference lifts A(x, lam) for each lam at the
    # block's x (X - t from +X, t - X from -X), with the sign of dx/dt
    X = esys.X
    blocks = {name: (0.5 * esys.disk_radius * rng.random(m)
                     * np.exp(2j * np.pi * rng.random(m)),
                     rng.standard_normal(m) + 1j * rng.standard_normal(m))
              for name in BLOCKS}
    rhs = wedge_rhs(esys, blocks)
    for t in (0.0, 3.7, X - 12.05, X - 3.7, X):
        Y = (rng.standard_normal((3 * m, 10))
             + 1j * rng.standard_normal((3 * m, 10)))
        got = rhs(t, Y.ravel()).reshape(3 * m, 10)
        for b, (name, (lams, shifts)) in enumerate(blocks.items()):
            d, which = BLOCKS[name]
            lifter = lift2 if which == "w2" else lift3
            L = lifter(esys.coefficient_matrix(d * (t - X), lams))
            Yb = Y[b * m:(b + 1) * m]
            ref = d * (np.einsum("mij,mj->mi", L, Yb) - shifts[:, None] * Yb)
            gap = np.max(np.abs(got[b * m:(b + 1) * m] - ref))
            assert gap <= 1e-13 * np.max(np.abs(ref))


def test_frozen_coefficients_transport_eigenwedge(params_ref, end_ref):
    # with the coefficients frozen at the minus limit the shifted wedge
    # of decaying eigenvectors is an equilibrium of the lifted flow
    A0c, A1c = limit_matrix_coeffs(params_ref, end_ref, "minus")
    lam = 3e-4 + 2e-4j
    mu, V = np.linalg.eig(A0c + lam * A1c)
    order = np.argsort(-mu.real)[:3]
    w3_init = wedge3(V[:, order[0]], V[:, order[1]], V[:, order[2]])
    shift = mu[order].sum()

    frozen = _frozen_minus_system(params_ref, end_ref)
    y, log_scale = integrate_wedge(frozen,
                                   minus=(lam, w3_init, shift))["minus"]
    final = y * np.exp(log_scale)
    assert np.linalg.norm(final - w3_init) < 1e-9 * np.linalg.norm(w3_init)


def test_transport_failures_name_segment_and_lambda(params_ref, end_ref):
    frozen = _frozen_minus_system(params_ref, end_ref)
    lams = np.array([1e-4, 2e-4j, 3e-4])
    y0 = np.ones((3, 10), dtype=complex)
    # a row with nothing to renormalize breaks down on the first segment
    y0[2] = 0.0
    with pytest.raises(RuntimeError, match=r"broke down on \[-40.0, -30.0\] "
                       r"for lam = \[0\.0003\+0j\]"):
        integrate_wedge(frozen, minus=(lams, y0, np.zeros(3)))
    # zero rows in the plus and the fast block of one transport: each
    # block is named with its segment in its own x and its lam
    with pytest.raises(RuntimeError, match=(
            r"broke down on \[40\.0, 30\.0\] for lam = \[0\.0003\+0j\] "
            r"\(plus block\); renormalization broke down on \[-40\.0, "
            r"-30\.0\] for lam = \[0\+0j\] \(fast block\)")):
        integrate_wedge(frozen, plus=(lams, y0, np.zeros(3)),
                        minus=(lams, np.ones((3, 10)), np.zeros(3)),
                        fast=(0.0, np.zeros(10), 0.0))
    # a non-finite coefficient table from x = -10 on stalls the solver
    frozen.table[:, 60:, 0] = np.nan
    frozen.work = dict.fromkeys(frozen.work, 0)
    with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match=r"failed on \[-20.0, -10.0\] for lam = "
            r"\[0\.0001\+0j, 0\+0\.0002j, 0\.0003\+0j\]"):
        integrate_wedge(frozen, minus=(lams, np.ones((3, 10)), np.zeros(3)))
    # the failed transport still counts its work
    assert frozen.work["transports"] == 1 and frozen.work["steps"] > 0


@pytest.mark.parametrize("t_span", [(0.0, 3.0), (2.5, -1.5)])
def test_dop853_matches_scipy(rng, t_span):
    # a batch of m complex linear systems y' = (B(t) + lam) y with one lam
    # per row, as the wedges travel; forward and backward in t
    m, k = 6, 5
    B = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / 2
    lams = rng.standard_normal(m) + 1j * rng.standard_normal(m)

    def rhs(t, y):
        Y = y.reshape(m, k)
        return (Y @ (np.cos(t) * B).T + lams[:, None] * Y).ravel()

    y0 = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
    ref = scipy_solve_ivp(rhs, t_span, y0.ravel(), method="DOP853",
                          rtol=1e-12, atol=1e-14)
    got = solve_ivp(rhs, t_span, y0.ravel(), rtol=1e-12, atol=1e-14)
    assert got.success and ref.success
    assert got.nfev == ref.nfev
    assert got.t.size == ref.t.size > 10
    assert np.max(np.abs(got.y[:, -1] - ref.y[:, -1])) <= (
        1e-15 * np.max(np.abs(ref.y[:, -1])))


def test_boundary_gap_rejects_short_domain(params_ref, end_ref):
    with pytest.raises(RuntimeError, match="too short"):
        build_evans_system(evans_grid(params_ref, end_ref, X=100.0, n=2001))


def test_value_at_origin_is_tiny(esys, report):
    assert abs(report.D0) <= 1e-8 * report.circle_max


def test_windings_certify_absence_of_unstable_spectrum(report):
    assert report.winding_circle == 1
    assert report.winding_d_contour == 0


def test_derivative_methods_agree(report):
    assert report.derivative_agreement < 1e-6
    assert abs(report.Dprime_cauchy.imag) < 1e-8 * abs(report.Dprime_cauchy)


def test_factorization_of_derivative(report):
    assert report.factorization_residual <= 0.01
    assert report.sign_match
    assert report.Gamma != 0.0
    assert report.gamma.det_R0 < 0.0
    assert abs(report.gamma.a2_minus - 2.7626132873) < 1e-9


def test_gamma_factor_residuals_small(report):
    g = report.gamma
    assert g.factor_residual_plus < 1e-8
    assert g.factor_residual_fast < 1e-8
    assert g.containment_minus < 1e-8


def test_conjugate_symmetry(esys, rng):
    # evans_value transports z and conj z alike, in one batch or in two
    rho = 0.5 * esys.disk_radius
    z = (rho * (0.2 + 0.8 * rng.random(6))
         * np.exp(2j * np.pi * rng.random(6)))
    batch = evans_value(esys, np.concatenate([z, np.conj(z)]))
    for up, down in zip(batch[:6], batch[6:]):
        assert abs(down.D - np.conj(up.D)) < 1e-10 * abs(up.D)
    up, down = evans_value(esys, z[:1]), evans_value(esys, np.conj(z[:1]))
    assert abs(down[0].D - np.conj(up[0].D)) < 1e-10 * abs(up[0].D)


def _is_mirrored(points) -> bool:
    """Every point below the real axis is the exact conj of one above."""
    upper = {(z.real, z.imag) for z in points if z.imag >= 0}
    return all((z.real, -z.imag) in upper for z in points if z.imag < 0)


def test_contours_are_mirrored_exactly():
    rho = 0.3
    for n in (31, 32):
        pts = circle_contour(rho, n).points
        assert pts.size == n and np.allclose(
            pts, rho * np.exp(2j * np.pi * np.arange(n) / n), rtol=0,
            atol=1e-15)
        assert _is_mirrored(pts)
    # half a turn is on the real axis, so the midpoints next to it mirror
    assert circle_contour(rho, 32).points[16] == -rho
    assert _is_mirrored(d_contour(rho, 4 * rho).points)
    assert _is_mirrored(derivative_points(rho))
    # the inner arc of the d-contour lies on the circle's points
    circle = {complex(z) for z in circle_contour(rho, 32).points}
    assert set(complex(z) for z in d_contour(rho, 4 * rho).points
               if abs(abs(z) - rho) < 1e-12 * rho) <= circle


def test_evaluator_transports_only_the_upper_half_plane(esys, monkeypatch):
    # a real polynomial stands in for D: the evaluator must pass
    # evans_value only points with Im lam >= 0, once per winding round,
    # and fill each point below the axis in by conjugation
    calls = []

    def fake_value(system, lams):
        calls.append(np.array(lams))
        return [EvansSample(complex(z), complex((z - 0.2) * (z * z + 0.5)),
                            0.0, np.zeros(10), 0.0, np.zeros(10), 0.0)
                for z in lams]

    monkeypatch.setattr(evans_module, "evans_value", fake_value)
    evaluate, store = make_evaluator(esys)
    rounds = []

    def counting(z):
        rounds.append(np.size(z))
        return evaluate(z)

    before = dict(esys.work)
    w, pts, vals = winding_number(counting, circle_contour(1.0, 8))
    assert w == 3 and len(rounds) > 1
    assert len(calls) == len(rounds)
    assert all(np.all(c.imag >= 0) for c in calls)
    assert esys.work["rounds"] - before["rounds"] == len(calls)
    assert (esys.work["transported"] - before["transported"]
            == sum(c.size for c in calls)
            == sum(z.imag >= 0 for z in store))
    assert len(store) == pts.size
    for z, v in zip(pts, vals):
        if z.imag < 0:
            assert v == np.conj(store[complex(np.conj(z))].D)


def test_nonzero_beyond_validated_disk(esys, params_ref, end_ref):
    # spot check at lam = 0.05 with bases straight from the frozen-end
    # eigenproblem (no analytic continuation is needed to see that the
    # determinant does not vanish)
    lam = 0.05
    mu_m, V_m = np.linalg.eig(limit_matrix(params_ref, end_ref, "minus", lam))
    sel_m = np.argsort(-mu_m.real)[:3]
    mu_p, V_p = np.linalg.eig(limit_matrix(params_ref, end_ref, "plus", lam))
    sel_p = np.argsort(mu_p.real)[:2]
    out = integrate_wedge(
        esys,
        plus=(lam, wedge2(*(V_p[:, k] for k in sel_p)), mu_p[sel_p].sum()),
        minus=(lam, wedge3(*(V_m[:, k] for k in sel_m)), mu_m[sel_m].sum()))
    (w2, l2), (w3, l3) = out["plus"], out["minus"]
    assert abs(pairing(w2, w3)) > 1e-4


@pytest.fixture(scope="module", params=[0.1, 0.17],
                ids=["delta0.1", "delta0.17"])
def agreement_system(request):
    # the production grid and tolerances; see the test below
    params = make_params(request.param)
    end = solve_rankine_hugoniot(params)
    return build_evans_system(evans_grid(params, end))


def test_production_table_is_thinned(agreement_system):
    # the default grid keeps x = 0 and every 20th node: (n - 1)/2 is a
    # multiple of 20 and h <= 0.025, so cells are at most 0.5 wide; the
    # quintic table takes at most a tenth of the bytes of cubic cells on
    # every node
    n, X = agreement_system.n, agreement_system.X
    assert (n - 1) // 2 % 20 == 0 and 2.0 * X / (n - 1) <= 0.025
    assert agreement_system.table_shape == {
        "stride": 20, "nodes": (n - 1) // 20 + 1,
        "step": pytest.approx(40.0 * X / (n - 1), rel=1e-14)}
    assert agreement_system.table.nbytes <= 0.1 * 4 * (n - 1) * 75 * 8
    assert agreement_system.table_error <= 1e-8


def test_batched_transport_matches_one_at_a_time(agreement_system):
    # DOP853 controls the RMS error of the whole batched state, so the
    # step sizes are shared by all lam; this must cost nothing against
    # one lam per integration.  On coarser grids (h = 0.1 as in the esys
    # fixture, or 0.05) one-at-a-time D is itself off by 1e-11 to 1.5e-10
    # from a tightly integrated value, so only the production grid
    # (h about 0.025) makes a 1e-10 agreement a test of the batching
    rho = 0.5 * agreement_system.disk_radius
    lams = (rho * np.linspace(0.3, 1.9, 8)
            * np.exp(2j * np.pi * (np.arange(8) + 0.3) / 8))
    batched = evans_value(agreement_system, lams)
    assert [s.lam for s in batched] == list(lams)
    for sample, lam in zip(batched, lams):
        single = evans_value(agreement_system, lam)
        assert abs(sample.D - single.D) <= 1e-10 * abs(single.D)
        assert abs(sample.log_scale - single.log_scale) <= 1e-9


def _transport_alone(system, which, lams, y0, shifts, x_from):
    """One block carried alone in x from x_from to 0 by its own transport."""
    lifter = lift2 if which == "w2" else lift3
    lam, shift = lams[:, None], shifts[:, None]

    def rhs(x, y):
        Y = y.reshape(lams.size, 10)
        Z0, Z1, Z2 = Y @ lifter(system.coefficients(x)).transpose(0, 2, 1)
        return (Z0 + lam * (Z1 + lam * Z2) - shift * Y).ravel()

    Y, log_scale = y0, np.zeros(lams.size)
    xs = np.linspace(x_from, 0.0, system.nseg + 1)
    for a, b in zip(xs[:-1], xs[1:]):
        sol = solve_ivp(rhs, (a, b), Y.ravel(), system.rtol, system.atol)
        assert sol.success
        Y = sol.y[:, -1].reshape(lams.size, 10)
        norm = np.linalg.norm(Y, axis=1)
        Y, log_scale = Y / norm[:, None], log_scale + np.log(norm)
    return Y, log_scale


def _per_side_samples(system, lams):
    """Evans samples from three separate transports: the plus 2-wedges
    backward from +X, the minus 3-wedges and the fast pair at lam = 0
    forward from -X."""
    mu_p, V_p = evans_module._side_modes(system, "plus", lams)
    mu_m, V_m = evans_module._side_modes(system, "minus", lams)
    i, j = PLUS_PAIR
    w2, log2 = _transport_alone(system, "w2", lams,
                                wedge2(V_p[:, :, i], V_p[:, :, j]),
                                mu_p[:, i] + mu_p[:, j], system.X)
    i, j, k = MINUS_TRIPLE
    w3, log3 = _transport_alone(
        system, "w3", lams, wedge3(V_m[:, :, i], V_m[:, :, j], V_m[:, :, k]),
        mu_m[:, i] + mu_m[:, j] + mu_m[:, k], -system.X)
    i, j = MINUS_FAST
    wf, logf = _transport_alone(system, "w2", lams[:1],
                                wedge2(V_m[:1, :, i], V_m[:1, :, j]),
                                mu_m[:1, i] + mu_m[:1, j], -system.X)
    D = pairing(w2, w3) * np.exp(log2 + log3)
    return [EvansSample(complex(z), complex(D[n]), float(log2[n] + log3[n]),
                        w2[n], float(log2[n]), w3[n], float(log3[n]),
                        wf[0] if n == 0 else None,
                        float(logf[0]) if n == 0 else None)
            for n, z in enumerate(lams)]


def test_fused_transport_matches_per_side_transports(agreement_system):
    # one transport over the pseudo-time carries the plus, minus and fast
    # rows; each side carried by its own transport in x is the reference
    rho = 0.5 * agreement_system.disk_radius
    lams = np.concatenate([[0.0], rho * np.exp(2j * np.pi * np.arange(5) / 9)])
    fused = evans_value(agreement_system, lams)
    alone = _per_side_samples(agreement_system, lams)
    for got, ref in zip(fused[1:], alone[1:]):
        assert abs(got.D - ref.D) <= 1e-10 * abs(ref.D)
    for got, ref in zip(fused, alone):
        for a, b in ((got.log2, ref.log2), (got.log3, ref.log3)):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
    assert abs(fused[0].logf - alone[0].logf) <= 1e-10 * abs(alone[0].logf)
    got = gamma_transversality(agreement_system, fused[0]).Gamma
    ref = gamma_transversality(agreement_system, alone[0]).Gamma
    assert abs(got - ref) <= 1e-10 * abs(ref)


def test_domain_doubling_leaves_bundles_fixed(esys, params_ref, end_ref):
    big = build_evans_system(evans_grid(params_ref, end_ref, X=2.0 * esys.X,
                                        n=2 * _N_TEST - 1),
                             rtol=_RTOL, atol=_ATOL)
    a, b = evans_value(esys, 0.0), evans_value(big, 0.0)
    assert np.linalg.norm(a.w2 - b.w2) < 1e-8
    assert np.linalg.norm(a.w3 - b.w3) < 1e-8


def test_zero_amplitude_rejected(esys, report):
    from nspshock.params import PlasmaParams, ShockEndstates
    p0 = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0,
                      v_plus=1.0)
    e0 = ShockEndstates(s=np.sqrt(2.0), u_plus=0.0, phi_minus=0.0,
                        phi_plus=0.0)
    flat = EvansSystem(
        params=p0, end=e0, X=esys.X, n=esys.n,
        table=esys.table, W0_mid=esys.W0_mid, b1_mid=esys.b1_mid,
        b2_mid=esys.b2_mid, disk_radius=esys.disk_radius, boundary_gap=0.0)
    origin = next(s for s in report.samples if s.lam == 0)
    with pytest.raises(ValueError, match="amplitude"):
        gamma_transversality(flat, origin)


def test_report_counts_its_transport_work(report):
    work = report.work
    assert list(work) == ["transports", "rhs_calls", "steps", "samples",
                          "rounds", "transported"]
    assert work["samples"] == len(report.samples)
    # one transport per evaluator round carries every row, Gamma's fast
    # pair included, and only the points with Im lam >= 0 travel
    assert work["transports"] == work["rounds"] >= 1
    assert work["rhs_calls"] > work["steps"] > 0
    assert work["transported"] == sum(s.lam.imag >= 0 for s in report.samples)
    assert work["transported"] < work["samples"]
    assert report.as_dict()["work"] == work


def test_report_gives_min_abs_D_per_contour(report):
    low = report.as_dict()["min_abs_D"]
    assert set(low) == {"circle", "d_contour"}
    assert 0.0 < low["circle"] <= report.circle_max
    assert low["d_contour"] > 0.0


def test_gamma_reuses_the_origin_sample(esys, report):
    standalone = gamma_transversality(esys, evans_value(esys, 0.0))
    assert abs(report.gamma.Gamma - standalone.Gamma) \
        <= 1e-10 * abs(standalone.Gamma)
    with pytest.raises(ValueError, match="lam = 0"):
        gamma_transversality(esys, report.samples[-1])


def test_csv_roundtrip(report, tmp_path):
    path = tmp_path / "evans.csv"
    write_evans_csv(report.samples, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re_lambda,im_lambda,re_D,im_D,log_scale"
    assert len(lines) == 1 + len(report.samples)
    first = np.array(lines[1].split(","), dtype=float)
    assert first.shape == (5,)
