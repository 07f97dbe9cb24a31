import numpy as np
import pytest
from scipy.interpolate import BPoly, CubicSpline

from nspshock.eigensystem import (hermite_table, interior_coefficients,
                                  interior_matrix_coeffs,
                                  limit_matrix_coeffs, uniform_reader)
from nspshock.evans import (
    EvansSystem,
    build_evans_system,
    evans_grid,
    circle_contour,
    d_contour,
    decaying_bases,
    evans_derivative_origin,
    evans_report,
    evans_value,
    gamma_transversality,
    integrate_wedge,
    make_evaluator,
    table_error,
    table_stride,
    wedge_rhs,
    winding_number,
    write_evans_csv,
    WORK_COUNTS,
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
    # the right-hand side lifts A0, A1, A2 once and combines per lam;
    # the reference lifts A(x, lam) for each lam
    lams = (0.5 * esys.disk_radius * rng.random(m)
            * np.exp(2j * np.pi * rng.random(m)))
    shifts = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    for which, lifter in (("w2", lift2), ("w3", lift3)):
        rhs = wedge_rhs(esys, which, lams, shifts)
        for x in (-esys.X, -3.7, 0.0, 12.05, esys.X):
            Y = rng.standard_normal((m, 10)) + 1j * rng.standard_normal((m, 10))
            L = lifter(esys.coefficient_matrix(x, lams))
            ref = np.einsum("mij,mj->mi", L, Y) - shifts[:, None] * Y
            got = rhs(x, Y.ravel()).reshape(m, 10)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    y, log_scale = integrate_wedge(frozen, lam, "w3", w3_init, shift,
                                   -40.0, 0.0)
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
        integrate_wedge(frozen, lams, "w3", y0, np.zeros(3), -40.0, 0.0)
    # a non-finite coefficient table from x = -10 on stalls the solver
    frozen.table[:, 60:, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match=r"failed on \[-20.0, -10.0\] for lam = "
            r"\[0\.0001\+0j, 0\+0\.0002j, 0\.0003\+0j\]"):
        integrate_wedge(frozen, lams, "w3", np.ones((3, 10)), np.zeros(3),
                        -40.0, 0.0)


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
    ev, _ = make_evaluator(esys)
    rho = 0.5 * esys.disk_radius
    for _ in range(6):
        z = rho * (0.2 + 0.8 * rng.random()) * np.exp(2j * np.pi * rng.random())
        rel = abs(ev(np.conj(z)) - np.conj(ev(z))) / abs(ev(z))
        assert rel < 1e-10


def test_nonzero_beyond_validated_disk(esys, params_ref, end_ref):
    # spot check at lam = 0.05 with bases straight from the frozen-end
    # eigenproblem (no analytic continuation is needed to see that the
    # determinant does not vanish)
    lam = 0.05
    mu_m, V_m = np.linalg.eig(limit_matrix(params_ref, end_ref, "minus", lam))
    sel_m = np.argsort(-mu_m.real)[:3]
    mu_p, V_p = np.linalg.eig(limit_matrix(params_ref, end_ref, "plus", lam))
    sel_p = np.argsort(mu_p.real)[:2]
    w3, l3 = integrate_wedge(esys, lam, "w3",
                             wedge3(*(V_m[:, k] for k in sel_m)),
                             mu_m[sel_m].sum(), -esys.X, 0.0)
    w2, l2 = integrate_wedge(esys, lam, "w2",
                             wedge2(*(V_p[:, k] for k in sel_p)),
                             mu_p[sel_p].sum(), esys.X, 0.0)
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


def test_domain_doubling_leaves_bundles_fixed(esys, params_ref, end_ref):
    big = build_evans_system(evans_grid(params_ref, end_ref, X=2.0 * esys.X,
                                        n=2 * _N_TEST - 1),
                             rtol=_RTOL, atol=_ATOL)
    w2a, _, w3a, _ = decaying_bases(esys, 0.0)
    w2b, _, w3b, _ = decaying_bases(big, 0.0)
    assert np.linalg.norm(w2a - w2b) < 1e-8
    assert np.linalg.norm(w3a - w3b) < 1e-8


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
    assert work["samples"] == len(report.samples)
    # one batched transport per side and round, one more for Gamma's
    # fast pair
    by_wedge = work["by_wedge"]
    rounds = by_wedge["plus_w2"]["transports"]
    assert rounds >= 1 and by_wedge["minus_w3"]["transports"] == rounds
    assert by_wedge["minus_w2"]["transports"] == 1
    assert work["transports"] == 2 * rounds + 1
    for key in WORK_COUNTS:
        assert work[key] == sum(c[key] for c in by_wedge.values())
    for counts in by_wedge.values():
        assert counts["rhs_calls"] > counts["steps"] > 0
    assert report.as_dict()["work"] == work


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
