import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.interpolate import BPoly, CubicSpline

from nspshock.eigensystem import (hermite_table, interior_coefficients,
                                  interior_matrix_coeffs,
                                  limit_matrix_coeffs)
from nspshock.evans import (
    ATOL,
    BLOCKS,
    MINUS_FAST,
    MINUS_TRIPLE,
    PLUS_PAIR,
    PROBE_ORDER,
    RTOL,
    EvansSample,
    EvansSystem,
    build_evans_system,
    circle_contour,
    corrected_start,
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
    TABLE_DECAYS,
    wedge_rhs,
    winding_number,
    write_evans_csv,
)
from nspshock import evans as evans_module
from nspshock.modes import fast_roots
from nspshock.params import PlasmaParams, solve_rankine_hugoniot
from nspshock.profile import (DEFAULT_NODES, EFOLDS, default_half_length,
                              slow_decay_rate, solve_profile)
from nspshock.wedge import hodge, lift2, lift3, wedge2, wedge3

from conftest import limit_matrix, make_params

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def profile_grid(params_ref, end_ref):
    # the default profile grid, which every task reads
    return solve_profile(params_ref, end_ref)


@pytest.fixture(scope="module")
def esys(profile_grid):
    return build_evans_system(profile_grid)


@pytest.fixture(scope="module")
def report(esys):
    return evans_report(esys, n_circle=16)


def test_contour_shapes():
    c = circle_contour(2.0, 12)
    assert len(c.points) == 12
    assert np.allclose(np.abs(c.points), 2.0)
    d = d_contour(0.5, 2.0)
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


def test_winding_error_paths(monkeypatch):
    circ = circle_contour(1.0, 8)
    with pytest.raises(RuntimeError, match="zero"):
        winding_number(lambda z: z - circ.points[0], circ)
    monkeypatch.setattr(evans_module, "MAX_ROUNDS", 1)
    with pytest.raises(RuntimeError, match="refinement"):
        winding_number(lambda z: z**3, circle_contour(1.0, 4))


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


def test_derivative_origin_synthetic():
    dc, dfd = evans_derivative_origin(lambda z: z, 0.3)
    assert abs(dc - 1.0) < 1e-13
    assert abs(dfd - 1.0) < 1e-13
    dc, dfd = evans_derivative_origin(lambda z: z + z**3, 0.1)
    assert abs(dc - 1.0) < 1e-8
    assert abs(dfd - 1.0) < 1e-8


def _frozen_minus_system(params, end, monkeypatch):
    """EvansSystem on [-40, 40] with the coefficients of the minus limit;
    its transports run at rtol 1e-12, atol 1e-14."""
    monkeypatch.setattr(evans_module, "RTOL", 1e-12)
    monkeypatch.setattr(evans_module, "ATOL", 1e-14)
    A0c, A1c = limit_matrix_coeffs(params, end, "minus")
    x = np.linspace(-40.0, 40.0, 161)
    stacked = np.tile(np.concatenate([A0c.ravel(), A1c.ravel(),
                                      np.zeros(25)]), (161, 1))
    return EvansSystem(
        params=params, end=end, X=40.0, n=161,
        table=hermite_table(x, stacked, np.zeros_like(stacked),
                            np.zeros_like(stacked)),
        W0_mid=np.zeros(5), b1_mid=0.0, b2_mid=0.0, disk_radius=1e-3,
        boundary_gap=0.0, closure_residual=float("nan"), stride=1,
        table_error=float("nan"))


def _tabulated_evans(profile_grid, esys, stride):
    """(x, derivatives, reader) of the Evans system: the values, slopes
    and second derivatives its table is built from, on every stride-th
    node of the profile grid."""
    params, end = profile_grid.params, profile_grid.end
    kept = slice(None, None, stride)
    vj, pj, sj = profile_grid.state_jets(4)
    A = interior_matrix_coeffs(interior_coefficients(
        profile_grid.x, vj, pj, sj, params, end, order=4))
    coef = np.stack([a.coef for a in A], axis=2).reshape(3, profile_grid.n, 75)
    return (profile_grid.x[kept],
            [coef[0, kept], coef[1, kept], 2.0 * coef[2, kept]],
            esys.coefficients)


def test_table_slopes_match_spline_derivative(profile_grid, esys):
    # the jet slopes of A0, A1, A2 are the derivatives of the tabulated
    # functions: a wrong slope leaves every node value, and so the closure
    # residual, unchanged.  A spline derivative is only accurate enough on
    # the fine grid, so every grid node is used
    x, (values, slopes, _), _ = _tabulated_evans(profile_grid, esys, 1)
    ref = CubicSpline(x, values, axis=0).derivative()(x)
    assert np.max(np.abs(slopes - ref)) <= 1e-8 * np.max(np.abs(slopes))


def test_uniform_lookup_matches_spline(profile_grid, esys):
    # the Evans system (quintic cells on every esys.stride-th node) reads
    # through the O(1) lookup: node values to round-off (a node whose cell
    # index rounds down is read at the right end of the cell before it),
    # and between the nodes scipy's Hermite interpolant of the same node
    # derivatives
    assert esys.stride > 1
    x, derivs, read = _tabulated_evans(profile_grid, esys, esys.stride)
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


@pytest.fixture(scope="module")
def coarse_grid(params_ref, end_ref):
    # a step of 0.09 decay lengths is wider than half of TABLE_DECAYS, so
    # the table keeps every node
    return solve_profile(params_ref, end_ref, n=401)


def test_table_error_detects_wrong_curvature(profile_grid, esys, coarse_grid):
    # the reported error of the table against the exact closure at the
    # midpoint of every cell; a table built with half the second
    # derivatives keeps every node value and slope, and only this check
    # sees it, also on a table that keeps every node
    assert table_stride(coarse_grid.n, coarse_grid.X,
                        slow_decay_rate(coarse_grid.params,
                                        coarse_grid.end)) == 1
    coarse = build_evans_system(coarse_grid)
    assert coarse.stride == 1 and 0.0 < coarse.table_error <= 1e-8
    assert 0.0 < esys.table_error <= 1e-8
    for grid, stride in ((profile_grid, esys.stride), (coarse_grid, 1)):
        x, (values, slopes, curvatures), _ = _tabulated_evans(
            grid, esys, stride)
        for factor, fails in ((1.0, False), (0.5, True)):
            table = hermite_table(x, values, slopes, factor * curvatures)
            jets = grid.state_jets(PROBE_ORDER, slice(None, None, stride))
            assert (table_error(grid, stride, table, jets) > 1e-8) == fails


def test_thinned_table_keeps_gamma(profile_grid, esys, monkeypatch):
    # quintic cells on every stride-th node against cells on every node,
    # at the production tolerances
    def gamma(system):
        return gamma_transversality(system, evans_value(system, 0.0)).Gamma

    thin = build_evans_system(profile_grid)
    monkeypatch.setattr(evans_module, "TABLE_DECAYS", 0.0)
    full = build_evans_system(profile_grid)
    assert full.table_shape["nodes"] == profile_grid.n
    assert 0.0 < full.table_error <= thin.table_error <= 1e-8
    assert thin.table_shape["stride"] == esys.stride > 1
    assert abs(gamma(thin) - gamma(full)) <= 1e-10 * abs(gamma(full))


def test_table_stride_keeps_ends_and_origin(profile_grid, monkeypatch):
    # the largest divisor of (n - 1)/2 with cells at most TABLE_DECAYS
    # decay lengths wide; only X rate counts
    assert table_stride(2 * 7220 + 1, 18.0, 1.0) == 38
    assert table_stride(2 * 7220 + 1, 36.0, 0.5) == 38
    assert table_stride(DEFAULT_NODES, 180.0, 0.1) == 8
    assert table_stride(4001, 18.0, 1.0) == 16
    # 7207 is prime
    assert table_stride(2 * 7207 + 1, 18.0, 1.0) == 1
    assert table_stride(2 * 2800 + 1, 2800 * 0.6, 0.2) == 1
    # a stride that misses an end or x = 0 (profile_grid has the default
    # DEFAULT_NODES = 2^k + 1 nodes, so only a stride of 2^k misses x = 0)
    # is a typed build error
    for stride, where in ((3, "end"),
                          (DEFAULT_NODES - 1, "x = 0")):
        monkeypatch.setattr(evans_module, "table_stride",
                            lambda n, X, rate: stride)
        with pytest.raises(RuntimeError, match=f"Evans build: .*{where}"):
            build_evans_system(profile_grid)


def test_lookup_rejects_nonuniform_grid():
    # the readers assume a uniform grid on [-X, X]
    for x in (np.linspace(-1.0, 1.0, 11) ** 3, np.linspace(-1.0, 0.0, 11)):
        with pytest.raises(ValueError, match="uniform"):
            hermite_table(x, np.zeros((11, 75)), np.zeros((11, 75)),
                          np.zeros((11, 75)))


@pytest.mark.parametrize("m", [1, 5])
def test_wedge_rhs_is_lifted_polynomial(esys, rng, m):
    # the fused right-hand side lifts A0, A1, A2 once per side and
    # combines per lam; the reference lifts A(x, lam) for each lam at the
    # block's x (X - t from +X, t - X from -X), with the sign of dx/dt.
    # The minus block carries duals: its reference rows are 3-wedges
    # moved by lift3, compared through hodge
    X = esys.X
    blocks = {name: (0.5 * esys.disk_radius * rng.random(m)
                     * np.exp(2j * np.pi * rng.random(m)),
                     rng.standard_normal(m) + 1j * rng.standard_normal(m))
              for name in BLOCKS}
    rhs = wedge_rhs(esys, blocks)
    dual = [BLOCKS[name][1] == "w3" for name in blocks]
    for t in (0.0, 3.7, X - 12.05, X - 3.7, X):
        Y = (rng.standard_normal((3 * m, 10))
             + 1j * rng.standard_normal((3 * m, 10)))
        state = np.concatenate([hodge(Y[b * m:(b + 1) * m]) if dual[b]
                                else Y[b * m:(b + 1) * m] for b in range(3)])
        # the real layout of wedge_rhs: the float view of the transposed
        # rows, in and out
        packed = state.T.copy().view(float).ravel()
        got = rhs(t, packed).reshape(10, -1).view(complex).T
        for b, (name, (lams, shifts)) in enumerate(blocks.items()):
            d, which = BLOCKS[name]
            lifter = lift2 if which == "w2" else lift3
            L = lifter(esys.coefficient_matrix(d * (t - X), lams))
            Yb = Y[b * m:(b + 1) * m]
            ref = d * (np.einsum("mij,mj->mi", L, Yb) - shifts[:, None] * Yb)
            if dual[b]:
                ref = hodge(ref)
            gap = np.max(np.abs(got[b * m:(b + 1) * m] - ref))
            assert gap <= 1e-13 * np.max(np.abs(ref))


def test_wedge_rhs_lifts_nothing_per_call(esys, monkeypatch):
    # the generators come from the fixed GENERATORS maps, so neither
    # building nor calling the right-hand side lifts anything
    lifted = []
    for name in ("lift2", "lift3"):
        monkeypatch.setattr(evans_module, name,
                            lambda A, f=getattr(evans_module, name), n=name:
                            lifted.append(n) or f(A))
    blocks = {name: (np.array([1e-3 + 1e-3j]), np.array([0.1]))
              for name in BLOCKS}
    rhs = wedge_rhs(esys, blocks)
    rhs(1.0, np.ones(2 * 3 * 10))
    assert lifted == []


def test_frozen_coefficients_transport_eigenwedge(params_ref, end_ref,
                                                  monkeypatch):
    # with the coefficients frozen at the minus limit the shifted wedge
    # of decaying eigenvectors is an equilibrium of the lifted flow, and
    # its dual hodge(w3) one of the dual flow the minus block follows
    A0c, A1c = limit_matrix_coeffs(params_ref, end_ref, "minus")
    lam = 3e-4 + 2e-4j
    mu, V = np.linalg.eig(A0c + lam * A1c)
    order = np.argsort(-mu.real)[:3]
    w3_init = wedge3(V[:, order[0]], V[:, order[1]], V[:, order[2]])
    shift = mu[order].sum()

    frozen = _frozen_minus_system(params_ref, end_ref, monkeypatch)
    y, log_scale = integrate_wedge(frozen, minus=(lam, hodge(w3_init),
                                                  shift))["minus"]
    final = y * np.exp(log_scale)
    assert (np.linalg.norm(final - hodge(w3_init))
            < 1e-9 * np.linalg.norm(w3_init))


def test_frozen_coefficients_need_no_start_correction(params_ref, end_ref,
                                                       monkeypatch):
    # where A(-X) is the minus limit the correction c vanishes exactly; at
    # +X the same frozen table is not the plus limit, and c does not
    frozen = _frozen_minus_system(params_ref, end_ref, monkeypatch)
    lams = np.array([0.0, 3e-4 + 2e-4j, -5e-4j])
    mu, V = evans_module._side_modes(frozen, "minus", lams)
    i, j, k = MINUS_TRIPLE
    y0 = hodge(wedge3(V[:, :, i], V[:, :, j], V[:, :, k]))
    shifts = mu[:, i] + mu[:, j] + mu[:, k]
    assert np.array_equal(corrected_start(frozen, "minus", lams, y0, shifts),
                          y0)
    i, j = MINUS_FAST
    y0 = wedge2(V[:1, :, i], V[:1, :, j])
    assert np.array_equal(corrected_start(frozen, "fast", lams[:1], y0,
                                          mu[:1, i] + mu[:1, j]), y0)
    mu, V = evans_module._side_modes(frozen, "plus", lams)
    i, j = PLUS_PAIR
    y0 = wedge2(V[:, :, i], V[:, :, j])
    c = corrected_start(frozen, "plus", lams, y0, mu[:, i] + mu[:, j]) - y0
    assert np.all(np.linalg.norm(c, axis=1) > 1e-3 * np.linalg.norm(y0,
                                                                   axis=1))


def test_singular_start_correction_is_a_typed_error(esys, monkeypatch):
    # with g = 0 the matrix lift(A_inf) - s - g has the limit wedge itself
    # in its kernel
    monkeypatch.setattr(evans_module, "fast_roots",
                        lambda params, end, side: SimpleNamespace(gamma1=0.0))
    with pytest.raises(RuntimeError, match=(
            r"Evans start: the far-field correction of the plus block is "
            r"singular at lam = \[0\+0j, 0\.0001\+0j\]")):
        evans_value(esys, np.array([0.0, 1e-4]))


def _oracle_grid(params, end):
    """The profile on 35 decay lengths with step at most 0.025 and
    (n - 1)/2 a multiple of 20, the grid Evans read before its start was
    corrected."""
    X = 35.0 / EFOLDS * default_half_length(params, end)
    return solve_profile(params, end, X=X,
                         n=40 * int(np.ceil(2.0 * X)) + 1)


def _gamma_and_derivative(system):
    """Gamma and the Cauchy D'(0) of evans_report, on 16 points."""
    rho = 0.5 * system.disk_radius
    evaluate, store = make_evaluator(system)
    evaluate(np.concatenate([[0.0], derivative_points(rho, 16)]))
    dprime, _ = evans_derivative_origin(evaluate, rho, n_quad=16)
    return gamma_transversality(system, store[0j]).Gamma, dprime


@pytest.mark.parametrize("delta", [0.02, 0.1, 0.18])
def test_corrected_start_matches_a_long_domain(delta):
    # on the default 18-e-fold grid the corrected start gives Gamma and
    # D'(0) of the 35-e-fold oracle to 2.2e-11 (at delta = 0.02); the
    # limit wedges alone miss them by 5e-8 to 8e-8
    params = make_params(delta)
    end = solve_rankine_hugoniot(params)
    system = build_evans_system(solve_profile(params, end))
    assert 0.0 < system.table_error <= 1e-8
    gamma, dprime = _gamma_and_derivative(system)
    gamma_ref, dprime_ref = _gamma_and_derivative(
        build_evans_system(_oracle_grid(params, end)))
    assert abs(gamma - gamma_ref) <= 1e-10 * abs(gamma_ref)
    assert abs(dprime - dprime_ref) <= 1e-10 * abs(dprime_ref)


def test_transport_failures_name_segment_and_lambda(params_ref, end_ref,
                                                    monkeypatch):
    frozen = _frozen_minus_system(params_ref, end_ref, monkeypatch)
    lams = np.array([1e-4, 2e-4j, 3e-4])
    y0 = np.ones((3, 10), dtype=complex)
    # a row with nothing to normalize breaks down at x = 0
    y0[2] = 0.0
    with pytest.raises(RuntimeError, match=(
            r"normalization broke down at x = 0\.0 for lam = "
            r"\[0\.0003\+0j\] \(minus block\): norms")):
        integrate_wedge(frozen, minus=(lams, y0, np.zeros(3)))
    # zero rows in the plus and the fast block of one transport: each
    # block is named with x = 0 in its own frame and its lam
    with pytest.raises(RuntimeError, match=(
            r"broke down at x = 0\.0 for lam = \[0\.0003\+0j\] "
            r"\(plus block\); normalization broke down at x = 0\.0 for "
            r"lam = \[0\+0j\] \(fast block\)")):
        integrate_wedge(frozen, plus=(lams, y0, np.zeros(3)),
                        minus=(lams, np.ones((3, 10)), np.zeros(3)),
                        fast=(0.0, np.zeros(10), 0.0))
    # a non-finite coefficient table from x = -10 on stalls the solver
    # there; the error names the x of its last accepted step
    frozen.table[:, 60:, 0] = np.nan
    frozen.work = dict.fromkeys(frozen.work, 0)
    solves = []

    def keeping(*args, **kwargs):
        solves.append(solve_ivp(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(evans_module, "solve_ivp", keeping)
    with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match=r"integration failed at x = (\S+) for lam = "
            r"\[0\.0001\+0j, 0\+0\.0002j, 0\.0003\+0j\] \(minus block\)"
    ) as failed:
        integrate_wedge(frozen, minus=(lams, np.ones((3, 10)), np.zeros(3)))
    x = float(re.search(r"at x = (\S+) ", str(failed.value)).group(1))
    t = solves[-1].t
    assert t[-1] - frozen.X == x and abs(x + 10.0) <= t[-1] - t[-2]
    # the failed transport still counts its work
    assert frozen.work["transports"] == 1 and frozen.work["steps"] > 0


def test_each_transport_is_one_solve(esys, monkeypatch):
    # the plus, minus and fast rows of a batch travel over the whole
    # pseudo-time [0, X] in one DOP853 solve, with nothing restarted
    spans = []

    def counting(fun, t_span, *args, **kwargs):
        spans.append(t_span)
        return solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(evans_module, "solve_ivp", counting)
    before = esys.work["transports"]
    evans_value(esys, np.array([0.0, 1e-4j]))
    assert esys.work["transports"] == before + 1
    assert spans == [(0.0, esys.X)]


@pytest.mark.parametrize("delta", [0.02, 0.1])
def test_shifted_wedges_stay_order_one(delta):
    # shifted by their far-field rates, the rows arrive at x = 0 with
    # norms near 1 (|log scale| reads at most 1.1 at delta = 0.02 and 0.1)
    # on the default grid, over the whole first round of evans_report
    params = make_params(delta)
    system = build_evans_system(solve_profile(
        params, solve_rankine_hugoniot(params)))
    rho, r = 0.5 * system.disk_radius, system.disk_radius
    lams = np.concatenate([[0.0], circle_contour(rho, 16).points,
                           d_contour(rho, r).points,
                           derivative_points(rho, 16)])
    samples = evans_value(system, np.unique(lams[lams.imag >= 0]))
    logs = [s.log2 for s in samples] + [s.log3 for s in samples]
    logs += [s.logf for s in samples if s.lam == 0]
    assert len(logs) == 2 * len(samples) + 1
    assert np.max(np.abs(logs)) <= 5.0


@pytest.mark.parametrize("t_span", [(0.0, 3.0), (2.5, -1.5)])
def test_dop853_matches_scipy(rng, t_span):
    # a batch of m complex linear systems y' = (B(t) + lam) y with one lam
    # per row, carried as the real view of the complex state as the wedges
    # travel; forward and backward in t.  On a real state the port is
    # scipy's DOP853 to the last bit
    m, k = 6, 5
    B = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / 2
    lams = rng.standard_normal(m) + 1j * rng.standard_normal(m)

    def rhs(t, y):
        Y = y.view(complex).reshape(m, k)
        return (Y @ (np.cos(t) * B).T + lams[:, None] * Y).ravel().view(float)

    y0 = (rng.standard_normal((m, k))
          + 1j * rng.standard_normal((m, k))).view(float).ravel()
    ref = scipy_solve_ivp(rhs, t_span, y0, method="DOP853",
                          rtol=1e-12, atol=1e-14)
    got = solve_ivp(rhs, t_span, y0, rtol=1e-12, atol=1e-14)
    assert got.success and ref.success
    assert got.nfev == ref.nfev
    assert got.t.size == ref.t.size > 10
    assert got.y.shape == y0.shape
    assert np.array_equal(got.y, ref.y[:, -1])


def _budget_configs():
    """The params of the benchmark's Evans configs (perfbench/workloads.py),
    then the first of them at the smallest amplitude, delta = 0.02."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    evans = [config["params"] for config in workloads.all_configs()
             if "evans" in config["tasks"]]
    return evans + [dict(evans[0], v_plus=1.02)]


@pytest.mark.parametrize("config", _budget_configs(),
                         ids=lambda p: f"v_plus{p['v_plus']}")
def test_transport_meets_the_error_budget(config, monkeypatch):
    # README's Evans error budget: the transport at RTOL, ATOL may add at
    # most 1e-3 of the tightest limit that reads a quantity, measured as
    # the gap to a transport at RTOL/100, ATOL/100.  That is 1e-11 of
    # circle_max for D(0) (origin_zero allows 1e-8), and 1e-9 relative for
    # Gamma, the Cauchy D'(0) and every sample D against max |D|
    # (guarantee 10 and derivative_agreement allow 1e-6).  D(0) binds:
    # at RTOL = 1e-8 it moves 9.6e-12 of circle_max at v+ = 1.18
    params = PlasmaParams(**config)
    grid = solve_profile(params, solve_rankine_hugoniot(params))
    run = evans_report(build_evans_system(grid))
    monkeypatch.setattr(evans_module, "RTOL", RTOL / 100)
    monkeypatch.setattr(evans_module, "ATOL", ATOL / 100)
    ref = evans_report(build_evans_system(grid))
    D = {s.lam: s.D for s in run.samples}
    D_ref = {s.lam: s.D for s in ref.samples}
    assert D.keys() == D_ref.keys()
    assert abs(run.D0 - ref.D0) <= 1e-11 * ref.circle_max
    assert abs(run.Gamma - ref.Gamma) <= 1e-9 * abs(ref.Gamma)
    assert (abs(run.Dprime0_cauchy - ref.Dprime0_cauchy)
            <= 1e-9 * abs(ref.Dprime0_cauchy))
    assert (max(abs(D[z] - D_ref[z]) for z in D_ref)
            <= 1e-9 * max(abs(d) for d in D_ref.values()))


def test_default_grid_is_the_smallest_that_meets_the_grid_rule(
        params_ref, end_ref):
    # profile.DEFAULT_NODES = 2^k + 1 is the smallest such grid on which
    # Gamma and the Cauchy D'(0) agree with a finer grid within 1e-10
    # relative: at the reference shock it reads 8.9e-12 and 2.3e-11
    # against 2n - 1 nodes, and (n + 1) / 2 nodes read 1.5e-10 and 4.0e-10
    def gamma_and_derivative(n):
        report = evans_report(build_evans_system(
            solve_profile(params_ref, end_ref, n=n)))
        return np.array([report.Gamma, report.Dprime0_cauchy])

    fine = gamma_and_derivative(2 * DEFAULT_NODES - 1)
    coarse = (DEFAULT_NODES + 1) // 2
    for n, within in ((DEFAULT_NODES, True), (coarse, False)):
        gap = np.max(np.abs(gamma_and_derivative(n) - fine) / np.abs(fine))
        assert bool(gap <= 1e-10) is within, (n, gap)


def test_boundary_gap_rejects_short_domain(params_ref, end_ref):
    with pytest.raises(RuntimeError, match="too short"):
        build_evans_system(solve_profile(params_ref, end_ref, X=100.0,
                                         n=2001))


def test_value_at_origin_is_tiny(esys, report):
    assert abs(report.D0) <= 1e-8 * report.circle_max


def test_windings_certify_absence_of_unstable_spectrum(report):
    assert report.winding_circle == 1
    assert report.winding_d_contour == 0


def test_derivative_methods_agree(report):
    assert report.derivative_agreement < 1e-6
    assert abs(report.Dprime0_cauchy.imag) < 1e-8 * abs(report.Dprime0_cauchy)


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
        minus=(lam, hodge(wedge3(*(V_m[:, k] for k in sel_m))),
               mu_m[sel_m].sum()))
    (w2, l2), (z, l3) = out["plus"], out["minus"]
    assert abs(np.sum(w2 * z)) > 1e-4


@pytest.fixture(scope="module", params=[0.1, 0.17],
                ids=["delta0.1", "delta0.17"])
def agreement_system(request):
    # the production grid and tolerances; see the test below
    params = make_params(request.param)
    end = solve_rankine_hugoniot(params)
    return build_evans_system(solve_profile(params, end))


@pytest.mark.parametrize("delta", [0.02, 0.1, 0.17],
                         ids=["delta0.02", "delta0.1", "delta0.17"])
def test_production_table_is_thinned(delta):
    # the default grid (DEFAULT_NODES = 2049 nodes on EFOLDS decay lengths
    # each way) has h rate = 36/2048 at every amplitude, so the table keeps
    # x = 0 and every 8th node, cells 0.14 decay lengths wide, and its
    # error stays 100 times under the 1e-8 limit; the quintic table
    # takes 6 / (4 k) of the bytes of cubic cells on every node
    params = make_params(delta)
    system = build_evans_system(
        solve_profile(params, solve_rankine_hugoniot(params)))
    n, X, k = system.n, system.X, 8
    rate = slow_decay_rate(system.params, system.end)
    assert n == DEFAULT_NODES and k * 2.0 * X * rate / (n - 1) <= TABLE_DECAYS
    assert system.table_shape == {
        "stride": k, "nodes": (n - 1) // k + 1,
        "step": pytest.approx(2.0 * k * X / (n - 1), rel=1e-14)}
    assert system.table.nbytes == 6 * (n - 1) // k * 75 * 8
    assert 0.0 < system.table_error <= 1e-10


def test_batched_transport_matches_one_at_a_time(agreement_system):
    # DOP853 controls the RMS error of the whole batched state, so the
    # step sizes are shared by all lam; this must cost nothing against
    # one lam per integration.  On the production grid and tolerances the
    # two agree to about 4e-12 at delta = 0.1 and 6e-12 at delta = 0.17
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
        # the real and imaginary parts of the rows, side by side
        Y = y.view(complex).reshape(lams.size, 10)
        Z0, Z1, Z2 = Y @ lifter(system.coefficients(x)).transpose(0, 2, 1)
        return (Z0 + lam * (Z1 + lam * Z2) - shift * Y).ravel().view(float)

    y0 = np.ascontiguousarray(y0, dtype=complex).view(float).ravel()
    sol = solve_ivp(rhs, (x_from, 0.0), y0, evans_module.RTOL,
                    evans_module.ATOL)
    assert sol.success
    Y = sol.y.view(complex).reshape(lams.size, 10)
    norm = np.linalg.norm(Y, axis=1)
    return Y / norm[:, None], np.log(norm)


def _start3(system, lams, w3, shifts):
    """corrected_start of the minus block worked in Lambda^3 with lift3."""
    L0, L1 = limit_matrix_coeffs(system.params, system.end, "minus")
    A_inf = L0 + lams[:, None, None] * L1
    g = fast_roots(system.params, system.end, "minus").gamma1
    M = lift3(A_inf) - (shifts + g)[:, None, None] * np.eye(10)
    gap = lift3(system.coefficient_matrix(-system.X, lams) - A_inf)
    return w3 + np.linalg.solve(M, -(gap @ w3[:, :, None]))[:, :, 0]


def _per_side_samples(system, lams):
    """Evans samples from three separate transports: the plus 2-wedges
    backward from +X, the minus 3-wedges in Lambda^3 and the fast pair at
    lam = 0 forward from -X, each from its corrected start.  The samples
    hold the minus bundle as hodge(w3), as evans_value's do."""
    mu_p, V_p = evans_module._side_modes(system, "plus", lams)
    mu_m, V_m = evans_module._side_modes(system, "minus", lams)

    def alone(name, lams, y0, shifts):
        d, which = BLOCKS[name]
        start = (_start3(system, lams, y0, shifts) if which == "w3" else
                 corrected_start(system, name, lams, y0, shifts))
        return _transport_alone(system, which, lams, start, shifts,
                                -d * system.X)

    i, j = PLUS_PAIR
    w2, log2 = alone("plus", lams, wedge2(V_p[:, :, i], V_p[:, :, j]),
                     mu_p[:, i] + mu_p[:, j])
    i, j, k = MINUS_TRIPLE
    w3, log3 = alone("minus", lams,
                     wedge3(V_m[:, :, i], V_m[:, :, j], V_m[:, :, k]),
                     mu_m[:, i] + mu_m[:, j] + mu_m[:, k])
    i, j = MINUS_FAST
    wf, logf = alone("fast", lams[:1], wedge2(V_m[:1, :, i], V_m[:1, :, j]),
                     mu_m[:1, i] + mu_m[:1, j])
    z3 = hodge(w3)
    D = np.sum(w2 * z3, axis=-1) * np.exp(log2 + log3)
    return [EvansSample(complex(z), complex(D[n]), float(log2[n] + log3[n]),
                        w2[n], float(log2[n]), z3[n], float(log3[n]),
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
    big = build_evans_system(solve_profile(params_ref, end_ref,
                                           X=2.0 * esys.X, n=2 * esys.n - 1))
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
        b2_mid=esys.b2_mid, disk_radius=esys.disk_radius, boundary_gap=0.0,
        closure_residual=float("nan"), stride=esys.stride,
        table_error=float("nan"))
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
