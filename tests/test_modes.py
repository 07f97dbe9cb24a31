import numpy as np
import pytest

from nspshock import modes as modes_module
from nspshock.evans import circle_contour, d_contour, derivative_points
from nspshock.modes import (
    analytic_eigenpairs,
    cubic_coefficients,
    default_disk_radius,
    fast_roots,
    slow_expansion,
)
from nspshock.params import (
    PlasmaParams,
    ShockEndstates,
    solve_rankine_hugoniot,
)
from nspshock.profile import far_field_rows

from conftest import limit_matrix, make_params, slow_mu_quadratic


def splitting_counts(params, end, side, lam):
    """(stable count, unstable count, min |Re|) of the frozen matrix at lam."""
    re = np.linalg.eigvals(limit_matrix(params, end, side, lam)).real
    return int(np.sum(re < 0)), int(np.sum(re > 0)), float(np.min(np.abs(re)))


def make_endstates_equal(v=1.0):
    # degenerate zero-amplitude "shock": both states coincide
    s = np.sqrt(2.0) / v
    return (PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=v, u_minus=0.0, v_plus=v),
            ShockEndstates(s=s, u_plus=0.0, phi_minus=-np.log(v), phi_plus=-np.log(v)))


def test_zero_amplitude_fast_roots():
    params, end = make_endstates_equal()
    fr = fast_roots(params, end, "minus")
    assert abs(fr.gamma1) < 1e-12
    assert np.isclose(fr.gamma2, -np.sqrt(2.0), rtol=1e-12)
    assert np.isclose(fr.gamma3, 1.0 / np.sqrt(2.0), rtol=1e-12)


def test_reference_fast_roots_sign_pattern(params_ref, end_ref):
    minus = fast_roots(params_ref, end_ref, "minus")
    plus = fast_roots(params_ref, end_ref, "plus")
    # minus side: gamma2 < 0 < gamma1, gamma3
    assert minus.gamma2 < 0 < minus.gamma1 < minus.gamma3
    # plus side: gamma1, gamma2 < 0 < gamma3
    assert plus.gamma1 < 0 and plus.gamma2 < 0 < plus.gamma3
    assert np.isclose(minus.gamma1, 0.1524973, atol=1e-6)
    assert np.isclose(minus.gamma2, -1.3937085, atol=1e-6)
    assert np.isclose(minus.gamma3, 0.6344313, atol=1e-6)
    assert np.isclose(plus.gamma1, -0.1251082, atol=1e-6)
    assert np.isclose(plus.gamma2, -1.4832397, atol=1e-6)
    assert np.isclose(plus.gamma3, 0.7993081, atol=1e-6)


def test_vieta_product(params_ref, end_ref):
    for side in ("minus", "plus"):
        fr = fast_roots(params_ref, end_ref, side)
        b, c, d = cubic_coefficients(params_ref, end_ref, side)
        assert abs(fr.gamma1 * fr.gamma2 * fr.gamma3 + d) <= 1e-10
        for g in (fr.gamma1, fr.gamma2, fr.gamma3):
            assert abs(((g + b) * g + c) * g + d) <= 1e-10


def test_fast_root_eigenvectors(params_ref, end_ref):
    # the fast columns of the continuation's base eigenvectors span the
    # kernels of A(0) - gammaj, largest component scaled to 1
    for side in ("minus", "plus"):
        fr = fast_roots(params_ref, end_ref, side)
        A = limit_matrix(params_ref, end_ref, side, 0.0)
        V = analytic_eigenpairs(params_ref, end_ref, side, [0.0]).V[0]
        for g, S in zip((fr.gamma1, fr.gamma2, fr.gamma3), V[:, :3].T):
            assert np.max(np.abs((A - g * np.eye(5)) @ S)) < 1e-10
            assert np.isclose(np.max(np.abs(S)), 1.0, rtol=1e-14)


def test_fast_rates_compute_no_eigenvector(params_ref, end_ref,
                                           monkeypatch):
    # the rates and the profile's projection rows read no null vector;
    # the continuation's base state is the one reader of eigenvectors
    def refuse(M):
        raise AssertionError("modes._null_vector called")

    monkeypatch.setattr(modes_module, "_null_vector", refuse)
    for side in ("minus", "plus"):
        fast_roots(params_ref, end_ref, side)
    far_field_rows(params_ref, end_ref)
    with pytest.raises(AssertionError, match="_null_vector"):
        analytic_eigenpairs(params_ref, end_ref, "minus", [0.0])


def test_frozen_matrix_spectrum_matches_cubic(params_ref, end_ref):
    # A(0) has eigenvalues {0, 0, gamma1, gamma2, gamma3}
    for side in ("minus", "plus"):
        fr = fast_roots(params_ref, end_ref, side)
        w = np.linalg.eigvals(limit_matrix(params_ref, end_ref, side, 0.0))
        w = np.sort_complex(w)
        expected = np.sort_complex(np.array(
            [0, 0, fr.gamma1, fr.gamma2, fr.gamma3], dtype=complex))
        assert np.allclose(w, expected, atol=1e-8)
        assert np.sum(np.abs(w) < 1e-8) == 2


def test_slow_expansion_reference_values(params_ref, end_ref):
    minus = slow_expansion(params_ref, end_ref, "minus")
    plus = slow_expansion(params_ref, end_ref, "plus")
    s = end_ref.s
    assert np.isclose(minus.a1, s - np.sqrt(2.0), rtol=1e-14)
    assert np.isclose(minus.a2, s + np.sqrt(2.0), rtol=1e-14)
    assert np.isclose(minus.a1, -0.065813, atol=2e-6)
    assert np.isclose(minus.a2, 2.762614, atol=2e-6)
    assert np.isclose(minus.beta1, 0.5, rtol=1e-14)
    assert np.isclose(plus.beta1, 1.0 / 2.2, rtol=1e-14)
    assert np.isclose(plus.beta2, 0.454545, atol=5e-7)
    # sign facts
    assert minus.a2 > 0 and plus.a2 > 0
    assert minus.a1 < 0 < plus.a1


def test_rtilde_spans_frozen_kernel(params_ref, end_ref):
    for side in ("minus", "plus"):
        sl = slow_expansion(params_ref, end_ref, side)
        A = limit_matrix(params_ref, end_ref, side, 0.0)
        assert np.max(np.abs(A @ sl.rtilde.T)) < 1e-13


def test_continuation_base_point(params_ref, end_ref):
    path = np.array([0.0, 1e-4], dtype=complex)
    mp = analytic_eigenpairs(params_ref, end_ref, "minus", path)
    fr = fast_roots(params_ref, end_ref, "minus")
    sl = slow_expansion(params_ref, end_ref, "minus")
    assert np.allclose(mp.mu[0, :3], [fr.gamma1, fr.gamma2, fr.gamma3],
                       atol=1e-14)
    assert np.allclose(mp.mu[0, 3:], 0.0, atol=1e-14)
    assert np.allclose(mp.V[0, :, 3], sl.rtilde[0], atol=1e-14)
    assert np.allclose(mp.V[0, :, 4], sl.rtilde[1], atol=1e-14)
    # slow branches leave the origin along lam/a_j
    assert mp.mu[1, 3].real < 0  # a1 < 0 on the minus side
    assert mp.mu[1, 4].real > 0


def test_slow_quadratic_expansion_error_scaling(params_ref, end_ref):
    # |mu - quadratic| should drop by 10^3 per lam decade
    lams = [1e-3, 1e-4]
    errs = {1: [], 2: []}
    sl = slow_expansion(params_ref, end_ref, "minus")
    for lam in lams:
        path = np.array([0.0, 0.5 * lam, lam], dtype=complex)
        mp = analytic_eigenpairs(params_ref, end_ref, "minus", path)
        for j in (1, 2):
            err = abs(mp.mu[-1, 2 + j] - slow_mu_quadratic(sl, j, lam))
            errs[j].append(err)
    for j in (1, 2):
        ratio = errs[j][0] / errs[j][1]
        assert 300.0 < ratio < 3000.0, f"branch {j}: cubic scaling violated"


def test_no_monodromy_around_circle(params_ref, end_ref):
    r = default_disk_radius(params_ref, end_ref)
    radial = np.linspace(0.0, r, 6)
    theta = np.linspace(0.0, 2.0 * np.pi, 49)
    circle = r * np.exp(1j * theta)
    path = np.concatenate([radial, circle[1:]])
    for side in ("minus", "plus"):
        mp = analytic_eigenpairs(params_ref, end_ref, side, path)
        start, stop = mp.mu[5], mp.mu[-1]
        assert np.max(np.abs(stop - start)) < 1e-9
        assert np.max(np.abs(mp.V[5] - mp.V[-1])) < 1e-8


def _first_round(params, end):
    # the points an Evans report evaluates in its first batch
    r = default_disk_radius(params, end)
    rho = 0.5 * r
    return np.concatenate([[0.0], circle_contour(rho, 32).points,
                           d_contour(rho, r).points,
                           derivative_points(rho, 32)])


@pytest.fixture(scope="module")
def first_round_lams(params_ref, end_ref):
    return _first_round(params_ref, end_ref)


def test_lockstep_matches_one_lam_at_a_time(params_ref, end_ref,
                                            first_round_lams):
    lams = first_round_lams
    for side in ("minus", "plus"):
        at_lam = []
        for points in (2, 12, 48):
            path = np.linspace(0.0, lams, points)
            lockstep = analytic_eigenpairs(params_ref, end_ref, side, path)
            assert lockstep.mu.shape == path.shape + (5,)
            if points < 48:
                for i in range(lams.size):
                    single = analytic_eigenpairs(params_ref, end_ref, side,
                                                 path[:, i])
                    assert np.array_equal(lockstep.mu[:, i], single.mu)
                    assert np.array_equal(lockstep.V[:, i], single.V)
            at_lam.append((lockstep.mu[-1], lockstep.V[-1]))
        # the labels at lam do not depend on the path taken inside the disk
        for mu, V in at_lam[1:]:
            assert np.array_equal(mu, at_lam[0][0])
            assert np.array_equal(V, at_lam[0][1])


def test_coarse_path_raises_with_side_and_lam(params_ref, end_ref,
                                              first_round_lams):
    # out to lam, then once around the origin in three steps: too coarse
    # for some labels, and an ambiguous step is not refined
    lams = first_round_lams
    turn = np.exp(2j * np.pi / 3)
    path = np.stack([0.0 * lams, lams, turn * lams, turn**2 * lams, lams])
    for side in ("minus", "plus"):
        with pytest.raises(RuntimeError, match=f"{side} side.* lam = "):
            analytic_eigenpairs(params_ref, end_ref, side, path)


@pytest.mark.parametrize("delta", [0.02, 0.1, 0.18])
def test_one_step_labels_cover_the_disk(delta):
    # winding refinement puts midpoints anywhere in the closed disk, so
    # one step from 0 must label every lam there as a fine path does
    params = make_params(delta)
    end = solve_rankine_hugoniot(params)
    r = default_disk_radius(params, end)
    radii = np.linspace(0.0, r, 9)[1:, None]
    lams = (radii * np.exp(2j * np.pi * np.arange(24) / 24)).ravel()
    for side in ("minus", "plus"):
        one = analytic_eigenpairs(params, end, side,
                                  np.stack([0 * lams, lams]))
        fine = analytic_eigenpairs(params, end, side,
                                   np.linspace(0.0, lams, 48))
        assert np.array_equal(one.mu[-1], fine.mu[-1])
        assert np.array_equal(one.V[-1], fine.V[-1])


def test_labels_fail_typed_at_delta_019():
    # at v+ = 1.19 two fast minus roots collide inside the disk; the
    # failure names its stage, side and lam, while the plus side labels
    params = make_params(0.19)
    end = solve_rankine_hugoniot(params)
    lams = _first_round(params, end)
    path = np.stack([0 * lams, lams])
    with pytest.raises(RuntimeError,
                       match=r"^far-field modes, minus side: .* lam = \[\S"):
        analytic_eigenpairs(params, end, "minus", path)
    plus = analytic_eigenpairs(params, end, "plus", path)
    assert np.all(np.isfinite(plus.mu))


def test_conjugate_symmetry(params_ref, end_ref):
    r = default_disk_radius(params_ref, end_ref)
    lam = r * (0.3 + 0.4j)
    steps = np.linspace(0.0, 1.0, 8)
    up = analytic_eigenpairs(params_ref, end_ref, "plus", steps * lam)
    down = analytic_eigenpairs(params_ref, end_ref, "plus", steps * np.conj(lam))
    assert np.allclose(down.mu[-1], np.conj(up.mu[-1]), atol=1e-12)


def test_consistent_splitting_random(params_ref, end_ref, rng):
    r = default_disk_radius(params_ref, end_ref)
    n_checked = 0
    while n_checked < 100:
        z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        if abs(z) >= 1.0 or z.real <= 0:
            continue
        lam = r * z
        for side in ("minus", "plus"):
            ns, nu, min_re = splitting_counts(params_ref, end_ref, side, lam)
            assert (ns, nu) == (2, 3)
            assert min_re > 1e-12
        n_checked += 1


def test_disk_radius_scale(params_ref, end_ref):
    sl = slow_expansion(params_ref, end_ref, "minus")
    fold = sl.a1**2 / (4.0 * sl.beta1)
    r = default_disk_radius(params_ref, end_ref)
    assert 0.2 * 0.5 * fold <= r <= 0.5 * fold + 1e-15


def test_fast_roots_rejects_near_coincident(monkeypatch):
    params, end = make_endstates_equal()
    monkeypatch.setattr(modes_module, "ROOT_GAP_TOL", 10.0)
    with pytest.raises(ValueError):
        fast_roots(params, end, "minus")
