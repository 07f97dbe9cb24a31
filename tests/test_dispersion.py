import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspshock.dispersion import (
    decay_constant,
    default_xi_grid,
    dispersion_curve,
    essential_eigenvalues,
    resonance_polynomial,
    symbol_eigenvalues,
    symbol_matrix,
    write_spectrum_csv,
    xi0_threshold,
)
from nspshock.modes import fast_roots
from nspshock.params import PlasmaParams, solve_rankine_hugoniot

EPS = np.finfo(float).eps


def pair_distance(a, b):
    """Per point, the larger gap of two (..., 2) eigenvalue pairs matched
    in the better of the two orders."""
    direct = np.maximum(np.abs(a[..., 0] - b[..., 0]),
                        np.abs(a[..., 1] - b[..., 1]))
    swapped = np.maximum(np.abs(a[..., 0] - b[..., 1]),
                         np.abs(a[..., 1] - b[..., 0]))
    return np.minimum(direct, swapped)


def test_symbol_vanishes_at_zero_frequency(params_ref, end_ref):
    for side in ("minus", "plus"):
        M = symbol_matrix(params_ref, end_ref, side, 0.0)
        assert np.all(M == 0.0)
        # and its closed eigensolve gives exact zeros
        eig = symbol_eigenvalues(M)
        assert eig.shape == (2,) and np.all(eig == 0.0)


def test_symbol_entries_at_unit_frequency(params_ref, end_ref):
    M = symbol_matrix(params_ref, end_ref, "minus", 1.0)
    s = end_ref.s
    assert abs(M[0, 0] - 1j * s) < 1e-14
    assert abs(M[0, 1] - 1j) < 1e-14
    # (T+1)/v^2 = 2 and the dispersive correction removes i/2
    assert abs(M[1, 0] - 1.5j) < 1e-14
    assert abs(M[1, 1] - (1j * s - 1.0)) < 1e-14
    assert abs(s - 1.348400) < 1e-6


def test_roots_vanish_at_zero_frequency(params_ref, end_ref):
    l1, l2 = essential_eigenvalues(params_ref, end_ref, "plus", 0.0)
    assert l1 == 0.0 and l2 == 0.0


def test_real_part_in_resonance_window(params_ref, end_ref):
    # below xi0 both real parts sit exactly on -nu xi^2/(2v)
    l1, l2 = essential_eigenvalues(params_ref, end_ref, "minus", 0.5)
    assert abs(l1.real + 0.125) < 1e-14
    assert abs(l2.real + 0.125) < 1e-14


def test_closed_form_matches_dense_eigensolve(params_ref, end_ref, rng):
    xi = rng.uniform(-50.0, 50.0, size=10000)
    for side in ("minus", "plus"):
        M = symbol_matrix(params_ref, end_ref, side, xi)
        closed = np.stack(essential_eigenvalues(params_ref, end_ref, side, xi),
                          axis=-1)
        assert np.max(pair_distance(np.linalg.eigvals(M), closed)) < 1e-12


@pytest.mark.parametrize("T, nu, eps, v_minus, v_plus", [
    (1.0, 1.0, 1.0, 1.0, 1.1),      # the reference shock
    (0.5, 2.0, 0.5, 1.0, 1.02),     # the corner the 1e-12 check fails at
])
def test_symbol_eigenvalues_match_mpmath(T, nu, eps, v_minus, v_plus):
    # the eigenvalues of the stored matrix, at 40 digits, where the symbol
    # is largest: the 12 grid points of largest |xi| per side; errors in
    # units of eps max(1, |lam|), |lam| the larger modulus of the pair
    params = PlasmaParams(T=T, nu=nu, eps=eps, v_minus=v_minus,
                          u_minus=0.0, v_plus=v_plus)
    end = solve_rankine_hugoniot(params)
    xi = default_xi_grid()
    xi = xi[np.argsort(-np.abs(xi), kind="stable")[:12]]
    for side in ("minus", "plus"):
        M = symbol_matrix(params, end, side, xi)
        with mpmath.workdps(40):
            exact = np.array([
                [complex(lam) for lam in mpmath.eig(mpmath.matrix(
                    [[mpmath.mpc(z) for z in row] for row in m.tolist()]),
                    left=False, right=False)]
                for m in M])
        scale = EPS * np.maximum(1.0, np.max(np.abs(exact), axis=-1))
        err = pair_distance(symbol_eigenvalues(M), exact) / scale
        assert np.max(err) <= 2.0, (side, np.max(err))


# a draw outside the regime is refused by fast_roots' typed error
@settings(max_examples=200, deadline=None)
@given(T=st.floats(0.5, 2.0), nu=st.floats(0.5, 2.0),
       eps=st.floats(0.5, 2.0), v_minus=st.floats(0.5, 2.0),
       delta=st.floats(0.02, 0.19), xi=st.floats(-50.0, 50.0))
def test_symbol_eigenvalues_match_lapack(T, nu, eps, v_minus, delta, xi):
    # within 8 eps of max(1, |lam|), plus the first-order rounding of
    # r = sqrt(half^2 + M01 M10), (|half|^2 + |M01 M10|) / |lam2 - lam1|:
    # it governs near xi0, where the pair nearly coincides and both
    # computations lose digits as 1/gap, and reads about |lam| / 4 at
    # large |xi|
    params = PlasmaParams(T=T, nu=nu, eps=eps, v_minus=v_minus,
                          u_minus=0.0, v_plus=v_minus + delta)
    end = solve_rankine_hugoniot(params)
    try:
        for side in ("minus", "plus"):
            fast_roots(params, end, side)
    except ValueError:
        return
    for side in ("minus", "plus"):
        M = symbol_matrix(params, end, side, xi)
        eig = symbol_eigenvalues(M)
        lapack = np.linalg.eigvals(M)
        half = 0.5 * (M[0, 0] - M[1, 1])
        gap = abs(eig[1] - eig[0])      # 0 for the zero symbol, xi = 0
        rounding = ((abs(half)**2 + abs(M[0, 1] * M[1, 0])) / gap
                    if gap else 0.0)
        bound = 8.0 * EPS * (max(1.0, np.max(np.abs(lapack))) + rounding)
        assert pair_distance(eig, lapack) <= bound


def test_conjugation_symmetry(params_ref, end_ref, rng):
    xi = rng.uniform(0.0, 50.0, size=500)
    for side in ("minus", "plus"):
        l1, l2 = essential_eigenvalues(params_ref, end_ref, side, xi)
        m1, m2 = essential_eigenvalues(params_ref, end_ref, side, -xi)
        assert np.max(np.abs(m1 - np.conj(l1)) / (1.0 + np.abs(l1))) < 1e-14
        assert np.max(np.abs(m2 - np.conj(l2)) / (1.0 + np.abs(l2))) < 1e-14


def test_decay_constant_reference(params_ref):
    th = decay_constant(params_ref)
    assert abs(th - 0.454545) < 1e-6
    assert th == min(1.0 / 2.2, 1.0 / 1.1)


def test_dissipation_margin_nonnegative(params_ref, end_ref):
    xi = np.linspace(-50.0, 50.0, 10000)
    for side in ("minus", "plus"):
        margin = dispersion_curve(params_ref, end_ref, side, xi).margin
        assert np.min(margin) >= -1e-12
    # margin vanishes at xi=0
    m0 = dispersion_curve(params_ref, end_ref, "minus", np.array([0.0])).margin
    assert m0[0] == 0.0


def test_threshold_reference_values(params_ref):
    eta0, xi0 = xi0_threshold(params_ref, "minus")
    assert abs(eta0 - (1.5 + np.sqrt(41.0) / 2.0)) < 1e-12
    assert abs(eta0 - 4.701562) < 1e-6
    assert abs(xi0 - 2.168308) < 1e-6
    assert abs(resonance_polynomial(params_ref, "minus", eta0)) < 1e-10


def test_threshold_exceeds_sound_scale(params_ref):
    for side in ("minus", "plus"):
        _, xi0 = xi0_threshold(params_ref, side)
        assert xi0 > np.sqrt(2.0 * params_ref.T) / params_ref.nu


def test_acoustic_oscillation_beyond_threshold(params_ref, end_ref):
    s = end_ref.s
    for side in ("minus", "plus"):
        _, xi0 = xi0_threshold(params_ref, side)
        xi = np.linspace(xi0 * 1.0000001, 50.0, 2000)
        xi = np.concatenate([-xi, xi])
        l1, l2 = essential_eigenvalues(params_ref, end_ref, side, xi)
        assert np.max(np.abs(l1.imag - s * xi)) < 1e-10
        assert np.max(np.abs(l2.imag - s * xi)) < 1e-10


def test_uniform_bound_on_second_root(params_ref, end_ref):
    T, nu = params_ref.T, params_ref.nu
    for side, v in (("minus", 1.0), ("plus", 1.1)):
        _, xi0 = xi0_threshold(params_ref, side)
        xi = np.linspace(xi0 * 1.001, 50.0, 2000)
        _, l2 = essential_eigenvalues(params_ref, end_ref, side, xi)
        assert np.all(l2.real < -T / (nu * v))


def test_curve_bundle_and_csv(params_ref, end_ref, tmp_path):
    xi = np.linspace(-5.0, 5.0, 11)
    curves = [dispersion_curve(params_ref, end_ref, side, xi)
              for side in ("minus", "plus")]
    assert curves[0].lam1[5] == 0.0  # xi=0 sits mid-grid
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(curves, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "xi,re_l1,im_l1,re_l2,im_l2,margin,side"
    assert len(lines) == 1 + 2 * 11
    assert lines[1].endswith(",minus") and lines[-1].endswith(",plus")


def test_spectrum_csv_matches_scalar_formatting(params_ref, end_ref, tmp_path):
    # the reference formats numpy scalars row by row
    curves = [dispersion_curve(params_ref, end_ref, side,
                               np.linspace(-50.0, 50.0, 600))
              for side in ("minus", "plus")]
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(curves, path)
    expected = ["xi,re_l1,im_l1,re_l2,im_l2,margin,side"]
    for c in curves:
        for i in range(c.xi.shape[0]):
            expected.append(f"{c.xi[i]:.16e},{c.lam1[i].real:.16e},"
                            f"{c.lam1[i].imag:.16e},{c.lam2[i].real:.16e},"
                            f"{c.lam2[i].imag:.16e},{c.margin[i]:.16e},"
                            f"{c.side}")
    assert path.read_text() == "\n".join(expected) + "\n"
