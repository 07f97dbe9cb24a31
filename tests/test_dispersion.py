import numpy as np
import pytest

from nspshock.dispersion import (
    decay_constant,
    dispersion_curve,
    dissipation_margin,
    essential_eigenvalues,
    resonance_polynomial,
    symbol_matrix,
    write_spectrum_csv,
    xi0_threshold,
)


def test_symbol_vanishes_at_zero_frequency(params_ref, end_ref):
    M = symbol_matrix(params_ref, end_ref, "minus", 0.0)
    assert np.all(M == 0.0)


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
        ev = np.linalg.eigvals(M)
        l1, l2 = essential_eigenvalues(params_ref, end_ref, side, xi)
        direct = np.maximum(np.abs(ev[:, 0] - l1), np.abs(ev[:, 1] - l2))
        swapped = np.maximum(np.abs(ev[:, 0] - l2), np.abs(ev[:, 1] - l1))
        assert np.max(np.minimum(direct, swapped)) < 1e-12


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
        margin, th = dissipation_margin(params_ref, end_ref, side, xi)
        assert np.min(margin) >= -1e-12
    # margin vanishes at xi=0
    m0, _ = dissipation_margin(params_ref, end_ref, "minus", np.array([0.0]))
    assert m0[0] == 0.0


def test_margin_violation_raises(params_ref, end_ref):
    with pytest.raises(RuntimeError, match="xi="):
        dissipation_margin(params_ref, end_ref, "minus",
                           np.array([0.0, 1.0]), tol=-1.0)


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
