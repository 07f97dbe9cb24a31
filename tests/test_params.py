import math

import numpy as np
import pytest

from nspshock.params import (
    PlasmaParams,
    ShockEndstates,
    acoustic_speeds,
    liu_majda_delta,
    params_from_dict,
    solve_rankine_hugoniot,
)


# independent oracles for the closed forms in nspshock.params
def rh_residuals(params: PlasmaParams, end: ShockEndstates) -> tuple[float, float]:
    """Mass and momentum jump residuals of the quasi-neutral Euler shock.

    mass:      u+ - u- + s (v+ - v-)
    momentum:  -s (u+ - u-) + (T+1) (1/v+ - 1/v-)

    Both vanish exactly at the Rankine-Hugoniot solution.
    """
    dv = params.v_plus - params.v_minus
    du = end.u_plus - params.u_minus
    mass = du + end.s * dv
    momentum = -end.s * du + (params.T + 1.0) * (1.0 / params.v_plus - 1.0 / params.v_minus)
    return mass, momentum


def liu_majda_delta_det(params: PlasmaParams, end: ShockEndstates) -> float:
    """Liu-Majda determinant as the 2x2 determinant det(U+ - U-, r2-).

    r2- is the outgoing acoustic right eigenvector (1, c-)/sqrt2 of the
    quasi-neutral characteristic matrix [[s, 1], [c^2, s]] at the left state.
    Cross-check route for :func:`liu_majda_delta`.
    """
    c_minus = params.sound_speed(params.v_minus)
    dv = params.v_plus - params.v_minus
    du = end.u_plus - params.u_minus
    r2 = (1.0 / math.sqrt(2.0), c_minus / math.sqrt(2.0))
    return dv * r2[1] - du * r2[0]


def test_reference_shock_speed(params_ref, end_ref):
    # closed form s = sqrt((T+1)/(v+ v-))
    assert end_ref.s == pytest.approx(math.sqrt(2.0 / 1.1), rel=1e-14)
    assert end_ref.s == pytest.approx(1.348400, abs=5e-7)


def test_reference_endstates(params_ref, end_ref):
    assert end_ref.u_plus == pytest.approx(-end_ref.s * 0.1, rel=1e-14)
    assert end_ref.phi_minus == 0.0
    assert end_ref.phi_plus == pytest.approx(-math.log(1.1), rel=1e-14)


def test_rh_residuals_random_draws(rng):
    # momentum residual stays at rounding level across the parameter box
    for _ in range(100):
        T = rng.uniform(0.1, 3.0)
        nu = rng.uniform(0.2, 3.0)
        eps = rng.uniform(0.3, 2.0)
        vm = rng.uniform(0.5, 2.0)
        delta = rng.uniform(0.01, 0.19)
        um = rng.uniform(-1.0, 1.0)
        p = PlasmaParams(T=T, nu=nu, eps=eps, v_minus=vm, u_minus=um, v_plus=vm + delta)
        end = solve_rankine_hugoniot(p)
        mass, momentum = rh_residuals(p, end)
        assert abs(mass) <= 1e-13
        assert abs(momentum) <= 1e-13


def test_lax_violation_rejected():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.1, u_minus=0.0, v_plus=1.0)
    with pytest.raises(ValueError, match="Lax"):
        solve_rankine_hugoniot(p)
    p_eq = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0, v_plus=1.0)
    with pytest.raises(ValueError, match="Lax"):
        solve_rankine_hugoniot(p_eq)


def test_amplitude_warning():
    p = PlasmaParams(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0, v_plus=1.3)
    with pytest.warns(UserWarning, match="amplitude"):
        solve_rankine_hugoniot(p)


def test_invalid_positive_fields():
    with pytest.raises(ValueError):
        PlasmaParams(T=-1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0, v_plus=1.1)
    with pytest.raises(ValueError):
        PlasmaParams(T=1.0, nu=0.0, eps=1.0, v_minus=1.0, u_minus=0.0, v_plus=1.1)


def test_liu_majda_reference_value(params_ref, end_ref):
    # (0.1/sqrt2)(sqrt2 + s) with s = sqrt(2/1.1); evaluates to 0.1953466
    delta = liu_majda_delta(params_ref, end_ref)
    oracle = 0.1 / math.sqrt(2.0) * (math.sqrt(2.0) + math.sqrt(2.0 / 1.1))
    assert delta == pytest.approx(oracle, rel=1e-14)
    assert delta == pytest.approx(0.1953463, abs=5e-8)


def test_liu_majda_closed_form_vs_det(rng):
    for _ in range(50):
        T = rng.uniform(0.1, 3.0)
        vm = rng.uniform(0.5, 2.0)
        delta = rng.uniform(0.01, 0.19)
        p = PlasmaParams(
            T=T, nu=1.0, eps=1.0, v_minus=vm, u_minus=rng.uniform(-1, 1), v_plus=vm + delta
        )
        end = solve_rankine_hugoniot(p)
        a = liu_majda_delta(p, end)
        b = liu_majda_delta_det(p, end)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        assert a > 0.0


def test_acoustic_speed_signs(params_ref):
    a1m, a2m = acoustic_speeds(params_ref, "-")
    a1p, a2p = acoustic_speeds(params_ref, "+")
    s = math.sqrt(2.0 / 1.1)
    assert a1m == pytest.approx(s - math.sqrt(2.0), rel=1e-14)
    assert a2m == pytest.approx(s + math.sqrt(2.0), rel=1e-14)
    # 6-decimal prints: -0.065813(8), 2.762613(3)
    assert a1m == pytest.approx(-0.065813, abs=1.1e-6)
    assert a2m == pytest.approx(2.762614, abs=1.1e-6)
    assert a1m < 0.0 < a1p
    assert a2m > 0.0 and a2p > 0.0


def test_params_from_dict_roundtrip(params_ref):
    d = dict(T=1.0, nu=1.0, eps=1.0, v_minus=1.0, u_minus=0.0, v_plus=1.1)
    assert params_from_dict(d) == params_ref
    with pytest.raises(ValueError, match="missing"):
        params_from_dict({"T": 1.0})
