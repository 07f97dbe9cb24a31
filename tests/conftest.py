"""Shared fixtures.

Expensive objects (profiles, assembled eigensystems, Evans scaffolding) are
session-scoped and cached so the suite stays within the per-criterion time
budgets.
"""

import numpy as np
import pytest

from nspshock.eigensystem import limit_matrix_coeffs
from nspshock.params import PlasmaParams, solve_rankine_hugoniot


def limit_matrix(params, end, side, lam):
    """The far-field matrix A0 + lam A1 of one side."""
    A0, A1 = limit_matrix_coeffs(params, end, side)
    return A0 + lam * A1


def slow_mu_quadratic(slow, j, lam):
    """Two-term expansion lam/a - lam^2 beta/a^3 of slow branch j in {1, 2}
    (slow is modes.slow_expansion of one side)."""
    a = slow.a1 if j == 1 else slow.a2
    beta = slow.beta1 if j == 1 else slow.beta2
    return lam / a - lam * lam * beta / a**3


def make_params(delta: float, v_minus: float = 1.0) -> PlasmaParams:
    return PlasmaParams(
        T=1.0, nu=1.0, eps=1.0, v_minus=v_minus, u_minus=0.0, v_plus=v_minus + delta
    )


@pytest.fixture(scope="session")
def params_ref() -> PlasmaParams:
    """Reference parameter set (T, nu, eps, v-, v+) = (1, 1, 1, 1, 1.1)."""
    return make_params(0.1)


@pytest.fixture(scope="session")
def end_ref(params_ref):
    return solve_rankine_hugoniot(params_ref)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
