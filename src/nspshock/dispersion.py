"""Fourier symbols of the limiting operators and their eigenvalue curves.

Each far-field state freezes the linearized equations into a constant
coefficient system whose 2x2 symbol M(xi) has closed-form eigenvalues

    lam_j(xi) = i s xi - nu xi^2 / (2 v)  +  (-1)^j sqrt(f(xi)) / 2 .

The discriminant f is real and even in xi; it changes sign at
xi0 = sqrt(eta0), where eta0 is the positive root of an explicit
quadratic.  Inside the window |xi| < xi0 the square root is taken
along i*sign(xi) so that lam_j(-xi) = conj(lam_j(xi)) holds with the
same label j; outside, both roots have Im lam = s xi exactly.

The dissipation bound Re lam_j(xi) <= -theta0 xi^2/(1+xi^2) with
theta0 = min{nu/(2 v_plus), T/(nu v_plus)} is checked pointwise on a
grid and is treated as a hard invariant: a violation raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvout import write_table
from .params import PlasmaParams, ShockEndstates


def symbol_matrix(params: PlasmaParams, end: ShockEndstates, side: str, xi):
    """Limiting symbol i*xi*A - xi^2*B + (i*xi^3/(v+eps^2 xi^2))*E.

    Vectorized over xi; returns shape (..., 2, 2) complex.
    """
    v = params.side_v(side)
    T, nu, eps2, s = params.T, params.nu, params.eps**2, end.s
    xi = np.asarray(xi, dtype=float)
    M = np.zeros(xi.shape + (2, 2), dtype=complex)
    M[..., 0, 0] = 1j * s * xi
    M[..., 0, 1] = 1j * xi
    M[..., 1, 0] = 1j * xi * (T + 1.0) / v**2 \
        - 1j * xi**3 * eps2 / (v**2 * (v + eps2 * xi**2))
    M[..., 1, 1] = 1j * s * xi - nu * xi**2 / v
    return M


def _discriminant(params: PlasmaParams, v: float, xi):
    T, nu, eps2 = params.T, params.nu, params.eps**2
    return (nu**2 * xi**4 / v**2 - 4.0 * (T + 1.0) * xi**2 / v**2
            + 4.0 * eps2 * xi**4 / (v**2 * (v + eps2 * xi**2)))


def essential_eigenvalues(params: PlasmaParams, end: ShockEndstates, side: str, xi):
    """Closed-form eigenvalue curves (lam1, lam2) of the limiting symbol."""
    v = params.side_v(side)
    nu, s = params.nu, end.s
    xi = np.asarray(xi, dtype=float)
    base = 1j * s * xi - nu * xi**2 / (2.0 * v)
    f = _discriminant(params, v, xi)
    root = np.where(f >= 0.0, np.sqrt(np.maximum(f, 0.0)) + 0.0j,
                    1j * np.sign(xi) * np.sqrt(np.maximum(-f, 0.0)))
    return base - 0.5 * root, base + 0.5 * root


def resonance_polynomial(params: PlasmaParams, side: str, eta):
    """Quadratic in eta = xi^2 whose positive root marks sign change of f."""
    v = params.side_v(side)
    T, nu, eps2 = params.T, params.nu, params.eps**2
    return (eps2 * nu**2 * eta**2 + (nu**2 * v - 4.0 * eps2 * T) * eta
            - 4.0 * (T + 1.0) * v)


def xi0_threshold(params: PlasmaParams, side: str):
    """(eta0, xi0): the positive root of the resonance quadratic and its sqrt."""
    v = params.side_v(side)
    T, nu, eps2 = params.T, params.nu, params.eps**2
    a = eps2 * nu**2
    b = nu**2 * v - 4.0 * eps2 * T
    c = -4.0 * (T + 1.0) * v
    eta0 = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return float(eta0), float(np.sqrt(eta0))


def decay_constant(params: PlasmaParams) -> float:
    """theta0 = min{nu/(2 v_plus), T/(nu v_plus)} for the dissipation bound."""
    return min(params.nu / (2.0 * params.v_plus),
               params.T / (params.nu * params.v_plus))


def dissipation_margin(params: PlasmaParams, end: ShockEndstates, side: str,
                       xi, tol: float = 1e-12, strict: bool = True):
    """Pointwise margin -max_j Re lam_j - theta0 xi^2/(1+xi^2).

    Returns (margin, theta0).  With strict=True a margin below -tol
    raises and reports the worst offending xi.
    """
    xi = np.asarray(xi, dtype=float)
    lam1, lam2 = essential_eigenvalues(params, end, side, xi)
    theta0 = decay_constant(params)
    margin = -np.maximum(lam1.real, lam2.real) - theta0 * xi**2 / (1.0 + xi**2)
    if strict and np.min(margin) < -tol:
        k = int(np.argmin(margin))
        raise RuntimeError(
            f"dissipation bound violated on side {side}: margin "
            f"{margin[k]:.3e} at xi={xi[k]:.6f}")
    return margin, theta0


@dataclass(frozen=True)
class DispersionCurve:
    side: str
    xi: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray
    margin: np.ndarray
    xi0: float
    theta0: float


def dispersion_curve(params: PlasmaParams, end: ShockEndstates, side: str,
                     xi) -> DispersionCurve:
    xi = np.asarray(xi, dtype=float)
    lam1, lam2 = essential_eigenvalues(params, end, side, xi)
    margin, theta0 = dissipation_margin(params, end, side, xi)
    _, xi0 = xi0_threshold(params, side)
    return DispersionCurve(side=side, xi=xi, lam1=lam1, lam2=lam2,
                           margin=margin, xi0=xi0, theta0=theta0)


def default_xi_grid(n: int = 10000, half_width: float = 50.0) -> np.ndarray:
    return np.linspace(-half_width, half_width, n)


def write_spectrum_csv(curves, path) -> None:
    """CSV export, columns xi,re_l1,im_l1,re_l2,im_l2,margin,side."""
    with open(path, "wb") as fh:
        fh.write(b"xi,re_l1,im_l1,re_l2,im_l2,margin,side\n")
        for c in curves:
            table = np.column_stack([c.xi, c.lam1.real, c.lam1.imag,
                                     c.lam2.real, c.lam2.imag, c.margin])
            write_table(fh, table, 16, f",{c.side}\n".encode())
