"""Finite-difference solver for the linearized field equation.

The eigenvalue machinery always eliminates the potential through the
first-order system; this module discretizes the same solve directly,
phi = (solution operator applied to v), as an independent check.  The
elliptic operator acting on phi is

    av * phi + ap * phi' - axx * phi''

with av = vbar e^phibar, ap = eps^2 vbar'/vbar^2, axx = eps^2/vbar,
and the right-hand side is built from v through

    b0 * v + b1 * v',
    b0 = -e^phibar - eps^2 phibar''/vbar^2 + 2 eps^2 vbar' phibar'/vbar^3,
    b1 = -eps^2 phibar'/vbar^2.

Second-order central differences with homogeneous Dirichlet ends; the
data decays exponentially, so truncation at +-X is benign.  The
consistency check solves for the wave's own phi' on the profile grid
(18 decay lengths of the slow rate by default): that grid's
projection boundary rows (see profile.py) keep its far tail on the
heteroclinic orbit, so the check needs no longer domain.  The
first-order coefficient is small (order of the shock amplitude), so no
upwinding is needed, and the symmetric part of the discrete operator
inherits the continuous coercivity constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .profile import ProfileGrid


@dataclass(frozen=True)
class PoissonDiscretization:
    """Grid plus coefficient tables of the elliptic pair."""

    x: np.ndarray
    av: np.ndarray
    ap: np.ndarray
    axx: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def operator_bands(self):
        """(sub, diag, sup) rows of the interior tridiagonal operator."""
        h = self.h
        av, ap, axx = self.av[1:-1], self.ap[1:-1], self.axx[1:-1]
        diag = av + 2.0 * axx / h**2
        sub = -axx / h**2 - ap / (2.0 * h)   # couples to the left neighbor
        sup = -axx / h**2 + ap / (2.0 * h)
        return sub, diag, sup


def discretize_fields(x, vbar, dvbar, phibar, dphibar, d2phibar,
                      eps: float) -> PoissonDiscretization:
    x = np.asarray(x, dtype=float)
    eps2 = eps**2
    ephi = np.exp(phibar)
    return PoissonDiscretization(
        x=x,
        av=vbar * ephi,
        ap=eps2 * dvbar / vbar**2,
        axx=eps2 / vbar + np.zeros_like(x),
        b0=(-ephi - eps2 * d2phibar / vbar**2
            + 2.0 * eps2 * dvbar * dphibar / vbar**3),
        b1=-eps2 * dphibar / vbar**2,
    )


def discretize_profile(grid: ProfileGrid) -> PoissonDiscretization:
    vj, pj, sj = grid.taylor_jets(2)
    return discretize_fields(
        grid.x, vj.value, vj.derivative(1), pj.value, sj.value,
        sj.derivative(1), grid.params.eps)


def constant_discretization(X: float, n: int, vbar: float = 1.0,
                            phibar: float = 0.0,
                            eps: float = 1.0) -> PoissonDiscretization:
    """Frozen-coefficient discretization, e.g. (1 - dxx) for the defaults."""
    x = np.linspace(-X, X, n)
    z = np.zeros(n)
    return discretize_fields(x, vbar + z, z, phibar + z, z, z, eps)


def apply_operator(disc: PoissonDiscretization, phi, dphi, d2phi):
    """The elliptic operator on an analytically known function."""
    return disc.av * phi + disc.ap * dphi - disc.axx * d2phi


def rhs_from_velocity(disc: PoissonDiscretization, v, dv=None):
    if dv is None:
        dv = np.gradient(v, disc.h, edge_order=2)
    return disc.b0 * v + disc.b1 * dv


def solve_with_rhs(disc: PoissonDiscretization, f: np.ndarray) -> np.ndarray:
    """Tridiagonal solve with homogeneous Dirichlet ends."""
    sub, diag, sup = disc.operator_bands()
    m = diag.shape[0]
    ab = np.zeros((3, m))
    ab[0, 1:] = sup[:-1]
    ab[1] = diag
    ab[2, :-1] = sub[1:]
    phi = np.zeros(disc.n)
    phi[1:-1] = solve_banded((1, 1), ab, np.asarray(f)[1:-1])
    return phi


def solve_linearized_poisson(disc: PoissonDiscretization, v,
                             dv=None) -> np.ndarray:
    """phi from v: build the right-hand side, then the banded solve."""
    return solve_with_rhs(disc, rhs_from_velocity(disc, v, dv))


def smallest_symmetric_eigenvalue(disc: PoissonDiscretization) -> float:
    """Lowest eigenvalue of the symmetric part of the interior operator.

    The continuous bilinear form is coercive with constants
    min(v_-/v_+, eps^2/v_+); the discrete symmetric part stays above a
    fixed fraction of that for the grids in use.
    """
    sub, diag, sup = disc.operator_bands()
    off = 0.5 * (sub[1:] + sup[:-1])
    return float(eigh_tridiagonal(diag, off, select="i",
                                  select_range=(0, 0))[0][0])


def _default_gaussian():
    phi = lambda x: np.exp(-x**2)              # noqa: E731
    dphi = lambda x: -2.0 * x * np.exp(-x**2)  # noqa: E731
    d2phi = lambda x: (4.0 * x**2 - 2.0) * np.exp(-x**2)  # noqa: E731
    return phi, dphi, d2phi


def manufactured_convergence(discs, phi=None, dphi=None, d2phi=None):
    """Observed order from a manufactured solution across resolutions.

    Builds f so the continuous solution is known, solves on each
    discretization, and returns (order, errors) with the order fitted
    as the slope of log error against log h.
    """
    if phi is None:
        phi, dphi, d2phi = _default_gaussian()
    errors, steps = [], []
    for disc in discs:
        target = phi(disc.x)
        f = apply_operator(disc, target, dphi(disc.x), d2phi(disc.x))
        sol = solve_with_rhs(disc, f)
        errors.append(float(np.max(np.abs(sol - target))))
        steps.append(disc.h)
    if len(errors) < 2:
        return float("nan"), np.asarray(errors)
    order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    return float(order), np.asarray(errors)
