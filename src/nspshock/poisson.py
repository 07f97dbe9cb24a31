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
first-order coefficient is small (order of the shock amplitude), so no
upwinding is needed, and the symmetric part of the discrete operator
inherits the continuous coercivity constants.

The checks read a fourth-order value, richardson: the central scheme's
error expands in even powers of h, so (4 phi_h - phi_2h) / 3 at the
nodes shared with the every-other-node subgrid cancels its h^2 term
(L. F. Richardson, Phil. Trans. R. Soc. A 210 (1911) 307-357).  Every
coefficient is pointwise, so the subgrid discretization is the grid's
arrays sliced [::2] (PoissonDiscretization.subgrid).  The consistency
check solves for the wave's own phi' on the profile grid (18 decay
lengths of the slow rate by default): that grid's projection boundary
rows (see profile.py) keep its far tail on the heteroclinic orbit, so
the check needs no longer domain, and what the extrapolated value
leaves is the Dirichlet truncation at +-X.

The interior operator is strictly diagonally dominant: while
|ap| / 2h <= axx / h^2, diag - |sub| - |sup| = av > 0.  So its solves
use cyclic reduction without pivoting (solve_tridiagonal), and the
coercivity check reads a proved lower bound on the spectrum of its
symmetric part, the Gershgorin bound, rather than an eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

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

    def subgrid(self) -> "PoissonDiscretization":
        """The discretization on every other node, ends included."""
        if self.n % 2 == 0 or self.n < 5:
            raise ValueError(f"an every-other-node subgrid with an interior "
                             f"node needs an odd n >= 5, not {self.n}")
        return PoissonDiscretization(
            *(getattr(self, f.name)[::2] for f in fields(self)))


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
    vj, pj, sj = grid.jets
    return discretize_fields(
        grid.x, vj.value, vj.derivative(1), pj.value, sj.value,
        sj.derivative(1), grid.params.eps)


# the frozen state of constant_discretization: the operator is 1 - dxx
FROZEN_VBAR, FROZEN_PHIBAR, FROZEN_EPS = 1.0, 0.0, 1.0


def constant_discretization(X: float, n: int) -> PoissonDiscretization:
    """Frozen-coefficient discretization on n nodes of [-X, X]."""
    x = np.linspace(-X, X, n)
    z = np.zeros(n)
    return discretize_fields(x, FROZEN_VBAR + z, z, FROZEN_PHIBAR + z, z, z,
                             FROZEN_EPS)


def apply_operator(disc: PoissonDiscretization, phi, dphi, d2phi):
    """The elliptic operator on an analytically known function."""
    return disc.av * phi + disc.ap * dphi - disc.axx * d2phi


def rhs_from_velocity(disc: PoissonDiscretization, v, dv):
    """b0 v + b1 v', with v' = dv given."""
    return disc.b0 * v + disc.b1 * dv


def solve_tridiagonal(sub, diag, sup, f):
    """Solve sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = f[i] by cyclic
    reduction; sub[0] and sup[-1] are ignored.

    Each level eliminates the even-indexed unknowns from the odd-indexed
    rows, after an identity row keeps the row count odd.  Diagonal
    dominance carries over to every level, so no pivot is needed.
    Back-substitution then fills the even unknowns level by level.
    """
    a, b, c, d = (np.array(v, dtype=float) for v in (sub, diag, sup, f))
    size = b.size
    a[0] = c[-1] = 0.0
    levels = []
    while b.size > 1:
        if b.size % 2 == 0:
            a, b, c, d = (np.append(v, e) for v, e in
                          zip((a, b, c, d), (0.0, 1.0, 0.0, 0.0)))
        levels.append((a, b, c, d))
        alpha = -a[1::2] / b[:-1:2]
        gamma = -c[1::2] / b[2::2]
        a, b, c, d = (alpha * a[:-1:2],
                      b[1::2] + alpha * c[:-1:2] + gamma * a[2::2],
                      gamma * c[2::2],
                      d[1::2] + alpha * d[:-1:2] + gamma * d[2::2])
    x = d / b
    for a, b, c, d in reversed(levels):
        full = np.empty(b.size)
        full[1::2] = x[:b.size // 2]
        # the odd unknowns next to each even row, zero beyond the ends
        odd = np.concatenate([[0.0], full[1::2], [0.0]])
        full[::2] = (d[::2] - a[::2] * odd[:-1] - c[::2] * odd[1:]) / b[::2]
        x = full
    return x[:size]


def solve_with_rhs(disc: PoissonDiscretization, f: np.ndarray) -> np.ndarray:
    """Tridiagonal solve with homogeneous Dirichlet ends."""
    sub, diag, sup = disc.operator_bands()
    phi = np.zeros(disc.n)
    phi[1:-1] = solve_tridiagonal(sub, diag, sup, np.asarray(f)[1:-1])
    return phi


def solve_linearized_poisson(disc: PoissonDiscretization, v,
                             dv) -> np.ndarray:
    """phi from v and dv = v': right-hand side, then tridiagonal solve."""
    return solve_with_rhs(disc, rhs_from_velocity(disc, v, dv))


def richardson(solve, disc: PoissonDiscretization, *data) -> np.ndarray:
    """Fourth-order values at the even nodes x[::2]: (4 phi_h - phi_2h) / 3
    from solve(disc, *data) on the grid and on its subgrid, where each
    data array is sampled at the nodes."""
    fine = solve(disc, *data)
    coarse = solve(disc.subgrid(), *(np.asarray(a)[::2] for a in data))
    return (4.0 * fine[::2] - coarse) / 3.0


def smallest_symmetric_eigenvalue(disc: PoissonDiscretization) -> float:
    """A proved lower bound on the lowest eigenvalue of the symmetric part
    of the interior operator: its Gershgorin bound,
    min(diag - |off left| - |off right|).

    The continuous bilinear form is coercive with constants
    min(v_-/v_+, eps^2/v_+); the bound stays above a fixed fraction of
    that for the grids in use.
    """
    sub, diag, sup = disc.operator_bands()
    off = np.abs(0.5 * (sub[1:] + sup[:-1]))
    radius = np.zeros_like(diag)
    radius[:-1] += off
    radius[1:] += off
    return float(np.min(diag - radius))


def manufactured_convergence(discs):
    """Observed order of the extrapolated solve (richardson) from a
    manufactured solution across resolutions.

    Builds f so that the Gaussian exp(-x^2) is the continuous solution,
    solves on each discretization and its subgrid, and returns
    (order, errors), the errors taken at the shared nodes and the order
    fitted as the slope of log error against log h.
    """
    errors, steps = [], []
    for disc in discs:
        x = disc.x
        target = np.exp(-x**2)
        f = apply_operator(disc, target, -2.0 * x * target,
                           (4.0 * x**2 - 2.0) * target)
        sol = richardson(solve_with_rhs, disc, f)
        errors.append(float(np.max(np.abs(sol - target[::2]))))
        steps.append(disc.h)
    if len(errors) < 2:
        return float("nan"), np.asarray(errors)
    order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    return float(order), np.asarray(errors)
