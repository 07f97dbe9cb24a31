"""Boundary-value solver for the standing shock profile.

The wave is computed from a 3-dimensional first-order system in
y = (v, phi, psi) with psi = phi': the integrated momentum balance
gives v' through the scalar function G (zero at both far-field
states), and the field equation closes psi'.  The velocity component
is algebraically slaved, ubar = u_minus - s (vbar - v_minus), which
makes s vbar' + ubar' = 0 exact at the nodes.

Discretization: a mono-implicit Runge-Kutta scheme of order 4 on a
fixed mesh (Simpson rule with cubic-Hermite midpoint values), solved
by damped Newton iteration with an analytic Jacobian.  Boundary
conditions clamp v at both ends; the phase condition pins
v(0) = (v_minus + v_plus)/2 at the central node, so the node count
must be odd.  Ordering the rows as left clamp, cells left of the
pinned node, phase condition, remaining cells, right clamp makes the
Newton matrix a band matrix with four sub- and four super-diagonals.
Each step assembles it in blocks of BLOCK_CELLS cells straight into
LAPACK gbsv's band storage, a (13, 3n) Fortran-order array whose top
four rows are room for the fill-in of the LU factors, and factors and
solves it in place with one gbsv call; a step holds that one band
array, never a copy of it.

A solved grid is its nodes plus, optionally, the Taylor jets it
carries.  Every derivative of the profile is read from jets of the
right-hand side (`ProfileGrid.taylor_jets`), never from differencing
the computed solution; the residual check builds its piecewise-quintic
Hermite interpolant from them (eigensystem.hermite_table) and reads
values and slopes at fixed offsets in its cells
(eigensystem.refined_values).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs
# unused here; kept so that WRAPS in perfbench/tracer.py can patch it
from scipy.sparse.linalg import splu  # noqa: F401

from .csvout import write_table
from .eigensystem import hermite_table, refined_values
from .jets import Jet
from .modes import fast_roots
from .params import PlasmaParams, ShockEndstates


def _exp(z):
    return z.exp() if isinstance(z, Jet) else np.exp(z)


def profile_nonlinearity(v, phi, psi, params: PlasmaParams, end: ShockEndstates):
    """Integrated momentum balance G; vanishes at both far-field states."""
    T, eps2 = params.T, params.eps**2
    s, vm = end.s, params.v_minus
    iv = v**-1
    return (s * s * (v - vm) + (T + 1.0) * (iv - 1.0 / vm)
            + _exp(phi) - iv - 0.5 * eps2 * (psi * iv) ** 2)


def profile_rhs(v, phi, psi, params: PlasmaParams, end: ShockEndstates):
    """Right-hand side of the first-order profile system, any jet order."""
    eps2 = params.eps**2
    snu = end.s * params.nu
    G = profile_nonlinearity(v, phi, psi, params, end)
    f1 = (-1.0 / snu) * v * G
    f2 = psi
    f3 = psi * f1 * v**-1 + (v * v * _exp(phi) - v) * (1.0 / eps2)
    return f1, f2, f3


def rhs_array(y: np.ndarray, params: PlasmaParams, end: ShockEndstates) -> np.ndarray:
    v, phi, psi = y[..., 0], y[..., 1], y[..., 2]
    f1, f2, f3 = profile_rhs(v, phi, psi, params, end)
    return np.stack([f1, f2, f3], axis=-1)


def rhs_jacobian(y: np.ndarray, params: PlasmaParams, end: ShockEndstates) -> np.ndarray:
    """Analytic Jacobian of the profile right-hand side, shape (..., 3, 3)."""
    T, eps2 = params.T, params.eps**2
    s, nu, vm = end.s, params.nu, params.v_minus
    snu = s * nu
    v, phi, psi = y[..., 0], y[..., 1], y[..., 2]
    ephi = np.exp(phi)
    G = profile_nonlinearity(v, phi, psi, params, end)
    dG_dv = s * s - (T + 1.0) / v**2 + 1.0 / v**2 + eps2 * psi**2 / v**3
    dG_dphi = ephi
    dG_dpsi = -eps2 * psi / v**2

    f1 = -(v / snu) * G
    df1_dv = -(G + v * dG_dv) / snu
    df1_dphi = -v * dG_dphi / snu
    df1_dpsi = -v * dG_dpsi / snu

    J = np.zeros(y.shape[:-1] + (3, 3))
    J[..., 0, 0] = df1_dv
    J[..., 0, 1] = df1_dphi
    J[..., 0, 2] = df1_dpsi
    J[..., 1, 2] = 1.0
    J[..., 2, 0] = psi * (df1_dv * v - f1) / v**2 + (2.0 * v * ephi - 1.0) / eps2
    J[..., 2, 1] = psi * df1_dphi / v + v * v * ephi / eps2
    J[..., 2, 2] = f1 / v + psi * df1_dpsi / v
    return J


def default_half_length(params: PlasmaParams, end: ShockEndstates,
                        efolds: float = 18.0) -> float:
    """Domain half-length giving `efolds` decay lengths of the slow rate."""
    gm = fast_roots(params, end, "minus").gamma1
    gp = fast_roots(params, end, "plus").gamma1
    rate = min(abs(gm), abs(gp))
    if rate < 1e-8:
        raise ValueError("amplitude too small to size the domain; pass X explicitly")
    return efolds / rate


def initial_guess(x: np.ndarray, params: PlasmaParams, end: ShockEndstates) -> np.ndarray:
    delta = params.delta_s
    mid = 0.5 * (params.v_minus + params.v_plus)
    if delta == 0.0:
        v = np.full_like(x, params.v_minus)
        return np.stack([v, -np.log(v), np.zeros_like(x)], axis=-1)
    gm = fast_roots(params, end, "minus").gamma1
    gp = fast_roots(params, end, "plus").gamma1
    kappa = 0.5 * min(abs(gm), abs(gp))
    v = mid + 0.5 * delta * np.tanh(kappa * x)
    dv = 0.5 * delta * kappa / np.cosh(kappa * x) ** 2
    return np.stack([v, -np.log(v), -dv / v], axis=-1)


def _collocation_residual(y, h, params, end):
    """Cell residuals, plus f at the nodes and the midpoint states."""
    f = rhs_array(y, params, end)
    ym = 0.5 * (y[:-1] + y[1:]) - (h / 8.0) * (f[1:] - f[:-1])
    fm = rhs_array(ym, params, end)
    res = y[1:] - y[:-1] - (h / 6.0) * (f[:-1] + 4.0 * fm + f[1:])
    return res, f, ym


def _boundary_rows(y, mid_idx, params):
    """Left clamp, phase condition, right clamp."""
    vm, vp = params.v_minus, params.v_plus
    return (y[0, 0] - vm, y[mid_idx, 0] - 0.5 * (vm + vp), y[-1, 0] - vp)


def _residual_vector(y, h, mid_idx, params, end, colloc=None):
    """Residual with the cell rows first and the three boundary rows last.

    colloc is _collocation_residual(y, ...) when the caller already has it.
    """
    res, _, _ = colloc or _collocation_residual(y, h, params, end)
    left, phase, right = _boundary_rows(y, mid_idx, params)
    return np.concatenate([res.ravel(), [left, right, phase]])


# Row order of the banded Newton system: the left clamp, the cells left of
# the pinned node, the phase condition, the remaining cells, the right
# clamp.  Cell k couples unknowns 3k .. 3k+5; its three rows start at
# 3k + 1 + shift, with shift 0 left of mid_idx and 1 from it on, so every
# entry lies within BANDS = 4 diagonals of the main one.
BANDS = 4
# Cells per block of the Newton matrix assembly; a block's (cells, 3, 3)
# temporaries are then small next to the band array.
BLOCK_CELLS = 4096


def _banded_system(y, h, mid_idx, params, end, colloc=None):
    """Newton matrix in gbsv's band storage, shape (3 BANDS + 1, 3n) in
    Fortran order, and the residual F in the same row order.

    Entry (row, col) of the matrix sits at ab[2 BANDS + row - col, col];
    the top BANDS rows are zero, room for the fill-in of the LU factors.
    The cells are assembled BLOCK_CELLS at a time, each block on one side
    of the phase row.
    colloc is _collocation_residual(y, ...) when the caller already has it.
    """
    n = y.shape[0]
    res, _, ym = colloc or _collocation_residual(y, h, params, end)
    eye = np.eye(3)
    # band[node, c, d] is ab[d, 3 node + c]
    band = np.zeros((n, 3, 3 * BANDS + 1))
    for first, stop, shift in ((0, mid_idx, 0), (mid_idx, n - 1, 1)):
        for a in range(first, stop, BLOCK_CELLS):
            b = min(a + BLOCK_CELLS, stop)
            J = rhs_jacobian(y[a:b + 1], params, end)
            Jm = rhs_jacobian(ym[a:b], params, end)
            dym_dl = 0.5 * eye + (h / 8.0) * J[:-1]
            dym_dr = 0.5 * eye - (h / 8.0) * J[1:]
            L = -eye - (h / 6.0) * (J[:-1] + 4.0 * (Jm @ dym_dl))
            R = eye - (h / 6.0) * (J[1:] + 4.0 * (Jm @ dym_dr))
            for c in range(3):
                # row 3k + 1 + shift + i, column 3k + c (L) or 3k + 3 + c (R)
                d = 2 * BANDS + 1 + shift - c
                band[a:b, c, d:d + 3] = L[:, :, c]
                band[a + 1:b + 1, c, d - 3:d] = R[:, :, c]
    band[0, 0, 2 * BANDS] = 1.0              # left clamp: row 0, column 0
    band[mid_idx, 0, 2 * BANDS + 1] = 1.0    # phase: row 3 mid + 1, column 3 mid
    band[n - 1, 0, 2 * BANDS + 2] = 1.0      # right clamp: row 3n - 1, column 3n - 3

    left, phase, right = _boundary_rows(y, mid_idx, params)
    F = np.concatenate([[left], res[:mid_idx].ravel(), [phase],
                        res[mid_idx:].ravel(), [right]])
    return band.reshape(3 * n, 3 * BANDS + 1).T, F


def _band_solve(ab, rhs):
    """Solve the band system of _banded_system in place with LAPACK gbsv.

    ab is factored into and rhs overwritten by the solution, which is
    returned.  Raises ValueError on a non-finite entry or an illegal
    argument and LinAlgError on a singular matrix, as
    scipy.linalg.solve_banded does.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    gbsv, = get_lapack_funcs(("gbsv",), (ab, rhs))
    _, _, x, info = gbsv(BANDS, BANDS, ab, rhs,
                         overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
    return x


@dataclass(frozen=True)
class ProfileGrid:
    """Converged profile at the nodes, with optional stored jets.

    jets, once set, holds state_jets output that every consumer of the
    grid reuses; without it, taylor_jets derives fresh ones.
    newton_iterations and newton_defect are the Newton steps the solve
    took and the max-norm residual it stopped at.
    """

    params: PlasmaParams
    end: ShockEndstates
    X: float
    x: np.ndarray
    v: np.ndarray
    u: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    jets: Optional[tuple[Jet, Jet, Jet]] = None
    newton_iterations: int = 0
    newton_defect: float = 0.0

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def state_jets(self, order: int = 5, nodes=slice(None)):
        """Taylor jets of (v, phi, psi), extended through the ODE, at the
        nodes selected by the index `nodes` (all of them by default); each
        node's jet depends on that node alone."""
        vj = Jet(self.v[None, nodes].copy())
        pj = Jet(self.phi[None, nodes].copy())
        sj = Jet(self.psi[None, nodes].copy())
        for m in range(order):
            f1, f2, f3 = profile_rhs(vj, pj, sj, self.params, self.end)
            vj = Jet(np.vstack([vj.coef, f1.coef[m] / (m + 1)]))
            pj = Jet(np.vstack([pj.coef, f2.coef[m] / (m + 1)]))
            sj = Jet(np.vstack([sj.coef, f3.coef[m] / (m + 1)]))
        return vj, pj, sj

    def taylor_jets(self, order: int):
        """Stored jets when they reach `order`, else fresh ones; stored
        jets agree exactly with fresh ones in every shared coefficient."""
        if self.jets is not None and self.jets[0].order >= order:
            return self.jets
        return self.state_jets(order)


def solve_profile(params: PlasmaParams, end: ShockEndstates,
                  X: Optional[float] = None, n: Optional[int] = None,
                  tol: float = 1e-12, max_iter: int = 30) -> ProfileGrid:
    """Solve the truncated profile boundary-value problem.

    X defaults to 18 decay lengths of the slow rate.
    Raises RuntimeError with the final defect when Newton stalls,
    RuntimeError naming the step, n, X and the defect when a Newton
    matrix is singular or not finite, and RuntimeError when the
    converged solution is not monotone (bad truncation or amplitude
    outside the perturbative regime).
    """
    if X is None:
        X = default_half_length(params, end)
    if n is None:
        n = 4001
    if n % 2 == 0:
        raise ValueError("node count n must be odd so that x=0 is a node")
    x = np.linspace(-X, X, n)
    h = x[1] - x[0]
    mid_idx = (n - 1) // 2

    def defect(y):
        # max-norm residual, with the collocation parts that produced it
        colloc = _collocation_residual(y, h, params, end)
        return np.max(np.abs(_residual_vector(y, h, mid_idx, params, end,
                                              colloc))), colloc

    y = initial_guess(x, params, end)
    norm, colloc = defect(y)
    iterations = 0
    while norm > tol and iterations < max_iter:
        ab, F = _banded_system(y, h, mid_idx, params, end, colloc)
        del colloc      # its (n, 3) arrays need not live through the solve
        iterations += 1
        try:
            step = _band_solve(ab, -F).reshape(n, 3)
        except (LinAlgError, ValueError) as exc:
            raise RuntimeError(
                f"profile Newton: step {iterations} failed on n={n}, "
                f"X={X:.6g} with defect {norm:.3e}: {exc}") from exc
        del ab, F       # the factored band is not needed in the line search
        t = 1.0
        while t > 1e-6:
            trial = y + t * step
            trial_norm, trial_colloc = defect(trial)
            if trial_norm < norm * (1.0 - 0.25 * t) or trial_norm < tol:
                y, norm, colloc = trial, trial_norm, trial_colloc
                break
            t *= 0.5
        else:
            y = y + t * step
            norm, colloc = defect(y)
        # only y and colloc go on to the next step's band assembly
        del step, trial, trial_colloc
    if norm > tol:
        raise RuntimeError(f"profile solver did not converge; final defect {norm:.3e}")

    v, phi, psi = y[:, 0], y[:, 1], y[:, 2]
    # gross-failure guard only; machine-level flat spots in the far tail
    # are fine and the report carries the sharp monotonicity margin
    if params.delta_s > 0 and np.any(np.diff(v) < -1e-10 * params.delta_s):
        raise RuntimeError("converged profile is not monotone; increase X "
                           "or reduce the amplitude")
    u = params.u_minus - end.s * (v - params.v_minus)
    return ProfileGrid(params=params, end=end, X=float(X), x=x,
                       v=v, u=u, phi=phi, psi=psi, newton_iterations=iterations,
                       newton_defect=float(norm))


def profile_cells(grid: ProfileGrid) -> np.ndarray:
    """Piecewise quintic (C^2) through the nodes, from order-3 jets.

    Returns its hermite_table cells, shape (6, n - 1, 4).  Components are
    (v, u, phi, psi); psi gets its own component so that residual checks
    of the first-order system never differentiate an interpolant twice.
    """
    vj, pj, _ = grid.taylor_jets(3)
    s = grid.end.s
    dv1, dv2 = vj.derivative(1), vj.derivative(2)
    values = np.stack([grid.v, grid.u, grid.phi, grid.psi], axis=-1)
    d1 = np.stack([dv1, -s * dv1, pj.derivative(1), pj.derivative(2)], axis=-1)
    d2 = np.stack([dv2, -s * dv2, pj.derivative(2), pj.derivative(3)], axis=-1)
    return hermite_table(grid.x, values, d1, d2)


def profile_residual(grid: ProfileGrid, refine: int = 4) -> np.ndarray:
    """Max |y' - F(y)| of the interpolant per equation on a refined grid."""
    cells, h = profile_cells(grid), 2.0 * grid.X / (grid.n - 1)
    vals, derivs = (refined_values(cells, h, refine, nu) for nu in (0, 1))
    v, phi, psi = vals[:, 0], vals[:, 2], vals[:, 3]
    dv, du, dpsi = derivs[:, 0], derivs[:, 1], derivs[:, 3]
    s = grid.end.s

    f1, f2, f3 = profile_rhs(v, phi, psi, grid.params, grid.end)
    res_v = dv - f1              # integrated momentum balance
    res_u = du + s * dv          # mass balance; exact by elimination
    res_psi = dpsi - f3          # field equation
    return np.array([np.max(np.abs(res_v)),
                     np.max(np.abs(res_u)),
                     np.max(np.abs(res_psi))])


@dataclass(frozen=True)
class ProfileResidualReport:
    max_residual: np.ndarray      # per equation
    monotonicity_margin: float    # min of s*vbar' over the nodes
    ratio_low: float              # fitted C in C*ubar' <= phibar'
    ratio_high: float             # fitted C-bar
    decay_exponent: float         # fitted slope of log|vbar - v_plus|
    boundary_mismatch: float


def verify_profile(grid: ProfileGrid) -> ProfileResidualReport:
    # derive the jets once for the residual and the margins
    grid = replace(grid, jets=grid.taylor_jets(3))
    res = profile_residual(grid)
    vj, pj, _ = grid.jets
    s = grid.end.s
    dv = vj.derivative(1)
    margin = float(np.min(s * dv))

    dub, dpb = -s * dv, pj.derivative(1)
    mask = np.abs(dub) > 1e-3 * np.max(np.abs(dub))
    if np.any(mask):
        ratios = dpb[mask] / dub[mask]
        ratio_low, ratio_high = float(np.min(ratios)), float(np.max(ratios))
    else:
        ratio_low = ratio_high = np.nan

    sel = (grid.x >= grid.X / 2) & (grid.x <= 0.75 * grid.X)
    tail = np.abs(grid.v[sel] - grid.params.v_plus)
    slope = np.nan
    if np.all(tail > 0):
        slope = float(np.polyfit(grid.x[sel], np.log(tail), 1)[0])

    end = grid.end
    mism = max(abs(grid.phi[0] - end.phi_minus), abs(grid.phi[-1] - end.phi_plus),
               abs(grid.psi[0]), abs(grid.psi[-1]),
               abs(grid.u[0] - grid.params.u_minus), abs(grid.u[-1] - end.u_plus))
    return ProfileResidualReport(max_residual=res, monotonicity_margin=margin,
                                 ratio_low=ratio_low, ratio_high=ratio_high,
                                 decay_exponent=slope, boundary_mismatch=mism)


def write_profile_csv(grid: ProfileGrid, path) -> None:
    vj, pj, _ = grid.taylor_jets(2)
    dv = vj.derivative(1)
    data = np.column_stack([grid.x, grid.v, grid.u, grid.phi,
                            dv, -grid.end.s * dv, pj.derivative(1),
                            pj.derivative(2)])
    with open(path, "wb") as fh:
        fh.write(b"x,v,u,phi,dv,du,dphi,d2phi\n")
        write_table(fh, data, 18)
