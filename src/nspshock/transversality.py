"""Reduced variational system and the bounded-solution count.

At lam = 0 two relations of the five-dimensional eigensystem integrate
exactly: s v + u is conserved (so v = -u/s on decaying solutions) and
the third state component is pinned to a combination of (v, u, phi',
phi'').  Substituting both reduces the system to V' = Atilde(x; s) V
with V = (u, phi, phi'), whose bounded-solution space is spanned by
the wave derivative exactly when the connecting orbit is transverse.

The count is computed by subspace propagation: the plane of solutions
bounded as x -> +inf (center-stable directions of the matrix at +X,
integrated backward) is intersected at x = 0 with the plane bounded as
x -> -inf (center-unstable directions at -X, integrated forward), via
a rank-revealing SVD.  No diagonalizing change of variables is needed;
per-segment QR keeps the transported frames well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .eigensystem import interior_coefficients, interior_matrix_coeffs
from .params import PlasmaParams, ShockEndstates
from .profile import ProfileGrid


def reduced_limit_matrix(params: PlasmaParams) -> np.ndarray:
    """Reference matrix of the reduced system at zero amplitude."""
    T, nu, eps2, vm = params.T, params.nu, params.eps**2, params.v_minus
    rt = np.sqrt(T + 1.0)
    return np.array([
        [-1.0 / (nu * rt), 1.0 / nu, 0.0],
        [0.0, 0.0, 1.0],
        [-vm / (eps2 * rt), vm / eps2, 0.0],
    ])


def limit_eigenvalues(params: PlasmaParams) -> tuple[float, float, float]:
    """(sigma_-, 0, sigma_+) of the reference matrix, in closed form."""
    T, nu, eps2, vm = params.T, params.nu, params.eps**2, params.v_minus
    half_trace = -0.5 / (nu * np.sqrt(T + 1.0))
    disc = 0.5 * np.sqrt(1.0 / (nu**2 * (T + 1.0)) + 4.0 * vm / eps2)
    return half_trace - disc, 0.0, half_trace + disc


@dataclass(frozen=True)
class ReducedSystem:
    """Tabulated reduced matrix with its spline evaluator."""

    params: PlasmaParams
    end: ShockEndstates
    x: np.ndarray
    tables: np.ndarray           # (n, 3, 3)
    spline: CubicSpline
    A0: np.ndarray               # zero-amplitude reference matrix
    sigma: tuple[float, float, float]

    @property
    def X(self) -> float:
        return float(self.x[-1])

    def deviation_sup(self) -> float:
        """sup over the grid of the spectral norm of Atilde - A0."""
        return float(np.max(np.linalg.norm(self.tables - self.A0, ord=2,
                                           axis=(1, 2))))


def reduced_tables(grid: ProfileGrid) -> np.ndarray:
    """Eliminate v and the flux derivative from the lam = 0 system."""
    params, end = grid.params, grid.end
    vj, pj, sj = grid.taylor_jets(5)
    tab = interior_coefficients(grid.x, vj, pj, sj, params, end)
    A0full, _, _ = interior_matrix_coeffs(tab)
    s = end.s
    n = grid.n

    # columns express W = (v, u, w', phi, phi') through V = (u, phi, phi')
    E = np.zeros((n, 5, 3))
    E[:, 0, 0] = -1.0 / s
    E[:, 1, 0] = 1.0
    E[:, 3, 1] = 1.0
    E[:, 4, 2] = 1.0

    # The integrated flux relation and the field row form a linear pair
    #   w'   = (b1'-A21) v + (b2'-s) u - D21 phi' - E21 phi''
    #   phi'' = a0 v + a1 u + a2 w' + a3 phi + a4 phi'
    # (a_j the entries of the lam = 0 field row, which picks up a w'
    # term from the v' substitution).  Its determinant 1 + E21 a2
    # equals s b2 / P > 0, so the pair is always solvable.
    a = A0full[:, 4, :]
    rhs_w = ((tab.db1 - tab.A21)[:, None] * E[:, 0, :]
             + (tab.db2 - s)[:, None] * E[:, 1, :]
             - tab.D21[:, None] * E[:, 4, :])
    rhs_f = (a[:, 0, None] * E[:, 0, :] + a[:, 1, None] * E[:, 1, :]
             + a[:, 3, None] * E[:, 3, :] + a[:, 4, None] * E[:, 4, :])
    den = 1.0 + tab.E21 * a[:, 2]
    if np.min(den) < 1e-8:
        raise RuntimeError("constraint pair degenerates: min determinant "
                           f"{np.min(den):.2e}")
    E[:, 2, :] = (rhs_w - tab.E21[:, None] * rhs_f) / den[:, None]
    phi2_row = rhs_f + a[:, 2, None] * E[:, 2, :]

    out = np.empty((n, 3, 3))
    out[:, 0, :] = np.einsum("nj,njk->nk", A0full[:, 1, :], E)
    out[:, 1, :] = np.array([0.0, 0.0, 1.0])
    out[:, 2, :] = phi2_row
    return out


def build_reduced_system(grid: ProfileGrid) -> ReducedSystem:
    tables = reduced_tables(grid)
    return ReducedSystem(
        params=grid.params, end=grid.end, x=grid.x, tables=tables,
        spline=CubicSpline(grid.x, tables.reshape(grid.n, 9), axis=0),
        A0=reduced_limit_matrix(grid.params),
        sigma=limit_eigenvalues(grid.params))


def constant_reduced_system(params: PlasmaParams, X: float = 40.0,
                            n: int = 401) -> ReducedSystem:
    """Degenerate zero-amplitude system: Atilde frozen at A0."""
    A0 = reduced_limit_matrix(params)
    x = np.linspace(-X, X, n)
    tables = np.broadcast_to(A0, (n, 3, 3)).copy()
    end = ShockEndstates(s=np.sqrt(params.T + 1.0) / params.v_minus,
                         u_plus=params.u_minus,
                         phi_minus=-np.log(params.v_minus),
                         phi_plus=-np.log(params.v_minus))
    return ReducedSystem(
        params=params, end=end, x=x, tables=tables,
        spline=CubicSpline(x, tables.reshape(n, 9), axis=0),
        A0=A0, sigma=limit_eigenvalues(params))


def reduced_matrix(system: ReducedSystem, x: float) -> np.ndarray:
    return system.spline(x).reshape(3, 3)


def wave_vector(grid: ProfileGrid) -> np.ndarray:
    """(ubar', phibar', phibar'') at the nodes, shape (n, 3)."""
    vj, _, sj = grid.taylor_jets(3)
    return np.stack([-grid.end.s * vj.derivative(1), sj.value,
                     sj.derivative(1)], axis=-1)


def reduced_wave_residual(system: ReducedSystem, grid: ProfileGrid) -> float:
    """Relative defect of the wave derivative in the reduced system."""
    vj, _, sj = grid.taylor_jets(3)
    V = wave_vector(grid)
    dV = np.stack([-grid.end.s * vj.derivative(2), sj.derivative(1),
                   sj.derivative(2)], axis=-1)
    defect = dV - np.einsum("nij,nj->ni", system.tables, V)
    return float(np.max(np.abs(defect)) / np.max(np.abs(dV)))


def _propagate_plane(system: ReducedSystem, basis: np.ndarray, x_from: float,
                     x_to: float, rtol: float, atol: float,
                     nseg: int) -> np.ndarray:
    """Transport span(basis) and return an orthonormal frame at x_to."""
    Q, _ = np.linalg.qr(basis)

    def rhs(x, y):
        return (system.spline(x).reshape(3, 3) @ y.reshape(3, 2)).ravel()

    for a, b in zip(np.linspace(x_from, x_to, nseg + 1)[:-1],
                    np.linspace(x_from, x_to, nseg + 1)[1:]):
        sol = solve_ivp(rhs, (a, b), Q.ravel(), method="DOP853",
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError("plane transport failed: " + sol.message)
        Q, _ = np.linalg.qr(sol.y[:, -1].reshape(3, 2))
    return Q


def _split_directions(M: np.ndarray, center_tol: float = 1e-10):
    """Eigendirections of M sorted into (stable+center, center+unstable).

    Each entry comes with the spread of rates inside the selected pair,
    which sets how often the transported frame must be re-orthonormalized:
    a segment of length ell mixes the pair at condition exp(spread*ell),
    and every QR step loses the subdominant direction to roughly machine
    epsilon times that factor.
    """
    w, V = np.linalg.eig(M)
    if np.max(np.abs(w.imag)) > 1e-10:
        raise RuntimeError("end matrix of the reduced system has complex "
                           "rates; cannot classify directions")
    w, V = w.real, V.real
    cs = w <= center_tol
    cu = w >= -center_tol
    return ((V[:, cs], float(np.ptp(w[cs])) if np.any(cs) else 0.0),
            (V[:, cu], float(np.ptp(w[cu])) if np.any(cu) else 0.0))


@dataclass(frozen=True)
class TransversalityResult:
    dimension: int
    vector: np.ndarray           # unit intersection vector at x = 0
    angle_to_wave: float         # radians, against (ubar',phibar',phibar'')(0)
    singular_values: np.ndarray
    threshold: float


def bounded_solution_dim(system: ReducedSystem, grid: ProfileGrid | None = None,
                         threshold: float = 1e-7, rtol: float = 1e-11,
                         atol: float = 1e-13) -> TransversalityResult:
    """Dimension of the space of solutions bounded on the whole line.

    The plane bounded at +inf is spanned by the center-stable
    directions at +X and transported backward; the plane bounded at
    -inf by the center-unstable directions at -X transported forward.
    (Away from zero amplitude the end matrices have no neutral rate,
    so center-stable means the genuinely decaying pair; for constant
    coefficients it keeps the neutral direction, whose solution is
    bounded without decay.)  Their intersection at x = 0 is read off a
    rank-revealing SVD with the given relative threshold.  A transverse
    connection gives dimension one with the intersection along the wave
    derivative; any larger value signals a transversality failure at
    this amplitude.

    Without a grid the angle against the wave derivative is NaN.
    """
    X = system.X
    (cs, spread_s), _ = _split_directions(system.tables[-1])
    _, (cu, spread_u) = _split_directions(system.tables[0])
    if cs.shape[1] != 2 or cu.shape[1] != 2:
        raise RuntimeError("unexpected direction counts at the cut ends: "
                           f"{cs.shape[1]} bounded at +inf, "
                           f"{cu.shape[1]} bounded at -inf")
    nseg_s = max(4, int(np.ceil(X * spread_s / 12.0)))
    nseg_u = max(4, int(np.ceil(X * spread_u / 12.0)))
    S = _propagate_plane(system, cs, X, 0.0, rtol, atol, nseg_s)
    U = _propagate_plane(system, cu, -X, 0.0, rtol, atol, nseg_u)

    M = np.concatenate([S, U], axis=1)          # 3 x 4
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > threshold * sv[0]))
    dim = 4 - rank

    # intersection vector: combination of the S columns lying in span(U)
    proj = np.eye(3) - U @ U.T
    _, svs, Vt = np.linalg.svd(proj @ S)
    coeff = Vt[-1]
    vec = S @ coeff
    vec = vec / np.linalg.norm(vec)

    if grid is not None:
        Vbar = wave_vector(grid)[grid.n // 2]
        cosang = abs(vec @ Vbar) / np.linalg.norm(Vbar)
        angle = float(np.arccos(min(1.0, cosang)))
    else:
        angle = float("nan")
    return TransversalityResult(dimension=dim, vector=vec,
                                angle_to_wave=angle, singular_values=sv,
                                threshold=threshold)
