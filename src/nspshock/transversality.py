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
a rank-revealing SVD.  Each plane is carried by its normal, which
moves under the adjoint equation y' = -Atilde^T y through
evans.transport; no diagonalizing change of variables or QR frame is
needed, and at x = 0 the plane is the normal's orthogonal complement.
Atilde is eliminated on jets, so it comes with its exact x-derivative,
and is read from cubic-Hermite cells (eigensystem.hermite_table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# unused here; kept so that WRAPS in perfbench/tracer.py can patch it
from scipy.integrate import solve_ivp  # noqa: F401

from .eigensystem import (hermite_table, interior_coefficients,
                          interior_matrix_coeffs, uniform_reader)
from .evans import WORK_COUNTS, segment_count, transport
from .jets import Jet
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
    """Tabulated reduced matrix with its hermite_table cells."""

    params: PlasmaParams
    end: ShockEndstates
    x: np.ndarray
    tables: np.ndarray           # (n, 3, 3)
    table: np.ndarray            # hermite_table cells of tables
    A0: np.ndarray               # zero-amplitude reference matrix
    sigma: tuple[float, float, float]

    @property
    def X(self) -> float:
        return float(self.x[-1])

    def deviation_sup(self) -> float:
        """sup over the grid of the spectral norm of Atilde - A0."""
        return float(np.max(np.linalg.norm(self.tables - self.A0, ord=2,
                                           axis=(1, 2))))


def reduced_tables(grid: ProfileGrid) -> Jet:
    """Eliminate v and the flux derivative from the lam = 0 system;
    Atilde comes back as an order-1 jet of shape (n, 3, 3)."""
    vj, pj, sj = grid.taylor_jets(3)
    tab = interior_coefficients(grid.x, vj, pj, sj, grid.params, grid.end)
    A0 = interior_matrix_coeffs(tab)[0]
    s = grid.end.s

    def col(f: Jet) -> Jet:
        # order-1 part of a grid function, shaped to scale 3-vectors
        return Jet(f.coef[:2, ..., None])

    # rows expressing W = (v, u, w', phi, phi') through V = (u, phi, phi');
    # the row of w' is solved for below
    E = np.array([[-1.0 / s, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    a = [col(Jet(A0.coef[:, :, 4, j])) for j in range(5)]

    # The integrated flux relation and the field row form a linear pair
    #   w'   = (b1'-A21) v + (b2'-s) u - D21 phi' - E21 phi''
    #   phi'' = a0 v + a1 u + a2 w' + a3 phi + a4 phi'
    # (a_j the entries of the lam = 0 field row, which picks up a w'
    # term from the v' substitution).  Its determinant 1 + E21 a2
    # equals s b2 / P > 0, so the pair is always solvable.
    E21 = col(tab.E21)
    rhs_w = (col(tab.b1.deriv() - tab.A21) * E[0]
             + (col(tab.b2.deriv()) - s) * E[1] - col(tab.D21) * E[4])
    rhs_f = a[0] * E[0] + a[1] * E[1] + a[3] * E[3] + a[4] * E[4]
    den = 1.0 + E21 * a[2]
    if np.min(den.value) < 1e-8:
        raise RuntimeError("constraint pair degenerates: min determinant "
                           f"{np.min(den.value):.2e}")
    rows = [E[0], E[1], (rhs_w - E21 * rhs_f) / den, E[3], E[4]]

    out = np.zeros((2, grid.n, 3, 3))
    out[:, :, 0] = sum(col(Jet(A0.coef[:, :, 1, j])) * row
                       for j, row in enumerate(rows)).coef
    out[0, :, 1, 2] = 1.0
    out[:, :, 2] = (rhs_f + a[2] * rows[2]).coef
    return Jet(out)


def build_reduced_system(grid: ProfileGrid) -> ReducedSystem:
    At = reduced_tables(grid)
    return ReducedSystem(
        params=grid.params, end=grid.end, x=grid.x, tables=At.value,
        table=hermite_table(grid.x, At.value.reshape(grid.n, 9),
                            At.derivative(1).reshape(grid.n, 9)),
        A0=reduced_limit_matrix(grid.params),
        sigma=limit_eigenvalues(grid.params))


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


def _propagate_plane(read, normal: np.ndarray, x_from: float, x_to: float,
                     rtol: float, atol: float, nseg: int,
                     work: dict) -> np.ndarray:
    """Transport the plane with this normal; orthonormal (3, 2) frame at x_to.

    The normal follows y' = -Atilde(x)^T y, with Atilde from read(x).
    """
    def rhs(x, y):
        return -(y @ read(x))

    y, _ = transport(rhs, normal[None, :], x_from, x_to, nseg, rtol, atol,
                     work, lambda k: f"the plane normal from x = {x_from}")
    return np.linalg.svd(y)[2][1:].T


def _end_normal(M: np.ndarray, side: str, center_tol: float = 1e-10):
    """Unit normal of the plane of M bounded at side "+" or "-" inf.

    At "+" that is the center-stable plane (rates <= center_tol), at "-"
    the center-unstable one (rates >= -center_tol).  The normal is the
    left eigenvector of the one rate outside the plane.
    """
    w, V = np.linalg.eig(M)
    if np.max(np.abs(w.imag)) > 1e-10:
        raise RuntimeError("end matrix of the reduced system has complex "
                           "rates; cannot classify directions")
    outside = np.flatnonzero((1.0 if side == "+" else -1.0) * w.real
                             > center_tol)
    if outside.size != 1:
        raise RuntimeError("unexpected direction counts at the cut ends: "
                           f"{3 - outside.size} bounded at {side}inf")
    left = np.linalg.inv(V.real)[outside[0]]
    return left / np.linalg.norm(left)


@dataclass(frozen=True)
class TransversalityResult:
    dimension: int
    vector: np.ndarray           # unit intersection vector at x = 0,
                                 # largest entry positive
    angle_to_wave: float         # radians, against (ubar',phibar',phibar'')(0)
    singular_values: np.ndarray
    threshold: float
    work: dict                   # transports, rhs_calls, steps


def bounded_solution_dim(system: ReducedSystem, grid: ProfileGrid | None = None,
                         threshold: float = 1e-7, rtol: float = 1e-11,
                         atol: float = 1e-13) -> TransversalityResult:
    """Dimension of the space of solutions bounded on the whole line.

    The plane bounded at +inf is spanned by the center-stable
    directions at +X and transported backward; the plane bounded at
    -inf by the center-unstable directions at -X transported forward;
    both travel as normals (see _propagate_plane).
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
    read = uniform_reader(X, system.table, (3, 3))
    nseg = segment_count(X)
    work = dict.fromkeys(WORK_COUNTS, 0)
    S = _propagate_plane(read, _end_normal(system.tables[-1], "+"), X,
                         0.0, rtol, atol, nseg, work)
    U = _propagate_plane(read, _end_normal(system.tables[0], "-"), -X,
                         0.0, rtol, atol, nseg, work)

    M = np.concatenate([S, U], axis=1)          # 3 x 4
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > threshold * sv[0]))
    dim = 4 - rank

    # intersection vector: combination of the S columns lying in span(U)
    proj = np.eye(3) - U @ U.T
    _, svs, Vt = np.linalg.svd(proj @ S)
    coeff = Vt[-1]
    vec = S @ coeff
    # the SVD fixes the vector only up to sign; make its largest entry
    # positive so that a rounding-level change cannot flip it
    vec = vec / (np.linalg.norm(vec) * np.sign(vec[np.argmax(np.abs(vec))]))

    if grid is not None:
        Vbar = wave_vector(grid)[grid.n // 2]
        angle = float(np.arctan2(np.linalg.norm(np.cross(vec, Vbar)),
                                 abs(vec @ Vbar)))
    else:
        angle = float("nan")
    return TransversalityResult(dimension=dim, vector=vec,
                                angle_to_wave=angle, singular_values=sv,
                                threshold=threshold, work=work)
