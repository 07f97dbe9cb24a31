"""First-order formulation of the linearized eigenvalue problem.

The eigenvalue equation for perturbations (v, u, phi) of the wave is
written as a 5-dimensional first-order system W' = A(x, lam) W in

    W = (v, u, w', phi, phi')     with  w = b1(x) v + b2(x) u,

where b1 = eps^2 phibar'/vbar^3 and b2 = nu/vbar package the viscous
flux.  Away from the wave the coefficients freeze into constant
matrices that are affine in lam; in the interior the elimination of
(v', u', phi'', phi''') produces one genuinely quadratic entry, so the
assembled matrix is A0(x) + lam A1(x) + lam^2 A2(x) with A2 supported
on the single entry (2, 0) (third row, first column).

The closure is exercised by the derivative of the wave itself:
W0 = (vbar', ubar', (b1 vbar' + b2 ubar')', phibar', phibar'') solves
W0' = A(x, 0) W0, and `wave_residual` measures how well the assembled
matrix reproduces that identity using exact Taylor-jet derivatives of
the profile (no finite differencing).

The assembly runs in jet arithmetic too, so A0, A1 and A2 come with
their exact x-derivatives.  From values, slopes and second derivatives
`hermite_table` builds local quintic (C^2) cells; the O(1)
`uniform_reader` reads them at one point, `cell_values` every cell at
the same offsets (the profile residual, the Evans table_error and the
transversality Magnus steps).  There are two such interpolants: the
Evans table on every k-th node of its grid (evans.build_evans_system)
and the profile on every node (profile.profile_cells).  The
transversality task reads the profile cells and takes the profile
Jacobian of their values (transversality.reduced_matrix), not this
closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import Jet
from .params import PlasmaParams, ShockEndstates


def limit_matrix_coeffs(params: PlasmaParams, end: ShockEndstates, side: str):
    """Constant and linear lambda-coefficients of the far-field matrix.

    The far-field system is affine in lam: A(lam) = A0 + lam*A1 (the
    quadratic interior entry carries a factor b1, which vanishes in the
    limits).
    """
    v = params.side_v(side)
    s = end.s
    T, nu, eps2 = params.T, params.nu, params.eps**2
    A0 = np.zeros((5, 5))
    A1 = np.zeros((5, 5))
    A0[0, 2] = -v / (s * nu)
    A1[0, 0] = 1.0 / s
    A0[1, 2] = v / nu
    A0[2, 2] = T / (s * nu * v) - s * v / nu
    A0[2, 4] = 1.0 / v
    A1[2, 0] = -T / (s * v * v)
    A1[2, 1] = 1.0
    A0[3, 4] = 1.0
    A0[4, 0] = 1.0 / eps2
    A0[4, 3] = v / eps2
    return A0, A1


@dataclass(frozen=True)
class CoefficientTables:
    """Interior coefficient functions of the closure, as jets on the grid:
    their x-derivatives satisfy the profile ODE exactly at the nodes."""

    x: np.ndarray
    s: float
    b1: Jet
    b2: Jet
    A21: Jet
    D21: Jet
    E21: Jet
    c1: Jet
    c3: Jet
    r1: Jet
    r2: Jet

    @property
    def P(self) -> Jet:
        """Pivot s b2 - b1 of the (v', u') solve."""
        return self.s * self.b2 - self.b1


def interior_coefficients(x, v_jet: Jet, phi_jet: Jet, psi_jet: Jet,
                          params: PlasmaParams, end: ShockEndstates,
                          order: int = 3) -> CoefficientTables:
    """Build the coefficient jets from profile jets (order >= `order`).

    v_jet, phi_jet, psi_jet are jets of (vbar, phibar, phibar') with the
    grid as base axis.  Only their part up to `order` is used: order 3
    gives the matrix coefficients with their first x-derivative, order 4
    with their second too (see interior_matrix_coeffs).
    """
    T, nu, eps2, s = params.T, params.nu, params.eps**2, end.s
    v, phi, psi = (Jet(j.coef[:order + 1]) for j in (v_jet, phi_jet, psi_jet))
    iv = v**-1
    ephi = phi.exp()
    dv = v.deriv()          # jet of vbar'
    dpsi = psi.deriv()      # jet of phibar''

    return CoefficientTables(
        x=np.asarray(x), s=s,
        b1=eps2 * psi * iv**3,
        b2=nu * iv,
        A21=(T * iv**2 + ephi * iv + s * nu * dv * iv**2
             + eps2 * dpsi * iv**3 - 2.0 * eps2 * psi * dv * iv**4
             - eps2 * psi**2 * iv**3),
        D21=eps2 * (dv * iv**3 + psi * iv**2),
        E21=-eps2 * iv**2,
        c1=(1.0 / eps2) * v * ephi + dpsi * iv - 2.0 * dv * psi * iv**2,
        c3=(1.0 / eps2) * v**2 * ephi,
        r1=psi * iv,
        r2=dv * iv,
    )


def interior_matrix_coeffs(tab: CoefficientTables):
    """Assemble A0(x), A1(x), A2(x) with A(x, lam) = A0 + lam A1 + lam^2 A2.

    Row by row (0-based state ordering v, u, w', phi, phi'):
      row 0, 1: the 2x2 solve [[s, 1], [b1, b2]] (v', u') = (lam v,
                w' - b1' v - b2' u), invertible since P = s b2 - b1 > 0;
      row 3:    phi -> phi';
      row 4:    the linearized field equation solved for phi'';
      row 2:    w'' after eliminating phi'', phi''' and (v'', u''),
                which injects the single lam^2 entry (b1 b2)/(s P).

    Each row is a jet of lambda-polynomial row vectors, shaped (n, 3, 5),
    so the three matrices come back as jets of shape (n, 5, 5): the
    values and their exact x-derivatives, two orders below the profile
    jets the tables were built from (order 1 from interior_coefficients'
    default order 3, order 2 from order 4).
    """
    s = tab.s
    order = tab.b1.order - 2

    def g(f: Jet, k: int = 0) -> Jet:
        # the k-th derivative up to `order`, shaped to scale the rows
        for _ in range(k):
            f = f.deriv()
        return Jet(f.coef[:order + 1, :, None, None])

    # unit[k, i]: lam**k times the i-th unit row vector, shaped (3, 5)
    unit = np.eye(15).reshape(3, 5, 3, 5)
    e0, e1, e2, e3, e4 = unit[0]
    P, b1, b2 = g(tab.P), g(tab.b1), g(tab.b2)
    db1, db2 = g(tab.b1, 1), g(tab.b2, 1)
    d2b1, d2b2 = g(tab.b1, 2), g(tab.b2, 2)
    c1, c3, r1, r2 = g(tab.c1), g(tab.c3), g(tab.r1), g(tab.r2)

    flux = db1 * e0 + db2 * e1 - e2
    row1 = (flux + b2 * unit[1, 0]) / P
    row2 = (-s * flux - b1 * unit[1, 0]) / P

    row5 = c1 * e0 + c3 * e3 + r2 * e4 + r1 * row1

    ell = d2b1 * e0 + d2b2 * e1 + 2.0 * db1 * row1 + 2.0 * db2 * row2

    bracket = g(tab.c1, 1) * e0 + g(tab.c3, 1) * e3 \
        + (c3 + g(tab.r2, 1)) * e4 + (c1 + g(tab.r1, 1)) * row1 + r2 * row5

    S = ((d2b1 - g(tab.A21, 1)) * e0 + d2b2 * e1 + unit[1, 1]
         + (db1 - g(tab.A21)) * row1 + (db2 - s) * row2
         - g(tab.D21, 1) * e4 - (g(tab.D21) + g(tab.E21, 1)) * row5
         - g(tab.E21) * bracket)

    # lam row1: row1 has no lam^2 part, so a roll shifts it
    lam_row1 = Jet(np.roll(row1.coef, 1, axis=2))
    row3 = P / (s * b2) * S + b1 / (s * b2) * (b2 * lam_row1 + ell)

    # (order, node, lam power, row, column): A0, A1 and A2 are views
    A = np.zeros((order + 1, tab.x.shape[0], 3, 5, 5))
    for i, row in ((0, row1), (1, row2), (2, row3), (4, row5)):
        A[:, :, :, i, :] = row.coef
    A[0, :, 0, 3, 4] = 1.0
    return tuple(Jet(A[:, :, k]) for k in range(3))


def background_wave(v_jet: Jet, phi_jet: Jet, psi_jet: Jet,
                    params: PlasmaParams, end: ShockEndstates):
    """The derivative of the wave as an eigenfunction candidate at lam=0.

    Returns (W0, dW0), each of shape (n, 5): the state vector
    (vbar', ubar', (b1 vbar' + b2 ubar')', phibar', phibar'') and its
    exact x-derivative, both from jets.
    """
    nu, eps2, s = params.nu, params.eps**2, end.s
    v, psi = v_jet, psi_jet
    dv = v.deriv()
    du = -s * dv
    b1 = eps2 * psi * v**-3
    b2 = nu * v**-1
    w = b1 * dv + b2 * du
    n = v.value.shape[0]
    W0 = np.empty((n, 5))
    dW0 = np.empty((n, 5))
    W0[:, 0] = dv.value
    W0[:, 1] = du.value
    W0[:, 2] = w.derivative(1)
    W0[:, 3] = psi.value
    W0[:, 4] = psi.derivative(1)
    dW0[:, 0] = dv.derivative(1)
    dW0[:, 1] = du.derivative(1)
    dW0[:, 2] = w.derivative(2)
    dW0[:, 3] = psi.derivative(1)
    dW0[:, 4] = psi.derivative(2)
    return W0, dW0


def wave_residual(A0, W0, dW0) -> float:
    """Relative max-norm defect of W0 in W' = A(x,0) W, the same bits for
    any memory layout of the inputs."""
    # einsum's summation order follows its operands' strides, so it reads
    # C-ordered copies
    defect = dW0 - np.einsum("nij,nj->ni", np.ascontiguousarray(A0),
                             np.ascontiguousarray(W0))
    return float(np.max(np.abs(defect)) / np.max(np.abs(dW0)))


def hermite_table(x: np.ndarray, values: np.ndarray, slopes: np.ndarray,
                  curvatures: np.ndarray) -> np.ndarray:
    """Local quintic (C^2) Hermite cells through (n, k) values, slopes and
    second derivatives at x.

    Returns (6, n - 1, k) coefficients in the layout of PPoly.c
    (descending powers of x - x[i] in cell i); no system is solved.
    Raises ValueError unless x is uniform on [-X, X], as uniform_reader
    assumes.
    """
    h = (x[-1] - x[0]) / (x.size - 1)
    if x[0] != -x[-1] or not np.allclose(np.diff(x), h, rtol=1e-9, atol=0):
        raise ValueError("coefficient table needs a uniform grid on [-X, X]")
    y0, m0, m1 = values[:-1], slopes[:-1], slopes[1:]
    s0, s1 = curvatures[:-1], curvatures[1:]
    # the defects of the order-2 Taylor polynomial of the left node at the
    # right node, in value, h * slope and h^2 * curvature
    R0 = values[1:] - y0 - m0 * h - 0.5 * s0 * h**2
    R1 = (m1 - m0 - s0 * h) * h
    R2 = (s1 - s0) * h**2
    return np.stack([(6.0 * R0 - 3.0 * R1 + 0.5 * R2) / h**5,
                     (-15.0 * R0 + 7.0 * R1 - R2) / h**4,
                     (10.0 * R0 - 4.0 * R1 + 0.5 * R2) / h**3,
                     0.5 * s0, m0, y0])


def uniform_reader(X: float, table: np.ndarray, shape: tuple):
    """O(1) reader x -> hermite_table cells on [-X, X] evaluated at x.

    The cell of x is int((x + X) / h), clipped to the grid, and its
    polynomial is evaluated in place, with no copy of the table; the end
    cells extrapolate.  The result has the given shape.
    """
    last = table.shape[1] - 1
    h = 2.0 * X / (last + 1)
    powers = np.arange(table.shape[0] - 1, -1, -1)

    def read(xi: float) -> np.ndarray:
        i = min(max(int((xi + X) / h), 0), last)
        t = xi - (i * h - X)
        return ((t ** powers) @ table[:, i]).reshape(shape)

    return read


def cell_values(table: np.ndarray, offsets, nu: int = 0) -> np.ndarray:
    """nu-th derivative of every hermite_table cell at each offset.

    The offsets are distances from a cell's left node, the same in every
    cell, so each is read from all cells at once, by one (offsets,
    degree + 1) Vandermonde product with the table.  The result has shape
    (cells, offsets, k).
    """
    degree = table.shape[0] - 1
    powers = np.arange(degree, nu - 1, -1)
    t = np.asarray(offsets, dtype=float)
    # rows: the offsets; columns: the nu-th derivatives of the table's
    # descending powers
    V = np.array([math.perm(q, nu) for q in powers]) \
        * t[:, None] ** (powers - nu)
    return np.einsum("jq,qik->ijk", V, table[:degree + 1 - nu])
