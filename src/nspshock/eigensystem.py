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
"""

from __future__ import annotations

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


def limit_matrix(params: PlasmaParams, end: ShockEndstates, side: str, lam):
    A0, A1 = limit_matrix_coeffs(params, end, side)
    return A0 + lam * A1


@dataclass(frozen=True)
class CoefficientTables:
    """Interior coefficient functions of the closure, tabulated on the grid.

    Naming: a leading d means one x-derivative, d2 means two.  All
    derivatives come from Taylor jets of the profile, so they satisfy
    the profile ODE exactly at the nodes.
    """

    x: np.ndarray
    s: float
    b1: np.ndarray
    db1: np.ndarray
    d2b1: np.ndarray
    b2: np.ndarray
    db2: np.ndarray
    d2b2: np.ndarray
    A21: np.ndarray
    dA21: np.ndarray
    D21: np.ndarray
    dD21: np.ndarray
    E21: np.ndarray
    dE21: np.ndarray
    c1: np.ndarray
    dc1: np.ndarray
    c3: np.ndarray
    dc3: np.ndarray
    r1: np.ndarray
    dr1: np.ndarray
    r2: np.ndarray
    dr2: np.ndarray
    P: np.ndarray


def interior_coefficients(x, v_jet: Jet, phi_jet: Jet, psi_jet: Jet,
                          params: PlasmaParams, end: ShockEndstates) -> CoefficientTables:
    """Build the coefficient tables from profile jets (order >= 4).

    v_jet, phi_jet, psi_jet are jets of (vbar, phibar, phibar') with the
    grid as base axis.
    """
    T, nu, eps2, s = params.T, params.nu, params.eps**2, end.s
    v, phi, psi = v_jet, phi_jet, psi_jet
    iv = v**-1
    ephi = phi.exp()
    dv = v.deriv()          # jet of vbar'
    dpsi = psi.deriv()      # jet of phibar''

    b1 = eps2 * psi * iv**3
    b2 = nu * iv
    A21 = (T * iv**2 + ephi * iv + s * nu * dv * iv**2
           + eps2 * dpsi * iv**3 - 2.0 * eps2 * psi * dv * iv**4
           - eps2 * psi**2 * iv**3)
    D21 = eps2 * (dv * iv**3 + psi * iv**2)
    E21 = -eps2 * iv**2
    c1 = (1.0 / eps2) * v * ephi + dpsi * iv - 2.0 * dv * psi * iv**2
    c3 = (1.0 / eps2) * v**2 * ephi
    r1 = psi * iv
    r2 = dv * iv

    return CoefficientTables(
        x=np.asarray(x), s=s,
        b1=b1.value, db1=b1.derivative(1), d2b1=b1.derivative(2),
        b2=b2.value, db2=b2.derivative(1), d2b2=b2.derivative(2),
        A21=A21.value, dA21=A21.derivative(1),
        D21=D21.value, dD21=D21.derivative(1),
        E21=E21.value, dE21=E21.derivative(1),
        c1=c1.value, dc1=c1.derivative(1),
        c3=c3.value, dc3=c3.derivative(1),
        r1=r1.value, dr1=r1.derivative(1),
        r2=r2.value, dr2=r2.derivative(1),
        P=s * b2.value - b1.value,
    )


def _unit_row(idx: int, n: int) -> np.ndarray:
    row = np.zeros((3, n, 5))
    row[0, :, idx] = 1.0
    return row


def _scale(coef: np.ndarray, row: np.ndarray) -> np.ndarray:
    # scalar grid function times a lambda-polynomial row vector
    return coef[None, :, None] * row


def _lam_shift(row: np.ndarray) -> np.ndarray:
    out = np.zeros_like(row)
    out[1:] = row[:2]
    return out


def interior_matrix_coeffs(tab: CoefficientTables):
    """Assemble A0(x), A1(x), A2(x) with A(x, lam) = A0 + lam A1 + lam^2 A2.

    Row by row (0-based state ordering v, u, w', phi, phi'):
      row 0, 1: the 2x2 solve [[s, 1], [b1, b2]] (v', u') = (lam v,
                w' - b1' v - b2' u), invertible since P = s b2 - b1 > 0;
      row 3:    phi -> phi';
      row 4:    the linearized field equation solved for phi'';
      row 2:    w'' after eliminating phi'', phi''' and (v'', u''),
                which injects the single lam^2 entry (b1 b2)/(s P).
    """
    n = tab.x.shape[0]
    s = tab.s
    e0, e1, e3, e4 = (_unit_row(i, n) for i in (0, 1, 3, 4))

    row1 = np.zeros((3, n, 5))
    row1[0, :, 0] = tab.db1 / tab.P
    row1[0, :, 1] = tab.db2 / tab.P
    row1[0, :, 2] = -1.0 / tab.P
    row1[1, :, 0] = tab.b2 / tab.P

    row2 = np.zeros((3, n, 5))
    row2[0, :, 0] = -s * tab.db1 / tab.P
    row2[0, :, 1] = -s * tab.db2 / tab.P
    row2[0, :, 2] = s / tab.P
    row2[1, :, 0] = -tab.b1 / tab.P

    row5 = _scale(tab.c1, e0) + _scale(tab.c3, e3) + _scale(tab.r2, e4) \
        + _scale(tab.r1, row1)

    ell = _scale(tab.d2b1, e0) + _scale(tab.d2b2, e1) \
        + _scale(2.0 * tab.db1, row1) + _scale(2.0 * tab.db2, row2)

    bracket = _scale(tab.dc1, e0) + _scale(tab.dc3, e3) \
        + _scale(tab.c3 + tab.dr2, e4) + _scale(tab.c1 + tab.dr1, row1) \
        + _scale(tab.r2, row5)

    S = (_scale(tab.d2b1 - tab.dA21, e0) + _scale(tab.d2b2, e1)
         + _lam_shift(e1)
         + _scale(tab.db1 - tab.A21, row1) + _scale(tab.db2 - s, row2)
         - _scale(tab.dD21, e4) - _scale(tab.D21 + tab.dE21, row5)
         - _scale(tab.E21, bracket))

    row3 = _scale(tab.P / (s * tab.b2), S) \
        + _scale(tab.b1 / (s * tab.b2),
                 _scale(tab.b2, _lam_shift(row1)) + ell)

    rows = [row1, row2, row3, _unit_row(4, n), row5]

    A = np.zeros((3, n, 5, 5))
    for i, row in enumerate(rows):
        A[:, :, i, :] = row
    return A[0], A[1], A[2]


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
    """Relative max-norm defect of W0 in W' = A(x,0) W."""
    defect = dW0 - np.einsum("nij,nj->ni", A0, W0)
    return float(np.max(np.abs(defect)) / np.max(np.abs(dW0)))
