"""Boundary-value solver for the standing shock profile.

The wave is computed from a 3-dimensional first-order system in
y = (v, phi, psi) with psi = phi': the integrated momentum balance
gives v' through the scalar function G (zero at both far-field
states), and the field equation closes psi'.  The velocity component
is algebraically slaved, ubar = u_minus - s (vbar - v_minus), which
makes s vbar' + ubar' = 0 exact at the nodes.

Discretization: a mono-implicit Runge-Kutta scheme of order 4 on a
fixed mesh (Simpson rule with cubic-Hermite midpoint values), solved
by damped Newton iteration with an analytic Jacobian.

The boundary rows are Beyn's projection conditions (W.-J. Beyn, "The
numerical computation of connecting orbits in dynamical systems",
IMA J. Numer. Anal. 10 (1990) 379-405).  The heteroclinic orbit leaves
y- along its two unstable directions and enters y+ along its two
stable ones, so each end misses one fast direction: the stable root
gamma2- at y-, the unstable root gamma3+ at y+.  The row at each end
asks that the offset y(+-X) - y+- have no component along that
direction, l . (y(+-X) - y+-) = 0 with l the left eigenvector of the
right-hand side's Jacobian at y+-.  The error this leaves is second
order in the tail gap, where a clamp v(+-X) = v+- errs at first
order.  Each row is the unit left eigenvector of a 3x3 end matrix,
taken as the widest cross product of two columns of J - gamma I
(left_eigenvectors); the transversality planes start from these rows.
The phase condition pins v(0) = (v_minus + v_plus)/2 at the central
node, so the node count must be odd and at least 3.

Each Newton step solves the linearized collocation equations by
structured-QR block cyclic reduction (S. J. Wright, "Stable parallel
algorithms for two-point boundary value problems", SIAM J. Sci. Stat.
Comput. 13 (1992) 742-764).  Cell k gives three rows
L_k y_k + R_k y_{k+1} = r_k; the cells left of the pinned node form one
chain and the cells right of it another, and both are reduced together.
At each level a Householder QR of the stacked 6x3 block [R_k; L_{k+1}]
of every pair of neighbouring cells eliminates their shared node and
leaves one cell that couples the pair's outer nodes.  A 9x9 solve for
y_0, y_mid and y_{n-1} closes the system with the two projection rows
and the phase row, and back-substitution runs level by level through
the triangular factors.  The orthogonal eliminations need no pivoting
across blocks and stay stable on such systems, where Gaussian
elimination with partial pivoting can be unstable (Wright, SIAM J.
Sci. Comput. 14 (1993) 231-238).  No band matrix is stored: the cells'
blocks are assembled BLOCK_CELLS at a time straight into the
reduction's input.

A solved grid is its nodes plus their order-3 Taylor jets
(`ProfileGrid.jets`), which solve_profile derives once.  Every
derivative of the profile is read from jets of the right-hand side
(`ProfileGrid.state_jets`), never from differencing the computed
solution; the residual check builds its piecewise-quintic Hermite
interpolant from them (eigensystem.hermite_table) and reads values and
slopes at fixed offsets in its cells (eigensystem.cell_values).  That
interpolant is the profile between the nodes for every reader: the
transversality transport takes the Jacobian of its values too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .csvout import write_table
from .eigensystem import cell_values, hermite_table
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


def rhs_jacobian(y: np.ndarray, params: PlasmaParams,
                 end: ShockEndstates) -> np.ndarray:
    """Analytic Jacobian of the profile right-hand side at states y of
    shape (..., 3); shape (..., 3, 3)."""
    T, eps2 = params.T, params.eps**2
    s = end.s
    snu = s * params.nu
    v, phi, psi = y[..., 0], y[..., 1], y[..., 2]
    ephi = np.exp(phi)
    G = profile_nonlinearity(v, phi, psi, params, end)
    dG_dv = s * s - (T + 1.0) / v**2 + 1.0 / v**2 + eps2 * psi**2 / v**3
    dG_dpsi = -eps2 * psi / v**2
    f1 = -(v / snu) * G

    J = np.zeros(v.shape + (3, 3))
    J[..., 0, 0] = df1_dv = -(G + v * dG_dv) / snu
    J[..., 0, 1] = df1_dphi = -v * ephi / snu
    J[..., 0, 2] = df1_dpsi = -v * dG_dpsi / snu
    J[..., 1, 2] = 1.0
    J[..., 2, 0] = (psi * (df1_dv * v - f1) / v**2
                    + (2.0 * v * ephi - 1.0) / eps2)
    J[..., 2, 1] = psi * df1_dphi / v + v * v * ephi / eps2
    J[..., 2, 2] = f1 / v + psi * df1_dpsi / v
    return J


# decay lengths of the slow rate in the default half-length
EFOLDS = 18.0
# the default node count: the smallest 2^k + 1 at which every check passes
# on the 29 benchmark configs and Gamma and D'(0) agree with n = 4001
# within 1e-10 relative (1025 nodes miss that by 4e-10 at the reference
# shock)
DEFAULT_NODES = 2049
# the Newton defect to reach and the steps allowed; residual points per cell
NEWTON_TOL, MAX_NEWTON_STEPS = 1e-12, 30
RESIDUAL_REFINE = 4


def slow_decay_rate(params: PlasmaParams, end: ShockEndstates) -> float:
    """min(|gamma1-|, |gamma1+|), the slower of the profile's two tails."""
    return min(abs(fast_roots(params, end, side).gamma1)
               for side in ("minus", "plus"))


def default_half_length(params: PlasmaParams, end: ShockEndstates) -> float:
    """Domain half-length giving EFOLDS decay lengths of the slow rate."""
    rate = slow_decay_rate(params, end)
    if rate < 1e-8:
        raise ValueError("amplitude too small to size the domain; pass X explicitly")
    return EFOLDS / rate


def initial_guess(x: np.ndarray, params: PlasmaParams, end: ShockEndstates) -> np.ndarray:
    delta = params.delta_s
    mid = 0.5 * (params.v_minus + params.v_plus)
    kappa = 0.5 * slow_decay_rate(params, end)
    v = mid + 0.5 * delta * np.tanh(kappa * x)
    dv = 0.5 * delta * kappa / np.cosh(kappa * x) ** 2
    return np.stack([v, -np.log(v), -dv / v], axis=-1)


def left_eigenvectors(M: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Unit left eigenvectors of 3x3 matrices, shape (k, 3), for the
    simple eigenvalue gammas[i] of M[i], shape (k, 3, 3).

    M - gamma I has rank two, and l (M - gamma I) = 0 says l is orthogonal
    to its columns, so l is the cross product of two of them: the pair
    whose product is widest.  A non-finite M gives non-finite rows.
    """
    cols = np.swapaxes(M, 1, 2) - gammas[:, None, None] * np.eye(3)
    # cross[k, j] is the cross product of the two columns other than j
    cross = np.stack([np.cross(cols[:, (j + 1) % 3], cols[:, (j + 2) % 3])
                      for j in range(3)], axis=1)
    widths = np.linalg.norm(cross, axis=2)
    best = np.argmax(widths, axis=1)
    rows = np.arange(M.shape[0])
    return cross[rows, best] / widths[rows, best][:, None]


def far_field_rows(params: PlasmaParams, end: ShockEndstates):
    """Coefficients of the two projection rows and the states they hold.

    Returns (rows, ends), both of shape (2, 3): rows[0] is the unit left
    eigenvector of J(y-) for gamma2-, rows[1] that of J(y+) for gamma3+
    (left_eigenvectors), and ends holds y- and y+.  A non-finite Jacobian
    gives non-finite rows, which the Newton step then reports.
    """
    ends = np.array([[params.v_minus, end.phi_minus, 0.0],
                     [params.v_plus, end.phi_plus, 0.0]])
    gammas = np.array([fast_roots(params, end, "minus").gamma2,
                       fast_roots(params, end, "plus").gamma3])
    return left_eigenvectors(rhs_jacobian(ends, params, end), gammas), ends


# Unused by the package: bound to None so that WRAPS in perfbench/tracer.py
# can still patch it, until the benchmark reads its counts from the
# report (ROADMAP item 5).
splu = None

# Cells per block of the Newton matrix assembly; a block's (cells, 3, 3)
# temporaries are then small next to the reduction's input.
BLOCK_CELLS = 4096
# Columns of a reduction pair: its shared (middle) node, its left node,
# its right node and the right-hand side.  A cell is written with columns
# L, R, rhs; PAIR_COLUMNS[i] are the pair columns of the cells in rows
# 3i .. 3i + 2 of a pair, the left cell (i = 0) and the right one.
PAIR_COLUMNS = ([3, 4, 5, 0, 1, 2, 9], [0, 1, 2, 6, 7, 8, 9])


def _residual(y, h, mid_idx, params, end, far):
    """Newton residual F and the cells' midpoint states ym, which
    _cell_blocks reads; far is far_field_rows(...).

    F's rows are the left projection row, the cells left of the pinned
    node, the phase condition, the remaining cells and the right
    projection row; cell k gives rows 3k + 1 .. 3k + 3, one more from the
    pinned node on.
    """
    f = rhs_array(y, params, end)
    ym = 0.5 * (y[:-1] + y[1:]) - (h / 8.0) * (f[1:] - f[:-1])
    fm = rhs_array(ym, params, end)
    res = y[1:] - y[:-1] - (h / 6.0) * (f[:-1] + 4.0 * fm + f[1:])
    rows, ends = far
    phase = y[mid_idx, 0] - 0.5 * (params.v_minus + params.v_plus)
    F = np.concatenate([[rows[0] @ (y[0] - ends[0])], res[:mid_idx].ravel(),
                        [phase], res[mid_idx:].ravel(),
                        [rows[1] @ (y[-1] - ends[1])]])
    return F, ym


def _cell_blocks(y, h, params, end, ym):
    """Newton blocks of the cells between consecutive nodes of y: the
    residual of cell k moves by L[k] dy_k + R[k] dy_{k+1}.  Shapes
    (len(y) - 1, 3, 3); ym are the cells' midpoint states (_residual)."""
    eye = np.eye(3)
    J = rhs_jacobian(y, params, end)
    Jm = rhs_jacobian(ym, params, end)
    dym_dl = 0.5 * eye + (h / 8.0) * J[:-1]
    dym_dr = 0.5 * eye - (h / 8.0) * J[1:]
    L = -eye - (h / 6.0) * (J[:-1] + 4.0 * (Jm @ dym_dl))
    R = eye - (h / 6.0) * (J[1:] + 4.0 * (Jm @ dym_dr))
    return L, R


def _pair_cells(W, carry, first, cells):
    """Write cells first, first + 1, ... of a chain into a reduction level.

    cells has shape (3, 7, ..., k), columns L, R, rhs.  W, shape
    (6, 10, ..., P), takes cell 2p in rows 0:3 and cell 2p + 1 in rows
    3:6 of pair p (PAIR_COLUMNS); a chain of 2P + 1 cells puts its last
    cell in carry, shape (3, 7, ..., 1), and otherwise carry is empty.
    """
    P = W.shape[-1]
    for i, columns in enumerate(PAIR_COLUMNS):
        skip = (i - first) % 2          # cells before the first of parity i
        p0 = (first + skip) // 2
        part = cells[..., skip::2]
        count = max(0, min(part.shape[-1], P - p0))
        W[3 * i:3 * i + 3, columns, ..., p0:p0 + count] = part[..., :count]
    if carry.shape[-1] and first + cells.shape[-1] == 2 * P + 1:
        carry[...] = cells[..., -1:]


def _newton_system(y, h, mid_idx, params, end, ym, F):
    """First reduction level of the Newton system J dy = -F: the pairs
    and the carried cells of both chains (_pair_cells), chain 0 the cells
    left of the pinned node.  Assembled BLOCK_CELLS cells at a time."""
    m = mid_idx
    W = np.zeros((6, 10, 2, m // 2))
    carry = np.empty((3, 7, 2, m % 2))
    for chain in range(2):
        node0, row0 = chain * m, 1 + chain * (3 * m + 1)
        for a in range(0, m, BLOCK_CELLS):
            b = min(a + BLOCK_CELLS, m)
            L, R = _cell_blocks(y[node0 + a:node0 + b + 1], h, params, end,
                                ym[node0 + a:node0 + b])
            rhs = -F[row0 + 3 * a:row0 + 3 * b].reshape(b - a, 3, 1)
            cells = np.concatenate([L, R, rhs], axis=2).transpose(1, 2, 0)
            _pair_cells(W[:, :, chain], carry[:, :, chain], a, cells)
    return W, carry


def _eliminate_middle(W):
    """Householder QR of the middle blocks W[:, 0:3] of every pair, with
    Q^T applied to all ten columns in place.

    Rows 0:3 then hold the upper triangular factor T in columns 0:3 (the
    entries below its diagonal are left as they were) and the rest of the
    rows that give the middle node; rows 3:6, columns 3:10, hold the
    reduced cell L' y_left + R' y_right = r'.  Raises LinAlgError when a
    diagonal entry of T is zero.
    """
    for j in range(3):
        x = W[j:, j]
        # G[0] = |x|^2, G[1:] = x^T (columns right of j)
        G = np.einsum("r...,rc...->c...", x, W[j:, j:])
        s = np.copysign(np.sqrt(G[0]), x[0])
        if not s.all():
            raise LinAlgError("singular block in the Newton matrix")
        # reflector I - v v^T / (s v0), v = x + s e0, maps x to -s e0;
        # w = v^T (columns right of j) / (s v0)
        v0 = x[0] + s
        w = G[1:]
        w += s * W[j, j + 1:]
        w /= s * v0
        W[j, j + 1:] -= v0 * w
        W[j + 1:, j + 1:] -= x[1:, None] * w
        W[j, j] = -s


def _newton_step(y, h, mid_idx, params, end, ym, far, F):
    """Newton step dy, shape (n, 3), of J dy = -F by structured-QR block
    cyclic reduction (module docstring).

    Raises ValueError when the Newton matrix or F is not finite and
    LinAlgError when a triangular factor has a zero diagonal entry or the
    closing 9x9 matrix is singular.
    """
    m = mid_idx
    W, carry = _newton_system(y, h, mid_idx, params, end, ym, F)
    rows = far[0]
    ends_rhs = -F[[0, 3 * m + 1, -1]]
    if not all(np.isfinite(a).all() for a in (W, carry, rows, ends_rhs)):
        raise ValueError("the Newton matrix or residual is not finite")
    levels = []
    while W.shape[-1]:
        _eliminate_middle(W)
        levels.append(W[:3].copy())
        cells = W[3:, 3:]
        if carry.shape[-1]:
            cells = np.concatenate([cells, carry], axis=-1)
        c = cells.shape[-1]
        W, carry = np.zeros((6, 10, 2, c // 2)), np.empty((3, 7, 2, c % 2))
        _pair_cells(W, carry, 0, cells)
        del cells                    # frees the level's pairs
    # one cell per chain is left: close with the end and phase rows
    M = np.zeros((9, 9))
    M[0, 0:3] = rows[0]
    M[1:4, 0:6] = carry[:, :6, 0, 0]
    M[4, 3] = 1.0
    M[5:8, 3:9] = carry[:, :6, 1, 0]
    M[8, 6:9] = rows[1]
    rhs = np.concatenate([ends_rhs[:1], carry[:, 6, 0, 0], ends_rhs[1:2],
                          carry[:, 6, 1, 0], ends_rhs[2:]])
    z = np.linalg.solve(M, rhs).reshape(3, 3).T
    # Y[:, chain] holds the nodes of the chain's cells at the current level
    Y = np.stack([z[:, :2], z[:, 1:]], axis=1)
    for tops in reversed(levels):
        # pair p of the level couples nodes p and p + 1 of the level above
        P = tops.shape[-1]
        b = (tops[:, 9]
             - np.einsum("ic...,c...->i...", tops[:, 3:6], Y[..., :P])
             - np.einsum("ic...,c...->i...", tops[:, 6:9], Y[..., 1:P + 1]))
        b[2] /= tops[2, 2]
        b[1] -= tops[1, 2] * b[2]
        b[1] /= tops[1, 1]
        b[0] -= tops[0, 1] * b[1] + tops[0, 2] * b[2]
        b[0] /= tops[0, 0]
        fine = np.empty((3, 2, Y.shape[-1] + P))
        fine[..., :2 * P + 1:2] = Y[..., :P + 1]
        fine[..., 1:2 * P:2] = b
        fine[..., 2 * P + 1:] = Y[..., P + 1:]   # a carried cell's right node
        Y = fine
    return np.concatenate([Y[:, 0], Y[:, 1, 1:]], axis=-1).T


@dataclass(frozen=True)
class ProfileGrid:
    """Converged profile at the nodes, with their order-3 jets.

    jets is state_jets(3), shared by every reader of the grid; jets of any
    order agree with it in every coefficient they share.
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
    jets: tuple[Jet, Jet, Jet]
    newton_iterations: int = 0
    newton_defect: float = 0.0

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def state_jets(self, order: int, nodes=slice(None)):
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


def solve_profile(params: PlasmaParams, end: ShockEndstates,
                  X: Optional[float] = None,
                  n: Optional[int] = None) -> ProfileGrid:
    """Solve the truncated profile boundary-value problem; derive its jets.

    The ends carry Beyn's projection rows (see the module docstring),
    built once per solve by far_field_rows.  X defaults to EFOLDS decay
    lengths of the slow rate and n to DEFAULT_NODES nodes.
    Raises RuntimeError with the final defect when Newton stalls,
    RuntimeError naming the step, n, X and the defect when a Newton
    matrix is singular or not finite, and RuntimeError when the
    converged solution is not monotone (a grid too coarse for the shock,
    bad truncation or amplitude outside the perturbative regime).
    """
    if X is None:
        X = default_half_length(params, end)
    if n is None:
        n = DEFAULT_NODES
    if n % 2 == 0 or n < 3:
        raise ValueError("node count n must be odd and at least 3, so that "
                         "x=0 is a node between the ends")
    x = np.linspace(-X, X, n)
    h = x[1] - x[0]
    mid_idx = (n - 1) // 2
    far = far_field_rows(params, end)

    def defect(y):
        # max-norm residual, with the residual and midpoint states
        F, ym = _residual(y, h, mid_idx, params, end, far)
        return np.max(np.abs(F)), F, ym

    y = initial_guess(x, params, end)
    norm, F, ym = defect(y)
    iterations = 0
    # "not norm <= NEWTON_TOL": a nan defect is not converged
    while not norm <= NEWTON_TOL and iterations < MAX_NEWTON_STEPS:
        iterations += 1
        try:
            step = _newton_step(y, h, mid_idx, params, end, ym, far, F)
        except (LinAlgError, ValueError) as exc:
            raise RuntimeError(
                f"profile Newton: step {iterations} failed on n={n}, "
                f"X={X:.6g} with defect {norm:.3e}: {exc}") from exc
        del F, ym       # not needed in the line search
        t = 1.0
        while t > 1e-6:
            trial = y + t * step
            trial_norm, trial_F, trial_ym = defect(trial)
            if (trial_norm < norm * (1.0 - 0.25 * t)
                    or trial_norm < NEWTON_TOL):
                y, norm, F, ym = trial, trial_norm, trial_F, trial_ym
                break
            t *= 0.5
        else:
            y = y + t * step
            norm, F, ym = defect(y)
        # only y, F and ym go on to the next step
        del step, trial, trial_F, trial_ym
    if not norm <= NEWTON_TOL:
        raise RuntimeError(f"profile solver did not converge; final defect {norm:.3e}")

    v, phi, psi = y[:, 0], y[:, 1], y[:, 2]
    # gross-failure guard only; machine-level flat spots in the far tail
    # are fine and the report carries the sharp monotonicity margin
    if params.delta_s > 0 and np.any(np.diff(v) < -1e-10 * params.delta_s):
        raise RuntimeError(
            f"converged profile is not monotone on n = {n} nodes with step "
            f"h = {h:.4g}; raise numerics.n, increase X or reduce the "
            "amplitude")
    u = params.u_minus - end.s * (v - params.v_minus)
    grid = ProfileGrid(params=params, end=end, X=float(X), x=x, v=v, u=u,
                       phi=phi, psi=psi, jets=None,
                       newton_iterations=iterations, newton_defect=float(norm))
    return replace(grid, jets=grid.state_jets(3))


def profile_cells(grid: ProfileGrid) -> np.ndarray:
    """Piecewise quintic (C^2) through the nodes, from order-3 jets.

    Returns its hermite_table cells, shape (6, n - 1, 4).  Components are
    (v, u, phi, psi); psi gets its own component so that residual checks
    of the first-order system never differentiate an interpolant twice.
    """
    vj, pj, _ = grid.jets
    s = grid.end.s
    dv1, dv2 = vj.derivative(1), vj.derivative(2)
    values = np.stack([grid.v, grid.u, grid.phi, grid.psi], axis=-1)
    d1 = np.stack([dv1, -s * dv1, pj.derivative(1), pj.derivative(2)], axis=-1)
    d2 = np.stack([dv2, -s * dv2, pj.derivative(2), pj.derivative(3)], axis=-1)
    return hermite_table(grid.x, values, d1, d2)


def profile_residual(grid: ProfileGrid) -> np.ndarray:
    """Max |y' - F(y)| of the interpolant per equation at RESIDUAL_REFINE
    + 1 equally spaced points of every cell, both ends included."""
    cells, h = profile_cells(grid), 2.0 * grid.X / (grid.n - 1)
    offsets = np.arange(RESIDUAL_REFINE + 1) * (h / RESIDUAL_REFINE)
    vals, derivs = (cell_values(cells, offsets, nu) for nu in (0, 1))
    v, phi, psi = vals[..., 0], vals[..., 2], vals[..., 3]
    dv, du, dpsi = derivs[..., 0], derivs[..., 1], derivs[..., 3]
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
    # no fit on fewer than two nodes, or once the tail touches v+
    if tail.size >= 2 and np.all(tail > 0):
        slope = float(np.polyfit(grid.x[sel], np.log(tail), 1)[0])

    end = grid.end
    mism = max(abs(grid.phi[0] - end.phi_minus), abs(grid.phi[-1] - end.phi_plus),
               abs(grid.psi[0]), abs(grid.psi[-1]),
               abs(grid.u[0] - grid.params.u_minus), abs(grid.u[-1] - end.u_plus))
    return ProfileResidualReport(max_residual=res, monotonicity_margin=margin,
                                 ratio_low=ratio_low, ratio_high=ratio_high,
                                 decay_exponent=slope, boundary_mismatch=mism)


def write_profile_csv(grid: ProfileGrid, path) -> None:
    vj, pj, _ = grid.jets
    dv = vj.derivative(1)
    data = np.column_stack([grid.x, grid.v, grid.u, grid.phi,
                            dv, -grid.end.s * dv, pj.derivative(1),
                            pj.derivative(2)])
    with open(path, "wb") as fh:
        fh.write(b"x,v,u,phi,dv,du,dphi,d2phi\n")
        write_table(fh, data, 18)
