"""Evans-function certification by compound-matrix integration.

Point spectrum inside the validated disk is examined through winding
numbers of the Evans determinant D.  The two decaying solutions at
+inf are carried backward as a 2-wedge w2, the three at -inf forward as
the Hodge dual z = hodge(w3) of their 3-wedge, which follows the lift2
of wedge.dual_matrix(A), so every row lives in Lambda^2.  Both are
shifted by the sum of their limiting rates so the bundle of interest is
neutral and every contaminating bundle contracts.  D = w2 . z at the
matching point x = 0 is the 5x5 determinant of any column
representatives.  Each transported row is divided there by its norm, a
positive real factor kept as a log scale and multiplied back, so the
computed value stays the analytic determinant.

One transport carries a whole batch of lam.  It runs over the
pseudo-time t in [0, X]: the 2-wedges from +X sit at x = X - t (their
right-hand side changes sign), the duals from -X at x = t - X, and on
a batch that holds lam = 0 Gamma's fast pair at -inf rides along as one
more 2-wedge row at x = t - X.  All rows are one (rows, 10) state,
and `integrate_wedge` carries it in one DOP853 solve over the whole of
[0, X].  The shifts keep every row O(1) on the way (|log scale| at
x = 0 is at most 2.01 from delta = 0.02 to 0.182), so nothing is
renormalized in between.  Each right-hand-side call reads the
coefficient cell of both sides.  The DOP853 step is this module's
`solve_ivp`, a port of scipy.integrate's that takes the same steps and
right-hand-side calls and keeps only the end state, so the package never
imports scipy.integrate.
The step control then bounds the RMS error over the batch instead of
each wedge's own; the agreement test in tests/test_evans.py holds
batched D to one-lam-at-a-time D within 1e-10 relative on the
production grid.

The linearized operator is real, so D(conj lam) = conj D(lam), and the
contours are built symmetric about the real axis, each point below it
the exact conj of one above.  The evaluator transports only the points
with Im lam >= 0 and fills in each mirror with D and the bases
conjugated and the log scales unchanged.  A run evaluates its
first-round samples (origin, both contours, the Cauchy and difference
points) in one batch and each winding-refinement round in one more.

Evans reads the profile grid of the profile, transversality and
Poisson tasks (18 decay lengths, 4001 nodes by default).  The
coefficient table keeps every k-th node of it, k the largest divisor of
(n - 1)/2 with cells no wider than TABLE_STEP, so the kept nodes include
both ends and x = 0; k = 1 when no divisor fits, as at small amplitudes,
where the grid step exceeds TABLE_STEP / 2.  Each cell is the quintic
(C^2) Hermite interpolant of the values, slopes and second derivatives
of A0, A1, A2 in A(x, lam) = A0 + lam A1 + lam^2 A2 at its two end
nodes.  A build makes one jet pass at the kept nodes alone, to order
PROBE_ORDER: the closure and the wave derivative read its order-4 part.
The smoothness matters: C^1 cubic cells of the same width put kinks at
the cell ends that spoil DOP853's error control at rtol 1e-12, and
batched D then misses one-lam-at-a-time D by up to 2e-9.  The table's
error is measured on every build (table_error): the gap between the
table and the exact closure at the midpoint of every cell, where the
profile is carried from the cell's left node by that node's jet from
the same pass.

Each right-hand-side call finds the cell of each side in the uniform
coefficient table in O(1) and evaluates the cell's quintic for A0, A1
and A2.  It lifts those matrices, or their dual matrices for the minus
block, in one lift2 call per side, applies the lifts to the real and
imaginary parts of each block's rows in one real matrix product and
combines the products of all rows per lam in one Horner pass.  The
starting eigenvectors of a batch come from one stacked
eigen-decomposition per side, labelled in one step from lam = 0
(modes.analytic_eigenpairs).  Gamma reads the wedges and the fast pair
of the lam = 0 sample and transports nothing of its own.

Initial data at the cut ends come from the analytically continued
eigenvectors of the limit matrices, so D inherits analyticity in lam
and the winding counts are meaningful.  The wedges built from them are
corrected at first order in the tail gap (corrected_start): the
coefficients at +-X still differ from their limits by a multiple of
exp(gamma1 x), the profile's own decay, and one 10x10 solve per lam and
block takes that term into the start.  What is left is quadratic in the
gap, so 18 decay lengths give Gamma and D'(0) of a 35-decay-length
domain to about 1e-11 relative, where the plain limit wedges missed
them by 5e-8 to 8e-8.  D(0) vanishes because the wave derivative
belongs to both bundles; D'(0) is recovered two ways (a Cauchy integral
on a small circle and central differences) and tested against the
product of the connection coefficient Gamma with the planar shock
determinant Delta.

Both Gamma and D'(0) depend on the chosen normalization of the basis
at the cut ends (rescaling one basis column rescales both sides of the
factorization together); only their consistency and nonvanishing are
meaningful, not their absolute scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .csvout import write_table
from .eigensystem import (
    background_wave,
    hermite_table,
    interior_coefficients,
    interior_matrix_coeffs,
    limit_matrix_coeffs,
    refined_values,
    uniform_reader,
    wave_residual,
)
from .modes import (
    analytic_eigenpairs,
    default_disk_radius,
    fast_roots,
    lams_text,
    slow_expansion,
)
from .jets import Jet
from .params import PlasmaParams, ShockEndstates, liu_majda_delta
from .profile import ProfileGrid
# unused here; kept so that WRAPS in perfbench/tracer.py can patch them
from .profile import solve_profile  # noqa: F401
from .wedge import lift3  # noqa: F401
from .wedge import (dual_matrix, hodge, lift2, skew, solve_wedge_factor,
                    wedge2, wedge3)

# branch columns of ModePath used for the decaying bundles
PLUS_PAIR = (0, 1)        # gamma1+, gamma2+ decay as x -> +inf
MINUS_TRIPLE = (0, 2, 4)  # gamma1-, gamma3-, slow branch decay as x -> -inf
MINUS_FAST = (0, 2)       # the two fast columns of the minus bundle
# counters kept by integrate_wedge; EvansSystem.work adds the evaluator
# rounds and the lam they carried (see make_evaluator)
WORK_COUNTS = ("transports", "rhs_calls", "steps")
# the blocks of a transport: the end each starts from (-1: +X, at
# x = X - t; +1: -X, at x = t - X) and what its rows hold ("w2":
# 2-wedges, "w3": duals of 3-wedges)
BLOCKS = {"plus": (-1, "w2"), "minus": (1, "w3"), "fast": (1, "w2")}
# the 5x5 matrices whose lift2 moves each kind of row, from A
MATRICES = {"w2": np.asarray, "w3": dual_matrix}
# widest cell of the Evans coefficient table (see table_stride)
TABLE_STEP = 0.5
# order of the profile jets at the table's nodes: the closure reads their
# order-4 part, and table_error carries the profile with all of it from a
# cell's left node to its midpoint
PROBE_ORDER = 6
# a far-field start whose matrix has a smaller ratio of least to largest
# singular value is singular (see corrected_start)
START_RCOND = 1e-12


@dataclass(frozen=True)
class Contour:
    """Ordered sample points in the lam plane."""

    points: np.ndarray
    closed: bool


def _on_circle(radius: float, turns: np.ndarray) -> np.ndarray:
    """radius exp(2 pi i turns), a negative turn the exact conj of its
    opposite.

    Each turn is an integer ratio, and a quotient of integers is rounded
    correctly, so equal ratios on different contours give the same point.
    Half a turn gives -radius exactly, a point that is its own mirror.
    """
    z = radius * np.exp(2j * np.pi * np.abs(turns))
    z[np.abs(turns) == 0.5] = -radius
    return np.where(turns < 0, np.conj(z), z)


def circle_contour(radius: float, n: int = 32) -> Contour:
    """n points radius exp(2 pi i k/n), k = 0..n-1, mirrored exactly."""
    k = np.arange(n)
    return Contour(_on_circle(radius, np.where(2 * k > n, k - n, k) / n),
                   True)


def d_contour(rho: float, radius: float, n_arc: int = 24, n_inner: int = 16,
              n_seg: int = 10) -> Contour:
    """Boundary of {rho < |lam| < radius, Re lam > 0}, counterclockwise.

    The small arc detours into the open right half plane, so the origin
    stays outside the enclosed region.  Each point below the real axis is
    the exact conj of one above it.
    """
    if not 0.0 < rho < radius:
        raise ValueError("need 0 < rho < radius")
    outer = _on_circle(radius, (2 * np.arange(n_arc + 1) - n_arc)
                       / (4 * n_arc))
    down = 1j * np.linspace(radius, rho, n_seg + 2)[1:-1]
    inner = _on_circle(rho, (n_inner - 2 * np.arange(n_inner + 1))
                       / (4 * n_inner))
    pts = np.concatenate([outer, down, inner, np.conj(down[::-1])])
    return Contour(pts, True)


@dataclass
class EvansSystem:
    """Profile, coefficient table and mode data bundled for evaluation."""

    params: PlasmaParams
    end: ShockEndstates
    X: float
    n: int                       # nodes of the profile grid
    table: np.ndarray            # hermite_table cells of A0, A1, A2
    W0_mid: np.ndarray           # wave-derivative state at x = 0
    b1_mid: float
    b2_mid: float
    disk_radius: float
    boundary_gap: float
    # relative defect of W0 in W0' = A(x, 0) W0 on the table (guarantee
    # 5); NaN, which fails the check, on a system not built from a grid
    closure_residual: float = float("nan")
    # the table keeps every stride-th grid node; table_error is the
    # relative gap to the exact closure between them (see table_error),
    # NaN on a system not built from a grid
    stride: int = 1
    table_error: float = float("nan")
    rtol: float = 1e-12
    atol: float = 1e-14
    # running totals of the transports made with this system (WORK_COUNTS)
    # and of the evaluator rounds and lam they carried
    work: dict = field(default_factory=lambda: dict.fromkeys(
        WORK_COUNTS + ("rounds", "transported"), 0), repr=False)

    def __post_init__(self):
        # coefficients(x): A0, A1, A2 at x as a (3, 5, 5) stack
        self.coefficients = uniform_reader(self.X, self.table, (3, 5, 5))

    @property
    def table_shape(self) -> dict:
        """The table's stride, node count and cell width."""
        cells = self.table.shape[1]
        return {"stride": self.stride, "nodes": cells + 1,
                "step": 2.0 * self.X / cells}

    def coefficient_matrix(self, x: float, lam) -> np.ndarray:
        """A(x, lam), shape (5, 5) or (m, 5, 5) for an array of m lam."""
        A0, A1, A2 = self.coefficients(x)
        lam = np.asarray(lam)[..., None, None]
        return A0 + lam * A1 + lam * lam * A2


def table_stride(n: int, X: float) -> int:
    """Largest divisor k of (n - 1)/2 with k h <= TABLE_STEP, h = 2X/(n - 1).

    Every k-th node of the grid then includes both ends and x = 0.
    """
    half = (n - 1) // 2
    # k h <= TABLE_STEP is k X <= TABLE_STEP half, exact for integer half
    for k in range(int(TABLE_STEP * half / X), 1, -1):
        if half % k == 0 and k * X <= TABLE_STEP * half:
            return k
    return 1


def _closure(x, jets, params: PlasmaParams, end: ShockEndstates, order):
    """A0, A1, A2 at the nodes x, as Taylor coefficients up to `order`,
    from the profile jets there (of order at least order + 2); also
    returns the coefficient tables.

    A[d, i, p] is the d-th Taylor coefficient of the lam**p matrix at
    the i-th node.
    """
    tab = interior_coefficients(x, *jets, params, end, order=order + 2)
    A = np.stack([a.coef for a in interior_matrix_coeffs(tab)], axis=2)
    return A, tab


def table_error(grid: ProfileGrid, stride: int, table: np.ndarray,
                jets) -> float:
    """Relative max gap between a table and the exact closure at the
    midpoint of every cell.

    table holds hermite_table cells of A0, A1, A2 on every stride-th node
    of the grid, and jets the profile jets of order PROBE_ORDER at those
    nodes.  The exact closure at a midpoint is that of the profile
    carried there from the cell's left node by the node's own jet; the
    gap is divided by the largest exact coefficient.  Every stride, 1
    included, probes every cell.
    """
    left = slice(0, grid.n - 1, stride)
    half = stride * grid.X / (grid.n - 1)
    v, phi, psi = (np.polynomial.polynomial.polyval(half, j.coef[:, :-1])
                   for j in jets)
    params, end = grid.params, grid.end
    mid = replace(grid, x=grid.x[left] + half, v=v, phi=phi, psi=psi,
                  u=params.u_minus - end.s * (v - params.v_minus), jets=None)
    A, _ = _closure(mid.x, mid.state_jets(2), params, end, 0)
    exact = A[0].reshape(-1, 75)
    got = refined_values(table, 2.0 * half, 2)[1::2]
    return float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))


def build_evans_system(grid: ProfileGrid, rtol: float = 1e-12,
                       atol: float = 1e-14,
                       gap_tol: float = 1e-8) -> EvansSystem:
    """Tabulate the closure coefficients on a solved profile grid.

    The table keeps every k-th node, k = table_stride(n, X).  Raises
    RuntimeError naming the Evans build when the kept nodes miss an end
    of the grid or x = 0, and RuntimeError when the coefficients at the
    cut ends miss their limits by more than gap_tol, i.e. when the
    domain is too short or the grid too coarse.
    """
    params, end = grid.params, grid.end
    X, n = grid.X, grid.n
    k = table_stride(n, X)
    kept = slice(None, None, k)
    x = grid.x[kept]
    mid = x.size // 2
    if x[-1] != grid.x[-1]:
        raise RuntimeError(f"Evans build: table stride {k} on {n} nodes "
                           f"misses the end x = {X}")
    if abs(x[mid]) > 1e-9 * grid.h:
        raise RuntimeError(f"Evans build: table stride {k} on {n} nodes "
                           f"misses x = 0 (middle node at {x[mid]:.6g})")
    # one jet pass at the kept nodes: the closure and the wave read its
    # order-4 part, table_error all of it
    jets = grid.state_jets(PROBE_ORDER, kept)
    A, tab = _closure(x, jets, params, end, 2)

    gap = 0.0
    for idx, side in ((0, "minus"), (-1, "plus")):
        L0, L1 = limit_matrix_coeffs(params, end, side)
        gap = max(gap,
                  np.max(np.abs(A[0, idx, 0] - L0)),
                  np.max(np.abs(A[0, idx, 1] - L1)),
                  np.max(np.abs(A[0, idx, 2])))
    if gap > gap_tol:
        raise RuntimeError(
            f"coefficients at the cut ends miss their limits by {gap:.3e} "
            f"on n = {n} nodes with step h = {grid.h:.4g}; the domain is too "
            "short or the grid too coarse for Evans work: raise numerics.X "
            "or numerics.n")

    # Taylor coefficients to derivatives: slope A[1], curvature 2 A[2]
    m = x.size
    table = hermite_table(x, A[0].reshape(m, 75), A[1].reshape(m, 75),
                          2.0 * A[2].reshape(m, 75))
    W0, dW0 = background_wave(*(Jet(j.coef[:5]) for j in jets), params, end)
    return EvansSystem(
        params=params, end=end, X=X, n=n, table=table,
        W0_mid=W0[mid].copy(), b1_mid=float(tab.b1.value[mid]),
        b2_mid=float(tab.b2.value[mid]),
        disk_radius=default_disk_radius(params, end),
        boundary_gap=float(gap),
        closure_residual=wave_residual(A[0, :, 0], W0, dW0), stride=k,
        table_error=table_error(grid, k, table, jets),
        rtol=rtol, atol=atol)


def _side_modes(sys: EvansSystem, side: str, lams: np.ndarray):
    """Eigenpairs at each lam, labelled in one step from lam = 0: mu (m, 5)
    and V (m, 5, 5)."""
    mp = analytic_eigenpairs(sys.params, sys.end, side,
                             np.stack([0 * lams, lams]))
    return mp.mu[-1], mp.V[-1]


def _side_x(d: int, t, X: float):
    """x of pseudo-time t for a block starting from -d X (see BLOCKS)."""
    return X - t if d < 0 else t - X


def wedge_rhs(sys: EvansSystem, blocks: dict):
    """Right-hand side in the pseudo-time t of stacked wedge blocks.

    blocks maps names of BLOCKS to (lams, shifts), one pair of m-arrays
    per block, in the order of the rows.  A block from -d X sits at
    x = d (t - X) and its rows follow y' = d (G(A(x, lam)) y - shift y),
    G the lift2 of the block's MATRICES.  A(x, lam) = A0 + lam A1 +
    lam^2 A2 and all of it is linear, so each call reads each side's
    coefficients once, forms the matrices of every kind of row there in
    one product with a fixed map and lifts them in one lift2 call.  The
    lifts act on the real and imaginary parts of a block's rows in one
    real matrix product, and the products of all rows are combined per
    lam by one Horner evaluation.
    """
    X = sys.X
    terms, sides, start = [], {}, 0
    for name, (lams, _) in blocks.items():
        d, which = BLOCKS[name]
        kinds = sides.setdefault(d, [])
        if which not in kinds:
            kinds.append(which)
        # the block's columns of the transposed state, viewed as reals
        cols = slice(2 * start, 2 * (start + lams.size))
        start += lams.size
        terms.append((d, kinds.index(which), cols))
    lam = np.concatenate([lams for lams, _ in blocks.values()])
    shift = np.concatenate([BLOCKS[name][0] * shifts
                            for name, (_, shifts) in blocks.items()])
    # vec(A) -> vec(d MATRICES[kind](A)) for each kind on side d
    basis = np.eye(25).reshape(25, 5, 5)
    maps = {d: d * np.stack([MATRICES[k](basis).reshape(25, 25)
                             for k in kinds]) for d, kinds in sides.items()}
    # lifted d A0, d A1, d A2 applied to the transposed state (10, rows)
    Z = np.empty((3, 10, start), dtype=complex)
    Zf = Z.view(float).reshape(30, 2 * start)

    def rhs(t, y):
        Y = y.reshape(start, -1).T.copy()
        Yf = Y.view(float)
        lifted = {}
        for d, M in maps.items():
            A = sys.coefficients(_side_x(d, t, X)).reshape(3, 25)
            lifted[d] = lift2((A @ M).reshape(-1, 3, 5, 5)).reshape(-1, 30, 10)
        for d, k, cols in terms:
            np.matmul(lifted[d][k], Yf[:, cols], out=Zf[:, cols])
        return (Z[0] + lam * (Z[1] + lam * Z[2]) - shift * Y).T.ravel()

    return rhs


# DOP853 of Hairer, Norsett & Wanner (Solving Ordinary Differential
# Equations I, Sec. II.5) as scipy.integrate implements it: the tableau and
# the error weights are copied from scipy/integrate/_ivp/dop853_coefficients.py
# and the step control from rk.py and common.py (scipy, BSD-3-Clause,
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers).  The
# dense-output stages 13-16 are left out; nothing reads them.
_DOP_C = np.array([0.0,
                   0.526001519587677318785587544488e-01,
                   0.789002279381515978178381316732e-01,
                   0.118350341907227396726757197510,
                   0.281649658092772603273242802490,
                   0.333333333333333333333333333333,
                   0.25,
                   0.307692307692307692307692307692,
                   0.651282051282051282051282051282,
                   0.6,
                   0.857142857142857142857142857142,
                   1.0])
# rows 1-11 are the stages, row 12 the weights of the order-8 solution
_DOP_A = np.zeros((13, 12))
_DOP_A[1, 0] = 5.26001519587677318785587544488e-2
_DOP_A[2, 0] = 1.97250569845378994544595329183e-2
_DOP_A[2, 1] = 5.91751709536136983633785987549e-2
_DOP_A[3, 0] = 2.95875854768068491816892993775e-2
_DOP_A[3, 2] = 8.87627564304205475450678981324e-2
_DOP_A[4, 0] = 2.41365134159266685502369798665e-1
_DOP_A[4, 2] = -8.84549479328286085344864962717e-1
_DOP_A[4, 3] = 9.24834003261792003115737966543e-1
_DOP_A[5, 0] = 3.7037037037037037037037037037e-2
_DOP_A[5, 3] = 1.70828608729473871279604482173e-1
_DOP_A[5, 4] = 1.25467687566822425016691814123e-1
_DOP_A[6, 0] = 3.7109375e-2
_DOP_A[6, 3] = 1.70252211019544039314978060272e-1
_DOP_A[6, 4] = 6.02165389804559606850219397283e-2
_DOP_A[6, 5] = -1.7578125e-2
_DOP_A[7, 0] = 3.70920001185047927108779319836e-2
_DOP_A[7, 3] = 1.70383925712239993810214054705e-1
_DOP_A[7, 4] = 1.07262030446373284651809199168e-1
_DOP_A[7, 5] = -1.53194377486244017527936158236e-2
_DOP_A[7, 6] = 8.27378916381402288758473766002e-3
_DOP_A[8, 0] = 6.24110958716075717114429577812e-1
_DOP_A[8, 3] = -3.36089262944694129406857109825
_DOP_A[8, 4] = -8.68219346841726006818189891453e-1
_DOP_A[8, 5] = 2.75920996994467083049415600797e1
_DOP_A[8, 6] = 2.01540675504778934086186788979e1
_DOP_A[8, 7] = -4.34898841810699588477366255144e1
_DOP_A[9, 0] = 4.77662536438264365890433908527e-1
_DOP_A[9, 3] = -2.48811461997166764192642586468
_DOP_A[9, 4] = -5.90290826836842996371446475743e-1
_DOP_A[9, 5] = 2.12300514481811942347288949897e1
_DOP_A[9, 6] = 1.52792336328824235832596922938e1
_DOP_A[9, 7] = -3.32882109689848629194453265587e1
_DOP_A[9, 8] = -2.03312017085086261358222928593e-2
_DOP_A[10, 0] = -9.3714243008598732571704021658e-1
_DOP_A[10, 3] = 5.18637242884406370830023853209
_DOP_A[10, 4] = 1.09143734899672957818500254654
_DOP_A[10, 5] = -8.14978701074692612513997267357
_DOP_A[10, 6] = -1.85200656599969598641566180701e1
_DOP_A[10, 7] = 2.27394870993505042818970056734e1
_DOP_A[10, 8] = 2.49360555267965238987089396762
_DOP_A[10, 9] = -3.0467644718982195003823669022
_DOP_A[11, 0] = 2.27331014751653820792359768449
_DOP_A[11, 3] = -1.05344954667372501984066689879e1
_DOP_A[11, 4] = -2.00087205822486249909675718444
_DOP_A[11, 5] = -1.79589318631187989172765950534e1
_DOP_A[11, 6] = 2.79488845294199600508499808837e1
_DOP_A[11, 7] = -2.85899827713502369474065508674
_DOP_A[11, 8] = -8.87285693353062954433549289258
_DOP_A[11, 9] = 1.23605671757943030647266201528e1
_DOP_A[11, 10] = 6.43392746015763530355970484046e-1
_DOP_A[12, 0] = 5.42937341165687622380535766363e-2
_DOP_A[12, 5] = 4.45031289275240888144113950566
_DOP_A[12, 6] = 1.89151789931450038304281599044
_DOP_A[12, 7] = -5.8012039600105847814672114227
_DOP_A[12, 8] = 3.1116436695781989440891606237e-1
_DOP_A[12, 9] = -1.52160949662516078556178806805e-1
_DOP_A[12, 10] = 2.01365400804030348374776537501e-1
_DOP_A[12, 11] = 4.47106157277725905176885569043e-2
_DOP_B = _DOP_A[12]
_DOP_E3 = np.zeros(13)
_DOP_E3[:-1] = _DOP_B
_DOP_E3[0] -= 0.244094488188976377952755905512
_DOP_E3[8] -= 0.733846688281611857341361741547
_DOP_E3[11] -= 0.220588235294117647058823529412e-1
_DOP_E5 = np.zeros(13)
_DOP_E5[0] = 0.1312004499419488073250102996e-1
_DOP_E5[5] = -0.1225156446376204440720569753e+1
_DOP_E5[6] = -0.4957589496572501915214079952
_DOP_E5[7] = 0.1664377182454986536961530415e+1
_DOP_E5[8] = -0.3503288487499736816886487290
_DOP_E5[9] = 0.3341791187130174790297318841
_DOP_E5[10] = 0.8192320648511571246570742613e-1
_DOP_E5[11] = -0.2235530786388629525884427845e-1
SAFETY = 0.9       # factor on the step predicted from the error estimate
MIN_FACTOR = 0.2   # largest decrease of the step in one rejection
MAX_FACTOR = 10.0  # largest increase of the step after an acceptance


@dataclass(frozen=True)
class IvpResult:
    """What solve_ivp returns: every accepted t and the state y at the last."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _rms(z) -> float:
    return np.linalg.norm(z) / z.size ** 0.5


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> IvpResult:
    """Integrate y' = fun(t, y) over t_span by DOP853; y0 may be complex.

    The steps, right-hand-side calls and end state are those of
    scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
    atol=atol): the same initial-step rule (error order 7), combined E5/E3
    error norm and step-factor limits.  Only the end state is kept.  A
    step size that falls below ten spacings of the floating-point numbers
    at t ends the integration with success False at the last accepted t.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y) else float
    y = y.astype(dtype, copy=False)
    nfev = 0

    def f_at(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=dtype)

    direction = np.sign(t_bound - t) if t_bound != t else 1
    f = f_at(t, y)
    # initial step (Hairer, Norsett & Wanner, Sec. II.4)
    length = abs(t_bound - t)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    f1 = f_at(t + h0 * direction, y + h0 * direction * f)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, length)

    K = np.empty((13, y.size), dtype=dtype)
    ts = [t]
    message = ("The solver successfully reached the end of the "
               "integration interval.")
    while t != t_bound:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                message = ("Required step size is less than spacing "
                           "between numbers.")
                return IvpResult(np.array(ts), y, nfev, False, message)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = f
            for s in range(1, 12):
                dy = np.dot(K[:s].T, _DOP_A[s, :s]) * h
                K[s] = f_at(t + _DOP_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DOP_B)
            f_new = f_at(t + h, y_new)
            K[-1] = f_new

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K.T, _DOP_E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, _DOP_E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = h_abs * err5 / np.sqrt((err5 + 0.01 * err3)
                                               * scale.size)
            if error < 1:
                factor = (MAX_FACTOR if error == 0 else
                          min(MAX_FACTOR, SAFETY * error ** (-1 / 8)))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** (-1 / 8))
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
    return IvpResult(np.array(ts), y, nfev, True, message)


def integrate_wedge(sys: EvansSystem, **blocks):
    """Carry blocks of shifted wedges to x = 0 in one transport.

    Each keyword names a block of BLOCKS ("plus": 2-wedges from +X,
    "minus": duals of 3-wedges from -X, "fast": 2-wedges from -X) and gives
    (lams, y0, shifts): m values of lam, the (m, 10) wedges at the block's
    end and one shift per lam.  All rows travel as one DOP853 state over
    the pseudo-time t in [0, X] (see wedge_rhs) in one solve_ivp call: the
    shifts keep every row O(1) along the way, so nothing is renormalized
    in between.  At x = 0 every row is divided by its norm, whose log is
    the row's scale.  Returns {name: (unit rows, log scales)}.  The norms
    are real and positive, so multiplying them back preserves analyticity
    of anything built from the result.  The transport, its right-hand-side
    calls and its steps are added to sys.work.  A failure is a
    RuntimeError naming each block concerned, the x in its own frame where
    the solver stopped and the lam of its rows: a failed solve names every
    block at its last accepted t, a zero or non-finite row at x = 0 its
    own block.
    """
    parts, slices, start = {}, {}, 0
    for name, (lam, y0, shift) in blocks.items():
        lams = np.atleast_1d(np.asarray(lam, dtype=complex))
        m = lams.size
        parts[name] = (lams, np.asarray(y0, dtype=complex).reshape(m, -1),
                       np.broadcast_to(np.asarray(shift, dtype=complex), (m,)))
        slices[name] = slice(start, start + m)
        start += m
    lams = np.concatenate([p[0] for p in parts.values()])
    rhs = wedge_rhs(sys, {name: (p[0], p[2]) for name, p in parts.items()})

    def failure(reason, t, rows, detail):
        """The error for the rows (a mask) failing at pseudo-time t."""
        where = []
        for name, part in slices.items():
            if rows[part].any():
                x = _side_x(BLOCKS[name][0], t, sys.X)
                where.append(f"{reason} at x = {x} for "
                             f"{lams_text(lams[part][rows[part]])} "
                             f"({name} block)")
        return RuntimeError("Evans transport: " + "; ".join(where)
                            + f": {detail}")

    Y0 = np.concatenate([p[1] for p in parts.values()])
    sys.work["transports"] += 1
    sol = solve_ivp(rhs, (0.0, sys.X), Y0.ravel(), rtol=sys.rtol,
                    atol=sys.atol)
    sys.work["rhs_calls"] += sol.nfev
    sys.work["steps"] += sol.t.size - 1
    if not sol.success:
        raise failure("integration failed", sol.t[-1], np.ones(start, bool),
                      sol.message)
    Y = sol.y.reshape(start, -1)
    norm = np.linalg.norm(Y, axis=1)
    bad = ~np.isfinite(norm) | (norm == 0.0)
    if bad.any():
        raise failure("normalization broke down", sys.X, bad,
                      f"norms {norm[bad][:6]}")
    Y = Y / norm[:, None]
    log_scale = np.log(norm)
    return {name: (Y[rows], log_scale[rows]) for name, rows in slices.items()}


@dataclass(frozen=True)
class EvansSample:
    """D at lam, with the decaying bases it pairs (see evans_value)."""

    lam: complex
    D: complex
    log_scale: float
    w2: np.ndarray = field(repr=False, compare=False)
    log2: float = field(repr=False, compare=False)
    # the Hodge dual hodge(w3) of the unit 3-wedge: D = w2 . w3 exp(scale)
    w3: np.ndarray = field(repr=False, compare=False)
    log3: float = field(repr=False, compare=False)
    # Gamma's fast pair at -inf, carried only at lam = 0
    wf: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    logf: Optional[float] = field(default=None, repr=False, compare=False)


def corrected_start(sys: EvansSystem, name: str, lams: np.ndarray,
                    y0: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The wedges of a block at its cut end, corrected for the tail gap.

    y0 holds the (m, 10) limit rows of block `name` (see BLOCKS), each
    an eigenvector of G(A_inf(lam)) for its shift s, where G = lift2 of
    the block's MATRICES and A_inf is the limit matrix of its side.
    Near the cut end x_e the coefficients approach A_inf like exp(g x),
    with g = gamma1 of that side, the profile's own decay rate, so the
    decaying solution starts at y0 + c, where
        (G(A_inf) - s - g) c = -G(A(x_e, lam) - A_inf) y0.
    The error left is quadratic in the gap, where y0 alone errs at first
    order.  All lam are solved in one batch.  Raises RuntimeError naming
    the block and its lam where a matrix is singular (START_RCOND).
    """
    d, which = BLOCKS[name]
    side = "plus" if d < 0 else "minus"
    L0, L1 = limit_matrix_coeffs(sys.params, sys.end, side)
    A_inf = L0 + lams[:, None, None] * L1
    g = fast_roots(sys.params, sys.end, side).gamma1
    M = (lift2(MATRICES[which](A_inf))
         - (shifts + g)[:, None, None] * np.eye(10))
    sv = np.linalg.svd(M, compute_uv=False)
    singular = sv[:, -1] <= START_RCOND * sv[:, 0]
    if singular.any():
        raise RuntimeError(
            f"Evans start: the far-field correction of the {name} block "
            f"is singular at {lams_text(lams[singular])}")
    gap = sys.coefficient_matrix(-d * sys.X, lams) - A_inf
    c = np.linalg.solve(M, -(lift2(MATRICES[which](gap)) @ y0[:, :, None]))
    return y0 + c[:, :, 0]


def evans_value(sys: EvansSystem, lam):
    """D at a scalar lam, or a list of samples for an array of lam.

    The unit 2-wedges w2 decaying at +inf, the duals z = hodge(w3) of
    the unit 3-wedges decaying at -inf and, at lam = 0, the fast pair at
    -inf are all carried to x = 0 in one transport (integrate_wedge);
    D = w2 . z.  Each block starts from its limit rows with the tail-gap
    correction of corrected_start.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    zero = np.flatnonzero(lams == 0)
    mu_p, V_p = _side_modes(sys, "plus", lams)
    mu_m, V_m = _side_modes(sys, "minus", lams)
    i, j = PLUS_PAIR
    blocks = {"plus": (lams, wedge2(V_p[:, :, i], V_p[:, :, j]),
                       mu_p[:, i] + mu_p[:, j])}
    i, j, k = MINUS_TRIPLE
    blocks["minus"] = (lams,
                       hodge(wedge3(V_m[:, :, i], V_m[:, :, j], V_m[:, :, k])),
                       mu_m[:, i] + mu_m[:, j] + mu_m[:, k])
    if zero.size:
        i, j = MINUS_FAST
        blocks["fast"] = (lams[zero],
                          wedge2(V_m[zero, :, i], V_m[zero, :, j]),
                          mu_m[zero, i] + mu_m[zero, j])
    out = integrate_wedge(sys, **{
        name: (z, corrected_start(sys, name, z, y0, shifts), shifts)
        for name, (z, y0, shifts) in blocks.items()})
    (w2, log2), (z, log3) = out["plus"], out["minus"]
    fast = dict(zip(zero.tolist(), zip(*out["fast"]))) if zero.size else {}
    scale = log2 + log3
    D = np.sum(w2 * z, -1) * np.exp(scale)
    samples = [EvansSample(complex(point), complex(D[k]), float(scale[k]),
                           w2[k], float(log2[k]), z[k], float(log3[k]),
                           *fast.get(k, (None, None)))
               for k, point in enumerate(lams)]
    return samples[0] if np.ndim(lam) == 0 else samples


def _mirrored(sample: EvansSample) -> EvansSample:
    """The sample at conj(lam): the operator is real, so D and the bases
    conjugate and the log scales stay."""
    return replace(sample, lam=sample.lam.conjugate(),
                   D=sample.D.conjugate(), w2=sample.w2.conj(),
                   w3=sample.w3.conj())


def make_evaluator(sys: EvansSystem):
    """Caching D evaluator; returns (function, sample store).

    The function takes a scalar or an array of lam.  Only points with
    Im lam >= 0 are transported: those not yet in the store go to
    evans_value together, one batch per call, which adds a round and its
    lam to sys.work.  A point below the real axis is its mirror's sample
    conjugated (_mirrored).
    """
    store: dict[complex, EvansSample] = {}

    def evaluate(lam):
        lams = np.asarray(lam, dtype=complex)
        keys = [complex(z) for z in lams.ravel()]
        upper = dict.fromkeys(z if z.imag >= 0 else z.conjugate()
                              for z in keys)
        new = [z for z in upper if z not in store]
        if new:
            sys.work["rounds"] += 1
            sys.work["transported"] += len(new)
            for sample in evans_value(sys, np.array(new)):
                store[sample.lam] = sample
        for z in keys:
            if z not in store:
                store[z] = _mirrored(store[z.conjugate()])
        D = np.array([store[z].D for z in keys]).reshape(lams.shape)
        return complex(D) if lams.ndim == 0 else D

    return evaluate, store


def _values(evaluate, pts: np.ndarray) -> np.ndarray:
    """evaluate on an array of points; a constant result is broadcast."""
    return np.broadcast_to(np.asarray(evaluate(pts), dtype=complex),
                           pts.shape)


def winding_number(evaluate: Callable, contour: Contour,
                   phase_tol: float = 0.25 * np.pi, max_rounds: int = 14):
    """Winding of D over a closed contour, with adaptive refinement.

    Midpoints are inserted on any edge whose phase step reaches
    phase_tol until all steps resolve; the count is only then rounded.
    evaluate is called on arrays: once on the contour points and once
    per refinement round on that round's midpoints.
    Returns (winding, points, values).
    """
    if not contour.closed:
        raise ValueError("winding needs a closed contour")
    pts = np.asarray(contour.points, dtype=complex)
    vals = _values(evaluate, pts)

    for _ in range(max_rounds):
        if np.any(vals == 0.0):
            raise RuntimeError("contour passes through a zero of D")
        steps = np.angle(np.roll(vals, -1) / vals)
        bad = np.flatnonzero(np.abs(steps) >= phase_tol)
        if bad.size == 0:
            total = np.sum(steps) / (2.0 * np.pi)
            w = int(round(total))
            if abs(total - w) > 0.01:
                raise RuntimeError(
                    f"phase increments do not close up (sum {total:.3e}); "
                    "contour may pass near a zero")
            return w, pts, vals
        mids = 0.5 * (pts[bad] + pts[(bad + 1) % pts.size])
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, _values(evaluate, mids))
    raise RuntimeError("phase steps stayed above the resolution bound "
                       "after maximal refinement; shrink the contour")


def derivative_points(rho: float, n_quad: int = 32) -> np.ndarray:
    """The n_quad Cauchy nodes on |lam| = rho (circle_contour's points),
    then 2h, h, -h, -2h."""
    h = rho / 10.0
    return np.concatenate([circle_contour(rho, n_quad).points,
                           [2 * h, h, -h, -2 * h]])


def evans_derivative_origin(evaluate: Callable, rho: float,
                            n_quad: int = 32):
    """D'(0) by Cauchy quadrature on |lam| = rho and by differences.

    For analytic D with D(0) = 0 the trapezoid sum (1/n) sum D(l_k)/l_k
    over the n-th roots of unity scaled by rho converges spectrally;
    the five-point central difference at rho/10 is the independent
    cross-check.  All points go to evaluate in one array.
    """
    pts = derivative_points(rho, n_quad)
    vals = _values(evaluate, pts)
    cauchy = complex(np.sum(vals[:n_quad] / pts[:n_quad]) / n_quad)
    d2h, dh, dmh, dm2h = vals[n_quad:]
    h = rho / 10.0
    fd = complex((-d2h + 8 * dh - 8 * dmh + dm2h) / (12.0 * h))
    return cauchy, fd


@dataclass(frozen=True)
class GammaResult:
    Gamma: float
    det_R0: float
    a2_minus: float
    phi2_plus: np.ndarray
    phi4_minus: np.ndarray
    factor_residual_plus: float
    factor_residual_fast: float
    containment_minus: float


def gamma_transversality(sys: EvansSystem, origin: EvansSample,
                         factor_tol: float = 1e-6) -> GammaResult:
    """Connection coefficient Gamma from the lam = 0 bundles.

    origin is the sample of D at lam = 0, e.g. evans_value(sys, 0.0);
    its bundles and the fast pair at -inf that rode along in its
    transport are reused, so nothing is transported here.

    The wave derivative W0 lies in both bundles; the least-squares
    factors phi2+ (completing W0 in the 2-plane decaying at +inf) and
    phi4- (completing W0 in the fast 2-plane at -inf) are extracted
    from the transported wedges, mapped by the flux rows, and combined
    into the 3x3 determinant weighted by a2- / det R(0).  Everything is
    computed with the same basis normalization used for D, so the
    factorization of D'(0) can be checked without free constants.
    """
    if sys.params.delta_s == 0.0:
        raise ValueError("zero-amplitude wave has no connection coefficient")
    if origin.lam != 0:
        raise ValueError(f"Gamma needs the sample at lam = 0, got {origin.lam}")

    w2, log2, z = origin.w2, origin.log2, origin.w3
    wf, logf = origin.wf, origin.logf

    W0 = sys.W0_mid
    phi2, res2 = solve_wedge_factor(W0, w2 * np.exp(log2))
    phi4, res4 = solve_wedge_factor(W0, wf * np.exp(logf))
    if max(res2, res4) > factor_tol:
        raise RuntimeError(
            "wave derivative is not contained in the transported planes "
            f"(residuals {res2:.3e}, {res4:.3e}) on n = {sys.n} nodes with "
            f"step h = {2.0 * sys.X / (sys.n - 1):.4g}; the fast bundle may "
            "be rank deficient, the domain too short or the grid too coarse: "
            "raise numerics.X or numerics.n")
    # |skew(z) W0| = |W0 ^ w3| for the dual z = hodge(w3) (see wedge.skew)
    contain = float(np.linalg.norm(skew(z) @ W0)
                    / (np.linalg.norm(W0) * np.linalg.norm(z)))

    det_R0 = sys.b1_mid - sys.end.s * sys.b2_mid
    if det_R0 >= 0.0:
        raise RuntimeError(f"flux-row determinant {det_R0:.3e} is not "
                           "negative; coefficient tables are inconsistent")

    def flux_rows(w):
        return np.array([sys.b1_mid * w[0] + sys.b2_mid * w[1], w[3], w[4]])

    cols = np.stack([flux_rows(phi2), flux_rows(W0.astype(complex)),
                     flux_rows(phi4)], axis=1)
    det3 = np.linalg.det(cols)
    a2 = slow_expansion(sys.params, sys.end, "minus").a2
    gamma = a2 / det_R0 * det3
    if abs(gamma.imag) > 1e-8 * max(1.0, abs(gamma.real)):
        raise RuntimeError("connection coefficient has a spurious "
                           f"imaginary part {gamma.imag:.3e}")
    return GammaResult(
        Gamma=float(gamma.real), det_R0=float(det_R0), a2_minus=float(a2),
        phi2_plus=phi2, phi4_minus=phi4,
        factor_residual_plus=float(res2), factor_residual_fast=float(res4),
        containment_minus=contain)


# report keys of the EvansReport fields whose key is not their name
_REPORT_KEYS = {"Dprime_cauchy": "Dprime0_cauchy", "Dprime_fd": "Dprime0_fd"}


@dataclass(frozen=True)
class EvansReport:
    radius: float
    rho: float
    D0: complex
    circle_max: float
    winding_circle: int
    winding_d_contour: int
    Dprime_cauchy: complex
    Dprime_fd: complex
    derivative_agreement: float
    Gamma: float
    Delta: float
    factorization_residual: float
    sign_match: bool
    gamma: GammaResult
    samples: tuple[EvansSample, ...]
    work: dict
    min_abs_D: dict

    def as_dict(self) -> dict:
        """Every field but gamma and samples, under its report key;
        complex values stay complex (pipeline._py writes them [re, im])."""
        return {_REPORT_KEYS.get(f.name, f.name): getattr(self, f.name)
                for f in fields(self) if f.name not in ("gamma", "samples")}


def evans_report(sys: EvansSystem, rho: Optional[float] = None,
                 n_circle: int = 32) -> EvansReport:
    """Windings, derivative at the origin and the factorization check."""
    r = sys.disk_radius
    if rho is None:
        rho = 0.5 * r
    evaluate, store = make_evaluator(sys)
    work0 = dict(sys.work)

    circle = circle_contour(rho, n_circle)
    dcont = d_contour(rho, r)
    # every first-round point in one batched transport
    evaluate(np.concatenate([[0.0], circle.points, dcont.points,
                             derivative_points(rho, n_circle)]))
    D0 = evaluate(0.0)
    w_circle, _, circle_vals = winding_number(evaluate, circle)
    w_d, _, d_vals = winding_number(evaluate, dcont)
    dc, dfd = evans_derivative_origin(evaluate, rho, n_quad=n_circle)
    agree = abs(dc - dfd) / max(abs(dc), abs(dfd))

    gam = gamma_transversality(sys, store[0j])
    delta = liu_majda_delta(sys.params, sys.end)
    prod = gam.Gamma * delta
    fac_res = abs(dc - prod) / abs(prod)
    sign_match = bool(dc.real * prod > 0.0)

    samples = tuple(store[k] for k in sorted(store, key=lambda z: (z.real,
                                                                   z.imag)))
    work = {k: sys.work[k] - work0[k] for k in WORK_COUNTS}
    work["samples"] = len(store)
    work.update({k: sys.work[k] - work0[k] for k in ("rounds", "transported")})
    return EvansReport(
        radius=r, rho=rho, D0=D0,
        circle_max=float(np.max(np.abs(circle_vals))),
        winding_circle=w_circle, winding_d_contour=w_d,
        Dprime_cauchy=dc, Dprime_fd=dfd, derivative_agreement=float(agree),
        Gamma=gam.Gamma, Delta=delta,
        factorization_residual=float(fac_res), sign_match=sign_match,
        gamma=gam, samples=samples, work=work,
        min_abs_D={"circle": float(np.min(np.abs(circle_vals))),
                   "d_contour": float(np.min(np.abs(d_vals)))})


def write_evans_csv(samples, path) -> None:
    table = np.array([(s.lam.real, s.lam.imag, s.D.real, s.D.imag,
                       s.log_scale) for s in samples]).reshape(-1, 5)
    with open(path, "wb") as fh:
        fh.write(b"re_lambda,im_lambda,re_D,im_D,log_scale\n")
        write_table(fh, table, 16)
