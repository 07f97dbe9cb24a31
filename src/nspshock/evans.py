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

One transport carries a whole batch of lam, and on a batch that holds
lam = 0 Gamma's fast pair at -inf rides along: `integrate_wedge` carries
all rows as one real state in one DOP853 solve over a pseudo-time t in
[0, X].  The shifts keep every row O(1) on the way (|log scale| at x = 0
is at most 2.01 from delta = 0.02 to 0.182), so nothing is renormalized
in between.  The DOP853 step is ode.solve_ivp, imported here by name, so
that replacing evans.solve_ivp replaces the transport's solver.  Its
step control bounds the RMS error over the batch instead of each wedge's
own; tests/test_evans.py holds batched D to one-lam-at-a-time D within
1e-10 relative on the production grid.

The transport runs at rtol = RTOL = 1e-9, atol = ATOL = RTOL/100, sized
by the error budget of README: against a transport at RTOL/100 it may
move D(0) by at most 1e-11 of circle_max and Gamma, D'(0) and every
sample D by at most 1e-9 relative, 1e-3 of the tightest check on each.
RTOL = 1e-9 meets the budget on the benchmark's Evans configs and at
delta = 0.02; 1e-8 meets it too, with 4% to spare on D(0) (README).

The linearized operator is real, so D(conj lam) = conj D(lam), and the
contours are built symmetric about the real axis, each point below it
the exact conj of one above.  The evaluator transports only the points
with Im lam >= 0 and fills in each mirror with D and the bases
conjugated and the log scales unchanged.  A run evaluates its
first-round samples (origin, both contours, the Cauchy and difference
points) in one batch and each winding-refinement round in one more.

Evans reads the profile grid of the other tasks.  Its coefficient
table keeps every k-th node, k = table_stride(n, X, rate), so that no
cell is wider than TABLE_DECAYS decay lengths of the profile's slow
rate (k = 8 on every default grid).  Each cell is the quintic (C^2)
Hermite interpolant of the values, slopes and second derivatives of A0,
A1, A2 in A(x, lam) = A0 + lam A1 + lam^2 A2 at its two end nodes, from
one jet pass to order PROBE_ORDER at the kept nodes.
The smoothness matters: C^1 cubic cells of the same width put kinks at
the cell ends that spoil DOP853's error control (measured at rtol
1e-12), and batched D then missed one-lam-at-a-time D by up to 2e-9.
Every build measures the table's error (table_error).

Lifting is linear, so each kind of row has one fixed generator map,
GENERATORS, built at import: a right-hand-side call forms the generators
of each side's coefficients in one product with it and lifts nothing
(wedge_rhs).  The starting eigenvectors of a batch come from one stacked
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
domain to about 2e-11 relative, where the plain limit wedges missed
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
    cell_values,
    hermite_table,
    interior_coefficients,
    interior_matrix_coeffs,
    limit_matrix_coeffs,
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
from .ode import solve_ivp
from .params import PlasmaParams, ShockEndstates, liu_majda_delta
from .profile import ProfileGrid, slow_decay_rate
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
# vec(A) -> vec(G(A)) for each kind of row, G the generator that moves it:
# lift2(A) for 2-wedges, lift2(dual_matrix(A)) for duals of 3-wedges.
# Both are linear in A, so one (25, 100) map per kind, the lifts of the 25
# unit matrices, serves every call
_UNIT = np.eye(25).reshape(25, 5, 5)
GENERATORS = {"w2": lift2(_UNIT).reshape(25, 100),
              "w3": lift2(dual_matrix(_UNIT)).reshape(25, 100)}
# widest cell of the Evans coefficient table, in decay lengths of the
# profile's slow rate (see table_stride): stride 8 on the default grid,
# the coarsest power of two whose table_error stays under 1% of its 1e-8
# limit from delta = 0.02 to 0.19 (stride 16 reaches 2.8e-9)
TABLE_DECAYS = 0.15
# order of the profile jets at the table's nodes: the closure reads their
# order-4 part, and table_error carries the profile with all of it from a
# cell's left node to its midpoint
PROBE_ORDER = 6
# a far-field start whose matrix has a smaller ratio of least to largest
# singular value is singular (see corrected_start)
START_RCOND = 1e-12
# DOP853 tolerances of the transport: the loosest decade of RTOL whose
# gaps to a transport at RTOL/100, ATOL/100 meet the error budget of
# README ("Evans error budget"); tests/test_evans.py holds the budget
RTOL = 1e-9
ATOL = RTOL / 100
# largest miss of the cut-end coefficients from their limits (build)
BOUNDARY_GAP_TOL = 1e-8
# points of the winding circle and the Cauchy quadrature; of the d-contour's
# outer arc, inner arc and each of its segments
N_CIRCLE = 32
N_ARC, N_INNER, N_SEG = 24, 16, 10
# winding_number bisects edges whose phase step reaches PHASE_TOL, in at
# most MAX_ROUNDS rounds; Gamma's wedge factors must fit to FACTOR_TOL
PHASE_TOL, MAX_ROUNDS = 0.25 * np.pi, 14
FACTOR_TOL = 1e-6


@dataclass(frozen=True)
class Contour:
    """Ordered sample points in the lam plane."""

    points: np.ndarray


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


def circle_contour(radius: float, n: int = N_CIRCLE) -> Contour:
    """n points radius exp(2 pi i k/n), k = 0..n-1, mirrored exactly."""
    k = np.arange(n)
    return Contour(_on_circle(radius, np.where(2 * k > n, k - n, k) / n))


def d_contour(rho: float, radius: float) -> Contour:
    """Boundary of {rho < |lam| < radius, Re lam > 0}, counterclockwise.

    The small arc detours into the open right half plane, so the origin
    stays outside the enclosed region.  Each point below the real axis is
    the exact conj of one above it.
    """
    if not 0.0 < rho < radius:
        raise ValueError("need 0 < rho < radius")
    outer = _on_circle(radius, (2 * np.arange(N_ARC + 1) - N_ARC)
                       / (4 * N_ARC))
    down = 1j * np.linspace(radius, rho, N_SEG + 2)[1:-1]
    inner = _on_circle(rho, (N_INNER - 2 * np.arange(N_INNER + 1))
                       / (4 * N_INNER))
    pts = np.concatenate([outer, down, inner, np.conj(down[::-1])])
    return Contour(pts)


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
    # relative defect of W0 in W0' = A(x, 0) W0 on the table (guarantee 5)
    closure_residual: float
    # the table keeps every stride-th grid node; table_error is the
    # relative gap to the exact closure between them (see table_error)
    stride: int
    table_error: float
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


def table_stride(n: int, X: float, rate: float) -> int:
    """Largest divisor k of (n - 1)/2 with k h rate <= TABLE_DECAYS,
    h = 2X/(n - 1) and rate the profile's slow decay rate.

    Every k-th node of the grid then includes both ends and x = 0.  The
    closure varies on the profile's length scale 1/rate, so the cells are
    counted in decay lengths; the default grid spans X rate = EFOLDS
    each way, so its stride is the same at every amplitude.
    """
    half = (n - 1) // 2
    # k h rate <= TABLE_DECAYS is k X rate <= TABLE_DECAYS half
    decays = X * rate
    for k in range(int(TABLE_DECAYS * half / decays), 1, -1):
        if half % k == 0 and k * decays <= TABLE_DECAYS * half:
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
    got = cell_values(table, [half])[:, 0]
    return float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))


def build_evans_system(grid: ProfileGrid) -> EvansSystem:
    """Tabulate the closure coefficients on a solved profile grid.

    The table keeps every k-th node, k = table_stride(n, X, rate) with
    rate the profile's slow decay rate: 8 on every default grid.  Raises
    RuntimeError naming the Evans build when the kept nodes miss an end
    of the grid or x = 0, and RuntimeError when the coefficients at the
    cut ends miss their limits by more than BOUNDARY_GAP_TOL, i.e. when the
    domain is too short or the grid too coarse.
    """
    params, end = grid.params, grid.end
    X, n = grid.X, grid.n
    k = table_stride(n, X, slow_decay_rate(params, end))
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
    if gap > BOUNDARY_GAP_TOL:
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
        table_error=table_error(grid, k, table, jets))


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
    G the block's GENERATORS.  A(x, lam) = A0 + lam A1 + lam^2 A2 and all
    of it is linear, so each call reads each side's coefficients once and
    forms the generators of every kind of row there in one product with
    the fixed maps; nothing is lifted per call.  y and the result are real,
    the float view of the transposed (10, rows) complex state: columns 2 r
    and 2 r + 1 of y.reshape(10, -1) are row r's real and imaginary parts.
    The generators act on a block's columns in one real matrix product, and
    one Horner evaluation on the complex view combines them per lam.
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
    # vec(A) -> vec(d G(A)) for each kind of row on side d
    maps = {d: d * np.stack([GENERATORS[k] for k in kinds])
            for d, kinds in sides.items()}
    # G(d A0), G(d A1), G(d A2) times the transposed state (10, rows)
    Z = np.empty((3, 10, start), dtype=complex)
    Zf = Z.view(float).reshape(30, 2 * start)

    def rhs(t, y):
        Yf = y.reshape(10, 2 * start)
        G = {}
        for d, M in maps.items():
            A = sys.coefficients(_side_x(d, t, X)).reshape(3, 25)
            G[d] = (A @ M).reshape(-1, 30, 10)
        for d, k, cols in terms:
            np.matmul(G[d][k], Yf[:, cols], out=Zf[:, cols])
        dY = Z[0] + lam * (Z[1] + lam * Z[2]) - shift * Yf.view(complex)
        return dY.view(float).ravel()

    return rhs


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

    Y0 = np.concatenate([p[1] for p in parts.values()]).T.copy().view(float)
    sys.work["transports"] += 1
    sol = solve_ivp(rhs, (0.0, sys.X), Y0.ravel(), rtol=RTOL, atol=ATOL)
    sys.work["rhs_calls"] += sol.nfev
    sys.work["steps"] += sol.t.size - 1
    if not sol.success:
        raise failure("integration failed", sol.t[-1], np.ones(start, bool),
                      sol.message)
    Y = sol.y.reshape(10, -1).view(complex).T.copy()
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
    an eigenvector of G(A_inf(lam)) for its shift s, where G is the
    block's GENERATORS and A_inf is the limit matrix of its side.
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

    def G(A):
        return (A.reshape(-1, 25) @ GENERATORS[which]).reshape(-1, 10, 10)

    M = G(A_inf) - (shifts + g)[:, None, None] * np.eye(10)
    sv = np.linalg.svd(M, compute_uv=False)
    singular = sv[:, -1] <= START_RCOND * sv[:, 0]
    if singular.any():
        raise RuntimeError(
            f"Evans start: the far-field correction of the {name} block "
            f"is singular at {lams_text(lams[singular])}")
    gap = sys.coefficient_matrix(-d * sys.X, lams) - A_inf
    c = np.linalg.solve(M, -(G(gap) @ y0[:, :, None]))
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


def winding_number(evaluate: Callable, contour: Contour):
    """Winding of D over a closed contour, with adaptive refinement.

    Midpoints are inserted on any edge whose phase step reaches
    PHASE_TOL, in at most MAX_ROUNDS rounds, until all steps resolve;
    the count is only then rounded.  evaluate is called on arrays: once
    on the contour points and once per round on that round's midpoints.
    Returns (winding, points, values).
    """
    pts = np.asarray(contour.points, dtype=complex)
    vals = evaluate(pts)

    for _ in range(MAX_ROUNDS):
        if np.any(vals == 0.0):
            raise RuntimeError("contour passes through a zero of D")
        steps = np.angle(np.roll(vals, -1) / vals)
        bad = np.flatnonzero(np.abs(steps) >= PHASE_TOL)
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
        vals = np.insert(vals, bad + 1, evaluate(mids))
    raise RuntimeError("phase steps stayed above the resolution bound "
                       "after maximal refinement; shrink the contour")


def derivative_points(rho: float, n_quad: int = N_CIRCLE) -> np.ndarray:
    """The n_quad Cauchy nodes on |lam| = rho (circle_contour's points),
    then 2h, h, -h, -2h."""
    h = rho / 10.0
    return np.concatenate([circle_contour(rho, n_quad).points,
                           [2 * h, h, -h, -2 * h]])


def evans_derivative_origin(evaluate: Callable, rho: float,
                            n_quad: int = N_CIRCLE):
    """D'(0) by Cauchy quadrature on |lam| = rho and by differences.

    For analytic D with D(0) = 0 the trapezoid sum (1/n) sum D(l_k)/l_k
    over the n-th roots of unity scaled by rho converges spectrally;
    the five-point central difference at rho/10 is the independent
    cross-check.  All points go to evaluate in one array.
    """
    pts = derivative_points(rho, n_quad)
    vals = evaluate(pts)
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
    factor_residual_plus: float
    factor_residual_fast: float
    containment_minus: float


def gamma_transversality(sys: EvansSystem,
                         origin: EvansSample) -> GammaResult:
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
    if max(res2, res4) > FACTOR_TOL:
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
        factor_residual_plus=float(res2), factor_residual_fast=float(res4),
        containment_minus=contain)


@dataclass(frozen=True)
class EvansReport:
    radius: float
    rho: float
    D0: complex
    circle_max: float
    winding_circle: int
    winding_d_contour: int
    Dprime0_cauchy: complex
    Dprime0_fd: complex
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
        """Every field but gamma and samples, under its name; complex
        values stay complex (pipeline._py writes them [re, im])."""
        return {f.name: getattr(self, f.name)
                for f in fields(self) if f.name not in ("gamma", "samples")}


def evans_report(sys: EvansSystem, n_circle: int = N_CIRCLE) -> EvansReport:
    """Windings, derivative at the origin and the factorization check,
    on the circle |lam| = rho of half the disk radius."""
    r = sys.disk_radius
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
        Dprime0_cauchy=dc, Dprime0_fd=dfd, derivative_agreement=float(agree),
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
