"""Evans-function certification by compound-matrix integration.

Point spectrum inside the validated disk is examined through winding
numbers of the Evans determinant D.  The two decaying solutions at
+inf are carried as a 2-wedge integrated backward, the three decaying
solutions at -inf as a 3-wedge integrated forward, both shifted by the
sum of their limiting rates so the bundle of interest is neutral and
every contaminating bundle contracts.  D is the duality pairing of the
two wedges at the matching point x = 0, which equals the 5x5
determinant of any column representatives; per-segment positive
renormalization factors are returned to log scale and multiplied back,
so the computed value stays the analytic determinant.

Many lam are transported at once: the m wedges of a batch are the rows
of one (m, 10) state carried by `transport`: one DOP853 solve per
segment, with a norm and log scale per row.  The step
control then bounds the RMS error over the batch instead of each
wedge's own; the agreement test in tests/test_evans.py holds batched D
to one-lam-at-a-time D within 1e-10 relative on the production grid.
A run evaluates its first-round samples (origin, both contours, the
Cauchy and difference points) in one batch and each winding-refinement
round in one more.

Each right-hand-side call finds its cell of the uniform coefficient
grid in O(1) and evaluates the cell's cubic, a Hermite cell through the
jet values and slopes of A0, A1, A2 in A(x, lam) = A0 + lam A1 +
lam^2 A2.  It lifts those three matrices once (lifting is linear),
applies them to all m wedges and combines the products per lam.  The
starting eigenvectors of a batch are continued from lam = 0 in lockstep
(modes.analytic_eigenpairs).  Gamma reuses the wedges of the lam = 0
sample and transports only the fast pair at -inf.

Initial data at the cut ends come from the analytically continued
eigenvectors of the limit matrices, so D inherits analyticity in lam
and the winding counts are meaningful.  D(0) vanishes because the wave
derivative belongs to both bundles; D'(0) is recovered two ways (a
Cauchy integral on a small circle and central differences) and tested
against the product of the connection coefficient Gamma with the
planar shock determinant Delta.

Both Gamma and D'(0) depend on the chosen normalization of the basis
at the cut ends (rescaling one basis column rescales both sides of the
factorization together); only their consistency and nonvanishing are
meaningful, not their absolute scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .eigensystem import (
    background_wave,
    hermite_table,
    interior_coefficients,
    interior_matrix_coeffs,
    limit_matrix_coeffs,
    uniform_reader,
    wave_residual,
)
from .modes import analytic_eigenpairs, default_disk_radius, slow_expansion
from .params import PlasmaParams, ShockEndstates, liu_majda_delta
from .profile import ProfileGrid, default_half_length, solve_profile
from .wedge import (
    lift2,
    lift3,
    pairing,
    solve_wedge_factor,
    wedge2,
    wedge3,
    wedge_vector_3,
)

# branch columns of ModePath used for the decaying bundles
PLUS_PAIR = (0, 1)        # gamma1+, gamma2+ decay as x -> +inf
MINUS_TRIPLE = (0, 2, 4)  # gamma1-, gamma3-, slow branch decay as x -> -inf
MINUS_FAST = (0, 2)       # the two fast columns of the minus bundle
WORK_COUNTS = ("transports", "rhs_calls", "steps")


@dataclass(frozen=True)
class Contour:
    """Ordered sample points in the lam plane."""

    points: np.ndarray
    closed: bool
    tag: str


def circle_contour(radius: float, n: int = 32, center: complex = 0.0,
                   tag: str = "circle") -> Contour:
    th = 2.0 * np.pi * np.arange(n) / n
    return Contour(center + radius * np.exp(1j * th), True, tag)


def d_contour(rho: float, radius: float, n_arc: int = 24, n_inner: int = 16,
              n_seg: int = 10) -> Contour:
    """Boundary of {rho < |lam| < radius, Re lam > 0}, counterclockwise.

    The small arc detours into the open right half plane, so the origin
    stays outside the enclosed region.
    """
    if not 0.0 < rho < radius:
        raise ValueError("need 0 < rho < radius")
    outer = radius * np.exp(1j * np.linspace(-0.5 * np.pi, 0.5 * np.pi,
                                             n_arc + 1))
    down = 1j * np.linspace(radius, rho, n_seg + 2)[1:-1]
    inner = rho * np.exp(1j * np.linspace(0.5 * np.pi, -0.5 * np.pi,
                                          n_inner + 1))
    back = 1j * np.linspace(-rho, -radius, n_seg + 2)[1:-1]
    pts = np.concatenate([outer, down, inner, back])
    return Contour(pts, True, "d-contour")


@dataclass
class EvansSystem:
    """Profile, coefficient table and mode data bundled for evaluation."""

    params: PlasmaParams
    end: ShockEndstates
    X: float
    n: int
    table: np.ndarray            # hermite_table cells of A0, A1, A2
    W0_mid: np.ndarray           # wave-derivative state at x = 0
    b1_mid: float
    b2_mid: float
    disk_radius: float
    boundary_gap: float
    # relative defect of W0 in W0' = A(x, 0) W0 on the table (guarantee
    # 5); NaN, which fails the check, on a system not built from a grid
    closure_residual: float = float("nan")
    rtol: float = 1e-12
    atol: float = 1e-14
    nseg: int = 14
    path_points: int = 12
    # running totals of the wedge transports made with this system, per
    # wedge ("plus_w2", "minus_w3", "minus_w2"); see integrate_wedge
    work: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # coefficients(x): A0, A1, A2 at x as a (3, 5, 5) stack
        self.coefficients = uniform_reader(self.X, self.table, (3, 5, 5))

    def coefficient_matrix(self, x: float, lam) -> np.ndarray:
        """A(x, lam), shape (5, 5) or (m, 5, 5) for an array of m lam."""
        A0, A1, A2 = self.coefficients(x)
        lam = np.asarray(lam)[..., None, None]
        return A0 + lam * A1 + lam * lam * A2


def evans_grid(params: PlasmaParams, end: ShockEndstates,
               X: Optional[float] = None,
               n: Optional[int] = None) -> ProfileGrid:
    """Solve the profile on the domain Evans work needs.

    The default half-length gives 35 decay lengths of the slow rate;
    anything much shorter leaves a boundary gap that pollutes D(0), and
    the gap check of build_evans_system rejects it.
    """
    if X is None:
        X = default_half_length(params, end, efolds=35.0)
    if n is None:
        n = 2 * int(round(X / 0.025)) + 1  # grid step about 0.025
    return solve_profile(params, end, X=X, n=n)


def build_evans_system(grid: ProfileGrid, rtol: float = 1e-12,
                       atol: float = 1e-14,
                       gap_tol: float = 1e-8) -> EvansSystem:
    """Tabulate the closure coefficients on a solved profile grid.

    Raises RuntimeError when the coefficients at the cut ends miss their
    limits by more than gap_tol, i.e. when the domain is too short.
    """
    params, end = grid.params, grid.end
    X, n = grid.X, grid.n
    vj, pj, sj = grid.taylor_jets(3)
    tab = interior_coefficients(grid.x, vj, pj, sj, params, end)
    # A[0, i, k] is the coefficient of lam**k at node i, A[1] its slope
    A = np.stack([a.coef for a in interior_matrix_coeffs(tab)], axis=2)

    gap = 0.0
    for idx, side in ((0, "minus"), (-1, "plus")):
        L0, L1 = limit_matrix_coeffs(params, end, side)
        gap = max(gap,
                  np.max(np.abs(A[0, idx, 0] - L0)),
                  np.max(np.abs(A[0, idx, 1] - L1)),
                  np.max(np.abs(A[0, idx, 2])))
    if gap > gap_tol:
        raise RuntimeError(
            f"coefficients at the cut ends miss their limits by {gap:.3e}; "
            "the domain is too short for Evans work")

    W0, dW0 = background_wave(vj, pj, sj, params, end)
    mid = grid.n // 2
    return EvansSystem(
        params=params, end=end, X=X, n=n,
        table=hermite_table(grid.x, A[0].reshape(n, 75),
                            A[1].reshape(n, 75)),
        W0_mid=W0[mid].copy(), b1_mid=float(tab.b1.value[mid]),
        b2_mid=float(tab.b2.value[mid]),
        disk_radius=default_disk_radius(params, end),
        boundary_gap=float(gap),
        closure_residual=wave_residual(A[0, :, 0], W0, dW0), rtol=rtol,
        atol=atol, nseg=segment_count(X))


def _side_modes(sys: EvansSystem, side: str, lams: np.ndarray):
    """Continued eigenpairs at each lam: mu (m, 5) and V (m, 5, 5).

    The straight paths from 0 to every lam are continued in lockstep.
    """
    path = np.linspace(0.0, lams, sys.path_points)
    mp = analytic_eigenpairs(sys.params, sys.end, side, path)
    return mp.mu[-1], mp.V[-1]


def _lams_text(lams: np.ndarray) -> str:
    shown = ", ".join(f"{complex(z):.6g}" for z in lams[:6])
    more = f", ... ({lams.size} values)" if lams.size > 6 else ""
    return f"lam = [{shown}{more}]"


def wedge_rhs(sys: EvansSystem, which: str, lams: np.ndarray,
              shifts: np.ndarray):
    """Right-hand side y' = lift(A(x, lam)) y - shift y of m stacked wedges.

    The state is m wedges of length 10, one per lam and shift.  Since
    A(x, lam) = A0 + lam A1 + lam^2 A2 and lifting is linear, each call
    lifts the three coefficient matrices at x once, applies the lifts to
    all m wedges and combines the products per lam by Horner's rule.
    """
    lifter = lift2 if which == "w2" else lift3
    m = lams.size
    lam = lams[:, None]
    shift = shifts[:, None]

    def rhs(x, y):
        Y = y.reshape(m, -1)
        Z0, Z1, Z2 = Y @ lifter(sys.coefficients(x)).transpose(0, 2, 1)
        return (Z0 + lam * (Z1 + lam * Z2) - shift * Y).ravel()

    return rhs


def segment_count(X: float) -> int:
    """Renormalization segments of a transport over a half-line of length X."""
    return max(8, int(round(X / 20.0)))


def transport(rhs, y0, x_from: float, x_to: float, nseg: int, rtol: float,
              atol: float, work: dict, rows_text: Callable):
    """Carry the rows of y0 from x_from to x_to; returns (rows, log scales).

    The (m, k) rows travel as one DOP853 state under rhs(x, y) on nseg
    equal segments; at each segment end every row is divided by its norm,
    whose log goes to that row's scale.  The transport, its right-hand-side
    calls and its steps are added to work.  A failure names the segment
    and, through rows_text(indices), the rows concerned.

    Only the Evans wedges travel here; the lam-free transversality normals
    are carried by Magnus propagator products (transversality.propagator).
    """
    Y = np.asarray(y0)
    m = Y.shape[0]
    log_scale = np.zeros(m)
    xs = np.linspace(x_from, x_to, nseg + 1)
    work["transports"] += 1
    for a, b in zip(xs[:-1], xs[1:]):
        sol = solve_ivp(rhs, (a, b), Y.ravel(), method="DOP853",
                        rtol=rtol, atol=atol)
        work["rhs_calls"] += sol.nfev
        work["steps"] += sol.t.size - 1
        if not sol.success:
            raise RuntimeError(f"integration failed on [{a}, {b}] for "
                               f"{rows_text(np.arange(m))}: " + sol.message)
        Y = sol.y[:, -1].reshape(m, -1)
        norm = np.linalg.norm(Y, axis=1)
        bad = ~np.isfinite(norm) | (norm == 0.0)
        if bad.any():
            raise RuntimeError(
                f"renormalization broke down on [{a}, {b}] for "
                f"{rows_text(np.flatnonzero(bad))} (norms {norm[bad][:6]})")
        Y = Y / norm[:, None]
        log_scale += np.log(norm)
    return Y, log_scale


def integrate_wedge(sys: EvansSystem, lam, which: str, y0, shift,
                    x_from: float, x_to: float):
    """Propagate shifted wedges; returns (unit vectors, log scales).

    lam is a scalar or an array of m values, with y0 of shape (m, 10)
    and one shift per value; the m wedges are the rows of one transport.
    A scalar lam gives a (10,) vector and a float.  which selects the
    Lambda^2 or Lambda^3 lift.  The renormalization factors are real and
    positive, so multiplying them back preserves analyticity of anything
    built from the result.  The work goes to sys.work under the side the
    transport starts from and which, e.g. "plus_w2".
    """
    scalar = np.ndim(lam) == 0
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    m = lams.size
    rhs = wedge_rhs(sys, which, lams,
                    np.broadcast_to(np.asarray(shift, dtype=complex), (m,)))
    work = sys.work.setdefault(
        f"{'plus' if x_from > x_to else 'minus'}_{which}",
        dict.fromkeys(WORK_COUNTS, 0))
    Y, log_scale = transport(
        rhs, np.asarray(y0, dtype=complex).reshape(m, -1), x_from, x_to,
        sys.nseg, sys.rtol, sys.atol, work, lambda k: _lams_text(lams[k]))
    if scalar:
        return Y[0], float(log_scale[0])
    return Y, log_scale


def decaying_bases(sys: EvansSystem, lam):
    """Both decaying bundles transported to x = 0.

    Returns (w2, log2, w3, log3): the unit 2-wedges of solutions
    decaying at +inf, the unit 3-wedges decaying at -inf, and their log
    scales; one batched transport per side for an array of lam.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    mu_p, V_p = _side_modes(sys, "plus", lams)
    i, j = PLUS_PAIR
    w2_init = wedge2(V_p[:, :, i], V_p[:, :, j])
    w2, log2 = integrate_wedge(sys, lams, "w2", w2_init,
                               mu_p[:, i] + mu_p[:, j], sys.X, 0.0)

    mu_m, V_m = _side_modes(sys, "minus", lams)
    i, j, k = MINUS_TRIPLE
    w3_init = wedge3(V_m[:, :, i], V_m[:, :, j], V_m[:, :, k])
    w3, log3 = integrate_wedge(sys, lams, "w3", w3_init,
                               mu_m[:, i] + mu_m[:, j] + mu_m[:, k],
                               -sys.X, 0.0)
    if np.ndim(lam) == 0:
        return w2[0], float(log2[0]), w3[0], float(log3[0])
    return w2, log2, w3, log3


@dataclass(frozen=True)
class EvansSample:
    """D at lam, with the decaying bases it pairs (see decaying_bases)."""

    lam: complex
    D: complex
    log_scale: float
    w2: np.ndarray = field(repr=False, compare=False)
    log2: float = field(repr=False, compare=False)
    w3: np.ndarray = field(repr=False, compare=False)
    log3: float = field(repr=False, compare=False)


def evans_value(sys: EvansSystem, lam):
    """D at a scalar lam, or a list of samples for an array of lam."""
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    w2, log2, w3, log3 = decaying_bases(sys, lams)
    scale = log2 + log3
    D = pairing(w2, w3) * np.exp(scale)
    samples = [EvansSample(complex(z), complex(d), float(s),
                           w2[k], float(log2[k]), w3[k], float(log3[k]))
               for k, (z, d, s) in enumerate(zip(lams, D, scale))]
    return samples[0] if np.ndim(lam) == 0 else samples


def make_evaluator(sys: EvansSystem):
    """Caching D evaluator; returns (function, sample store).

    The function takes a scalar or an array of lam; the points not yet
    in the store are evaluated together in one batched transport.
    """
    store: dict[complex, EvansSample] = {}

    def evaluate(lam):
        lams = np.asarray(lam, dtype=complex)
        keys = [complex(z) for z in lams.ravel()]
        new = [z for z in dict.fromkeys(keys) if z not in store]
        if new:
            for sample in evans_value(sys, np.array(new)):
                store[sample.lam] = sample
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
    """The n_quad Cauchy nodes on |lam| = rho, then 2h, h, -h, -2h."""
    h = rho / 10.0
    nodes = rho * np.exp(2j * np.pi * np.arange(n_quad) / n_quad)
    return np.concatenate([nodes, [2 * h, h, -h, -2 * h]])


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
    its bundles are reused, and only the fast pair at -inf is
    transported here.

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

    mu_m, V_m = _side_modes(sys, "minus", np.zeros(1))
    w2, log2, w3 = origin.w2, origin.log2, origin.w3
    i, j = MINUS_FAST
    wf_init = wedge2(V_m[0, :, i], V_m[0, :, j])
    wf, logf = integrate_wedge(sys, 0.0, "w2", wf_init,
                               mu_m[0, i] + mu_m[0, j], -sys.X, 0.0)

    W0 = sys.W0_mid
    phi2, res2 = solve_wedge_factor(W0, w2 * np.exp(log2))
    phi4, res4 = solve_wedge_factor(W0, wf * np.exp(logf))
    if max(res2, res4) > factor_tol:
        raise RuntimeError(
            "wave derivative is not contained in the transported planes "
            f"(residuals {res2:.3e}, {res4:.3e}); the fast bundle may be "
            "rank deficient or the domain too short")
    contain = float(np.linalg.norm(wedge_vector_3(W0, w3))
                    / (np.linalg.norm(W0) * np.linalg.norm(w3)))

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

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "rho": self.rho,
            "D0": [self.D0.real, self.D0.imag],
            "circle_max": self.circle_max,
            "winding_circle": self.winding_circle,
            "winding_d_contour": self.winding_d_contour,
            "Dprime0_cauchy": [self.Dprime_cauchy.real, self.Dprime_cauchy.imag],
            "Dprime0_fd": [self.Dprime_fd.real, self.Dprime_fd.imag],
            "derivative_agreement": self.derivative_agreement,
            "Gamma": self.Gamma,
            "Delta": self.Delta,
            "factorization_residual": self.factorization_residual,
            "sign_match": self.sign_match,
            "work": self.work,
        }


def evans_report(sys: EvansSystem, rho: Optional[float] = None,
                 n_circle: int = 32) -> EvansReport:
    """Windings, derivative at the origin and the factorization check."""
    r = sys.disk_radius
    if rho is None:
        rho = 0.5 * r
    evaluate, store = make_evaluator(sys)
    work0 = {key: dict(counts) for key, counts in sys.work.items()}

    circle = circle_contour(rho, n_circle)
    dcont = d_contour(rho, r)
    # every first-round point in one batched transport per side
    evaluate(np.concatenate([[0.0], circle.points, dcont.points,
                             derivative_points(rho, n_circle)]))
    D0 = evaluate(0.0)
    w_circle, _, circle_vals = winding_number(evaluate, circle)
    w_d, _, _ = winding_number(evaluate, dcont)
    dc, dfd = evans_derivative_origin(evaluate, rho, n_quad=n_circle)
    agree = abs(dc - dfd) / max(abs(dc), abs(dfd))

    gam = gamma_transversality(sys, store[0j])
    delta = liu_majda_delta(sys.params, sys.end)
    prod = gam.Gamma * delta
    fac_res = abs(dc - prod) / abs(prod)
    sign_match = bool(dc.real * prod > 0.0)

    samples = tuple(store[k] for k in sorted(store, key=lambda z: (z.real,
                                                                   z.imag)))
    by_wedge = {key: {k: n - work0.get(key, {}).get(k, 0)
                      for k, n in counts.items()}
                for key, counts in sys.work.items()}
    work = {k: sum(c[k] for c in by_wedge.values()) for k in WORK_COUNTS}
    work["samples"] = len(store)
    work["by_wedge"] = by_wedge
    return EvansReport(
        radius=r, rho=rho, D0=D0,
        circle_max=float(np.max(np.abs(circle_vals))),
        winding_circle=w_circle, winding_d_contour=w_d,
        Dprime_cauchy=dc, Dprime_fd=dfd, derivative_agreement=float(agree),
        Gamma=gam.Gamma, Delta=delta,
        factorization_residual=float(fac_res), sign_match=sign_match,
        gamma=gam, samples=samples, work=work)


def write_evans_csv(samples, path) -> None:
    with open(path, "w") as f:
        f.write("re_lambda,im_lambda,re_D,im_D,log_scale\n")
        for s in samples:
            f.write(f"{s.lam.real:.16e},{s.lam.imag:.16e},"
                    f"{s.D.real:.16e},{s.D.imag:.16e},{s.log_scale:.16e}\n")
