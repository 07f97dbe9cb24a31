"""Far-field mode structure of the linearized system.

Three "fast" spatial rates of the frozen matrix at lam=0 are the roots
of a cubic; two "slow" rates vanish linearly in lam with scalar
convection-diffusion expansions mu = lam/a - lam^2 b/a^3 + O(lam^3).
This module labels the fast rates, packages the slow data, and labels
all five eigenpairs of A0 + lam A1 by nearest prediction from lam = 0,
where the fast eigenvectors are the kernels of A0 - gamma I:
the slopes at 0 come from first-order perturbation theory, and on the
lam-disk one step labels every lam (the matrix is nonnormal, so
branches are matched to predictions rather than sorted).  A step whose
labels are ambiguous raises instead of being refined.

Eigenvector normalization: the component of largest modulus of each
base eigenvector at lam=0 is pinned to its base value at every lam.
That fixes the analytic section uniquely, and it is the same
normalization the Evans-function initializations rely on, so wedge
initializations built here and at lam=0 are mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensystem import limit_matrix_coeffs
from .params import PlasmaParams, ShockEndstates


def cubic_coefficients(params: PlasmaParams, end: ShockEndstates, side: str):
    """Monic cubic for the fast rates: g^3 + b g^2 + c g + d = 0."""
    v = params.side_v(side)
    T, nu, eps2, s = params.T, params.nu, params.eps**2, end.s
    b = (s * s * v * v - T) / (s * nu * v)
    c = -v / eps2
    d = (T + 1.0 - s * s * v * v) / (s * nu * eps2)
    return b, c, d


@dataclass(frozen=True)
class FastRoots:
    """Labeled fast rates.

    gamma1 is the near-zero root (the profile's decay rate at this
    side); gamma2 < 0 < gamma3 are the genuinely fast pair.  Their
    eigenvectors are computed only where the continuation needs them
    (_base_state).
    """

    gamma1: float
    gamma2: float
    gamma3: float


def _null_vector(M: np.ndarray) -> np.ndarray:
    _, _, vh = np.linalg.svd(M)
    vec = vh[-1]
    pivot = np.argmax(np.abs(vec))
    return vec / vec[pivot]


# fast roots within ROOT_GAP_TOL max(1, |roots|) of each other are rejected
ROOT_GAP_TOL = 1e-8


def fast_roots(params: PlasmaParams, end: ShockEndstates,
               side: str) -> FastRoots:
    b, c, d = cubic_coefficients(params, end, side)
    roots = np.roots([1.0, b, c, d])
    if np.max(np.abs(roots.imag)) > 1e-10 * max(1.0, np.max(np.abs(roots))):
        raise ValueError("fast rates are not real; outside the admissible regime")
    roots = roots.real

    gaps = [abs(roots[i] - roots[j]) for i in range(3) for j in range(i)]
    if min(gaps) < ROOT_GAP_TOL * max(1.0, np.max(np.abs(roots))):
        raise ValueError("near-coincident fast rates; amplitude too large "
                         "for the small-amplitude regime")

    order = np.argsort(np.abs(roots))
    g1 = roots[order[0]]
    pair = roots[order[1:]]
    if not (pair.min() < 0.0 < pair.max()):
        raise ValueError("fast pair does not straddle zero; outside regime")
    return FastRoots(g1, pair.min(), pair.max())


@dataclass(frozen=True)
class SlowData:
    """Hyperbolic characteristic data entering the slow-mode expansions."""

    a1: float
    a2: float
    beta1: float
    beta2: float
    rtilde: np.ndarray  # rows rtilde1, rtilde2 (embedded 5-vectors)


def slow_expansion(params: PlasmaParams, end: ShockEndstates, side: str) -> SlowData:
    v = params.side_v(side)
    s = end.s
    c = params.sound_speed(v)
    isq = 1.0 / np.sqrt(2.0)
    a1, a2 = s - c, s + c
    beta = params.nu / (2.0 * v)
    rt = np.zeros((2, 5))
    rt[:, :2] = [[isq, -isq * c], [isq, isq * c]]  # right 2-vectors r1, r2
    rt[:, 3] = -isq / v
    return SlowData(a1, a2, beta, beta, rt)


@dataclass
class ModePath:
    """Eigenpairs labelled along a lam path.

    mu[k, j] and V[k, :, j] belong to branch j: columns 0..2 are the fast
    branches (gamma1..3 at lam=0), columns 3..4 the slow branches
    paired with a1, a2.  For m paths in lockstep, lam has shape (P, m)
    and mu, V carry the path index i after the step: mu[k, i, j].
    """

    lam: np.ndarray
    mu: np.ndarray
    V: np.ndarray


def _base_state(params, end, side, A0):
    """(mu0, V0, pins, targets) at lam = 0: the fast columns of V0 are
    null vectors of A0 - gammaj, the slow ones the rtilde rows, and
    targets holds each column's largest entry, at row pins."""
    fr = fast_roots(params, end, side)
    gammas = (fr.gamma1, fr.gamma2, fr.gamma3)
    slow = slow_expansion(params, end, side)
    mu0 = np.array([*gammas, 0.0, 0.0], dtype=complex)
    V0 = np.zeros((5, 5), dtype=complex)
    V0[:, :3] = np.column_stack([_null_vector(A0 - g * np.eye(5))
                                 for g in gammas])
    V0[:, 3] = slow.rtilde[0]
    V0[:, 4] = slow.rtilde[1]
    pins = np.argmax(np.abs(V0), axis=0)
    targets = V0[pins, np.arange(5)]
    return mu0, V0, pins, targets


def lams_text(lams: np.ndarray) -> str:
    """Up to six lam of an array, for error messages."""
    shown = ", ".join(f"{complex(z):.6g}" for z in lams[:6])
    more = f", ... ({lams.size} values)" if lams.size > 6 else ""
    return f"lam = [{shown}{more}]"


def _eig_step(A0c, A1c, lam, pred, pins, targets):
    """Eigen-decompose at k values of lam and match branches to predictions.

    lam has shape (k,) and pred (k, 5); one stacked eig serves all k.
    Each eigenvalue takes the branch of its nearest prediction.  Returns
    (mu, V, ok) of shapes (k, 5), (k, 5, 5) and (k,): ok is False where
    the labeling is too thin to trust, i.e. where the nearest
    predictions do not form a permutation, some eigenvalue is not much
    closer to its own prediction than to any competing one, or an
    eigenvector vanishes at its pinned component.  Wherever ok holds
    the labels are the unique minimum-cost assignment.
    """
    w, vec = np.linalg.eig(A0c + lam[:, None, None] * A1c)
    cost = np.abs(w[:, :, None] - pred[:, None, :])   # (k, eigenvalue, branch)
    k = np.arange(lam.size)[:, None]
    rows = np.arange(5)
    label = np.argmin(cost, axis=2)                   # branch of each eigenvalue
    matched = cost[k, rows, label]
    rivals = cost.copy()
    rivals[k, rows, label] = np.inf
    nearest_rival = np.minimum(rivals.min(axis=2),
                               rivals.min(axis=1)[k, label])
    ok = (np.all(np.sort(label, axis=1) == rows, axis=1)
          & np.all(matched <= 0.4 * nearest_rival, axis=1))

    # eigenvalue p of column i goes to branch label[i, p]
    mu = np.zeros_like(w)
    mu[k, label] = w
    V = np.zeros_like(vec)
    V[k, :, label] = np.swapaxes(vec, 1, 2)
    piv = V[k, pins, rows]
    usable = np.abs(piv) >= 1e-12
    ok &= np.all(usable, axis=1)
    V *= (targets / np.where(usable, piv, 1.0))[:, None, :]
    return mu, V, ok


def analytic_eigenpairs(params: PlasmaParams, end: ShockEndstates, side: str,
                        lam_path) -> ModePath:
    """Label the five eigenpairs along lam_path, one step per path point.

    lam_path must start at 0, the base point.  There the slopes
    d(mu)/d(lam) are diag(V0^-1 A1 V0) (first-order perturbation theory,
    Kato II.2), which for the slow branches are 1/a_j; afterwards each
    step predicts with the secant of the last one.  A path of shape
    (P, m) holds m paths stepped in lockstep, one stacked
    eigen-decomposition for all m per step, and each path gets the
    eigenpairs it would get on its own.  The two-point path [0, lam]
    labels every lam of the disk in one step.  A step whose labels fail
    _eig_step's checks raises RuntimeError naming the side and its lam.
    """
    lam_path = np.asarray(lam_path, dtype=complex)
    if lam_path.shape[0] == 0 or np.any(lam_path[0] != 0):
        raise ValueError("path must start at lam = 0")
    paths = lam_path.reshape(lam_path.shape[0], -1)

    A0c, A1c = limit_matrix_coeffs(params, end, side)
    mu0, V0, pins, targets = _base_state(params, end, side, A0c)
    slope = np.tile(np.diag(np.linalg.solve(V0, A1c @ V0)),
                    (paths.shape[1], 1))

    mu = np.empty(paths.shape + (5,), dtype=complex)
    V = np.empty(paths.shape + (5, 5), dtype=complex)
    mu[0], V[0] = mu0, V0
    for k in range(1, paths.shape[0]):
        lam0, lam1 = paths[k - 1], paths[k]
        mu[k], V[k] = mu[k - 1], V[k - 1]
        moving = np.flatnonzero(lam1 != lam0)
        if moving.size == 0:
            continue
        dlam = (lam1 - lam0)[moving, None]
        mu1, V1, ok = _eig_step(A0c, A1c, lam1[moving],
                                mu[k - 1, moving] + slope[moving] * dlam,
                                pins, targets)
        if not ok.all():
            raise RuntimeError(
                f"far-field modes, {side} side: the eigenvalue branches "
                f"cannot be labelled at {lams_text(lam1[moving[~ok]])}")
        mu[k, moving], V[k, moving] = mu1, V1
        slope[moving] = (mu1 - mu[k - 1, moving]) / dlam
    shape = lam_path.shape
    return ModePath(lam=lam_path, mu=mu.reshape(shape + (5,)),
                    V=V.reshape(shape + (5, 5)))


def _branch_gap(A0c, A1c, lams: np.ndarray) -> float:
    """Smallest distance between two eigenvalues of A0c + lam A1c."""
    w = np.linalg.eigvals(A0c + lams[:, None, None] * A1c)
    d = np.abs(w[:, :, None] - w[:, None, :])
    d[:, np.arange(5), np.arange(5)] = np.inf
    return float(d.min())


def default_disk_radius(params: PlasmaParams, end: ShockEndstates) -> float:
    """Radius of the lam-disk on which all five branches stay separated.

    Candidate: half the smallest branch-point scale a_j^2/(4 beta_j) of
    the slow expansions over both sides; validated by sampling the
    eigenvalue gaps at 48 points of the circle and shrinking by 0.7 (at
    most 30 times) until the slow pair stays resolved.
    """
    folds = []
    spread = []
    for side in ("plus", "minus"):
        sl = slow_expansion(params, end, side)
        folds.append(sl.a1**2 / (4.0 * sl.beta1))
        folds.append(sl.a2**2 / (4.0 * sl.beta2))
        spread.append(abs(1.0 / sl.a1 - 1.0 / sl.a2))
    r = 0.5 * min(abs(f) for f in folds)
    gap_scale = min(spread)

    circle = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False))
    coeffs = [limit_matrix_coeffs(params, end, side)
              for side in ("plus", "minus")]
    for _ in range(30):
        if min(_branch_gap(A0c, A1c, r * circle)
               for A0c, A1c in coeffs) >= 0.1 * r * gap_scale:
            return r
        r *= 0.7
    raise RuntimeError("could not validate a separation radius")
