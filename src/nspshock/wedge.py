"""Exterior-algebra kit for compound-matrix integration in dimension 5.

Decaying bundles are propagated in Lambda^2 C^5 (basis pairs in
lexicographic order): a 2-plane as its 2-wedge, a 3-plane as the Hodge
dual hodge(w3) of its 3-wedge, so that w2 . hodge(w3) is the 5x5
determinant of any column representatives.  A acts on 2-wedges as the
derivation lift2(A), a constant map applied to vec(A) (lifting is
linear), and on duals as hodge lift3(A) hodge^-1 = tr(A) I - lift2(A)^T,
the lift2 of dual_matrix(A) = tr(A)/2 I - A^T.  lift3 and wedge3 work
in Lambda^3 itself.  Partial wedges give containment tests and column
factors via least squares.
"""

from __future__ import annotations

import itertools

import numpy as np

DIM = 5
PAIRS = tuple(itertools.combinations(range(DIM), 2))
TRIPLES = tuple(itertools.combinations(range(DIM), 3))
_PAIR_INDEX = {c: k for k, c in enumerate(PAIRS)}
_TRIPLE_INDEX = {c: k for k, c in enumerate(TRIPLES)}


def _sort_sign(seq):
    """Sign of the permutation sorting seq, or 0 on a repeated index."""
    seq = list(seq)
    if len(set(seq)) < len(seq):
        return 0, tuple(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign, tuple(sorted(seq))


def _build_lift(combs, index):
    """The map vec(A) -> vec(lift(A)) as a right factor, (25, d * d)."""
    d = len(combs)
    L = np.zeros((DIM * DIM, d * d))
    for q, cq in enumerate(combs):
        for m in range(len(cq)):
            for r in range(DIM):
                target = list(cq)
                target[m] = r
                sign, key = _sort_sign(target)
                if sign == 0:
                    continue
                p = index[key]
                L[r * DIM + cq[m], p * d + q] += sign
    return L


_LIFT2 = _build_lift(PAIRS, _PAIR_INDEX)
_LIFT3 = _build_lift(TRIPLES, _TRIPLE_INDEX)


def lift2(A: np.ndarray) -> np.ndarray:
    """Derivation action of A on Lambda^2; batched over leading axes."""
    lead = A.shape[:-2]
    flat = A.reshape(lead + (DIM * DIM,))
    return (flat @ _LIFT2).reshape(lead + (len(PAIRS), len(PAIRS)))


def lift3(A: np.ndarray) -> np.ndarray:
    """Derivation action of A on Lambda^3, the reference for dual_matrix."""
    lead = A.shape[:-2]
    flat = A.reshape(lead + (DIM * DIM,))
    return (flat @ _LIFT3).reshape(lead + (len(TRIPLES), len(TRIPLES)))


_I2 = np.array([c[0] for c in PAIRS])
_J2 = np.array([c[1] for c in PAIRS])
_I3 = np.array([c[0] for c in TRIPLES])
_J3 = np.array([c[1] for c in TRIPLES])
_K3 = np.array([c[2] for c in TRIPLES])


def wedge2(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a[..., _I2] * b[..., _J2] - a[..., _J2] * b[..., _I2]


def wedge3(a, b, c):
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    return (a[..., _I3] * (b[..., _J3] * c[..., _K3] - b[..., _K3] * c[..., _J3])
            - a[..., _J3] * (b[..., _I3] * c[..., _K3] - b[..., _K3] * c[..., _I3])
            + a[..., _K3] * (b[..., _I3] * c[..., _J3] - b[..., _J3] * c[..., _I3]))


# hodge pairs each pair with its complementary triple, signed by the
# permutation (pair, triple) of 0..4
_COMPLEMENTS = [tuple(i for i in range(DIM) if i not in c) for c in PAIRS]
_PAIR_COMP = np.array([_TRIPLE_INDEX[t] for t in _COMPLEMENTS])
_PAIR_SIGN = np.array([float(_sort_sign(c + t)[0])
                       for c, t in zip(PAIRS, _COMPLEMENTS)])


def hodge(w3):
    """Hodge dual of 3-wedges in Lambda^2: w2 . hodge(w3) is the det of
    the five spanning columns."""
    return _PAIR_SIGN * np.asarray(w3)[..., _PAIR_COMP]


def dual_matrix(A):
    """tr(A)/2 I - A^T, batched; its lift2, tr(A) I - lift2(A)^T, is
    hodge lift3(A) hodge^-1, the action of A on duals of 3-wedges."""
    tr = np.trace(A, axis1=-2, axis2=-1)[..., None, None]
    return 0.5 * tr * np.eye(DIM) - np.swapaxes(A, -1, -2)


def skew(w2) -> np.ndarray:
    """Antisymmetric W with W[i, j] = w2_ij, i < j; |skew(hodge(w3)) a| =
    |a ^ w3|, zero iff a lies in the 3-plane."""
    w2 = np.asarray(w2)
    W = np.zeros(w2.shape[:-1] + (DIM, DIM), dtype=w2.dtype)
    W[..., _I2, _J2] = w2
    W[..., _J2, _I2] = -w2
    return W


def solve_wedge_factor(a, w2):
    """Least-squares y with a ^ y = w2 (defined modulo a).

    Returns (y, rel_residual); the residual doubles as the containment
    check of a in the plane of w2.
    """
    # column j is a ^ e_j
    M = wedge2(np.asarray(a, dtype=complex), np.eye(DIM, dtype=complex)).T
    w = np.asarray(w2, dtype=complex)
    y, *_ = np.linalg.lstsq(M, w, rcond=None)
    rel = np.linalg.norm(M @ y - w) / np.linalg.norm(w)
    return y, float(rel)
