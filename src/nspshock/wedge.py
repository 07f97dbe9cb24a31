"""Exterior-algebra kit for compound-matrix integration in dimension 5.

Decaying solution bundles are propagated as wedges: a 2-plane lives in
Lambda^2 C^5 and a 3-plane in Lambda^3 C^5, both 10-dimensional, with
basis index sets in lexicographic order.  A matrix A acts on wedges as
a derivation; that action is linear in A, so the lifts are precomputed
as constant 100x25 maps applied to vec(A), which keeps them usable on
stacked coefficient tables.

The duality pairing Lambda^2 x Lambda^3 -> Lambda^5 = C recovers the
5x5 determinant of any column representatives, and the partial wedges
a ^ w recover containment tests and column factors via least squares.
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
    d = len(combs)
    L = np.zeros((d * d, DIM * DIM))
    for q, cq in enumerate(combs):
        for m in range(len(cq)):
            for r in range(DIM):
                target = list(cq)
                target[m] = r
                sign, key = _sort_sign(target)
                if sign == 0:
                    continue
                p = index[key]
                L[p * d + q, r * DIM + cq[m]] += sign
    return L


_LIFT2 = _build_lift(PAIRS, _PAIR_INDEX)
_LIFT3 = _build_lift(TRIPLES, _TRIPLE_INDEX)


def lift2(A: np.ndarray) -> np.ndarray:
    """Derivation action of A on Lambda^2; batched over leading axes."""
    lead = A.shape[:-2]
    flat = A.reshape(lead + (DIM * DIM,))
    return (flat @ _LIFT2.T).reshape(lead + (len(PAIRS), len(PAIRS)))


def lift3(A: np.ndarray) -> np.ndarray:
    lead = A.shape[:-2]
    flat = A.reshape(lead + (DIM * DIM,))
    return (flat @ _LIFT3.T).reshape(lead + (len(TRIPLES), len(TRIPLES)))


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


def _build_pair_duality():
    signs = np.zeros(len(PAIRS))
    comp = np.zeros(len(PAIRS), dtype=int)
    for q, cq in enumerate(PAIRS):
        rest = tuple(i for i in range(DIM) if i not in cq)
        sign, _ = _sort_sign(cq + rest)
        signs[q] = sign
        comp[q] = _TRIPLE_INDEX[rest]
    return signs, comp


_PAIR_SIGN, _PAIR_COMP = _build_pair_duality()


def pairing(w2, w3):
    """Duality pairing; equals det of the five spanning columns."""
    w2, w3 = np.asarray(w2), np.asarray(w3)
    return np.sum(_PAIR_SIGN * w2 * w3[..., _PAIR_COMP], axis=-1)


def _build_vee(src_combs, src_index, dst_combs, dst_index):
    T = np.zeros((len(dst_combs), DIM, len(src_combs)))
    for q, cq in enumerate(src_combs):
        for i in range(DIM):
            sign, key = _sort_sign((i,) + cq)
            if sign == 0:
                continue
            T[dst_index[key], i, q] += sign
    return T


# Lambda^4 basis indexed by the omitted coordinate, in increasing order
_QUADS = tuple(itertools.combinations(range(DIM), 4))
_QUAD_INDEX = {c: k for k, c in enumerate(_QUADS)}
_VEE34 = _build_vee(TRIPLES, _TRIPLE_INDEX, _QUADS, _QUAD_INDEX)


def wedge_vector_3(a, w3):
    """a ^ w3 in Lambda^4 coordinates; zero iff a lies in the 3-plane."""
    return np.einsum("piq,...i,...q->...p", _VEE34, np.asarray(a), np.asarray(w3))


def wedge2_with(a) -> np.ndarray:
    """Matrix of y -> a ^ y, shape (10, 5)."""
    a = np.asarray(a)
    M = np.zeros((len(PAIRS), DIM), dtype=a.dtype)
    for j in range(DIM):
        e = np.zeros(DIM, dtype=a.dtype)
        e[j] = 1.0
        M[:, j] = wedge2(a, e)
    return M


def solve_wedge_factor(a, w2):
    """Least-squares y with a ^ y = w2 (defined modulo a).

    Returns (y, rel_residual); the residual doubles as the containment
    check of a in the plane of w2.
    """
    M = wedge2_with(np.asarray(a, dtype=complex))
    w = np.asarray(w2, dtype=complex)
    y, *_ = np.linalg.lstsq(M, w, rcond=None)
    rel = np.linalg.norm(M @ y - w) / np.linalg.norm(w)
    return y, float(rel)
