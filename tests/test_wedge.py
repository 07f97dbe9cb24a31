import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nspshock.wedge import (
    DIM,
    PAIRS,
    TRIPLES,
    dual_matrix,
    hodge,
    interior,
    lift2,
    lift3,
    skew,
    solve_wedge_factor,
    wedge2,
    wedge3,
)


def wedge_vector_2(a, w2):
    """a ^ w2 in Lambda^3 coordinates, from the definition
    (a ^ w)_ijk = a_i w_jk - a_j w_ik + a_k w_ij; zero iff a lies in the
    2-plane."""
    w = {pair: w2[n] for n, pair in enumerate(PAIRS)}
    return np.array([a[i] * w[j, k] - a[j] * w[i, k] + a[k] * w[i, j]
                     for i, j, k in TRIPLES])


def wedge_vector_3(a, w3):
    """a ^ w3 in Lambda^4 coordinates, from the definition
    (a ^ w)_ijkl = a_i w_jkl - a_j w_ikl + a_k w_ijl - a_l w_ijk; zero iff
    a lies in the 3-plane."""
    w = {triple: w3[n] for n, triple in enumerate(TRIPLES)}
    return np.array([a[i] * w[j, k, l] - a[j] * w[i, k, l]
                     + a[k] * w[i, j, l] - a[l] * w[i, j, k]
                     for i, j, k, l in itertools.combinations(range(DIM), 4)])


def pairing(w2, w3):
    """w2 ^ w3 in Lambda^5 = C, through the Hodge dual of w3."""
    return np.sum(w2 * hodge(w3), axis=-1)


@pytest.fixture()
def vecs(rng):
    return rng.standard_normal((6, DIM)) + 1j * rng.standard_normal((6, DIM))


@pytest.fixture()
def mat(rng):
    return rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))


def test_basis_enumeration_is_lexicographic():
    assert PAIRS[0] == (0, 1) and PAIRS[-1] == (3, 4)
    assert TRIPLES[0] == (0, 1, 2) and TRIPLES[-1] == (2, 3, 4)
    assert len(PAIRS) == len(TRIPLES) == 10


def test_wedge_alternating(vecs):
    a, b, c = vecs[:3]
    assert np.allclose(wedge2(a, b), -wedge2(b, a))
    assert np.allclose(wedge2(a, a), 0.0)
    assert np.allclose(wedge3(a, b, c), -wedge3(b, a, c))
    assert np.allclose(wedge3(a, b, c), wedge3(b, c, a))
    assert np.allclose(wedge3(a, a, c), 0.0)


def test_pairing_is_five_by_five_determinant(vecs):
    a, b, c, d, e = vecs[:5]
    det = np.linalg.det(np.stack([a, b, c, d, e], axis=1))
    val = pairing(wedge2(a, b), wedge3(c, d, e))
    assert abs(val - det) < 1e-12 * max(1.0, abs(det))


def test_lifts_are_derivations(mat, vecs):
    a, b, c = vecs[:3]
    lhs2 = lift2(mat) @ wedge2(a, b)
    rhs2 = wedge2(mat @ a, b) + wedge2(a, mat @ b)
    assert np.allclose(lhs2, rhs2, atol=1e-12)
    lhs3 = lift3(mat) @ wedge3(a, b, c)
    rhs3 = (wedge3(mat @ a, b, c) + wedge3(a, mat @ b, c)
            + wedge3(a, b, mat @ c))
    assert np.allclose(lhs3, rhs3, atol=1e-12)


def test_lift_eigenvalues_are_sums(rng):
    # diagonalizable matrix with known eigenpairs
    mu = np.array([0.3, -1.2, 0.7, 2.1, -0.4]) + 0.1j * np.arange(5)
    V = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    A = V @ np.diag(mu) @ np.linalg.inv(V)
    w = wedge2(V[:, 0], V[:, 3])
    assert np.allclose(lift2(A) @ w, (mu[0] + mu[3]) * w, atol=1e-10)
    u = wedge3(V[:, 1], V[:, 2], V[:, 4])
    assert np.allclose(lift3(A) @ u, (mu[1] + mu[2] + mu[4]) * u, atol=1e-10)


def test_lift_traces(mat):
    assert np.isclose(np.trace(lift2(mat)), 4.0 * np.trace(mat))
    assert np.isclose(np.trace(lift3(mat)), 6.0 * np.trace(mat))


def test_lift_batching_matches_loop(rng):
    A = rng.standard_normal((7, DIM, DIM))
    batched = lift2(A)
    for k in range(7):
        assert np.allclose(batched[k], lift2(A[k]))


def test_pairing_flow_identity(mat, vecs):
    # d/dx of the pairing under the lifted flows reproduces tr(A) times
    # the pairing, matching the derivative of a determinant
    a, b, c, d, e = vecs[:5]
    w2, w3 = wedge2(a, b), wedge3(c, d, e)
    lhs = pairing(lift2(mat) @ w2, w3) + pairing(w2, lift3(mat) @ w3)
    rhs = np.trace(mat) * pairing(w2, w3)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_dual_matrix_lifts_to_lift3_through_hodge(rng):
    # hodge is a signed permutation H with H lift3(A) H^-1 = tr(A) I -
    # lift2(A)^T = lift2(tr(A)/2 I - A^T), so a 3-wedge can be carried as
    # its dual in Lambda^2 by lift2 alone
    H = hodge(np.eye(10)).T
    assert np.array_equal(np.abs(H).sum(axis=0), np.ones(10))
    assert np.array_equal(H @ H.T, np.eye(10))
    A = (rng.standard_normal((4, DIM, DIM))
         + 1j * rng.standard_normal((4, DIM, DIM)))
    batched = lift2(dual_matrix(A))
    for a, got in zip(A, batched):
        ref = np.trace(a) * np.eye(10) - lift2(a).T
        assert np.max(np.abs(H @ lift3(a) @ H.T - ref)) <= 1e-13
        assert np.max(np.abs(got - ref)) <= 1e-13
        assert np.array_equal(lift2(a).T, lift2(a.T))


def test_skew_of_the_dual_detects_containment(vecs):
    # |skew(hodge(w3)) a| = |a ^ w3|, in the 3-plane and off it
    a, b, c, d = vecs[:4]
    w3 = wedge3(a, b, c)
    Z = skew(hodge(w3))
    assert np.array_equal(Z, -Z.T)
    for v in (d, 1.1 * a - 0.2 * b + 3.0 * c):
        got = np.linalg.norm(Z @ v)
        ref = np.linalg.norm(wedge_vector_3(v, w3))
        assert abs(got - ref) <= 1e-13 * np.linalg.norm(v) * np.linalg.norm(w3)
    assert (np.linalg.norm(Z @ d)
            > 1e-3 * np.linalg.norm(d) * np.linalg.norm(w3))


def test_partial_wedges_detect_containment(vecs):
    a, b, c = vecs[:3]
    w2 = wedge2(a, b)
    w3 = wedge3(a, b, c)
    assert np.linalg.norm(wedge_vector_2(0.7 * a - 2.0 * b, w2)) < 1e-12
    assert np.linalg.norm(wedge_vector_2(c, w2)) > 1e-3
    inside = 1.1 * a - 0.2 * b + 3.0 * c
    assert np.linalg.norm(wedge_vector_3(inside, w3)) < 1e-11
    assert np.allclose(wedge_vector_2(a, wedge2(b, c)), wedge3(a, b, c))


def test_solve_wedge_factor_roundtrip(vecs):
    a, b = vecs[:2]
    w = wedge2(a, b)
    y, rel = solve_wedge_factor(a, w)
    assert rel < 1e-12
    assert np.allclose(wedge2(a, y), w, atol=1e-12 * np.linalg.norm(w))
    # mismatch is reported when the vector is outside the plane
    _, bad = solve_wedge_factor(vecs[2], w)
    assert bad > 1e-2



@settings(max_examples=60, deadline=None)
@given(vecs=arrays(float, (4, 2, DIM),
                   elements=st.floats(-4.0, 4.0, allow_nan=False)))
def test_interior_contracts_the_first_slot(vecs):
    # i_l (a ^ b ^ c) = l(a) b^c - l(b) a^c + l(c) a^b, read through the
    # dual: rows a, b, c complex and l real, as Gamma uses it; batched over
    # the dual, one triple per row
    l = vecs[3, 0]
    a, b, c = vecs[:3, 0] + 1j * vecs[:3, 1]
    for a, b, c in ((a, b, c), (np.stack([a, c]), np.stack([b, a]),
                                np.stack([c, b]))):
        got = interior(l, hodge(wedge3(a, b, c)))
        ref = ((a @ l)[..., None] * wedge2(b, c)
               - (b @ l)[..., None] * wedge2(a, c)
               + (c @ l)[..., None] * wedge2(a, b))
        assert np.max(np.abs(got - ref)) <= 1e-13 * 4.0 ** 4
