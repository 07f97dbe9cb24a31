"""Reduced variational system and the bounded-solution count.

At lam = 0 two relations of the five-dimensional eigensystem integrate
exactly: s v + u is conserved (so v = -u/s on decaying solutions) and
the third state component is pinned to a combination of (v, u, phi',
phi'').  Substituting both reduces the system to the variational
equation of the profile ODE, written in V = (u, phi, phi') =
(-s v, phi, psi):

    V' = Atilde(x) V,   Atilde = diag(-s, 1, 1) J(ybar) diag(-1/s, 1, 1),

with J the Jacobian of the profile right-hand side (profile.rhs_jacobian).
Eliminating the two relations through the 5x5 closure of eigensystem
gives the same matrix to 1e-15 relative, in values and x-slopes, on the
benchmark amplitudes 0.02-0.19.  Its bounded-solution space is spanned
by the wave derivative exactly when the connecting orbit is transverse.

The count is computed by subspace propagation: the plane of solutions
bounded as x -> +inf (center-stable directions of the matrix at +X,
integrated backward) is intersected at x = 0 with the plane bounded as
x -> -inf (center-unstable directions at -X, integrated forward), via
a rank-revealing SVD.  Each plane is carried by its normal, which
moves under the adjoint equation y' = -Atilde^T y; no diagonalizing
change of variables or QR frame is needed, and at x = 0 the plane is
the normal's orthogonal complement; at each cut end it is the unit left
eigenvector of the one rate outside the plane (profile.left_eigenvectors).
Atilde is read on the profile's jets, so it comes with its exact
x-derivative, and is stored as cubic-Hermite cells
(eigensystem.hermite_table).

The adjoint equation is linear and free of lam, and Atilde is a cubic
in every cell, so the normals are not integrated step by step: each
cell is cut into SUBSTEPS equal steps, each step's propagator is the
order-4 Magnus exponential exp(Omega) with B = -Atilde^T read from the
cell at the step's two Gauss points (Iserles & Norsett 1999; Blanes,
Casas, Oteo & Ros 2009), all steps are exponentiated at once (Taylor
with scaling and squaring), and a pairwise tree multiplies them,
rescaled at every level.  The same product with CHECK_SUBSTEPS steps
per cell gives the reported transport error, the max-abs gap of the two
unit normals at x = 0; for an order-4 scheme it is about 15 times the
error of the SUBSTEPS result.  Where the gap exceeds TRANSPORT_TOL, the
steps per cell double (_propagate_plane).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensystem import hermite_table, wave_residual
# never called here: re-exported only so that the WRAPS table of
# perfbench/tracer.py, which patches transversality.interior_coefficients,
# transversality.interior_matrix_coeffs and transversality.solve_ivp,
# finds them
from .eigensystem import (interior_coefficients,  # noqa: F401
                          interior_matrix_coeffs)
from .ode import solve_ivp  # noqa: F401
from .jets import Jet
from .params import PlasmaParams, ShockEndstates
from .profile import ProfileGrid, left_eigenvectors, rhs_jacobian


def _in_V(J: np.ndarray, s: float) -> np.ndarray:
    """diag(-s, 1, 1) J diag(-1/s, 1, 1) for (..., 3, 3) matrices, in
    place: a Jacobian in y = (v, phi, psi) written in V = (-s v, phi, psi)."""
    J[..., 0, 1:] *= -s
    J[..., 1:, 0] /= -s
    return J


def reduced_limit_matrix(params: PlasmaParams) -> np.ndarray:
    """Reference matrix of the reduced system at zero amplitude: the
    profile Jacobian at y- = (v-, -ln v-, 0) in V, with the shock speed
    s = sqrt(T + 1)/v- of zero amplitude."""
    vm = params.v_minus
    phi = -np.log(vm)
    end = ShockEndstates(s=params.sound_speed(vm), u_plus=params.u_minus,
                         phi_minus=phi, phi_plus=phi)
    return _in_V(rhs_jacobian(np.array([vm, phi, 0.0]), params, end), end.s)


def limit_eigenvalues(params: PlasmaParams) -> tuple[float, float, float]:
    """(sigma_-, 0, sigma_+) of the reference matrix, in closed form."""
    T, nu, eps2, vm = params.T, params.nu, params.eps**2, params.v_minus
    half_trace = -0.5 / (nu * np.sqrt(T + 1.0))
    disc = 0.5 * np.sqrt(1.0 / (nu**2 * (T + 1.0)) + 4.0 * vm / eps2)
    return half_trace - disc, 0.0, half_trace + disc


@dataclass(frozen=True)
class ReducedSystem:
    """Tabulated reduced matrix with its hermite_table cells."""

    params: PlasmaParams
    end: ShockEndstates
    x: np.ndarray
    tables: np.ndarray           # (n, 3, 3)
    table: np.ndarray            # hermite_table cells of tables
    A0: np.ndarray               # zero-amplitude reference matrix
    sigma: tuple[float, float, float]

    @property
    def X(self) -> float:
        return float(self.x[-1])

    def deviation_sup(self) -> float:
        """sup over the grid of the spectral norm of Atilde - A0."""
        # the largest singular value of each node's matrix; the same LAPACK
        # call as norm(ord=2, axis=(1, 2)) without its moveaxis copy
        return float(np.max(np.linalg.svd(self.tables - self.A0,
                                           compute_uv=False)[:, 0]))


def reduced_tables(grid: ProfileGrid) -> Jet:
    """Atilde as an order-1 jet of shape (n, 3, 3): the profile Jacobian
    on the grid's jets, in V."""
    J = rhs_jacobian(tuple(Jet(j.coef[:2]) for j in grid.jets),
                     grid.params, grid.end)
    return Jet(_in_V(J.coef, grid.end.s))


def build_reduced_system(grid: ProfileGrid) -> ReducedSystem:
    At = reduced_tables(grid)
    return ReducedSystem(
        params=grid.params, end=grid.end, x=grid.x, tables=At.value,
        table=hermite_table(grid.x, At.value.reshape(grid.n, 9),
                            At.derivative(1).reshape(grid.n, 9)),
        A0=reduced_limit_matrix(grid.params),
        sigma=limit_eigenvalues(grid.params))


def wave_vector(grid: ProfileGrid) -> np.ndarray:
    """(ubar', phibar', phibar'') at the nodes, shape (n, 3)."""
    vj, _, sj = grid.jets
    return np.stack([-grid.end.s * vj.derivative(1), sj.value,
                     sj.derivative(1)], axis=-1)


def reduced_wave_residual(system: ReducedSystem, grid: ProfileGrid) -> float:
    """Relative defect of the wave derivative in the reduced system."""
    vj, _, sj = grid.jets
    dV = np.stack([-grid.end.s * vj.derivative(2), sj.derivative(1),
                   sj.derivative(2)], axis=-1)
    return wave_residual(system.tables, wave_vector(grid), dV)


# Magnus steps per hermite_table cell, and the coarser count whose result
# checks them (order 4: halving the step cuts the error about 16x); the
# bound of that check (pipeline's transport_error), above which the steps
# double
SUBSTEPS = 4
CHECK_SUBSTEPS = 2
TRANSPORT_TOL = 1e-8
# Gauss-Legendre nodes of one step, as fractions of the step
_GAUSS = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])


def _magnus_exponents(cells: np.ndarray, h: float,
                      substeps: int) -> np.ndarray:
    """Order-4 Magnus exponents of y' = B y, B = -Atilde^T, in x order.

    cells are hermite_table cells of Atilde, shape (4, m, 9), of width h;
    each is cut into `substeps` equal steps.  A step of length k with B1,
    B2 at its two Gauss points has Omega = (k/2)(B1 + B2)
    + (sqrt(3)/12) k^2 [B2, B1]; the result has shape (m substeps, 3, 3).
    """
    k = h / substeps
    offsets = k * (np.arange(substeps)[:, None] + _GAUSS)
    powers = offsets[..., None] ** np.arange(3, -1, -1)
    A = np.einsum("sgp,pmc->msgc", powers, cells).reshape(-1, 2, 3, 3)
    B1 = -A[:, 0].transpose(0, 2, 1)
    B2 = -A[:, 1].transpose(0, 2, 1)
    return (0.5 * k) * (B1 + B2) + (np.sqrt(3.0) / 12.0 * k * k) * (
        B2 @ B1 - B1 @ B2)


# 1/k! for k = 0 .. 15: the Taylor polynomial of _expm_stack
_TAYLOR = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, 16.0)])


def _expm_stack(omega: np.ndarray) -> np.ndarray:
    """exp of every matrix of an (m, 3, 3) stack.

    Scaling and squaring around the degree-15 Taylor polynomial: the
    stack is scaled by 2^-s so that every infinity norm is at most 1/2,
    where the remainder is below 1e-18; the polynomial is evaluated in
    blocks of four terms (Paterson-Stockmeyer: six matrix products),
    and the result is squared s times.
    """
    norm = float(np.max(np.sum(np.abs(omega), axis=-1)))
    squarings = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    Z = omega / 2.0**squarings
    Z2 = Z @ Z
    powers = np.stack([np.broadcast_to(np.eye(3), Z.shape), Z, Z2, Z2 @ Z])
    # blocks[j] = sum_i Z^i / (4j + i)!, and exp(Z) = sum_j Z^4j blocks[j]
    blocks = np.tensordot(_TAYLOR.reshape(4, 4), powers, axes=1)
    Z4 = Z2 @ Z2
    E = blocks[3]
    for B in blocks[2::-1]:
        E = B + Z4 @ E
    for _ in range(squarings):
        E = E @ E
    return E


def _ordered_product(E: np.ndarray) -> np.ndarray:
    """E[-1] @ ... @ E[0] up to a positive factor, by a pairwise tree.

    Every level is divided by its own max-abs entry, so the growth of a
    long transport never overflows.
    """
    while E.shape[0] > 1:
        if E.shape[0] % 2:
            E = np.concatenate([E, np.eye(3)[None]])
        E = E[1::2] @ E[0::2]
        E /= np.max(np.abs(E), axis=(1, 2), keepdims=True)
    return E[0]


def propagator(cells: np.ndarray, h: float, substeps: int,
               backward: bool = False) -> np.ndarray:
    """Propagator of y' = -Atilde^T y across hermite_table cells of width h,
    divided by its max-abs entry.

    Forward it maps y at the left end of the cells to the right end, as a
    product of the step propagators exp(Omega) in x order; backward it
    maps the right end to the left, as the product of exp(-Omega) (each
    step taken from its right end to its left) from the right down.
    """
    omega = _magnus_exponents(cells, h, substeps)
    return _ordered_product(_expm_stack(-omega[::-1] if backward
                                        else omega))


def _propagate_plane(cells: np.ndarray, h: float, normal: np.ndarray,
                     backward: bool) -> tuple[np.ndarray, float, int]:
    """Transport the plane with this normal across cells that end or
    start at x = 0; (orthonormal (3, 2) frame at x = 0, transport error,
    Magnus steps per cell).

    The normal takes SUBSTEPS Magnus steps per cell; the error is the
    max-abs distance of its unit vector from the CHECK_SUBSTEPS one.
    Above TRANSPORT_TOL (long grids of wide cells) the steps per cell
    double, each result checked against the one before, for as long as
    the error falls.
    """
    def unit_normal(substeps):
        y = propagator(cells, h, substeps, backward) @ normal
        return y / np.linalg.norm(y)

    substeps, fine = SUBSTEPS, unit_normal(SUBSTEPS)
    err = float(np.max(np.abs(fine - unit_normal(CHECK_SUBSTEPS))))
    while err > TRANSPORT_TOL:
        finer = unit_normal(2 * substeps)
        finer_err = float(np.max(np.abs(finer - fine)))
        if not finer_err < err:
            break
        substeps, fine, err = 2 * substeps, finer, finer_err
    frame = np.linalg.svd(fine[None])[2][1:].T
    return frame, err, substeps


# end rates within CENTER_TOL of zero are neutral (_end_normal); the
# relative singular-value threshold of the rank at x = 0
CENTER_TOL, RANK_THRESHOLD = 1e-10, 1e-7


def _end_normal(M: np.ndarray, side: str):
    """Unit normal of the plane of M bounded at side "+" or "-" inf.

    At "+" that is the center-stable plane (rates <= CENTER_TOL), at "-"
    the center-unstable one (rates >= -CENTER_TOL).  The normal is the
    unit left eigenvector of the one rate outside the plane, by the rule
    of the profile's projection rows (profile.left_eigenvectors).
    """
    w = np.linalg.eigvals(M)
    if np.max(np.abs(w.imag)) > 1e-10:
        raise RuntimeError("end matrix of the reduced system has complex "
                           "rates; cannot classify directions")
    outside = np.flatnonzero((1.0 if side == "+" else -1.0) * w.real
                             > CENTER_TOL)
    if outside.size != 1:
        raise RuntimeError("unexpected direction counts at the cut ends: "
                           f"{3 - outside.size} bounded at {side}inf")
    return left_eigenvectors(M[None], w.real[outside])[0]


@dataclass(frozen=True)
class TransversalityResult:
    dimension: int
    vector: np.ndarray           # unit intersection vector at x = 0,
                                 # largest entry positive
    angle_to_wave: float         # radians, against (ubar',phibar',phibar'')(0)
    singular_values: np.ndarray
    transport_error: float       # max-abs gap of the unit normals at x = 0
                                 # between each side's Magnus steps per
                                 # cell and half as many
    work: dict                   # transports, cells, substeps


def bounded_solution_dim(
        system: ReducedSystem,
        grid: ProfileGrid | None = None) -> TransversalityResult:
    """Dimension of the space of solutions bounded on the whole line.

    The plane bounded at +inf is spanned by the center-stable
    directions at +X and transported backward; the plane bounded at
    -inf by the center-unstable directions at -X transported forward;
    both travel as normals (see _propagate_plane).
    (Away from zero amplitude the end matrices have no neutral rate,
    so center-stable means the genuinely decaying pair; for constant
    coefficients it keeps the neutral direction, whose solution is
    bounded without decay.)  Their intersection at x = 0 is read off a
    rank-revealing SVD with relative threshold RANK_THRESHOLD.  A transverse
    connection gives dimension one with the intersection along the wave
    derivative; any larger value signals a transversality failure at
    this amplitude.

    Without a grid the angle against the wave derivative is NaN.
    """
    mid = (system.x.size - 1) // 2
    h = 2.0 * system.X / (system.x.size - 1)
    S, plus_err, plus_steps = _propagate_plane(
        system.table[:, mid:], h, _end_normal(system.tables[-1], "+"), True)
    U, minus_err, minus_steps = _propagate_plane(
        system.table[:, :mid], h, _end_normal(system.tables[0], "-"), False)
    work = {"transports": 2, "cells": system.table.shape[1],
            "substeps": max(plus_steps, minus_steps)}

    M = np.concatenate([S, U], axis=1)          # 3 x 4
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
    dim = 4 - rank

    # intersection vector: combination of the S columns lying in span(U)
    proj = np.eye(3) - U @ U.T
    _, svs, Vt = np.linalg.svd(proj @ S)
    coeff = Vt[-1]
    vec = S @ coeff
    # the SVD fixes the vector only up to sign; make its largest entry
    # positive so that a rounding-level change cannot flip it
    vec = vec / (np.linalg.norm(vec) * np.sign(vec[np.argmax(np.abs(vec))]))

    if grid is not None:
        Vbar = wave_vector(grid)[grid.n // 2]
        angle = float(np.arctan2(np.linalg.norm(np.cross(vec, Vbar)),
                                 abs(vec @ Vbar)))
    else:
        angle = float("nan")
    return TransversalityResult(dimension=dim, vector=vec,
                                angle_to_wave=angle, singular_values=sv,
                                transport_error=max(plus_err, minus_err),
                                work=work)
