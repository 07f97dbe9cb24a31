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
gives the same matrix to 1e-15 relative on the benchmark amplitudes
0.02-0.19.  Its bounded-solution space is spanned
by the wave derivative exactly when the connecting orbit is transverse.

The count is computed by subspace propagation: the plane of solutions
bounded as x -> +inf, carried backward from +X, is intersected at x = 0
with the plane bounded as x -> -inf, carried forward from -X.  Each
plane is carried by its normal under the adjoint equation
y' = -Atilde^T y; no diagonalizing change of variables or QR frame is
needed: at x = 0 the planes meet along the cross product of their unit
normals.  Each normal starts as the profile's projection row at its end
(profile.far_field_rows), so no end rate is classified here.
Between the nodes Atilde is read on the profile's own quintic cells
(profile.profile_cells, which the ode_residual check certifies).

The adjoint equation is linear and free of lam, so the normals are not
integrated step by step: each cell is cut into SUBSTEPS equal steps,
each step's propagator is the order-4 Magnus exponential exp(Omega)
with B = -Atilde^T read at the step's two Gauss points in every cell at
once (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009), all
steps are exponentiated at once (Taylor with scaling and squaring), and
a pairwise tree multiplies them, rescaled at every level.  The same
product with CHECK_SUBSTEPS steps per cell gives the reported transport
error, the max-abs gap of the two unit normals at x = 0; for an order-4
scheme it is about 15 times the error of the SUBSTEPS result.  Where
the gap exceeds TRANSPORT_TOL, the steps per cell double
(_propagate_plane).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensystem import background_wave, cell_values, wave_residual
# never called here: re-exported only so that the WRAPS table of
# perfbench/tracer.py, which patches transversality.interior_coefficients,
# transversality.interior_matrix_coeffs and transversality.solve_ivp,
# finds them
from .eigensystem import (interior_coefficients,  # noqa: F401
                          interior_matrix_coeffs)
from .ode import solve_ivp  # noqa: F401
from .jets import Jet
from .params import PlasmaParams, ShockEndstates
from .profile import (ProfileGrid, far_field_rows, profile_cells,
                      rhs_jacobian)


def reduced_matrix(y: np.ndarray, params: PlasmaParams,
                   end: ShockEndstates) -> np.ndarray:
    """Atilde = diag(-s, 1, 1) J(y) diag(-1/s, 1, 1), shape (..., 3, 3):
    the profile Jacobian at states y = (v, phi, psi) written in V."""
    J = rhs_jacobian(y, params, end)
    J[..., 0, 1:] *= -end.s
    J[..., 1:, 0] /= -end.s
    return J


def reduced_limit_matrix(params: PlasmaParams) -> np.ndarray:
    """Reference matrix of the reduced system at zero amplitude: the
    profile Jacobian at y- = (v-, -ln v-, 0) in V, with the shock speed
    s = sqrt(T + 1)/v- of zero amplitude."""
    vm = params.v_minus
    phi = -np.log(vm)
    end = ShockEndstates(s=params.sound_speed(vm), u_plus=params.u_minus,
                         phi_minus=phi, phi_plus=phi)
    return reduced_matrix(np.array([vm, phi, 0.0]), params, end)


def limit_eigenvalues(params: PlasmaParams) -> tuple[float, float, float]:
    """(sigma_-, 0, sigma_+) of the reference matrix, in closed form."""
    T, nu, eps2, vm = params.T, params.nu, params.eps**2, params.v_minus
    half_trace = -0.5 / (nu * np.sqrt(T + 1.0))
    disc = 0.5 * np.sqrt(1.0 / (nu**2 * (T + 1.0)) + 4.0 * vm / eps2)
    return half_trace - disc, 0.0, half_trace + disc


@dataclass(frozen=True)
class ReducedSystem:
    """Reduced matrix at the nodes, with the profile cells that give it
    between them."""

    params: PlasmaParams
    end: ShockEndstates
    x: np.ndarray
    tables: np.ndarray           # (n, 3, 3): Atilde at the nodes
    cells: np.ndarray            # profile.profile_cells of the grid
    A0: np.ndarray               # zero-amplitude reference matrix
    sigma: tuple[float, float, float]

    @property
    def X(self) -> float:
        return float(self.x[-1])

    def reader(self, cells: slice):
        """read(offsets) -> Atilde of the selected profile cells' (v, phi,
        psi) at those offsets from their left nodes, (cells, offsets, 3, 3).
        """
        table = self.cells[:, cells]

        def read(offsets) -> np.ndarray:
            y = cell_values(table, offsets)[..., [0, 2, 3]]
            return reduced_matrix(y, self.params, self.end)

        return read

    def deviation_sup(self) -> float:
        """sup over the grid of the spectral norm of Atilde - A0."""
        # the largest singular value of each node's matrix; the same LAPACK
        # call as norm(ord=2, axis=(1, 2)) without its moveaxis copy
        return float(np.max(np.linalg.svd(self.tables - self.A0,
                                           compute_uv=False)[:, 0]))


def build_reduced_system(grid: ProfileGrid) -> ReducedSystem:
    y = np.stack([grid.v, grid.phi, grid.psi], axis=-1)
    return ReducedSystem(
        params=grid.params, end=grid.end, x=grid.x,
        tables=reduced_matrix(y, grid.params, grid.end),
        cells=profile_cells(grid), A0=reduced_limit_matrix(grid.params),
        sigma=limit_eigenvalues(grid.params))


def reduced_wave_residual(system: ReducedSystem, grid: ProfileGrid) -> float:
    """Relative defect of the wave derivative in the reduced system: the
    columns (u, phi, phi') of eigensystem.background_wave."""
    W, dW = background_wave(*grid.jets, grid.params, grid.end)
    return wave_residual(system.tables, W[:, [1, 3, 4]], dW[:, [1, 3, 4]])


# Magnus steps per profile cell, and the coarser count whose result
# checks them (order 4: halving the step cuts the error about 16x); the
# bound of that check (pipeline's transport_error), above which the steps
# double
SUBSTEPS = 4
CHECK_SUBSTEPS = 2
TRANSPORT_TOL = 1e-8
# Gauss-Legendre nodes of one step, as fractions of the step
_GAUSS = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])


def _magnus_exponents(read, h: float, substeps: int) -> np.ndarray:
    """Order-4 Magnus exponents of y' = B y, B = -Atilde^T, in x order.

    read(offsets) gives Atilde at those offsets in each of m cells of
    width h (ReducedSystem.reader), shape (m, offsets, 3, 3); each cell is
    cut into `substeps` equal steps, and every cell is read at the steps'
    Gauss points at once.  A step of length k with B1, B2 at its two Gauss
    points has Omega = (k/2)(B1 + B2) + (sqrt(3)/12) k^2 [B2, B1]; the
    result has shape (m substeps, 3, 3).
    """
    k = h / substeps
    offsets = k * (np.arange(substeps)[:, None] + _GAUSS)
    A = read(offsets.ravel()).reshape(-1, 2, 3, 3)
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


def propagator(read, h: float, substeps: int,
               backward: bool = False) -> np.ndarray:
    """Propagator of y' = -Atilde^T y across the cells of width h that
    read(offsets) reads (_magnus_exponents), divided by its max-abs entry.

    Forward it maps y at the left end of the cells to the right end, as a
    product of the step propagators exp(Omega) in x order; backward it
    maps the right end to the left, as the product of exp(-Omega) (each
    step taken from its right end to its left) from the right down.
    """
    omega = _magnus_exponents(read, h, substeps)
    return _ordered_product(_expm_stack(-omega[::-1] if backward
                                        else omega))


def _propagate_plane(read, h: float, normal: np.ndarray,
                     backward: bool) -> tuple[np.ndarray, float, int]:
    """Transport the plane with this normal across the cells read by
    read(offsets) (_magnus_exponents), which end or start at x = 0; (its
    unit normal at x = 0, transport error, Magnus steps per cell).

    The normal takes SUBSTEPS Magnus steps per cell; the error is the
    max-abs distance of its unit vector from the CHECK_SUBSTEPS one.
    Above TRANSPORT_TOL (long grids of wide cells) the steps per cell
    double, each result checked against the one before, for as long as
    the error falls.
    """
    def unit_normal(substeps):
        y = propagator(read, h, substeps, backward) @ normal
        return y / np.linalg.norm(y)

    substeps, fine = SUBSTEPS, unit_normal(SUBSTEPS)
    err = float(np.max(np.abs(fine - unit_normal(CHECK_SUBSTEPS))))
    while err > TRANSPORT_TOL:
        finer = unit_normal(2 * substeps)
        finer_err = float(np.max(np.abs(finer - fine)))
        if not finer_err < err:
            break
        substeps, fine, err = 2 * substeps, finer, finer_err
    return fine, err, substeps


# the relative singular-value threshold of the rank at x = 0
RANK_THRESHOLD = 1e-7


@dataclass(frozen=True)
class TransversalityResult:
    dimension: int
    vector: np.ndarray           # unit intersection vector at x = 0,
                                 # largest entry positive (NaN at dim 2)
    singular_values: np.ndarray
    transport_error: float       # max-abs gap of the unit normals at x = 0
                                 # between each side's Magnus steps per
                                 # cell and half as many
    work: dict                   # transports, cells, substeps


def bounded_solution_dim(system: ReducedSystem) -> TransversalityResult:
    """Dimension of the space of solutions bounded on the whole line.

    The plane bounded at +inf is carried backward from +X and the one
    bounded at -inf forward from -X, both as normals (_propagate_plane).
    Each normal starts as the profile's projection row at its end, the
    unit left eigenvector of J(y-) for gamma2- or of J(y+) for gamma3+
    (profile.far_field_rows), written in V as row diag(-1/s, 1, 1) and
    normalized.  The rows belong to y+-, not to the states at +-X; the
    bounded planes attract the start under the transport.  At zero
    amplitude the plane bounded at +inf keeps the neutral direction,
    whose solution is bounded without decay.  At x = 0 orthonormal frames
    S, U of the planes have [S, U][S, U]^T = 2 I - n+ n+^T - n- n-^T, so
    [S, U] has singular values sqrt(2, 1 + c, 1 - c), c = |n+ . n-|, and
    its rank counts those above RANK_THRESHOLD times the largest.  A
    transverse connection gives dimension one with the intersection along
    n+ x n-, the wave derivative; any larger value signals a
    transversality failure at this amplitude.
    """
    mid = (system.x.size - 1) // 2
    h = 2.0 * system.X / (system.x.size - 1)
    rows = far_field_rows(system.params, system.end)[0] * [
        -1.0 / system.end.s, 1.0, 1.0]
    minus, plus = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    n_plus, plus_err, plus_steps = _propagate_plane(
        system.reader(slice(mid, None)), h, plus, True)
    n_minus, minus_err, minus_steps = _propagate_plane(
        system.reader(slice(None, mid)), h, minus, False)
    work = {"transports": 2, "cells": system.cells.shape[1],
            "substeps": max(plus_steps, minus_steps)}

    vec = np.cross(n_plus, n_minus)
    sine, c = np.linalg.norm(vec), min(abs(n_plus @ n_minus), 1.0)
    # sqrt(1 - c) as sine / sqrt(1 + c) keeps its digits where the normals
    # nearly coincide, and is 0 where they do
    sv = np.array([np.sqrt(2.0), np.sqrt(1.0 + c), sine / np.sqrt(1.0 + c)])
    dim = 4 - int(np.sum(sv > RANK_THRESHOLD * sv[0]))
    # coinciding planes have no single direction; otherwise each normal's
    # sign is arbitrary, so the cross product's is too: its largest entry
    # is made positive so that a rounding-level change cannot flip it
    vec = (np.full(3, np.nan) if dim == 2
           else vec / (sine * np.sign(vec[np.argmax(np.abs(vec))])))
    return TransversalityResult(dimension=dim, vector=vec, singular_values=sv,
                                transport_error=max(plus_err, minus_err),
                                work=work)


def angle_to_wave(vector: np.ndarray, grid: ProfileGrid) -> float:
    """Angle in radians between a vector at x = 0 and the wave derivative
    (ubar', phibar', phibar'')(0), by arctan2 of sine and cosine so that
    tiny angles are resolved."""
    # the wave derivative at x = 0 alone: the jets cut to that node
    Vbar = background_wave(*(Jet(j.coef[:, [grid.n // 2]])
                             for j in grid.jets),
                           grid.params, grid.end)[0][0, [1, 3, 4]]
    return float(np.arctan2(np.linalg.norm(np.cross(vector, Vbar)),
                            abs(vector @ Vbar)))
