"""Toolkit for spectral stability of viscous shock profiles of the
one-dimensional isothermal Navier-Stokes-Poisson system with Boltzmann
electrons.

Submodules
----------
params          shock parameters, Rankine-Hugoniot endstates, Liu-Majda determinant
jets            Taylor-mode jet arithmetic (exact higher derivatives)
profile         traveling-wave profile boundary value solver
dispersion      essential-spectrum dispersion curves of the endstate symbols
csvout          exact vectorised '%e' formatting of the CSV curve files
eigensystem     first-order 5x5 eigenvalue ODE along the profile
modes           fast/slow spatial modes of the limit matrices
wedge           exterior-power (compound matrix) linear algebra
evans           Evans function, winding numbers, transversality coefficient
transversality  reduced 3-D variational system and bounded-solution dimension
poisson         finite-difference solver for the linearized Poisson equation
pipeline        configurable end-to-end runs with machine-readable reports
cli             `nspshock run` command-line entry point
"""

__version__ = "0.1.0"

import os as _os

# size the BLAS pools before numpy first loads its backend, over any ambient
# thread variable; the report is the same at any thread count
_threads = _os.environ.get("NSPSHOCK_THREADS")
if _threads is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ[_var] = _threads

from .params import (
    PlasmaParams,
    ShockEndstates,
    solve_rankine_hugoniot,
    liu_majda_delta,
)

__all__ = [
    "PlasmaParams",
    "ShockEndstates",
    "solve_rankine_hugoniot",
    "liu_majda_delta",
]
