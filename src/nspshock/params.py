"""Shock parameters and Rankine-Hugoniot data.

The system is the 1-D isothermal Navier-Stokes-Poisson system in Lagrangian
coordinates (specific volume v, velocity u, electric potential phi) with
Boltzmann electrons.  A 2-shock connects the endstates (v-, u-) and (v+, u+)
with v+ > v- (Lax condition); the electron relation fixes phi+- = -ln v+-.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

# Default guard for the small-amplitude regime the profile and Evans machinery
# target.  Larger amplitudes are not rejected outright, only warned about.
AMPLITUDE_THRESHOLD = 0.2


@dataclass(frozen=True)
class PlasmaParams:
    """Physical parameters and endstate data of one shock.

    T    : ion temperature (> 0)
    nu   : viscosity (> 0)
    eps  : scaled Debye length (> 0)
    v_minus, u_minus : left endstate
    v_plus           : right specific volume; v_plus > v_minus selects a 2-shock
    """

    T: float
    nu: float
    eps: float
    v_minus: float
    u_minus: float
    v_plus: float

    def __post_init__(self):
        for name in ("T", "nu", "eps", "v_minus", "v_plus"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")

    @property
    def delta_s(self) -> float:
        """Shock amplitude v+ - v-."""
        return self.v_plus - self.v_minus

    def side_v(self, side: str) -> float:
        """Specific volume of the endstate on `side` ("minus" or "plus")."""
        if side not in ("minus", "plus"):
            raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
        return self.v_minus if side == "minus" else self.v_plus

    def sound_speed(self, v: float) -> float:
        """Characteristic speed sqrt(T+1)/v of the quasi-neutral Euler system."""
        return math.sqrt(self.T + 1.0) / v


@dataclass(frozen=True)
class ShockEndstates:
    """Derived jump data: shock speed and the remaining endstate components."""

    s: float
    u_plus: float
    phi_minus: float
    phi_plus: float


def finite_number(value) -> bool:
    """A finite int or float, not a bool: a number in a JSON config."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def params_from_dict(d: dict) -> PlasmaParams:
    """Build PlasmaParams from a config mapping with keys
    T, nu, eps, v_minus, u_minus, v_plus, each a finite number."""
    keys = ("T", "nu", "eps", "v_minus", "u_minus", "v_plus")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"missing parameter keys: {missing}")
    for k in keys:
        if not finite_number(d[k]):
            raise ValueError(f"params.{k} must be a finite number, "
                             f"got {d[k]!r}")
    return PlasmaParams(**{k: float(d[k]) for k in keys})


def solve_rankine_hugoniot(
    params: PlasmaParams, amplitude_threshold: float = AMPLITUDE_THRESHOLD
) -> ShockEndstates:
    """Solve the jump conditions for the 2-shock.

    s = sqrt((T+1)/(v+ v-)) > 0,  u+ = u- - s (v+ - v-),  phi+- = -ln v+-.

    Raises ValueError when the Lax condition v+ > v- fails; warns when the
    amplitude exceeds ``amplitude_threshold`` (the expansion machinery is
    built for small amplitudes).
    """
    if params.v_plus <= params.v_minus:
        raise ValueError(
            "Lax condition violated: a 2-shock needs v_plus > v_minus "
            f"(got v_minus={params.v_minus}, v_plus={params.v_plus})"
        )
    if params.delta_s > amplitude_threshold:
        warnings.warn(
            f"shock amplitude {params.delta_s:.4g} exceeds the small-amplitude "
            f"threshold {amplitude_threshold:.4g}; results are extrapolations",
            stacklevel=2,
        )
    s = math.sqrt((params.T + 1.0) / (params.v_plus * params.v_minus))
    u_plus = params.u_minus - s * (params.v_plus - params.v_minus)
    return ShockEndstates(
        s=s,
        u_plus=u_plus,
        phi_minus=-math.log(params.v_minus),
        phi_plus=-math.log(params.v_plus),
    )


def liu_majda_delta(params: PlasmaParams, end: ShockEndstates) -> float:
    """Liu-Majda determinant of the quasi-neutral Euler 2-shock (closed form).

    Delta = ((v+ - v-)/sqrt2) (sqrt(T+1)/v- + s).  Nonzero iff the inviscid
    shock is uniformly stable; positive for Lax 2-shocks.
    """
    c_minus = params.sound_speed(params.v_minus)
    return (params.v_plus - params.v_minus) / math.sqrt(2.0) * (c_minus + end.s)
