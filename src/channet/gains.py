"""Admissible boundary feedback gains at terminal nodes.

A terminal channel is closed by the affine law V = V*(L) + k (H - H*(L)).
Exponential stability of the network holds for every gain k outside one
explicit closed interval

    [a, b] = [ -sqrt(g/H*(L)) (lam+ + m_L lam-) / (lam+ - m_L lam-),
               -sqrt(g/H*(L)) (lam+ - m_L lam-) / (lam+ + m_L lam-) ],

built from the outlet characteristic speeds lam+- and the closed-form weight
ratio m_L = m(L). Both endpoints are negative, their product is g/H*(L), and
as friction vanishes the interval degenerates to the half-line (-inf, 0].
The interval criterion is equivalent to c^2 > eta_bar(L)^2 / phi(L)^2 for the
boundary reflection coefficient c, which the tests check; the verdict is the
interval's alone. Everything here is explicit in the outlet state: phi(L)
comes from the closed-form exponents of ``characteristics.phi_exponents`` at
the outlet depth and eta_bar(L) = m_L (lam-/lam+) phi(L), so the screen
solves no ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characteristics import phi_exponents, reflection_coefficient
from .errors import DegenerateFlux, ReflectionPole
from .steady import SteadyProfile
from .weights import m_value

HALF_LINE_TOL = 1e-12


@dataclass(frozen=True)
class GainRecord:
    """Admissibility verdict for one terminal gain."""

    channel: int
    k: float
    lambda_plus: float
    lambda_minus: float
    m_L: float
    forbidden: tuple[float, float]
    half_line: bool
    c: float
    admissible: bool
    pole: bool
    eta_bar_L: float
    phi_L: float

    def to_dict(self) -> dict:
        return {
            "channel": self.channel,
            "k": self.k,
            "lambda_plus": self.lambda_plus,
            "lambda_minus": self.lambda_minus,
            "m_L": None if math.isnan(self.m_L) else self.m_L,
            "a": None if math.isinf(self.forbidden[0]) else self.forbidden[0],
            "b": self.forbidden[1],
            "half_line": self.half_line,
            "k_pole": self.pole,
            "c": None if math.isnan(self.c) else self.c,
            "admissible": self.admissible,
            "eta_bar_L": self.eta_bar_L,
            "phi_L": self.phi_L,
        }


def boundary_constants(profile: SteadyProfile) -> tuple[float, float, float]:
    """Outlet characteristic speeds and weight ratio (lam+, lam-, m_L)."""
    if profile.flux == 0.0:
        raise DegenerateFlux(
            f"channel {profile.channel}: boundary constants need positive flux"
        )
    HL = profile.outlet_depth
    VL = profile.outlet_velocity
    cL = math.sqrt(profile.gravity * HL)
    p = profile.spec.friction_exponent
    m_L = float(m_value(HL, profile.inlet_depth, profile.flux, p, profile.gravity))
    return cL + VL, cL - VL, m_L


def forbidden_interval(
    lambda_plus: float,
    lambda_minus: float,
    m_L: float,
    outlet_depth: float,
    gravity: float = 9.81,
) -> tuple[float, float, bool]:
    """Closed forbidden gain interval (a, b, half_line).

    When lam+ - m_L lam- vanishes to within 1e-12 relative, a runs off to
    -infinity and the forbidden set is the half-line (-inf, b].
    """
    s = math.sqrt(gravity / outlet_depth)
    den = lambda_plus - m_L * lambda_minus
    num = lambda_plus + m_L * lambda_minus
    if abs(den) <= HALF_LINE_TOL * lambda_plus:
        # degenerate family: the interval closes at exactly zero gain
        return -math.inf, 0.0, True
    b = -s * den / num + 0.0
    a = -s * num / den
    if a > b:
        a, b = b, a
    return a, b, False


def is_admissible(
    profile: SteadyProfile,
    gain: float,
    eta_bar_L: float | None = None,
    phi_L: float | None = None,
) -> GainRecord:
    """Full admissibility record for one terminal gain.

    The verdict is the interval criterion (gain strictly outside the closed
    forbidden interval; for zero-flux terminals the forbidden set is
    (-inf, 0]). A gain at the reflection pole is not admissible.

    eta_bar_L and phi_L may be supplied to avoid recomputing them; both are
    evaluated in closed form at the outlet depth otherwise.
    """
    k = float(gain)
    HL = profile.outlet_depth
    g = profile.gravity
    if profile.flux == 0.0:
        cL = math.sqrt(g * HL)
        lam_p = lam_m = cL
        m_L = math.nan
        a, b, half = -math.inf, 0.0, True
        eta_bar_L = 1.0
        phi_L = 1.0
    else:
        lam_p, lam_m, m_L = boundary_constants(profile)
        a, b, half = forbidden_interval(lam_p, lam_m, m_L, HL, g)
        if eta_bar_L is None or phi_L is None:
            p = profile.spec.friction_exponent
            phi_L = math.exp(sum(phi_exponents(HL, profile.inlet_depth, profile.flux, p, g)))
            eta_bar_L = m_L * (lam_m / lam_p) * phi_L

    # strictly outside [a, b] (a = -inf on the half-line); a NaN gain is not
    admissible = k < a or k > b
    try:
        c = reflection_coefficient(k, HL, g)
        pole = False
    except ReflectionPole:
        c = math.nan
        pole = True
        admissible = False

    return GainRecord(
        channel=profile.channel,
        k=k,
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        m_L=m_L,
        forbidden=(a, b),
        half_line=half,
        c=c,
        admissible=admissible,
        pole=pole,
        eta_bar_L=eta_bar_L,
        phi_L=phi_L,
    )
