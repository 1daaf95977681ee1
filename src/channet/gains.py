"""Admissible boundary feedback gains at terminal nodes.

A terminal channel is closed by the affine law V = V*(L) + k (H - H*(L)).
Exponential stability of the network holds for every gain k outside one
explicit closed interval

    [a, b] = [ -sqrt(g/H*(L)) (lam+ + m_L lam-) / (lam+ - m_L lam-),
               -sqrt(g/H*(L)) (lam+ - m_L lam-) / (lam+ + m_L lam-) ],

built from the outlet characteristic speeds lam+- and the closed-form weight
ratio m_L = m(L). Both endpoints are negative, their product is g/H*(L), and
as friction vanishes the interval degenerates to the half-line (-inf, 0].
The interval criterion is equivalent to rho^2 < phi(L)^2 / eta_bar(L)^2 for
the outlet reflection rho of ``characteristics.reflection_coefficient``, which
the tests check; the verdict is the interval's alone. The non-reflecting gain
sqrt(g/H*(L)), where rho = 0, is positive and so always admissible.
Everything here is explicit in the outlet state: phi(L) is the exponential
of the closed form ``characteristics.log_phi`` at the outlet depth and
eta_bar(L) = m_L (lam-/lam+) phi(L), so the screen solves no ODE.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .characteristics import log_phi, reflection_coefficient
from .errors import DegenerateFlux
from .steady import SteadyProfile
from .weights import m_value

HALF_LINE_TOL = 1e-12


@dataclass(frozen=True)
class GainRecord:
    """Admissibility verdict for one terminal gain. On a zero-flux terminal
    m_L is NaN, and on a half-line the lower end of ``forbidden`` is -inf."""

    channel: int
    k: float
    lambda_plus: float
    lambda_minus: float
    m_L: float
    forbidden: tuple[float, float]
    half_line: bool
    reflection: float
    admissible: bool
    eta_bar_L: float
    phi_L: float

    def to_dict(self) -> dict:
        """Every field, ``forbidden`` as its two ends ``a`` and ``b``."""
        report = asdict(self)
        report["a"], report["b"] = report.pop("forbidden")
        return report


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
    m_L = m_value(HL, profile.inlet_depth, profile.flux, p, profile.gravity)
    return cL + VL, cL - VL, m_L


def forbidden_interval(
    lambda_plus: float,
    lambda_minus: float,
    m_L: float,
    outlet_depth: float,
    gravity: float,
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
    (-inf, 0]). The record carries the outlet reflection rho, which is
    math.inf at the ill-posed gain -sqrt(g/H*(L)); that gain is always
    forbidden.

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
            phi_L = math.exp(log_phi(HL, profile.inlet_depth, profile.flux, p, g))
            eta_bar_L = m_L * (lam_m / lam_p) * phi_L

    # strictly outside [a, b] (a = -inf on the half-line); a NaN gain is not
    admissible = k < a or k > b
    return GainRecord(
        channel=profile.channel,
        k=k,
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        m_L=m_L,
        forbidden=(a, b),
        half_line=half,
        reflection=reflection_coefficient(k, HL, g),
        admissible=admissible,
        eta_bar_L=eta_bar_L,
        phi_L=phi_L,
    )
