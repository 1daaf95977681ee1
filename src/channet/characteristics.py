"""Characteristic structure of the linearized flow around a steady profile.

Around a subcritical steady state (H*, V*) the deviation fields (h, v) decouple
into characteristic variables

    y1 = v + h sqrt(g / H*),      y2 = v - h sqrt(g / H*),

travelling with speeds lambda1 = V* + sqrt(g H*) (downstream) and
-lambda2 = V* - sqrt(g H*) (upstream). Friction couples the two families
through four zero-order coefficients gamma1, delta1, gamma2, delta2. One
kernel, ``speeds_couplings``, gives the speeds and the couplings together,
written with the friction term g C V*^2 / H*^p; ``CharCoeffs`` samples it on
a profile's fine grid, with the factors phi1 and phi2 that absorb the
couplings, and only the tests call it on scalars. The same
term is -(H*_x / H*) lambda1 lambda2 through the steady depth gradient; the
tests check that identity, and the code does not form it.
``phi_exponents`` gives the exponents I1 and I2 of those factors in closed
form, and ``log_phi`` their sum ln phi in one log1p, the form that the gain
screen's phi(L) takes;
``existence_integral`` gives the integral whose smallness guarantees the
epsilon = 0 comparison solution.
``outlet_traces`` gives the characteristic traces that a feedback outlet
sets, and ``reflection_coefficient`` the share of an arriving wave that it
sends back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .steady import SteadyProfile

# the first and last points of a fine grid: the inlet and the outlet
_ENDS = np.array([0, -1])


def eigenvalues(depth, velocity, gravity):
    """Characteristic speeds (lambda1, lambda2), both positive when subcritical."""
    c = np.sqrt(gravity * np.asarray(depth, dtype=float))
    v = np.asarray(velocity, dtype=float)
    lam1 = v + c
    lam2 = c - v
    if lam1.ndim == 0:
        return float(lam1), float(lam2)
    return lam1, lam2


def speeds_couplings(H, flux, friction, p, g):
    """(lambda1, lambda2, gamma1, delta1, gamma2, delta2) at depth H, friction form.

    The kernel behind CharCoeffs. A scalar H takes math.sqrt and the C
    library's pow, an array H numpy's sqrt and power, whose vectorised power
    may differ from pow by an ulp. Needs flux > 0.
    """
    # np.ndim(H) == 0, without its microsecond of overhead per scalar call
    scalar = not isinstance(H, np.ndarray) or H.ndim == 0
    c, Hp = (math.sqrt if scalar else np.sqrt)(g * H), H**p
    V = flux / H
    lam1 = V + c
    lam2 = c - V
    K = g * friction * V * V / Hp
    half_p = p / (2.0 * c)
    inv_v = 1.0 / V
    g1 = K * (-3.0 / (4.0 * lam1) + inv_v - half_p)
    d1 = K * (-1.0 / (4.0 * lam1) + inv_v + half_p)
    g2 = K * (1.0 / (4.0 * lam2) + inv_v - half_p)
    d2 = K * (3.0 / (4.0 * lam2) + inv_v + half_p)
    return lam1, lam2, g1, d1, g2, d2


def phi_exponents(H, inlet_depth, flux, p, g):
    """(I1, I2) = (int gamma1/lambda1, int delta2/lambda2) from the inlet to depth H.

    With the inverse Froude number s = sqrt(g H^3)/Q (s > 1 when subcritical)
    and H_x = -K H/(lambda1 lambda2), both integrands are rational in s:

        I1 = -(2/3) [s - (1/4 + p/2) ln s - (3/2) ln(s + 1) - p/(2s)],
        I2 = -(2/3) [s + (1/4 + p/2) ln s + (3/2) ln(s - 1) - p/(2s)],

    each minus its value at the inlet. The differences are taken term by
    term, so both are exactly 0 at the inlet depth. A scalar H takes math
    and an array H numpy. Needs flux > 0 and H above the critical depth.
    """
    array = isinstance(H, np.ndarray) and H.ndim > 0
    sqrt, log = (np.sqrt, np.log) if array else (math.sqrt, math.log)
    s = sqrt(g * H * H * H) / flux
    s0 = math.sqrt(g * inlet_depth * inlet_depth * inlet_depth) / flux
    shared = 0.5 * p * (1.0 / s - 1.0 / s0) - (s - s0)
    log_s = (0.25 + 0.5 * p) * log(s / s0)
    I1 = (2.0 / 3.0) * (shared + log_s + 1.5 * log((s + 1.0) / (s0 + 1.0)))
    I2 = (2.0 / 3.0) * (shared - log_s - 1.5 * log((s - 1.0) / (s0 - 1.0)))
    return I1, I2


def log_phi(H, inlet_depth, flux, p, g):
    """ln phi = I1 + I2 of ``phi_exponents`` at depth H, in one logarithm.

    In the sum the ln s terms cancel and the other two combine:

        ln phi = (4/3) [p/2 (1/s - 1/s0) + s0 - s]
                 + log1p(2 (s0 - s) / ((s0 + 1)(s - 1))),

    with log1p taking ln(1 + z) without cancellation, so ln phi is exactly 0
    at the inlet depth. A scalar H takes math and an array H numpy. Needs
    flux > 0 and H above the critical depth.
    """
    array = isinstance(H, np.ndarray) and H.ndim > 0
    sqrt, log1p = (np.sqrt, np.log1p) if array else (math.sqrt, math.log1p)
    s = sqrt(g * H * H * H) / flux
    s0 = math.sqrt(g * inlet_depth * inlet_depth * inlet_depth) / flux
    drop = s0 - s
    return ((4.0 / 3.0) * (0.5 * p * (1.0 / s - 1.0 / s0) + drop)
            + log1p(2.0 * drop / ((s0 + 1.0) * (s - 1.0))))


def existence_integral(H, inlet_depth, flux, p, g):
    """I4 = int exp(I1 - I2) (lambda1(0)/lambda1)^2 (H(0)/H) gamma2/lambda2
    from the inlet to depth H, the integral whose smallness guarantees that
    the epsilon = 0 comparison solution exists.

    In the s of ``phi_exponents`` the integrand is a power of s times a
    quadratic in s, and the friction coefficient drops out:

        I4 = -(s0 + 1)^2 / (6 s0^a (s0^2 - 1)) [F(s) - F(s0)],  a = (2p + 3)/3,
        F(t) = 6 t^(a+1)/(p + 3) - 3 t^a + 3 t^(a-1).

    Each power is differenced as t^e - s0^e = s0^e expm1(e ln(s/s0)), so I4
    is exactly 0 at the inlet depth and keeps its digits near it; at p = 0
    the last term vanishes. A scalar H takes math and an array H numpy.
    Needs flux > 0 and H above the critical depth.
    """
    array = isinstance(H, np.ndarray) and H.ndim > 0
    sqrt, log, expm1 = (np.sqrt, np.log, np.expm1) if array else (math.sqrt, math.log, math.expm1)
    s = sqrt(g * H * H * H) / flux
    s0 = math.sqrt(g * inlet_depth * inlet_depth * inlet_depth) / flux
    log_r = log(s / s0)
    a = (2.0 * p + 3.0) / 3.0
    dF = (
        s0 * expm1((a + 1.0) * log_r) / (p + 3.0)
        - 0.5 * expm1(a * log_r)
        + 0.5 * expm1((a - 1.0) * log_r) / s0
    )
    return -(s0 + 1.0) / (s0 - 1.0) * dF


def outlet_traces(gain, outlet_depth, gravity):
    """Characteristic traces (y1, y2) = (1 + r, r - 1), r = k sqrt(H/g), that
    the affine outlet law v = k h sets, per unit sqrt(g/H) h."""
    r = gain * math.sqrt(outlet_depth / gravity)
    return 1.0 + r, r - 1.0


def reflection_coefficient(gain, outlet_depth, gravity):
    """Reflection rho = y2 / y1 of a feedback outlet: the share of the
    arriving characteristic y1 that the outlet sends back as y2.

    It is 0 at the non-reflecting gain k = sqrt(g/H) and -1 at k = 0. At the
    ill-posed gain k = -sqrt(g/H) the law fixes y1 alone, and rho is
    math.inf.
    """
    y1, y2 = outlet_traces(gain, outlet_depth, gravity)
    return math.inf if y1 == 0.0 else y2 / y1


@dataclass(frozen=True, eq=False)
class CharCoeffs:
    """Characteristic speeds and couplings sampled on a profile's fine grid,
    with the factors phi = exp(I1 + I2), phi1^2 = exp(I1)^2 and phi2^2 =
    exp(-I2)^2 that absorb the couplings (I1, I2 of ``phi_exponents``)."""

    profile: SteadyProfile
    lambda1: np.ndarray
    lambda2: np.ndarray
    gamma1: np.ndarray
    delta1: np.ndarray
    gamma2: np.ndarray
    delta2: np.ndarray
    phi: np.ndarray
    phi1_sq: np.ndarray
    phi2_sq: np.ndarray

    @classmethod
    def from_profile(cls, profile: SteadyProfile) -> "CharCoeffs":
        """One ``speeds_couplings`` and one ``phi_exponents`` call on the
        fine grid, with one degenerate case: a channel without flow or without
        friction has no coupling, so its couplings are exact zeros, its factors
        exact ones and its speeds from ``eigenvalues``. Where a coupled channel's
        depth stays H0 to the last bit, s == s0 and ``phi_exponents`` returns
        exact zeros, so every factor is exactly 1. phi is exp(I1 + I2) from
        the exponents that phi1^2 and phi2^2 need, not a ``log_phi`` pass."""
        H, spec = profile.H_fine, profile.spec
        if profile.flux == 0.0 or spec.friction == 0.0:
            lam1, lam2 = eigenvalues(H, profile.velocity_of(H), profile.gravity)
            return cls(profile, lam1, lam2, *(np.zeros_like(H) for _ in range(4)),
                       *(np.ones_like(H) for _ in range(3)))
        I1, I2 = phi_exponents(H, profile.inlet_depth, profile.flux,
                               spec.friction_exponent, profile.gravity)
        return cls(profile, *speeds_couplings(
            H, profile.flux, spec.friction, spec.friction_exponent, profile.gravity),
            np.exp(I1 + I2), np.exp(I1) ** 2, np.exp(-I2) ** 2)

    @cached_property
    def ends(self) -> "CharCoeffs":
        """The same record at the inlet and the outlet alone: the first and
        last element of every array field."""
        values = (getattr(self, f.name) for f in fields(self))
        return CharCoeffs(*(a[_ENDS] if isinstance(a, np.ndarray) else a for a in values))
