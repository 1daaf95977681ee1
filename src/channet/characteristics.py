"""Characteristic structure of the linearized flow around a steady profile.

Around a subcritical steady state (H*, V*) the deviation fields (h, v) decouple
into characteristic variables

    y1 = v + h sqrt(g / H*),      y2 = v - h sqrt(g / H*),

travelling with speeds lambda1 = V* + sqrt(g H*) (downstream) and
-lambda2 = V* - sqrt(g H*) (upstream). Friction couples the two families
through four non-negative zero-order coefficients gamma1, delta1, gamma2,
delta2. Two algebraically equivalent expressions exist for them: one written
with the friction term g C V*^2 / H*^p, one with the steady depth gradient.
Both are computed and cross-checked; the friction form is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormMismatch, ReflectionPole
from .steady import SteadyProfile, steady_rhs

DUAL_FORM_TOL = 1e-10


def eigenvalues(depth, velocity, gravity=9.81):
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

    The one kernel behind CharCoeffs and the weight ODEs. A scalar H takes
    math.sqrt and an array H numpy, with the same bits either way. Needs
    flux > 0.
    """
    # np.ndim(H) == 0, without its microsecond of overhead per ODE step
    if not isinstance(H, np.ndarray) or H.ndim == 0:
        c, Hp = math.sqrt(g * H), H**p
    else:
        # numpy's vectorised power can differ from the C library's by an ulp
        c, Hp = np.sqrt(g * H), np.array([h**p for h in H.tolist()])
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


def coupling_coefficients(
    depth,
    flux,
    friction,
    friction_exponent=1.0,
    gravity=9.81,
    check=True,
    tol=DUAL_FORM_TOL,
):
    """Zero-order coupling coefficients (gamma1, delta1, gamma2, delta2).

    Evaluated from the friction form; when ``check`` is set the steady-gradient
    form (with the depth slope taken analytically from the profile equation)
    is evaluated as well and FormMismatch is raised if any coefficient
    disagrees beyond ``tol`` relative. Array depth gives arrays.
    """
    H = np.atleast_1d(np.asarray(depth, dtype=float))
    scalar = np.ndim(depth) == 0
    if flux == 0.0 or friction == 0.0:
        if scalar:
            return (0.0, 0.0, 0.0, 0.0)
        zeros = np.zeros_like(H)
        return (zeros, zeros.copy(), zeros.copy(), zeros.copy())

    lam1, lam2, *friction_form = speeds_couplings(H, flux, friction, friction_exponent, gravity)

    if check:
        # The two forms share the bracket factors and differ in the prefactor:
        # the friction term g C V^2 / H^p against -(H_x / H) lambda1 lambda2.
        H_x = steady_rhs(H, flux, friction, friction_exponent, gravity)
        V = flux / H
        ratio = -(H_x / H) * lam1 * lam2 / (gravity * friction * V * V / H**friction_exponent)
        gradient_form = tuple(a * ratio for a in friction_form)
        for name, a_f, a_g in zip(
            ("gamma1", "delta1", "gamma2", "delta2"), friction_form, gradient_form
        ):
            scale = np.maximum(np.abs(a_f), np.abs(a_g))
            gap = np.abs(a_f - a_g)
            bad = gap > tol * np.maximum(scale, 1e-300)
            if np.any(bad & (scale > 0.0)):
                worst = float(np.max(gap / np.maximum(scale, 1e-300)))
                raise FormMismatch(
                    f"{name}: friction and gradient forms disagree "
                    f"(worst relative gap {worst:.3e})"
                )

    if scalar:
        return tuple(float(a[0]) for a in friction_form)
    return tuple(friction_form)


def reflection_coefficient(gain, outlet_depth, gravity=9.81):
    """Ratio c of outgoing to incoming characteristic at a feedback outlet.

    The affine outlet law v = k h ties the characteristic traces together as
    y1 = c y2 with c = (1 + k sqrt(H/g)) / (k sqrt(H/g) - 1). The ratio has a
    pole at k = sqrt(g/H), where the law pins the incoming characteristic to
    zero; that gain is rejected.
    """
    r = gain * math.sqrt(outlet_depth / gravity)
    den = r - 1.0
    if abs(den) <= 1e-12 * max(1.0, abs(r)):
        raise ReflectionPole(
            f"gain {gain:g} sits at the reflection pole sqrt(g/H) for depth {outlet_depth:g}"
        )
    return (1.0 + r) / den


@dataclass(frozen=True, eq=False)
class CharCoeffs:
    """Characteristic speeds and couplings sampled on a profile's fine grid."""

    profile: SteadyProfile
    lambda1: np.ndarray
    lambda2: np.ndarray
    gamma1: np.ndarray
    delta1: np.ndarray
    gamma2: np.ndarray
    delta2: np.ndarray

    @classmethod
    def from_profile(cls, profile: SteadyProfile, check=True) -> "CharCoeffs":
        H = profile.H_fine
        lam1, lam2 = eigenvalues(H, profile.velocity_of(H), profile.gravity)
        g1, d1, g2, d2 = coupling_coefficients(
            H,
            profile.flux,
            profile.spec.friction,
            profile.spec.friction_exponent,
            profile.gravity,
            check=check,
        )
        return cls(
            profile=profile,
            lambda1=lam1,
            lambda2=lam2,
            gamma1=g1,
            delta1=d1,
            gamma2=g2,
            delta2=d2,
        )
