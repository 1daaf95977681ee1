"""Characteristic structure of the linearized flow around a steady profile.

Around a subcritical steady state (H*, V*) the deviation fields (h, v) decouple
into characteristic variables

    y1 = v + h sqrt(g / H*),      y2 = v - h sqrt(g / H*),

travelling with speeds lambda1 = V* + sqrt(g H*) (downstream) and
-lambda2 = V* - sqrt(g H*) (upstream). Friction couples the two families
through four zero-order coefficients gamma1, delta1, gamma2, delta2. One
kernel, ``speeds_couplings``, gives the speeds and the couplings together,
written with the friction term g C V*^2 / H*^p; ``CharCoeffs.rows`` samples
it on a stack of profiles' fine grids, one row each with its parameters as
columns, with the factors phi1 and phi2 that absorb the couplings, and only
the tests call it on scalars. The same
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
from dataclasses import dataclass

import numpy as np

from .steady import SteadyProfile

def eigenvalues(depth, velocity, gravity):
    """Characteristic speeds (lambda1, lambda2), both positive when subcritical."""
    c = np.sqrt(gravity * np.asarray(depth, dtype=float))
    v = np.asarray(velocity, dtype=float)
    lam1 = v + c
    lam2 = c - v
    if lam1.ndim == 0:
        return float(lam1), float(lam2)
    return lam1, lam2


def row_power(H, p):
    """H ** p, where p is a float or a column (m x 1) of one exponent per row
    of the stack H (m x n). Each row has the bits of its one-row call, numpy's
    power with a Python float exponent, which numpy takes as H * H at p = 2,
    where an array of exponents would call pow: each distinct exponent takes
    one masked call over its rows."""
    if np.ndim(p) == 0:
        return H**p
    out = np.empty(H.shape)
    for e in set(p[:, 0].tolist()):
        np.power(H, e, out=out, where=p == e)
    return out


def speeds_couplings(H, flux, friction, p, g):
    """(lambda1, lambda2, gamma1, delta1, gamma2, delta2) at depth H, friction form.

    The kernel behind CharCoeffs. A scalar H takes math.sqrt and the C
    library's pow, an array H numpy's sqrt and power, whose vectorised power
    may differ from pow by an ulp. On a stack of depth rows (m x n) each
    parameter may be a column (m x 1), and each row has the bits of its
    one-row call (``row_power``). Needs flux > 0.
    """
    # np.ndim(H) == 0, without its microsecond of overhead per scalar call
    scalar = not isinstance(H, np.ndarray) or H.ndim == 0
    c, Hp = (math.sqrt if scalar else np.sqrt)(g * H), row_power(H, p)
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
    and an array H numpy; on a stack of depth rows (m x n) each parameter
    may be a column (m x 1), and each row has the bits of its one-row call.
    Needs flux > 0 and H above the critical depth.
    """
    array = isinstance(H, np.ndarray) and H.ndim > 0
    sqrt, log = (np.sqrt, np.log) if array else (math.sqrt, math.log)
    s = sqrt(g * H * H * H) / flux
    s0 = sqrt(g * inlet_depth * inlet_depth * inlet_depth) / flux
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


def parameter_columns(profiles) -> tuple[np.ndarray, ...]:
    """(inlet depth, flux, friction, friction exponent, gravity) of each
    profile, each a column (m x 1): the parameters of a stack of rows."""
    values = np.array([(q.inlet_depth, q.flux, q.spec.friction, q.spec.friction_exponent,
                        q.gravity) for q in profiles])
    # contiguous columns: numpy broadcasts a strided one more slowly
    return tuple(values.T.copy()[:, :, None])


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
        """The one-row case of ``rows``."""
        return cls(profile, *(a[0] for a in cls.rows([profile], profile.H_fine[None])))

    @staticmethod
    def rows(profiles, H: np.ndarray) -> tuple[np.ndarray, ...]:
        """The arrays of every field after ``profile``, each (m x n), on a
        stack H of fine depth rows, row r those of profiles[r]; each row has
        the bits of its one-row call. One ``speeds_couplings`` and one
        ``phi_exponents`` call on the coupled rows give them, with one
        degenerate case: a channel without flow or without friction has no
        coupling, so its couplings are exact zeros, its factors exact ones
        and its speeds from ``eigenvalues``, whose operations are those of
        the kernel, and no kernel sees it. Where a coupled channel's depth
        stays H0 to the last bit, s == s0 and ``phi_exponents`` returns exact
        zeros, so every factor is exactly 1. phi is exp(I1 + I2) from the
        exponents that phi1^2 and phi2^2 need, not a ``log_phi`` pass."""
        columns = parameter_columns(profiles)
        _, flux, friction, _, g = columns
        coupled = (flux[:, 0] != 0.0) & (friction[:, 0] != 0.0)
        if coupled.all():
            return _coupled_rows(H, *columns)
        lam1, lam2 = eigenvalues(H, flux / H, g)
        out = (lam1, lam2, *(np.zeros_like(H) for _ in range(4)),
               *(np.ones_like(H) for _ in range(3)))
        if coupled.any():
            for a, value in zip(out, _coupled_rows(H[coupled], *(c[coupled] for c in columns))):
                a[coupled] = value
        return out


def _coupled_rows(H, inlet_depth, flux, friction, p, g):
    """The arrays of ``CharCoeffs.rows`` on rows that all carry flux and
    friction: one ``speeds_couplings`` and one ``phi_exponents`` call."""
    I1, I2 = phi_exponents(H, inlet_depth, flux, p, g)
    return (*speeds_couplings(H, flux, friction, p, g),
            np.exp(I1 + I2), np.exp(I1) ** 2, np.exp(-I2) ** 2)
