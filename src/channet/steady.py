"""Steady subcritical profiles along channels and through junctions.

For a prismatic channel of unit width carrying constant flux Q, the steady
depth profile H*(x) obeys

    dH*/dx = - g C V*^2 / ( H*^(p-1) (g H* - V*^2) ),     V* = Q / H*,

with friction coefficient C >= 0 and friction exponent p >= 0 (p = 1 is the
Chezy law, p = 4/3 Manning-Strickler). With C > 0 and Q > 0 the depth strictly
decreases and the velocity strictly increases downstream, and the profile
ceases to exist at a finite abscissa where the flow reaches the critical
depth (Q / sqrt(g))^(2/3). The equation has the first integral

    P(H(x)) = P(H0) - g C Q^2 x,   P(H) = g H^(p+3)/(p+3) - Q^2 H^p / p

(Q^2 log H in place of the second term when p = 0), so nothing is
integrated. The blow-up bound, the abscissa where the margin g H - V^2
reaches its tolerance, is closed form, and a channel that reaches it is
refused. The depth at any abscissa inverts P by Newton's method, which on
the subcritical range needs no safeguard. A profile is sampled once, on its
fine grid of FINE_REFINEMENT * cells + 1 points: every face is the fine
point R k and every center the fine point R k + R/2, R = FINE_REFINEMENT, so
the face and center samples are slices of the fine ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativeFlux,
    SteadyStateBlowup,
    SupercriticalStart,
    SupercriticalState,
)
from .topology import ChannelSpec, NetworkTopology, traversal_order, validate_topology

MARGIN_TOL = 1e-6
FINE_REFINEMENT = 4


def __getattr__(name):
    # Nothing here solves an ODE, but perfbench/spans.py wraps
    # channet.steady.solve_ivp to count the steady layer's ODE solves (zero),
    # so the name resolves, importing scipy.integrate only when looked up.
    # The shim goes when ROADMAP item 4 drops the solve_ivp spans.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def critical_depth(flux: float, gravity: float = 9.81) -> float:
    """Depth at which the flow with flux Q becomes critical: g H^3 = Q^2."""
    if flux < 0.0:
        raise NegativeFlux(f"flux must be >= 0, got {flux!r}")
    return (flux / math.sqrt(gravity)) ** (2.0 / 3.0)


def steady_rhs(depth, flux, friction=0.0, friction_exponent=1.0, gravity=9.81):
    """Right-hand side dH*/dx of the steady depth equation.

    Accepts scalar or array depth. Raises SupercriticalState if any depth is
    at or below critical (the subcritical profile equation is not defined
    there).
    """
    H = np.asarray(depth, dtype=float)
    if np.any(H <= 0.0):
        raise SupercriticalState("depth must be positive")
    V2 = np.zeros_like(H) if flux == 0.0 else (flux / H) ** 2
    margin = gravity * H - V2
    if np.any(margin <= 0.0):
        raise SupercriticalState(
            "flow is critical or supercritical (g H - V^2 <= 0)"
        )
    rhs = -gravity * friction * V2 / (H ** (friction_exponent - 1.0) * margin)
    return float(rhs) if rhs.ndim == 0 else rhs


@dataclass(frozen=True, eq=False)
class SteadyProfile:
    """Steady state of one channel, sampled on its fine grid.

    The fine grid x_fine, with FINE_REFINEMENT points per cell, carries the
    coefficient quadratures and positivity scans; the cell interfaces
    (x_faces, H_faces) and cell centers (x_centers, H_centers) are its every
    FINE_REFINEMENT-th points, starting at the first and at the middle of
    the first cell. ``depth`` evaluates the profile anywhere in [0, L] from
    the depth potential, as the samples were; velocities are always flux /
    depth so the flux identity holds to round-off.
    """

    spec: ChannelSpec
    flux: float
    inlet_depth: float
    critical_depth: float
    blowup_bound: float
    x_faces: np.ndarray
    x_centers: np.ndarray
    x_fine: np.ndarray
    H_faces: np.ndarray
    H_centers: np.ndarray
    H_fine: np.ndarray

    @property
    def channel(self) -> int:
        return self.spec.id

    @property
    def length(self) -> float:
        return self.spec.length

    @property
    def gravity(self) -> float:
        return self.spec.gravity

    @property
    def V_faces(self) -> np.ndarray:
        return self.velocity_of(self.H_faces)

    @property
    def V_centers(self) -> np.ndarray:
        return self.velocity_of(self.H_centers)

    @property
    def outlet_depth(self) -> float:
        return float(self.H_faces[-1])

    @property
    def outlet_velocity(self) -> float:
        return self.flux / self.outlet_depth if self.flux != 0.0 else 0.0

    def velocity_of(self, H):
        if self.flux == 0.0:
            out = np.zeros_like(np.asarray(H, dtype=float))
            return float(out) if out.ndim == 0 else out
        return self.flux / H

    def depth(self, x):
        """Depth at abscissae x, clipped to [0, L], inverting the depth
        potential; on the sample grids, H_faces, H_centers and H_fine hold
        it already."""
        x = np.clip(x, 0.0, self.length)
        H = _depth_from_potential(self.spec, self.inlet_depth, self.flux, x)
        return float(H) if H.ndim == 0 else H

    def velocity(self, x):
        return self.velocity_of(self.depth(x))


def _potential_drop(H_hi, H_lo, flux, p, g):
    """P(H_hi) - P(H_lo) for the depth potential P of the module docstring.

    The Q^2 term is taken as H_lo^p expm1(p log r) / p with r = H_hi / H_lo,
    which tends to its p = 0 form log r without cancellation as p -> 0.
    A scalar H_lo takes math and an array H_lo numpy.
    """
    log, expm1 = (np.log, np.expm1) if isinstance(H_lo, np.ndarray) else (math.log, math.expm1)
    log_r = log(H_hi / H_lo)
    q_term = log_r if p == 0.0 else H_lo**p * expm1(p * log_r) / p
    return g * (H_hi ** (p + 3.0) - H_lo ** (p + 3.0)) / (p + 3.0) - flux * flux * q_term


def potential_slope(H, flux, p, g):
    """P'(H) = H^(p-1) (g H^3 - Q^2), positive on the subcritical range.

    The depth slope along a profile is H' = -g C Q^2 / P'(H). Scalar or
    array H.
    """
    return H ** (p - 1.0) * (g * H * H * H - flux * flux)


def _depth_from_potential(spec: ChannelSpec, inlet_depth: float, flux: float, x):
    """Depths H(x) with P(H0) - P(H) = g C Q^2 x, by Newton's method on arrays.

    Newton starts from the inlet tangent H0 + H'(0) x. The profile is
    concave in x, so the start lies above it; P is increasing and convex on
    the subcritical range, so the iterates fall monotonically to the root.
    Each sample stops at its first step that does not fall. A zero drop rate
    (no flux or no friction) returns H0 bitwise.
    """
    g, p = spec.gravity, spec.friction_exponent
    rate = g * spec.friction * flux * flux
    x = np.asarray(x, dtype=float)
    H = inlet_depth - rate / potential_slope(inlet_depth, flux, p, g) * x
    falling = np.ones(x.shape, dtype=bool)
    while falling.any():
        residual = rate * x - _potential_drop(inlet_depth, H, flux, p, g)
        H_next = H - residual / potential_slope(H, flux, p, g)
        falling &= H_next < H
        H = np.where(falling, H_next, H)
    return H


def _margin_excess(H, flux, threshold, g):
    """g H^3 - threshold H^2 - Q^2: H^2 times the margin g H - V^2 less its
    tolerance threshold."""
    return (g * H - threshold) * H * H - flux * flux


def _blowup_depth(inlet_depth, flux, threshold, g):
    """Depth H_t in (Hc, H0] where the margin g H - V^2 falls to threshold,
    the root of _margin_excess, by Newton's method from H0.

    The excess is positive at H0, and increasing and convex on [H_t, H0]:
    there g H > threshold, so its slope H (3 g H - 2 threshold) and its
    curvature 6 g H - 2 threshold are positive. The iterates therefore fall
    monotonically to the root, and the iteration stops at its first step
    that does not fall.
    """
    H = inlet_depth
    while True:
        H_next = H - _margin_excess(H, flux, threshold, g) / ((3.0 * g * H - 2.0 * threshold) * H)
        if not H_next < H:
            return H
        H = H_next


def integrate_channel_steady(spec: ChannelSpec, inlet_depth: float, flux: float) -> SteadyProfile:
    """Sample the steady profile over [0, L] and certify subcriticality.

    Raises SupercriticalStart if the inlet margin g H - V^2 is already within
    MARGIN_TOL * g * H0 of zero, and SteadyStateBlowup if the margin reaches
    that tolerance at or before the channel end: the blow-up bound, the
    abscissa where it does, is closed form in the depth potential (+inf for
    frictionless or zero-flux channels). One Newton solve inverts the
    potential on the fine grid, and the faces and centers are its slices.
    """
    if flux < 0.0:
        raise NegativeFlux(f"channel {spec.id}: flux must be >= 0, got {flux!r}")
    g = spec.gravity
    H0 = float(inlet_depth)
    if H0 <= 0.0:
        raise SupercriticalStart(f"channel {spec.id}: inlet depth must be positive")
    Hc = critical_depth(flux, g)
    threshold = MARGIN_TOL * g * H0
    inlet_margin = g * H0 - (0.0 if flux == 0.0 else (flux / H0) ** 2)
    if inlet_margin <= threshold:
        raise SupercriticalStart(
            f"channel {spec.id}: inlet margin {inlet_margin:.3e} is within "
            f"{MARGIN_TOL:g} * g * H0 of critical"
        )

    blowup = math.inf
    if flux > 0.0 and spec.friction > 0.0:
        H_t = _blowup_depth(H0, flux, threshold, g)
        drop = _potential_drop(H0, H_t, flux, spec.friction_exponent, g)
        blowup = float(drop) / (g * spec.friction * flux**2)
        if blowup <= spec.length:
            raise SteadyStateBlowup(spec.id, x_reached=blowup)

    R = FINE_REFINEMENT
    x_fine = np.linspace(0.0, spec.length, R * spec.cells + 1)
    H_fine = _depth_from_potential(spec, H0, flux, x_fine)
    faces, centers = slice(None, None, R), slice(R // 2, None, R)
    return SteadyProfile(
        spec=spec,
        flux=float(flux),
        inlet_depth=H0,
        critical_depth=Hc,
        blowup_bound=blowup,
        x_faces=x_fine[faces],
        x_centers=x_fine[centers],
        x_fine=x_fine,
        H_faces=H_fine[faces],
        H_centers=H_fine[centers],
        H_fine=H_fine,
    )


def solve_network_steady(
    topo: NetworkTopology, root_depth: float, root_flux: float
) -> dict[int, SteadyProfile]:
    """Propagate the steady state root-first through the tree.

    At a junction the water depth is continuous (every outgoing channel starts
    at the incoming channel's end depth) and the flux splits according to the
    prescribed fractions.
    """
    validate_topology(topo)
    if root_flux <= 0.0:
        raise NegativeFlux(f"root flux must be positive, got {root_flux!r}")
    profiles: dict[int, SteadyProfile] = {}
    for i in traversal_order(topo):
        spec = topo.channels[i]
        if i == topo.root_channel:
            H0, Q = root_depth, root_flux
        else:
            parent = topo.parent_of(i)
            upstream = profiles[parent]
            H0 = upstream.outlet_depth
            Q = topo.split_of(parent, i) * upstream.flux
        profiles[i] = integrate_channel_steady(spec, H0, Q)
    return profiles
