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
the subcritical range needs no safeguard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Not called here: perfbench/spans.py wraps channet.steady.solve_ivp to count
# the steady layer's ODE solves, so the name must resolve; the count is zero.
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import brentq

from .errors import (
    NegativeFlux,
    SteadyStateBlowup,
    SupercriticalStart,
    SupercriticalState,
)
from .topology import ChannelSpec, NetworkTopology, traversal_order, validate_topology

MARGIN_TOL = 1e-6
FINE_REFINEMENT = 4


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
    """Steady state of one channel, sampled on the simulation grids.

    Depth/velocity samples are provided at cell centers, cell interfaces and
    on a finer uniform grid used for coefficient quadratures and positivity
    scans. ``depth`` evaluates the profile anywhere in [0, L] from the depth
    potential, as the samples were; velocities are always flux / depth so the
    flux identity holds to round-off.
    """

    spec: ChannelSpec
    flux: float
    inlet_depth: float
    critical_depth: float
    blowup_bound: float
    margin_tol: float
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

    def points(self, where):
        """(x, H) at the "inlet", the "outlet", or the "faces", "centers" or
        "fine" grid, with the depths held here; at other abscissae ``where``
        the depth is inverted anew."""
        if not isinstance(where, str):
            return where, self.depth(where)
        if where == "inlet":
            return 0.0, self.inlet_depth
        if where == "outlet":
            return self.length, self.outlet_depth
        return getattr(self, "x_" + where), getattr(self, "H_" + where)

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


def integrate_channel_steady(
    spec: ChannelSpec,
    inlet_depth: float,
    flux: float,
    margin_tol: float = MARGIN_TOL,
) -> SteadyProfile:
    """Sample the steady profile over [0, L] and certify subcriticality.

    Raises SupercriticalStart if the inlet margin g H - V^2 is already within
    margin_tol * g * H0 of zero, and SteadyStateBlowup if the margin reaches
    that tolerance at or before the channel end: the blow-up bound, the
    abscissa where it does, is closed form in the depth potential (+inf for
    frictionless or zero-flux channels). The samples invert the potential
    in one Newton solve.
    """
    if flux < 0.0:
        raise NegativeFlux(f"channel {spec.id}: flux must be >= 0, got {flux!r}")
    g = spec.gravity
    H0 = float(inlet_depth)
    if H0 <= 0.0:
        raise SupercriticalStart(f"channel {spec.id}: inlet depth must be positive")
    Hc = critical_depth(flux, g)
    threshold = margin_tol * g * H0
    inlet_margin = g * H0 - (0.0 if flux == 0.0 else (flux / H0) ** 2)
    if inlet_margin <= threshold:
        raise SupercriticalStart(
            f"channel {spec.id}: inlet margin {inlet_margin:.3e} is within "
            f"{margin_tol:g} * g * H0 of critical"
        )

    blowup = math.inf
    if flux > 0.0 and spec.friction > 0.0:
        # The margin reaches its tolerance at the depth H_t where g H^3 -
        # threshold H^2 = Q^2; the left side increases on (Hc, H0], so the
        # root is unique.
        H_t = brentq(lambda H: (g * H - threshold) * H * H - flux * flux, Hc, H0)
        drop = _potential_drop(H0, H_t, flux, spec.friction_exponent, g)
        blowup = float(drop) / (g * spec.friction * flux**2)
        if blowup <= spec.length:
            raise SteadyStateBlowup(spec.id, x_reached=blowup)

    N = spec.cells
    x_faces = np.linspace(0.0, spec.length, N + 1)
    x_centers = 0.5 * (x_faces[:-1] + x_faces[1:])
    x_fine = np.linspace(0.0, spec.length, FINE_REFINEMENT * N + 1)
    H = _depth_from_potential(spec, H0, flux, np.concatenate((x_faces, x_centers, x_fine)))
    H_faces, H_centers, H_fine = np.split(H, [N + 1, 2 * N + 1])
    return SteadyProfile(
        spec=spec,
        flux=float(flux),
        inlet_depth=H0,
        critical_depth=Hc,
        blowup_bound=blowup,
        margin_tol=margin_tol,
        x_faces=x_faces,
        x_centers=x_centers,
        x_fine=x_fine,
        H_faces=H_faces,
        H_centers=H_centers,
        H_fine=H_fine,
    )


def solve_network_steady(
    topo: NetworkTopology,
    root_depth: float,
    root_flux: float,
    margin_tol: float = MARGIN_TOL,
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
        profiles[i] = integrate_channel_steady(spec, H0, Q, margin_tol)
    return profiles
