"""Steady subcritical profiles along channels and through junctions.

For a prismatic channel of unit width carrying constant flux Q, the steady
depth profile H*(x) obeys

    dH*/dx = - g C V*^2 / ( H*^(p-1) (g H* - V*^2) ),     V* = Q / H*,

with friction coefficient C >= 0 and friction exponent p >= 0 (p = 1 is the
Chezy law, p = 4/3 Manning-Strickler). With C > 0 and Q > 0 the depth strictly
decreases and the velocity strictly increases downstream, and the profile
ceases to exist at a finite abscissa where the flow reaches the critical
depth (Q / sqrt(g))^(2/3). Profiles are integrated with adaptive
Runge-Kutta stepping and certified subcritical by an event on the margin
g H - V^2. The equation has the first integral

    P(H(x)) = P(H0) - g C Q^2 x,   P(H) = g H^(p+3)/(p+3) - Q^2 H^p / p

(Q^2 log H in place of the second term when p = 0), so the blow-up bound,
the abscissa where the margin reaches its tolerance, is closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
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
ODE_RTOL = 1e-12
ODE_ATOL = 1e-14


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


class _ConstantDepth:
    """Depth evaluator for frictionless or zero-flux channels."""

    def __init__(self, value: float):
        self.value = value

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.value)
        return float(out) if out.ndim == 0 else out


class _DenseDepth:
    """Clamped evaluator over the dense ODE solution."""

    def __init__(self, interpolant, x_end: float):
        self.interpolant = interpolant
        self.x_end = x_end

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        clipped = np.clip(x, 0.0, self.x_end)
        out = self.interpolant(clipped)[0]
        return float(out) if np.ndim(x) == 0 else np.asarray(out, dtype=float)


@dataclass(frozen=True, eq=False)
class SteadyProfile:
    """Steady state of one channel, sampled on the simulation grids.

    Depth/velocity samples are provided at cell centers, cell interfaces and
    on a finer uniform grid used for coefficient quadratures and positivity
    scans. ``depth`` evaluates the profile anywhere in [0, L] from the dense
    integrator output; velocities are always flux / depth so the flux identity
    holds to round-off.
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
    depth: Callable

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
    def V_fine(self) -> np.ndarray:
        return self.velocity_of(self.H_fine)

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

    def velocity(self, x):
        return self.velocity_of(self.depth(x))

    def depth_slope(self, x):
        """Analytic dH*/dx evaluated through the profile equation."""
        return steady_rhs(
            self.depth(x),
            self.flux,
            self.spec.friction,
            self.spec.friction_exponent,
            self.gravity,
        )

    def subcritical_margin(self, x):
        H = self.depth(x)
        return self.gravity * H - self.velocity_of(H) ** 2


def _potential_drop(H_hi, H_lo, flux, p, g):
    """P(H_hi) - P(H_lo) for the depth potential P of the module docstring.

    The Q^2 term is taken as H_lo^p expm1(p log r) / p with r = H_hi / H_lo,
    which tends to its p = 0 form log r without cancellation as p -> 0.
    """
    log_r = math.log(H_hi / H_lo)
    q_term = log_r if p == 0.0 else H_lo**p * math.expm1(p * log_r) / p
    return g * (H_hi ** (p + 3.0) - H_lo ** (p + 3.0)) / (p + 3.0) - flux * flux * q_term


def guarded_depth_rhs(spec: ChannelSpec, flux: float, inlet_depth: float, margin_tol: float):
    """Scalar dH/dx of the steady depth equation, guarded: H -> (H, dH/dx).

    Every ODE that carries the steady depth (the profile itself and the
    weight ODEs) uses it. The margin g H - V^2 is floored at a quarter of
    the subcritical tolerance, and the depth just above critical, where the
    margin is at most that floor: trial evaluations beyond the terminal
    event stay finite, the returned depth is subcritical for every kernel
    taken at it, and an accepted solution never enters the guarded region.
    Needs flux > 0.
    """
    g, friction, p = spec.gravity, spec.friction, spec.friction_exponent
    margin_floor = 0.25 * (margin_tol * g * inlet_depth)
    # the margin grows with slope at most 3 g on [Hc, Hc + margin_floor / (3 g)]
    H_floor = critical_depth(flux, g) + margin_floor / (3.0 * g)

    def rhs(H):
        H = max(H, H_floor)
        V2 = (flux / H) ** 2
        return H, -g * friction * V2 / (H ** (p - 1.0) * max(g * H - V2, margin_floor))

    return rhs


def integrate_channel_steady(
    spec: ChannelSpec,
    inlet_depth: float,
    flux: float,
    margin_tol: float = MARGIN_TOL,
) -> SteadyProfile:
    """Integrate the steady profile over [0, L] and certify subcriticality.

    Raises SupercriticalStart if the inlet margin g H - V^2 is already within
    margin_tol * g * H0 of zero, and SteadyStateBlowup if the margin event
    fires at or before the channel end. The returned blow-up bound is the
    abscissa where the margin reaches that tolerance, from the depth potential
    (+inf for frictionless or zero-flux channels).
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

    if flux == 0.0 or spec.friction == 0.0:
        depth_fn: Callable = _ConstantDepth(H0)
        blowup = math.inf
    else:
        p = spec.friction_exponent
        depth_rhs = guarded_depth_rhs(spec, flux, H0, margin_tol)

        # Python floats: numpy scalar arithmetic costs more and gives the same bits
        def rhs(x, y):
            return (depth_rhs(float(y[0]))[1],)

        def margin_event(x, y):
            H = max(float(y[0]), 1e-12 * H0)
            return g * H - (flux / H) ** 2 - threshold

        margin_event.terminal = True
        margin_event.direction = -1

        sol = solve_ivp(
            rhs,
            (0.0, spec.length),
            (H0,),
            method="RK45",
            dense_output=True,
            rtol=ODE_RTOL,
            atol=ODE_ATOL,
            events=margin_event,
        )
        if sol.t_events[0].size:
            raise SteadyStateBlowup(spec.id, x_reached=float(sol.t_events[0][0]))
        if not sol.success:
            # Step-size underflow before the event resolves: the profile is
            # collapsing onto the critical depth inside the channel.
            if sol.t[-1] < spec.length:
                raise SteadyStateBlowup(spec.id, x_reached=float(sol.t[-1]))
            raise SupercriticalState(f"channel {spec.id}: steady integration failed: {sol.message}")
        depth_fn = _DenseDepth(sol.sol, spec.length)
        # The margin event fires at the depth H_t where g H^3 - threshold H^2
        # = Q^2; the left side increases on (Hc, H0], so the root is unique.
        H_t = brentq(lambda H: (g * H - threshold) * H * H - flux * flux, Hc, H0)
        blowup = _potential_drop(H0, H_t, flux, p, g) / (g * spec.friction * flux**2)

    N = spec.cells
    x_faces = np.linspace(0.0, spec.length, N + 1)
    x_centers = 0.5 * (x_faces[:-1] + x_faces[1:])
    x_fine = np.linspace(0.0, spec.length, FINE_REFINEMENT * N + 1)
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
        H_faces=np.asarray(depth_fn(x_faces), dtype=float),
        H_centers=np.asarray(depth_fn(x_centers), dtype=float),
        H_fine=np.asarray(depth_fn(x_fine), dtype=float),
        depth=depth_fn,
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
