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

A network is solved in two passes. The scalar pass (``_outlet``) goes
root-first on Python floats: each channel's checks, in the order flux, inlet
margin, blow-up bound, then its outlet depth H(L) by Newton's method, which
is its children's inlet depth. The array pass (``_sample``) then inverts P
at every fine point of every channel in one Newton loop, on a (channels x
fine points) stack whose rows are edge-padded to the longest by repeating
their last abscissa, each parameter a column. Each row's samples at x = L
take its outlet depth from the scalar pass, so the depth is continuous to
the bit across every junction, and each ``SteadyProfile`` holds views of its
row. Every row has the bits of its one-row pass, ``integrate_channel_steady``.
The float and array Newton iterations may stop an ulp apart, so a fine depth
can differ from a per-channel array solve, and the last sample from the
array iteration, in its last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NegativeFlux,
    SteadyStateBlowup,
    SupercriticalStart,
)
from .topology import ChannelSpec, NetworkTopology, traversal_order

MARGIN_TOL = 1e-6
FINE_REFINEMENT = 4


def __getattr__(name):
    # Nothing here solves an ODE, but perfbench/spans.py wraps
    # channet.steady.solve_ivp to count the steady layer's ODE solves (zero),
    # so the name resolves, importing scipy.integrate only when looked up.
    # The shim goes when ROADMAP item 7 drops the solve_ivp spans.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def critical_depth(flux: float, gravity: float) -> float:
    """Depth at which the flow with flux Q becomes critical: g H^3 = Q^2."""
    if flux < 0.0:
        raise NegativeFlux(f"flux must be >= 0, got {flux!r}")
    return (flux / math.sqrt(gravity)) ** (2.0 / 3.0)


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
        return self.flux / self.outlet_depth

    def velocity_of(self, H):
        return self.flux / H

    def depth(self, x):
        """Depth at abscissae x, clipped to [0, L], inverting the depth
        potential as one row of the array pass; on the sample grids,
        H_faces, H_centers and H_fine hold it already."""
        x = np.clip(x, 0.0, self.length)
        H = _depth_from_potential(np.reshape(x, (1, -1)), *_columns([self])).reshape(x.shape)
        return float(H) if H.ndim == 0 else H

    def velocity(self, x):
        return self.velocity_of(self.depth(x))


def _potential_drop(H_hi, H_lo, flux, p, g):
    """P(H_hi) - P(H_lo) for the depth potential P of the module docstring.

    The Q^2 term is taken as H_lo^p expm1(p log r) / p with r = H_hi / H_lo,
    which tends to its p = 0 form log r without cancellation as p -> 0.
    A scalar H_lo takes math and an array H_lo numpy. On a stack of depth
    rows (m x n) each parameter may be a column (m x 1) and p an array of
    the stack's shape, and a row with p = 0 takes log r without dividing
    by p, so without a RuntimeWarning.
    """
    if isinstance(H_lo, np.ndarray):
        log_r = np.log(H_hi / H_lo)
        flat = p == 0.0
        q_term = np.where(flat, log_r, H_lo**p * np.expm1(p * log_r) / np.where(flat, 1.0, p))
    else:
        log_r = math.log(H_hi / H_lo)
        q_term = log_r if p == 0.0 else H_lo**p * math.expm1(p * log_r) / p
    return g * (H_hi ** (p + 3.0) - H_lo ** (p + 3.0)) / (p + 3.0) - flux * flux * q_term


def _blowup_drop(H0, H_t, flux, p, g):
    """P(H0) - P(H_t) for the blow-up bound, positive whenever H_t < H0.

    The difference of the two potentials is accurate only to the rounding of
    P(H0). Near the inlet-margin tolerance, where H_t lies within about
    1e-12 of H0, it is all rounding and can be negative. Up to H0 = 1.5 H_t
    each power difference a^n - b^n is taken instead as b^n expm1(n l),
    l = log1p((H0 - H_t) / H_t), accurate to a few ulp of itself. Their
    difference, the integral of P' > 0 over [H_t, H0], is at least about
    MARGIN_TOL times the first term, so it keeps its sign. For a wider drop
    expm1 of the larger argument is the less accurate, and the difference
    of the potentials is used as it is.
    """
    if H0 - H_t >= 0.5 * H_t:
        return _potential_drop(H0, H_t, flux, p, g)
    log_r = math.log1p((H0 - H_t) / H_t)
    q_term = log_r if p == 0.0 else H_t**p * math.expm1(p * log_r) / p
    return g * H_t ** (p + 3.0) * math.expm1((p + 3.0) * log_r) / (p + 3.0) - flux * flux * q_term


def potential_slope(H, flux, p, g):
    """P'(H) = H^(p-1) (g H^3 - Q^2), positive on the subcritical range.

    The depth slope along a profile is H' = -g C Q^2 / P'(H). Scalar or
    array H, and on a stack of depth rows (m x n) each parameter may be a
    column (m x 1) and p an array of the stack's shape.
    """
    return H ** (p - 1.0) * (g * H * H * H - flux * flux)


def _depth_from_potential(x, inlet_depth, flux, friction, p, g, length, outlet_depth):
    """Depths H(x) with P(H0) - P(H) = g C Q^2 x on a stack of abscissa rows
    (m x n), each parameter a column (m x 1), by one Newton loop on arrays:
    the array pass of a network, and with one row that of a channel.

    Newton starts from the inlet tangent H0 + H'(0) x. The profile is
    concave in x, so the start lies above it; P is increasing and convex on
    the subcritical range, so the iterates fall monotonically to the root.
    Each sample stops at its first step that does not fall, so no row's
    samples depend on another row, and each row has the bits of its
    one-row call. A zero drop rate (no flux or no friction) returns H0
    bitwise. The samples at x = L take the outlet depth of the scalar pass
    (``_outlet``), whose float iteration may stop an ulp from the array's.
    """
    # Every power takes an exponent array of the samples' shape. numpy
    # raises an array to an exponent broadcast from a single value, as a
    # one-row stack's column is, by another loop (H * H at exponent 2),
    # which may round differently from that of an (m x 1) column.
    p = p + np.zeros(x.shape)
    rate = g * friction * flux * flux
    H = inlet_depth - rate / potential_slope(inlet_depth, flux, p, g) * x
    rate_x = rate * x
    falling = np.ones(x.shape, dtype=bool)
    while falling.any():
        residual = rate_x - _potential_drop(inlet_depth, H, flux, p, g)
        H_next = H - residual / potential_slope(H, flux, p, g)
        falling &= H_next < H
        H = np.where(falling, H_next, H)
    return np.where(x == length, outlet_depth, H)


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


class _Outlet(NamedTuple):
    """The scalar pass's Python floats for one channel (``_outlet``)."""

    spec: ChannelSpec
    flux: float
    inlet_depth: float
    critical_depth: float
    blowup_bound: float
    outlet_depth: float


def _outlet(spec: ChannelSpec, inlet_depth: float, flux: float) -> _Outlet:
    """The scalar pass over one channel, on Python floats: the checks of
    ``integrate_channel_steady``, in its order, then the outlet depth H(L)
    by the Newton iteration of ``_depth_from_potential`` at x = L, from the
    inlet tangent, stopping at its first step that does not fall."""
    # each check in a form that NaN fails
    if not 0.0 <= flux < math.inf:
        raise NegativeFlux(f"channel {spec.id}: flux must be >= 0 and finite, got {flux!r}")
    flux = float(flux) + 0.0  # +0.0 for the -0.0 that a split fraction -0.0 gives
    g, p, L = spec.gravity, spec.friction_exponent, spec.length
    H0 = float(inlet_depth)
    if not 0.0 < H0 < math.inf:
        raise SupercriticalStart(f"channel {spec.id}: inlet depth must be positive and finite")
    threshold = MARGIN_TOL * g * H0
    inlet_margin = g * H0 - (flux / H0) ** 2
    if not inlet_margin > threshold:
        raise SupercriticalStart(
            f"channel {spec.id}: inlet margin {inlet_margin:.3e} is within "
            f"{MARGIN_TOL:g} * g * H0 of critical"
        )

    blowup = math.inf
    if flux > 0.0 and spec.friction > 0.0:
        H_t = _blowup_depth(H0, flux, threshold, g)
        blowup = _blowup_drop(H0, H_t, flux, p, g) / (g * spec.friction * flux**2)
        if blowup <= L:
            raise SteadyStateBlowup(spec.id, x_reached=blowup)

    rate = g * spec.friction * flux * flux
    H = H0 - rate / potential_slope(H0, flux, p, g) * L
    while True:
        H_next = H - (rate * L - _potential_drop(H0, H, flux, p, g)) / potential_slope(H, flux, p, g)
        if not H_next < H:
            break
        H = H_next
    return _Outlet(spec, flux, H0, critical_depth(flux, g), blowup, H)


def _columns(channels) -> tuple[np.ndarray, ...]:
    """(H0, Q, C, p, g, L, H(L)) of each channel, each a column (m x 1):
    the parameters of ``_depth_from_potential`` on a stack of rows."""
    values = np.array([(c.inlet_depth, c.flux, c.spec.friction, c.spec.friction_exponent,
                        c.spec.gravity, c.spec.length, c.outlet_depth) for c in channels])
    # contiguous columns: numpy broadcasts a strided one more slowly
    return tuple(values.T.copy()[:, :, None])


def _sample(channels: list[_Outlet]) -> list[SteadyProfile]:
    """The array pass: each channel's profile on its fine grid, from one
    ``_depth_from_potential`` call on the stack of their fine grids. Row r,
    channels[r]'s, is np.linspace(0, L, FINE_REFINEMENT * cells + 1) to the
    bit, k L / (size - 1) at the k-th point and L from the last on."""
    R = FINE_REFINEMENT
    sizes = [R * c.spec.cells + 1 for c in channels]
    columns = _columns(channels)
    L, last, k = columns[5], np.array(sizes)[:, None] - 1, np.arange(max(sizes))
    x = np.where(k < last, k * (L / last), L)
    H = _depth_from_potential(x, *columns)
    faces, centers = slice(None, None, R), slice(R // 2, None, R)
    profiles = []
    for c, x_fine, H_fine, size in zip(channels, x, H, sizes):
        x_fine, H_fine = x_fine[:size], H_fine[:size]
        profiles.append(SteadyProfile(
            spec=c.spec,
            flux=c.flux,
            inlet_depth=c.inlet_depth,
            critical_depth=c.critical_depth,
            blowup_bound=c.blowup_bound,
            x_faces=x_fine[faces],
            x_centers=x_fine[centers],
            x_fine=x_fine,
            H_faces=H_fine[faces],
            H_centers=H_fine[centers],
            H_fine=H_fine,
        ))
    return profiles


def integrate_channel_steady(spec: ChannelSpec, inlet_depth: float, flux: float) -> SteadyProfile:
    """Sample the steady profile over [0, L] and certify subcriticality: the
    one-channel case of ``solve_network_steady``, its scalar pass
    (``_outlet``) and then its array pass (``_sample``) on one row.

    Raises SupercriticalStart if the inlet margin g H - V^2 is already within
    MARGIN_TOL * g * H0 of zero, and SteadyStateBlowup if the margin reaches
    that tolerance at or before the channel end: the blow-up bound, the
    abscissa where it does, is closed form in the depth potential (+inf for
    frictionless or zero-flux channels).
    """
    return _sample([_outlet(spec, inlet_depth, flux)])[0]


def solve_network_steady(
    topo: NetworkTopology, root_depth: float, root_flux: float
) -> dict[int, SteadyProfile]:
    """Propagate the steady state root-first through the tree.

    At a junction the water depth is continuous (every outgoing channel starts
    at the incoming channel's end depth) and the flux splits according to the
    prescribed fractions. The scalar pass (``_outlet``) checks each channel
    and finds its outlet depth, parents first; one array pass (``_sample``)
    then samples every channel, each row with the bits of its
    ``integrate_channel_steady`` call.
    """
    if not 0.0 < root_flux < math.inf:
        raise NegativeFlux(f"root flux must be positive and finite, got {root_flux!r}")
    order = traversal_order(topo)
    outlets: dict[int, _Outlet] = {}
    for i in order:
        if i == topo.root_channel:
            H0, Q = root_depth, root_flux
        else:
            parent = topo.parent_of(i)
            upstream = outlets[parent]
            H0 = upstream.outlet_depth
            Q = topo.split_of(parent, i) * upstream.flux
        outlets[i] = _outlet(topo.channels[i], H0, Q)
    return dict(zip(order, _sample([outlets[i] for i in order])))
