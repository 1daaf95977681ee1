"""Lyapunov weight profiles and network stability certificates.

The linearized network is dissipative in a weighted characteristic norm

    V = sum_i int_0^L ( f1_i y1_i^2 + f2_i y2_i^2 ) dx,

with per-channel weights built from three ingredients:

* exponential factors phi1 = exp(int gamma1/lambda1), phi2 = exp(-int
  delta2/lambda2), phi = phi1/phi2, which absorb the zero-order coupling,
* a comparison function eta(x) solving the scalar Riccati inequality
  eta' = |delta1 phi / lambda1 + (gamma2 / (lambda2 phi)) eta^2| + epsilon,
  started strictly inside (0, phi) at the inlet, and
* per-channel scale factors alpha chosen so that the weighted norm is
  continuous across junctions.

With eta in hand the weights are f1 = alpha phi1^2 / (lambda1 eta) and
f2 = alpha phi2^2 eta / lambda2, and the boundary/junction terms of dV/dt are
controlled by the signs of Z = lambda1 f1 - lambda2 f2 and by small symmetric
matrices assembled from Z and W = lambda1 f1 + lambda2 f2. The epsilon = 0
comparison solution with unit inlet value has the closed form
eta_bar = m(x) eta0(x) with eta0 = (lambda2/lambda1) phi and m an explicit
rational function of the steady depth.

The exponents of phi1 and phi2 and the existence integral I4 are closed-form
functions of the local depth (``characteristics.phi_exponents`` and
``characteristics.existence_integral``), so ``phi_profiles`` and the
existence margin solve no ODE. Only the comparison solution at epsilon > 0
is integrated, by adaptive Runge-Kutta (relative tolerance 1e-11), so
certificate accuracy does not depend on the simulation grid. One function,
``_integrate``, makes that solve, with the steady depth as the independent
variable: from the inlet depth down to the outlet depth, its state is the
angle theta = arctan(w) of w = eta / phi - epsilon x alone, and the speeds,
couplings and exponents come from the kernels of ``characteristics`` that
``CharCoeffs`` uses too. As eta' >= epsilon > 0, eta can leave its range
only upward; where w blows up inside the channel, theta crosses
arctan(1e12) smoothly and the solve stops at that event. ``_ChannelState``
reads eta = (tan theta + epsilon x) phi on the fine grid only, at the
depths the steady profile holds there; the weights, speeds and couplings at
the faces and centers are elements and slices of the fine-grid arrays. An
epsilon attempt does only epsilon-dependent work: per channel one solve and
one evaluation of it on the fine grid, while the speeds, couplings and phi
factors there (``_FineFactors``) are computed once per channel and
certificate. The test suite (``tests/conftest.py``) keeps the ODE forms of
I4 and of the unit-inlet comparison solution, in w and with a driver of
their own, as oracles of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .characteristics import (
    CharCoeffs,
    eigenvalues,
    existence_integral,
    phi_exponents,
    reflection_coefficient,
    speeds_couplings,
)
from .errors import (
    DegenerateFlux,
    EpsilonTooLarge,
    MissingGain,
    WeightError,
    ZeroW,
)
from .steady import SteadyProfile, _potential_drop, potential_slope
from .topology import NetworkTopology, traversal_order, validate_topology

ETA_BLOWUP = 1e12
ETA_RTOL = 1e-11
ETA_ATOL = 1e-13
POSITIVITY_REL_TOL = 1e-12
DEFAULT_EPSILON = 1e-3
MAX_HALVINGS = 20


def _integrate(profile: SteadyProfile, dtheta, init, events=None):
    """One adaptive solve of the comparison solution over a coupled channel,
    in its angle theta = arctan(w), with the steady depth as the variable.

    ``dtheta(theta, x, H, I1, I2, lam1, lam2, g1, d1, g2, d2)`` is the
    derivative of theta in x, which starts at arctan(init); the abscissa x,
    the exponents I1, I2 and the speeds and couplings come from the
    closed-form kernels at H. The solve runs from the inlet depth down to
    the outlet depth with dtheta/dH = theta'(x) / H', where H' = -g C Q^2 /
    P'(H): every depth it visits is on the profile, so no guard is needed.
    On a nearly flat profile dtheta/dH is large unless theta'(x) is of the
    size of the couplings, which vanish with the drop. Returns the solve_ivp
    result for the caller to check.
    """
    spec = profile.spec
    H0, flux, friction = profile.inlet_depth, profile.flux, spec.friction
    p, g = spec.friction_exponent, spec.gravity
    rate = g * friction * flux * flux

    def rhs(H, y):
        # Python floats: the same arithmetic on numpy scalars costs about
        # twice as much per evaluation
        H = float(H)
        I1, I2 = phi_exponents(H, H0, flux, p, g)
        x = _potential_drop(H0, H, flux, p, g) / rate
        theta_x = dtheta(float(y[0]), x, H, I1, I2, *speeds_couplings(H, flux, friction, p, g))
        return (-theta_x * potential_slope(H, flux, p, g) / rate,)

    return solve_ivp(
        rhs,
        (H0, profile.outlet_depth),
        (math.atan(init),),
        method="RK45",
        dense_output=True,
        rtol=ETA_RTOL,
        atol=ETA_ATOL,
        events=events,
    )


def _eta_blowup(H, y):
    return y[0] - math.atan(ETA_BLOWUP)


_eta_blowup.terminal = True
_eta_blowup.direction = 1


def _riccati(epsilon):
    """Derivative of the comparison solution in the angle theta = arctan(w)
    of the scaled variable w = eta / phi - epsilon x.

    With u = w + epsilon x, w' = |delta1/lambda1 + (gamma2/lambda2) u^2| -
    u (gamma1/lambda1 + delta2/lambda2) + epsilon (1/phi - 1), and theta' =
    w' cos^2 theta. With v = u cos theta = sin theta + epsilon x cos theta,

        theta' = |(delta1/lambda1) cos^2 theta + (gamma2/lambda2) v^2|
                 - (gamma1/lambda1 + delta2/lambda2) v cos theta
                 + epsilon (1/phi - 1) cos^2 theta,

    bounded however large w grows: a blow-up of w is a smooth crossing of
    theta = arctan(ETA_BLOWUP), where the solve stops at its event.

    The scaled form has the neutral exponential drift removed: the raw eta
    equation amplifies truncation error by exp(int 2 gamma2 eta / (lambda2
    phi)), which overwhelms any tolerance on channels approaching the
    blow-up length, while the scaled form stays well conditioned. Taking
    epsilon x out leaves w' of the size of the couplings, so w is smooth
    in the depth however flat the profile.
    """

    def dtheta(theta, x, H, I1, I2, lam1, lam2, g1, d1, g2, d2):
        c = math.cos(theta)
        v = math.sin(theta) + epsilon * x * c
        return (
            abs(d1 / lam1 * c * c + g2 / lam2 * v * v)
            - v * c * (g1 / lam1 + d2 / lam2)
            + epsilon * math.expm1(-(I1 + I2)) * c * c
        )

    return dtheta


@dataclass(frozen=True, eq=False)
class _FineFactors:
    """What every epsilon attempt needs of a channel on its fine grid and
    does not depend on epsilon: its CharCoeffs, phi = exp(I1 + I2), phi1^2 =
    exp(I1)^2 and phi2^2 = exp(-I2)^2, and the coefficients A = delta1 phi /
    lambda1 and B = gamma2 / (lambda2 phi) of the Riccati slope eta' = |A +
    B eta^2| + epsilon. On a channel whose depth stays H0 to the last bit
    the exponents vanish. A certificate builds them once per channel."""

    coeffs: CharCoeffs
    phi: np.ndarray
    phi1_sq: np.ndarray
    phi2_sq: np.ndarray
    A: np.ndarray
    B: np.ndarray

    @classmethod
    def of(cls, profile: SteadyProfile) -> "_FineFactors":
        c = CharCoeffs.from_profile(profile)
        H = profile.H_fine
        if profile.outlet_depth == profile.inlet_depth:
            I1 = I2 = np.zeros(H.shape)
        else:
            spec = profile.spec
            terms = (profile.inlet_depth, profile.flux, spec.friction_exponent, spec.gravity)
            I1, I2 = phi_exponents(H, *terms)
        phi = np.exp(I1 + I2)
        A, B = c.delta1 * phi / c.lambda1, c.gamma2 / (c.lambda2 * phi)
        return cls(c, phi, np.exp(I1) ** 2, np.exp(-I2) ** 2, A, B)

    def pair(self, eta):
        """(phi1^2 / eta, phi2^2 eta): times alpha and over (lambda1,
        lambda2) they are (f1, f2), and their difference and sum are Z /
        alpha and W / alpha."""
        return self.phi1_sq / eta, self.phi2_sq * eta


class _ChannelState:
    """The comparison solution of one channel at one epsilon.

    ``sol`` is a solve of theta = arctan(w), w = eta / phi - epsilon x, in
    the depth by ``_integrate``, and eta = (tan theta(H) + epsilon x) phi. A
    channel whose depth stays H0 to the last bit has no solve (``sol``
    None): phi = 1 and eta is init + epsilon x, the exact solution of an
    uncoupled channel.
    """

    def __init__(self, profile: SteadyProfile, sol=None, init=0.0, epsilon=0.0):
        self.profile = profile
        self.init = init
        self.epsilon = epsilon
        self.dense = None if sol is None else sol.sol

    def eta(self, fine: _FineFactors):
        """eta on the fine grid, one evaluation of the dense solution."""
        prof = self.profile
        w = self.init if self.dense is None else np.tan(self.dense(prof.H_fine)[0])
        return (w + self.epsilon * prof.x_fine) * fine.phi


@dataclass(frozen=True, eq=False)
class PhiProfiles:
    """Cumulative coefficient integrals of one channel, in closed form.

    The state is (H, I1, I2, I4) with

        I1 = int gamma1/lambda1,    I2 = int delta2/lambda2,
        I3 = int 2 gamma2/lambda1,  I4 = int exp(I3) gamma2/(lambda2 phi),

    so phi1 = exp(I1), phi2 = exp(-I2), phi = exp(I1 + I2), and I4 is the
    integral whose smallness guarantees the comparison solution exists.
    With exp(I3) = phi1^2 (lambda1(0)/lambda1)^2 H(0)/H, all three are
    closed form in the steady depth. A zero-flux channel has constant depth
    and no coupling, and all three vanish.
    """

    profile: SteadyProfile

    def state(self, x):
        prof = self.profile
        H = prof.depth(x)
        if prof.flux == 0.0:
            zeros = np.zeros(np.shape(H))
            return np.array([H, zeros, zeros, zeros])
        terms = (prof.inlet_depth, prof.flux, prof.spec.friction_exponent, prof.gravity)
        return np.array([H, *phi_exponents(H, *terms), existence_integral(H, *terms)])

    def depth(self, x):
        return self.state(x)[0]

    def phi1(self, x):
        return np.exp(self.state(x)[1])

    def phi2(self, x):
        return np.exp(-self.state(x)[2])

    def phi(self, x):
        s = self.state(x)
        return np.exp(s[1] + s[2])

    def existence_integral(self, x):
        return self.state(x)[3]


def phi_profiles(profile: SteadyProfile) -> PhiProfiles:
    """The coefficient integrals of one channel; no ODE is solved."""
    return PhiProfiles(profile)


def m_value(H, inlet_depth, flux, friction_exponent, gravity):
    """Closed-form ratio m = eta_bar / eta0 as a function of the local depth."""
    if flux == 0.0:
        raise DegenerateFlux("m is undefined for a zero-flux channel")
    H = np.asarray(H, dtype=float)
    p = friction_exponent
    sg = math.sqrt(gravity)
    s = (3.0 + 2.0 * p) / 2.0
    shared = (
        (sg / ((3.0 + p) * flux)) * H ** (3.0 + p)
        + ((1.0 + p) * sg / (2.0 * (3.0 + p) * flux)) * inlet_depth ** (3.0 + p)
        + (flux / (2.0 * sg)) * (H**p - inlet_depth**p)
    )
    half = 0.5 * H**s
    num = half + shared
    den = shared - half
    if np.any(den <= 0.0):
        raise WeightError("m denominator vanished: depth beyond the subcritical range")
    out = num / den
    return float(out) if out.ndim == 0 else out


def m_profile(profile: SteadyProfile, x):
    """m(x) along the channel; raises DegenerateFlux for zero-flux channels."""
    return m_value(
        profile.depth(x),
        profile.inlet_depth,
        profile.flux,
        profile.spec.friction_exponent,
        profile.gravity,
    )


def riccati_existence_margin(phi: PhiProfiles, x):
    """Positive margin certifying the unit-inlet comparison solution up to x.

    margin(x) = lambda1(0) / (lambda1(0) - lambda2(0)) - I4(x); the comparison
    solution eta_bar exists on [0, x] while the margin stays positive.
    """
    prof = phi.profile
    if prof.flux == 0.0:
        raise DegenerateFlux("existence margin is undefined for a zero-flux channel")
    H0 = prof.inlet_depth
    lam1_0, lam2_0 = eigenvalues(H0, prof.velocity_of(H0), prof.gravity)
    return lam1_0 / (lam1_0 - lam2_0) - phi.existence_integral(x)


def eta_eps(
    profile: SteadyProfile,
    epsilon: float,
    trunk_inlet: bool = False,
) -> object:
    """Strictly increasing comparison solution with slope margin epsilon.

    Solves eta' = |delta1 phi / lambda1 + (gamma2/(lambda2 phi)) eta^2| +
    epsilon with inlet value lambda2(0)/lambda1(0) + epsilon on the trunk and
    1 + epsilon on branch channels, advanced in the angle theta = arctan(w)
    of the scaled variable w = eta / phi - epsilon x (see _riccati for the
    conditioning rationale). As eta' >= epsilon > 0, eta leaves its range
    only upward: EpsilonTooLarge is raised if w passes 1e12 before the
    channel end, where the solve stops at its event.
    """
    if trunk_inlet:
        if profile.flux == 0.0:
            raise DegenerateFlux("trunk channels carry positive flux")
        H0 = profile.inlet_depth
        lam1_0, lam2_0 = eigenvalues(H0, profile.velocity_of(H0), profile.gravity)
        init = lam2_0 / lam1_0 + epsilon
    else:
        init = 1.0 + epsilon

    if profile.outlet_depth == profile.inlet_depth:
        # the depth stays H0 (no flux, no friction, or a drop below
        # rounding), and with it the exponents
        return _ChannelState(profile, init=init, epsilon=epsilon)

    sol = _integrate(profile, _riccati(epsilon), init, _eta_blowup)
    if sol.t_events[0].size or not sol.success:
        raise EpsilonTooLarge(
            f"channel {profile.channel}: comparison solution with epsilon={epsilon:g} "
            f"does not exist on the whole channel"
        )
    return _ChannelState(profile, sol, epsilon=epsilon)


@dataclass(frozen=True, eq=False)
class ChannelWeights:
    """Weight profiles of one channel, sampled on its fine grid, whose first
    and last points are the inlet and the outlet and whose every
    FINE_REFINEMENT-th points from the middle of the first cell are the
    cell centers."""

    coeffs: CharCoeffs
    alpha: float
    epsilon: float
    eta_eps: np.ndarray
    eta_slope: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    Z: np.ndarray
    W: np.ndarray

    @property
    def profile(self) -> SteadyProfile:
        return self.coeffs.profile

    @property
    def channel(self) -> int:
        return self.profile.channel


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Weight profiles for every channel of a network at a common epsilon."""

    topo: NetworkTopology
    epsilon: float
    channels: dict[int, ChannelWeights]


def _weighted_channels(
    topo: NetworkTopology,
    profiles: dict[int, SteadyProfile],
    epsilon: float,
    fixed: dict[int, _FineFactors],
    root_alpha: float = 1.0,
):
    """Yield the weights of every channel in traversal order, parents first.

    alpha_child = alpha_parent * W~_parent(L) / W~_child(0) makes W continuous
    across every junction; the root scale is free and an overall rescale
    leaves every certificate verdict unchanged. ``fixed`` holds the
    epsilon-free factors of each channel and is filled on the way, so each
    channel of an attempt costs one solve and one evaluation of it on the
    fine grid. Raises EpsilonTooLarge at the first channel whose comparison
    solution does not exist.
    """
    alphas: dict[int, float] = {}
    w_end: dict[int, float] = {}
    for i in traversal_order(topo):
        profile = profiles[i]
        if i not in fixed:
            fixed[i] = _FineFactors.of(profile)
        fine = fixed[i]
        eta = eta_eps(profile, epsilon, trunk_inlet=(i == topo.root_channel)).eta(fine)
        a, b = fine.pair(eta)
        w_tilde = a + b
        w_end[i] = float(w_tilde[-1])
        if i == topo.root_channel:
            alphas[i] = root_alpha
        else:
            w_start = float(w_tilde[0])
            if abs(w_start) < 1e-300:
                raise ZeroW(f"channel {i}: W vanishes at the inlet")
            parent = topo.parent_of(i)
            alphas[i] = alphas[parent] * w_end[parent] / w_start
        alpha = alphas[i]
        yield ChannelWeights(
            coeffs=fine.coeffs,
            alpha=alpha,
            epsilon=epsilon,
            eta_eps=eta,
            eta_slope=np.abs(fine.A + fine.B * eta**2) + epsilon,
            f1=alpha * a / fine.coeffs.lambda1,
            f2=alpha * b / fine.coeffs.lambda2,
            Z=alpha * (a - b),
            W=alpha * w_tilde,
        )


def network_weights(
    topo: NetworkTopology,
    profiles: dict[int, SteadyProfile],
    epsilon: float,
    root_alpha: float = 1.0,
) -> WeightSet:
    """Assemble junction-matched weights for the whole tree at one epsilon."""
    channels = {
        cw.channel: cw
        for cw in _weighted_channels(topo, profiles, epsilon, {}, root_alpha)
    }
    return WeightSet(topo=topo, epsilon=epsilon, channels=channels)


def junction_matrix(ws: WeightSet, incoming: int):
    """Symmetric junction matrices (M, M_bar) for the junction fed by ``incoming``.

    Rows/columns 0..m-1 correspond to the outgoing channels' velocity traces,
    the last row/column to the shared depth trace. M_bar is M with the
    depth-velocity couplings removed, which is exact once the alpha scales
    match W across the junction.
    """
    topo = ws.topo
    children = topo.junctions[incoming]
    cw_in = ws.channels[incoming]
    prof = cw_in.profile
    H_B = prof.outlet_depth
    g = prof.gravity
    Z_in, W_in = float(cw_in.Z[-1]), float(cw_in.W[-1])
    # every outgoing channel starts at the junction depth H_B
    Z0 = [float(ws.channels[c].Z[0]) for c in children]
    W0 = [float(ws.channels[c].W[0]) for c in children]
    m = len(children)
    M = np.full((m + 1, m + 1), Z_in)
    for l in range(m):
        M[l, l] = Z_in - Z0[l]
    s = math.sqrt(g * H_B) / H_B
    for l in range(m):
        M[l, m] = M[m, l] = s * (W_in - W0[l])
    M[m, m] = (g / H_B) * (Z_in - sum(Z0))
    M_bar = M.copy()
    M_bar[:m, m] = 0.0
    M_bar[m, :m] = 0.0
    return M, M_bar


def trunk_inlet_coefficient(ws: WeightSet) -> float:
    """Dissipation coefficient (lambda2 lambda1^2 f2 - lambda1 lambda2^2 f1) / V^2
    of the imposed-flux inlet at the trunk.

    At the inlet phi1 = phi2 = 1 and eta = lambda2/lambda1 + epsilon, so it is
    alpha lambda1 epsilon (2 lambda2 + lambda1 epsilon) / (eta V^2) exactly;
    in that form it keeps every digit, where the difference of the two terms
    would lose about 1/epsilon of them.
    """
    cw = ws.channels[ws.topo.root_channel]
    prof = cw.profile
    V0 = prof.velocity_of(prof.inlet_depth)
    lam1, lam2 = eigenvalues(prof.inlet_depth, V0, prof.gravity)
    eps = cw.epsilon
    eta0 = lam2 / lam1 + eps
    return cw.alpha * lam1 * eps * (2.0 * lam2 + lam1 * eps) / (eta0 * V0**2)


def interior_matrix(cw: ChannelWeights):
    """Symmetric interior dissipation matrix N(x) on the fine grid.

    Entries: N11 = -(f1 lambda1)' + 2 f1 gamma1, N22 = (f2 lambda2)' +
    2 f2 delta2, N12 = f1 delta1 + f2 gamma2, with the spatial derivatives
    taken analytically through the weight definitions and the eta equation.
    Returns (N11, N12, N22) arrays.
    """
    lam1, lam2 = cw.coeffs.lambda1, cw.coeffs.lambda2
    g1, d1 = cw.coeffs.gamma1, cw.coeffs.delta1
    g2, d2 = cw.coeffs.gamma2, cw.coeffs.delta2
    eta = cw.eta_eps
    eta_slope = cw.eta_slope
    f1l1 = cw.f1 * lam1
    f2l2 = cw.f2 * lam2
    d_f1l1 = f1l1 * (2.0 * g1 / lam1 - eta_slope / eta)
    d_f2l2 = f2l2 * (eta_slope / eta - 2.0 * d2 / lam2)
    N11 = -d_f1l1 + 2.0 * cw.f1 * g1
    N22 = d_f2l2 + 2.0 * cw.f2 * d2
    N12 = cw.f1 * d1 + cw.f2 * g2
    return N11, N12, N22


def _sym2x2_eig_bounds(a11, a12, a22):
    mid = 0.5 * (a11 + a22)
    rad = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12**2)
    low = mid - rad
    high = mid + rad
    norm = np.maximum(np.abs(low), np.abs(high))
    return low, norm


@dataclass(frozen=True, eq=False)
class NetworkCertificate:
    """Outcome of the network positivity checks at one epsilon."""

    certified: bool
    epsilon: float
    halvings: int
    weights: WeightSet | None
    alphas: dict[int, float]
    z_end: dict[int, float]
    z_start: dict[int, float]
    junction_min_eig: dict[int, float]
    trunk_inlet: float
    terminal_margins: dict[int, float]
    reflection: dict[int, float]
    interior_min_eig: dict[int, float]
    failed_checks: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "epsilon": self.epsilon,
            "halvings": self.halvings,
            "alphas": {str(k): v for k, v in sorted(self.alphas.items())},
            "z_end": {str(k): v for k, v in sorted(self.z_end.items())},
            "z_start": {str(k): v for k, v in sorted(self.z_start.items())},
            "junction_min_eig": {str(k): v for k, v in sorted(self.junction_min_eig.items())},
            "trunk_inlet": self.trunk_inlet,
            "terminal_margins": {str(k): v for k, v in sorted(self.terminal_margins.items())},
            "reflection": {str(k): v for k, v in sorted(self.reflection.items())},
            "interior_min_eig": {str(k): v for k, v in sorted(self.interior_min_eig.items())},
            "failed_checks": list(self.failed_checks),
        }


CHECK_ORDER = (
    "junction_outflow_positive",
    "branch_inflow_negative",
    "junction_matrix",
    "trunk_inlet",
    "terminal_margin",
    "interior_matrix",
)


def _empty_detail() -> dict:
    return {
        "z_end": {},
        "z_start": {},
        "junction_min_eig": {},
        "trunk_inlet": math.nan,
        "terminal_margins": {},
        "reflection": {},
        "interior_min_eig": {},
    }


def _channel_checks(
    ws: WeightSet,
    cw: ChannelWeights,
    gains: dict[int, float],
    detail: dict,
) -> list[str]:
    """Checks that channel ``cw`` completes, given the channels built before it.

    Records every margin in ``detail`` and returns the names of the failed
    checks. A junction is checked once the last of its children is built.
    """
    topo = ws.topo
    i = cw.channel
    prof = cw.profile
    failed: list[str] = []
    if i in topo.junctions:
        z = float(cw.Z[-1])
        detail["z_end"][i] = z
        if z <= 0.0:
            failed.append("junction_outflow_positive")
    else:
        k = float(gains[i])
        c = reflection_coefficient(k, prof.outlet_depth, prof.gravity)
        detail["reflection"][i] = c
        lam1_L, lam2_L = cw.coeffs.lambda1[-1], cw.coeffs.lambda2[-1]
        margin = float(cw.f1[-1] * lam1_L * c**2 - cw.f2[-1] * lam2_L)
        detail["terminal_margins"][i] = margin
        if margin <= 0.0 or (prof.flux == 0.0 and k <= 0.0):
            failed.append("terminal_margin")

    if i == topo.root_channel:
        f1 = trunk_inlet_coefficient(ws)
        detail["trunk_inlet"] = f1
        if f1 <= 0.0:
            failed.append("trunk_inlet")
    else:
        z = float(cw.Z[0])
        detail["z_start"][i] = z
        if z >= 0.0:
            failed.append("branch_inflow_negative")
        parent = topo.parent_of(i)
        if all(c in ws.channels for c in topo.junctions[parent]):
            _, M_bar = junction_matrix(ws, parent)
            eigs = np.linalg.eigvalsh(M_bar)
            detail["junction_min_eig"][parent] = float(eigs[0])
            norm = float(np.max(np.abs(eigs)))
            if not eigs[0] > POSITIVITY_REL_TOL * norm:
                failed.append("junction_matrix")

    N11, N12, N22 = interior_matrix(cw)
    low, norm = _sym2x2_eig_bounds(N11, N12, N22)
    detail["interior_min_eig"][i] = float(np.min(low))
    if not np.all(low > POSITIVITY_REL_TOL * norm):
        failed.append("interior_matrix")
    return failed


def _attempt(
    topo: NetworkTopology,
    profiles: dict[int, SteadyProfile],
    gains: dict[int, float],
    epsilon: float,
    fixed: dict[int, _FineFactors],
    stop_early: bool,
):
    """Build and check the weights at one epsilon, channel by channel.

    Returns (weights, failed checks in CHECK_ORDER, margins). With
    ``stop_early`` the attempt returns after the first channel with a failed
    check and reports only the checks run so far: no check depends on a
    channel built later, so the attempt fails either way. Without it every
    check runs. A missing comparison solution fails the attempt as
    "weight_existence" with no weights and no margins.
    """
    ws = WeightSet(topo=topo, epsilon=epsilon, channels={})
    detail = _empty_detail()
    failed: set[str] = set()
    try:
        for cw in _weighted_channels(topo, profiles, epsilon, fixed):
            ws.channels[cw.channel] = cw
            failed.update(_channel_checks(ws, cw, gains, detail))
            if failed and stop_early:
                break
    except EpsilonTooLarge:
        return None, ["weight_existence"], _empty_detail()
    return ws, [name for name in CHECK_ORDER if name in failed], detail


def certify_network(
    topo: NetworkTopology,
    profiles: dict[int, SteadyProfile],
    gains: dict[int, float],
    epsilon_start: float = DEFAULT_EPSILON,
    max_halvings: int = MAX_HALVINGS,
) -> NetworkCertificate:
    """Search a decreasing epsilon schedule for a full positivity certificate.

    Verifies, at each epsilon: positive outflow coefficient Z at every
    junction inflow face, negative inflow coefficient Z at every non-trunk
    inlet, positive definite junction matrices, a positive trunk inlet
    coefficient, positive terminal margins for the supplied gains, and a
    positive definite interior matrix N(x) at every fine-grid point of every
    channel. Epsilon is halved (at most ``max_halvings`` times) whenever the
    comparison solution fails to exist or any check fails. Each attempt
    builds the channels root first and stops at the first failing check;
    the last attempt runs every check, so a refused certificate lists every
    failure at the final epsilon.
    """
    validate_topology(topo)
    for j in topo.terminal_channels:
        if j not in gains:
            raise MissingGain(j)
    fixed: dict[int, _FineFactors] = {}
    epsilon = float(epsilon_start)
    for halvings in range(max_halvings + 1):
        ws, failed, detail = _attempt(
            topo, profiles, gains, epsilon, fixed, stop_early=halvings < max_halvings
        )
        if not failed or halvings == max_halvings:
            break
        epsilon *= 0.5

    return NetworkCertificate(
        certified=not failed,
        epsilon=epsilon,
        halvings=halvings,
        weights=ws,
        alphas={} if ws is None else {i: cw.alpha for i, cw in ws.channels.items()},
        failed_checks=tuple(failed),
        **detail,
    )
