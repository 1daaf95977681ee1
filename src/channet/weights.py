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
rational function of the steady depth; an independent Riccati integration of
the same equation serves as the verification oracle for it.

The exponents of phi1 and phi2 are closed-form functions of the local depth
(``characteristics.phi_exponents``). The remaining quantity of each solve,
the comparison solution or the existence integral, is integrated by
adaptive Runge-Kutta alongside the steady depth (relative tolerance ~1e-11
or tighter), so certificate accuracy does not depend on the simulation grid.
One function, ``_integrate``, makes every such solve: the state is (H, w),
with the guarded depth slope of ``steady.guarded_depth_rhs`` and the speeds,
couplings and exponents of ``characteristics``, the same kernels that the
steady profile and ``CharCoeffs`` use. ``_ChannelState`` evaluates the
result, (H, I1, I2, w), anywhere on the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .characteristics import (
    CharCoeffs,
    eigenvalues,
    phi_exponents,
    reflection_coefficient,
    speeds_couplings,
)
from .errors import (
    DegenerateFlux,
    EpsilonTooLarge,
    MissingGain,
    RiccatiBlowup,
    WeightError,
    ZeroW,
)
from .steady import SteadyProfile, guarded_depth_rhs
from .topology import NetworkTopology, traversal_order, validate_topology

ETA_BLOWUP = 1e12
INTEGRAL_RTOL = 1e-12
INTEGRAL_ATOL = 1e-14
ETA_RTOL = 1e-11
ETA_ATOL = 1e-13
ORACLE_TOL = 1e-12
POSITIVITY_REL_TOL = 1e-12
DEFAULT_EPSILON = 1e-3
MAX_HALVINGS = 20


def _uncoupled(profile: SteadyProfile) -> bool:
    """Zero flux or no friction: constant depth and vanishing couplings."""
    return profile.flux == 0.0 or profile.spec.friction == 0.0


def _integrate(profile: SteadyProfile, dw, init, rtol, atol, events=None):
    """One adaptive solve of (H, w) over a coupled channel.

    ``dw(w, H, I1, I2, lam1, lam2, g1, d1, g2, d2)`` is the derivative of w,
    which starts at ``init``; the exponents I1, I2 and the speeds and
    couplings come from the closed-form kernels at the guarded depth.
    Returns the solve_ivp result for the caller to check.
    """
    spec = profile.spec
    H0, flux, friction = profile.inlet_depth, profile.flux, spec.friction
    p, g = spec.friction_exponent, spec.gravity
    depth_rhs = guarded_depth_rhs(spec, flux, H0, profile.margin_tol)

    def rhs(x, y):
        # Python floats: the same arithmetic on numpy scalars costs about
        # twice as much per evaluation
        H, w = y.tolist()
        H, dH = depth_rhs(H)
        I1, I2 = phi_exponents(H, H0, flux, p, g)
        return dH, dw(w, H, I1, I2, *speeds_couplings(H, flux, friction, p, g))

    return solve_ivp(
        rhs,
        (0.0, profile.length),
        (H0, init),
        method="RK45",
        dense_output=True,
        rtol=rtol,
        atol=atol,
        events=events,
    )


def _eta_blowup(x, y):
    return y[1] - ETA_BLOWUP


_eta_blowup.terminal = True
_eta_blowup.direction = 1


def _riccati(epsilon):
    """Derivative of the comparison solution in the scaled variable
    u = eta / phi: u' = |delta1/lambda1 + (gamma2/lambda2) u^2| - u (gamma1/
    lambda1 + delta2/lambda2) + epsilon / phi (see eta_bar_by_ode)."""

    def du(u, H, I1, I2, lam1, lam2, g1, d1, g2, d2):
        return (
            abs(d1 / lam1 + g2 / lam2 * u * u)
            - u * (g1 / lam1 + d2 / lam2)
            + epsilon * math.exp(-(I1 + I2))
        )

    return du


class _ChannelState:
    """(H, I1, I2, w) of one channel at any abscissa, clamped to [0, L].

    ``sol`` is the result of ``_integrate``, whose depth gives I1 and I2 in
    closed form; with ``scaled`` its w is u = eta / phi and is returned as
    eta. An uncoupled channel has no solve (``sol`` None): the exponents
    vanish and w is init + epsilon x, the exact solution there.
    """

    def __init__(self, profile: SteadyProfile, sol=None, init=0.0, epsilon=0.0, scaled=False):
        self.profile = profile
        self.init = init
        self.epsilon = epsilon
        self.scaled = scaled
        if sol is not None:
            self.dense, self.x_end = sol.sol, float(sol.t[-1])
        else:
            self.dense = None

    def state(self, x):
        x = np.asarray(x, dtype=float)
        if self.dense is None:
            zeros = np.zeros(x.shape)
            return np.array([self.profile.depth(x), zeros, zeros, self.init + self.epsilon * x])
        H, w = self.dense(np.clip(x, 0.0, self.x_end))
        spec = self.profile.spec
        I1, I2 = phi_exponents(
            H, self.profile.inlet_depth, self.profile.flux, spec.friction_exponent, spec.gravity
        )
        if self.scaled:
            w = w * np.exp(I1 + I2)
        return np.array([H, I1, I2, w])

    def slope(self, s):
        """eta' of a comparison solution at the state s = state(x), from its
        Riccati equation."""
        if self.dense is None:
            return np.full_like(s[0], self.epsilon)
        H, I1, I2, eta = s
        spec = self.profile.spec
        terms = (self.profile.flux, spec.friction, spec.friction_exponent, spec.gravity)
        lam1, lam2, g1, d1, g2, d2 = speeds_couplings(H, *terms)
        phi = np.exp(I1 + I2)
        return np.abs(d1 * phi / lam1 + g2 / (lam2 * phi) * eta**2) + self.epsilon


@dataclass(frozen=True, eq=False)
class PhiProfiles:
    """Cumulative coefficient integrals of one channel.

    The underlying state is (H, I1, I2, I4) with

        I1 = int gamma1/lambda1,    I2 = int delta2/lambda2,
        I3 = int 2 gamma2/lambda1,  I4 = int exp(I3) gamma2/(lambda2 phi),

    so phi1 = exp(I1), phi2 = exp(-I2), phi = exp(I1 + I2), and I4 is the
    integral whose smallness guarantees the comparison solution exists.
    I1 and I2 are closed form in the depth, and so is
    exp(I3) = phi1^2 (lambda1(0)/lambda1)^2 H(0)/H; only I4 is integrated.
    """

    profile: SteadyProfile
    _integrals: _ChannelState

    def state(self, x):
        return self._integrals.state(x)

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
    """Integrate the existence integral I4 alongside the steady depth."""
    if _uncoupled(profile):
        return PhiProfiles(profile=profile, _integrals=_ChannelState(profile))
    H0 = profile.inlet_depth
    lam1_0 = eigenvalues(H0, profile.velocity_of(H0), profile.gravity)[0]

    def dI4(w, H, I1, I2, lam1, lam2, g1, d1, g2, d2):
        # exp(I3) / phi = phi1 phi2 (lambda1(0)/lambda1)^2 H(0)/H
        return math.exp(I1 - I2) * (lam1_0 / lam1) ** 2 * (H0 / H) * g2 / lam2

    sol = _integrate(profile, dI4, 0.0, INTEGRAL_RTOL, INTEGRAL_ATOL)
    if not sol.success:
        raise WeightError(
            f"channel {profile.channel}: coefficient integrals failed: {sol.message}"
        )
    return PhiProfiles(profile=profile, _integrals=_ChannelState(profile, sol))


def eta_zero(phi: PhiProfiles, x):
    """eta0 = (lambda2/lambda1) phi, the epsilon = 0 trunk comparison solution."""
    H = phi.depth(x)
    lam1, lam2 = eigenvalues(H, phi.profile.velocity_of(H), phi.profile.gravity)
    return (lam2 / lam1) * phi.phi(x)


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


def eta_bar_closed(phi: PhiProfiles, x):
    """Closed-form eta_bar = m(x) eta0(x) (unit inlet value)."""
    H = phi.depth(x)
    prof = phi.profile
    m = m_value(H, prof.inlet_depth, prof.flux, prof.spec.friction_exponent, prof.gravity)
    lam1, lam2 = eigenvalues(H, prof.velocity_of(H), prof.gravity)
    return m * (lam2 / lam1) * phi.phi(x)


def riccati_existence_margin(phi: PhiProfiles, x):
    """Positive margin certifying the unit-inlet comparison solution up to x.

    margin(x) = lambda1(0) / (lambda1(0) - lambda2(0)) - I4(x); the comparison
    solution eta_bar exists on [0, x] while the margin stays positive.
    """
    prof = phi.profile
    if prof.flux == 0.0:
        raise DegenerateFlux("existence margin is undefined for a zero-flux channel")
    lam1_0, lam2_0 = eigenvalues(prof.inlet_depth, prof.velocity(0.0), prof.gravity)
    return lam1_0 / (lam1_0 - lam2_0) - phi.existence_integral(x)


def eta_eps(
    profile: SteadyProfile,
    epsilon: float,
    trunk_inlet: bool = False,
) -> object:
    """Strictly increasing comparison solution with slope margin epsilon.

    Solves eta' = |delta1 phi / lambda1 + (gamma2/(lambda2 phi)) eta^2| +
    epsilon with inlet value lambda2(0)/lambda1(0) + epsilon on the trunk and
    1 + epsilon on branch channels, advanced in the scaled variable
    u = eta / phi (see eta_bar_by_ode for the conditioning rationale).
    Raises EpsilonTooLarge if the solution leaves [0, 1e12] before the
    channel end.
    """
    if trunk_inlet:
        if profile.flux == 0.0:
            raise DegenerateFlux("trunk channels carry positive flux")
        lam1_0, lam2_0 = eigenvalues(profile.inlet_depth, profile.velocity(0.0), profile.gravity)
        init = lam2_0 / lam1_0 + epsilon
    else:
        init = 1.0 + epsilon

    if _uncoupled(profile):
        return _ChannelState(profile, init=init, epsilon=epsilon)

    sol = _integrate(profile, _riccati(epsilon), init, ETA_RTOL, ETA_ATOL, _eta_blowup)
    if sol.t_events[0].size or not sol.success or sol.t[-1] < profile.length:
        raise EpsilonTooLarge(
            f"channel {profile.channel}: comparison solution with epsilon={epsilon:g} "
            f"does not exist on the whole channel"
        )
    return _ChannelState(profile, sol, epsilon=epsilon, scaled=True)


def eta_bar_by_ode(profile: SteadyProfile, rtol: float = ORACLE_TOL, atol: float = ORACLE_TOL):
    """Independent Riccati integration of the unit-inlet comparison solution.

    Re-integrates the steady depth alongside the Riccati solution in a single
    adaptive solve (no reuse of cached profiles, and nothing of the closed
    form m), so it can serve as a verification oracle for the closed form.
    The Riccati equation is advanced in the scaled variable u = eta_bar /
    phi, whose equation u' = delta1/lambda1 + (gamma2/lambda2) u^2 -
    u (gamma1/lambda1 + delta2/lambda2) has the neutral exponential drift
    removed: the raw eta_bar equation amplifies truncation error by
    exp(int 2 gamma2 eta_bar / (lambda2 phi)), which overwhelms any
    tolerance on channels approaching the blow-up length, while the scaled
    form stays well conditioned. The default tolerance is ten times tighter
    than the certificate's, because with only (H, u) in the RK45 error norm
    a tolerance of 1e-11 leaves u about ten times less accurate than the
    closed form it checks. Returns a callable evaluating eta_bar(x).
    """
    if _uncoupled(profile):
        state = _ChannelState(profile, init=1.0)
    else:
        sol = _integrate(profile, _riccati(0.0), 1.0, rtol, atol, _eta_blowup)
        if sol.t_events[0].size:
            raise RiccatiBlowup(profile.channel, float(sol.t_events[0][0]))
        if not sol.success:
            raise WeightError(f"channel {profile.channel}: Riccati integration failed: {sol.message}")
        state = _ChannelState(profile, sol, scaled=True)

    def evaluate(x):
        out = state.state(x)[3]
        return float(out) if np.ndim(x) == 0 else out

    return evaluate


def _weight_pair(s, alpha=1.0, lam1=1.0, lam2=1.0):
    """(f1, f2) = (alpha phi1^2 / (lambda1 eta), alpha phi2^2 eta / lambda2)
    from an eta state (H, I1, I2, eta). With unit alpha and speeds it is the
    pair (phi1^2 / eta, phi2^2 eta), whose difference and sum are Z / alpha
    and W / alpha."""
    return alpha * np.exp(s[1]) ** 2 / (lam1 * s[3]), alpha * np.exp(-s[2]) ** 2 * s[3] / lam2


@dataclass(frozen=True, eq=False)
class ChannelWeights:
    """Weight profiles of one channel, sampled on its fine grid."""

    coeffs: CharCoeffs
    eta_solution: _ChannelState
    alpha: float
    epsilon: float
    eta_eps: np.ndarray
    eta_slope: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    W: np.ndarray

    @property
    def profile(self) -> SteadyProfile:
        return self.coeffs.profile

    @property
    def channel(self) -> int:
        return self.profile.channel

    def f_at(self, x):
        """(f1, f2) at arbitrary abscissae."""
        s = self.eta_solution.state(x)
        lam1, lam2 = eigenvalues(s[0], self.profile.velocity_of(s[0]), self.profile.gravity)
        return _weight_pair(s, self.alpha, lam1, lam2)

    def zw_at(self, x):
        """(Z, W) = (lambda1 f1 -/+ lambda2 f2) at arbitrary abscissae."""
        a, b = _weight_pair(self.eta_solution.state(x))
        return self.alpha * (a - b), self.alpha * (a + b)

    def w_tilde_at(self, x):
        """W / alpha at arbitrary abscissae."""
        a, b = _weight_pair(self.eta_solution.state(x))
        return a + b


def _build_channel_weights(coeffs: CharCoeffs, eta_sol: _ChannelState, alpha: float) -> ChannelWeights:
    s = eta_sol.state(coeffs.profile.x_fine)
    f1, f2 = _weight_pair(s, alpha, coeffs.lambda1, coeffs.lambda2)
    return ChannelWeights(
        coeffs=coeffs,
        eta_solution=eta_sol,
        alpha=alpha,
        epsilon=eta_sol.epsilon,
        eta_eps=s[3],
        eta_slope=eta_sol.slope(s),
        f1=f1,
        f2=f2,
        W=alpha * sum(_weight_pair(s)),
    )


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
    coeffs: dict[int, CharCoeffs],
    root_alpha: float = 1.0,
):
    """Yield the weights of every channel in traversal order, parents first.

    alpha_child = alpha_parent * W~_parent(L) / W~_child(0) makes W continuous
    across every junction; the root scale is free and an overall rescale
    leaves every certificate verdict unchanged. ``coeffs`` is filled on the
    way. Raises EpsilonTooLarge at the first channel whose
    comparison solution does not exist.
    """
    alphas: dict[int, float] = {}
    w_end: dict[int, float] = {}
    for i in traversal_order(topo):
        profile = profiles[i]
        if i not in coeffs:
            coeffs[i] = CharCoeffs.from_profile(profile)
        eta = eta_eps(profile, epsilon, trunk_inlet=(i == topo.root_channel))
        w_end[i] = float(sum(_weight_pair(eta.state(profile.length))))
        if i == topo.root_channel:
            alphas[i] = root_alpha
        else:
            w_start = float(sum(_weight_pair(eta.state(0.0))))
            if abs(w_start) < 1e-300:
                raise ZeroW(f"channel {i}: W vanishes at the inlet")
            parent = topo.parent_of(i)
            alphas[i] = alphas[parent] * w_end[parent] / w_start
        yield _build_channel_weights(coeffs[i], eta, alphas[i])


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
    L = prof.length
    Z_in, W_in = (float(v) for v in cw_in.zw_at(L))
    Z0 = [float(ws.channels[c].zw_at(0.0)[0]) for c in children]
    W0 = [float(ws.channels[c].zw_at(0.0)[1]) for c in children]
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
    V0 = prof.velocity(0.0)
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
    rel_tol: float,
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
        z = float(cw.zw_at(prof.length)[0])
        detail["z_end"][i] = z
        if z <= 0.0:
            failed.append("junction_outflow_positive")
    else:
        k = float(gains[i])
        c = reflection_coefficient(k, prof.outlet_depth, prof.gravity)
        detail["reflection"][i] = c
        f1_L, f2_L = cw.f_at(prof.length)
        lam1_L, lam2_L = eigenvalues(prof.outlet_depth, prof.outlet_velocity, prof.gravity)
        margin = float(f1_L * lam1_L * c**2 - f2_L * lam2_L)
        detail["terminal_margins"][i] = margin
        if margin <= 0.0 or (prof.flux == 0.0 and k <= 0.0):
            failed.append("terminal_margin")

    if i == topo.root_channel:
        f1 = trunk_inlet_coefficient(ws)
        detail["trunk_inlet"] = f1
        if f1 <= 0.0:
            failed.append("trunk_inlet")
    else:
        z = float(cw.zw_at(0.0)[0])
        detail["z_start"][i] = z
        if z >= 0.0:
            failed.append("branch_inflow_negative")
        parent = topo.parent_of(i)
        if all(c in ws.channels for c in topo.junctions[parent]):
            _, M_bar = junction_matrix(ws, parent)
            eigs = np.linalg.eigvalsh(M_bar)
            detail["junction_min_eig"][parent] = float(eigs[0])
            norm = float(np.max(np.abs(eigs)))
            if not eigs[0] > rel_tol * norm:
                failed.append("junction_matrix")

    N11, N12, N22 = interior_matrix(cw)
    low, norm = _sym2x2_eig_bounds(N11, N12, N22)
    detail["interior_min_eig"][i] = float(np.min(low))
    if not np.all(low > rel_tol * norm):
        failed.append("interior_matrix")
    return failed


def _attempt(
    topo: NetworkTopology,
    profiles: dict[int, SteadyProfile],
    gains: dict[int, float],
    epsilon: float,
    coeffs: dict[int, CharCoeffs],
    rel_tol: float,
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
        for cw in _weighted_channels(topo, profiles, epsilon, coeffs):
            ws.channels[cw.channel] = cw
            failed.update(_channel_checks(ws, cw, gains, rel_tol, detail))
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
    positivity_rel_tol: float = POSITIVITY_REL_TOL,
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
    coeffs_cache: dict[int, CharCoeffs] = {}
    epsilon = float(epsilon_start)
    for halvings in range(max_halvings + 1):
        ws, failed, detail = _attempt(
            topo,
            profiles,
            gains,
            epsilon,
            coeffs_cache,
            positivity_rel_tol,
            stop_early=halvings < max_halvings,
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


def lyapunov_value(ws: WeightSet, ys: dict[int, tuple]) -> float:
    """V = sum_i int f1 y1^2 + f2 y2^2 dx over cell centers (trapezoid rule)."""
    total = 0.0
    for ch, (y1, y2) in ys.items():
        cw = ws.channels[ch]
        x = cw.profile.x_centers
        f1, f2 = cw.f_at(x)
        total += float(np.trapezoid(f1 * np.asarray(y1) ** 2 + f2 * np.asarray(y2) ** 2, x))
    return total
