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
``_integrate``, makes that solve: a Dormand-Prince 5(4) step loop on Python
floats with the steady depth as the independent variable. From the inlet
depth down to the outlet depth, its state is the angle theta = arctan(w) of
w = eta / phi - epsilon x alone, and its right-hand side (``_riccati``)
fuses the depth kernels of ``steady`` and ``characteristics``, those that
``CharCoeffs`` uses too, with their per-channel constants computed once.
As eta' >= epsilon > 0, eta can leave its range only upward; where w blows
up inside the channel, theta crosses arctan(1e12) smoothly and the solve
stops at the first step end past it. Inside each step the loop writes
theta on the fine grid from the step's interpolant, at the depths the
steady profile holds there, and ``eta_eps`` returns eta / phi = tan theta +
epsilon x there; the weights, speeds and couplings at the faces and centers
are elements and slices of the fine-grid arrays. An epsilon attempt does
only epsilon-dependent work: per channel one solve, while the speeds,
couplings and phi factors on the fine grid (``_FineFactors``) are computed
once per channel and certificate. The test suite (``tests/conftest.py``)
keeps the ODE forms of I4 and of the unit-inlet comparison solution, in w
and with a driver of their own, as oracles of the closed forms, and scipy's
RK45 as the oracle of the step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristics import (
    CharCoeffs,
    eigenvalues,
    existence_integral,
    phi_exponents,
    reflection_coefficient,
)
from .errors import (
    DegenerateFlux,
    EpsilonTooLarge,
    MissingGain,
    WeightError,
    ZeroW,
)
from .steady import SteadyProfile
from .topology import NetworkTopology, traversal_order, validate_topology

ETA_BLOWUP = 1e12
ETA_RTOL = 1e-11
ETA_ATOL = 1e-13
POSITIVITY_REL_TOL = 1e-12
DEFAULT_EPSILON = 1e-3
MAX_HALVINGS = 20


def __getattr__(name):
    # Nothing here calls solve_ivp (the comparison solution has its own step
    # loop), but perfbench/spans.py wraps channet.weights.solve_ivp to count
    # the weight layer's ODE solves (zero), so the name resolves, importing
    # scipy.integrate only when looked up. The shim goes when ROADMAP item 4
    # drops the solve_ivp spans.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _integrate(rhs, theta, depths):
    """theta at ``depths`` by one adaptive Dormand-Prince 5(4) solve of
    dtheta/dH = rhs(H, theta) from theta(depths[0]) = ``theta``, or None
    where the solution does not exist.

    ``depths`` decreases from the inlet depth to the outlet depth. The
    solve is scipy's RK45 on Python floats: its tableau, initial step,
    error norm and step-size control (Hairer, Norsett & Wanner, Solving
    ODEs I, II.4-II.6) at relative tolerance ETA_RTOL and absolute
    tolerance ETA_ATOL. Inside each accepted step, the depths it covers
    take the step's quartic interpolant, so no dense solution is kept. It
    returns None when theta reaches arctan(ETA_BLOWUP) at a step end, and
    when the step falls below ten spacings of the depth.
    """
    depths = depths.tolist()
    t, t_end = depths[0], depths[-1]
    y, f = theta, rhs(t, theta)
    span = t - t_end
    # the initial step of scipy's select_initial_step
    scale = ETA_ATOL + abs(y) * ETA_RTOL
    d0, d1 = abs(y) / scale, abs(f) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = abs(rhs(t - h0, y - h0 * f) - f) / scale / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, span)
    blowup = math.atan(ETA_BLOWUP)
    out, j = [], 0
    while True:
        min_step = 10.0 * (t - math.nextafter(t, -math.inf))
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return None
            t_new = max(t - h_abs, t_end)
            h = t_new - t
            h_abs = -h
            k1 = f
            k2 = rhs(t + 0.2 * h, y + h * (0.2 * k1))
            k3 = rhs(t + 0.3 * h, y + h * (3 / 40 * k1 + 9 / 40 * k2))
            k4 = rhs(t + 0.8 * h, y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
            k5 = rhs(t + 8 / 9 * h, y + h * (
                19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3 - 212 / 729 * k4))
            k6 = rhs(t + h, y + h * (
                9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                - 5103 / 18656 * k5))
            y_new = y + h * (
                35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5 + 11 / 84 * k6)
            k7 = rhs(t + h, y_new)
            error = h * (
                -71 / 57600 * k1 + 71 / 16695 * k3 - 71 / 1920 * k4 + 17253 / 339200 * k5
                - 22 / 525 * k6 + 1 / 40 * k7)
            norm = abs(error) / (ETA_ATOL + max(abs(y), abs(y_new)) * ETA_RTOL)
            if norm < 1.0:
                factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm**-0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * norm**-0.2)
            rejected = True
        if y_new >= blowup:
            return None
        if depths[j] > t_new:
            # the dense output: theta(t + s h) = y + s h (q1 + s (q2 + s (q3 + s q4)))
            q2 = (-8048581381 / 2820520608 * k1 + 131558114200 / 32700410799 * k3
                  - 1754552775 / 470086768 * k4 + 127303824393 / 49829197408 * k5
                  - 282668133 / 205662961 * k6 + 40617522 / 29380423 * k7)
            q3 = (8663915743 / 2820520608 * k1 - 68118460800 / 10900136933 * k3
                  + 14199869525 / 1410260304 * k4 - 318862633887 / 49829197408 * k5
                  + 2019193451 / 616988883 * k6 - 110615467 / 29380423 * k7)
            q4 = (-12715105075 / 11282082432 * k1 + 87487479700 / 32700410799 * k3
                  - 10690763975 / 1880347072 * k4 + 701980252875 / 199316789632 * k5
                  - 1453857185 / 822651844 * k6 + 69997945 / 29380423 * k7)
            while depths[j] > t_new:
                s = (depths[j] - t) / h
                out.append(y + s * h * (k1 + s * (q2 + s * (q3 + s * q4))))
                j += 1
        t, y, f = t_new, y_new, k7
        if t <= t_end:
            out += [y] * (len(depths) - j)
            return np.array(out)


def _riccati(profile: SteadyProfile, epsilon):
    """dtheta/dH for the comparison solution in the angle theta = arctan(w)
    of the scaled variable w = eta / phi - epsilon x, with the steady depth
    H as the variable.

    With u = w + epsilon x, w' = |delta1/lambda1 + (gamma2/lambda2) u^2| -
    u (gamma1/lambda1 + delta2/lambda2) + epsilon (1/phi - 1), and theta' =
    w' cos^2 theta. With v = u cos theta = sin theta + epsilon x cos theta,

        theta' = |(delta1/lambda1) cos^2 theta + (gamma2/lambda2) v^2|
                 - (gamma1/lambda1 + delta2/lambda2) v cos theta
                 + epsilon (1/phi - 1) cos^2 theta,

    bounded however large w grows: a blow-up of w is a smooth crossing of
    theta = arctan(ETA_BLOWUP), where the solve stops.

    The scaled form has the neutral exponential drift removed: the raw eta
    equation amplifies truncation error by exp(int 2 gamma2 eta / (lambda2
    phi)), which overwhelms any tolerance on channels approaching the
    blow-up length, while the scaled form stays well conditioned. Taking
    epsilon x out leaves w' of the size of the couplings, so w is smooth
    in the depth however flat the profile.

    In the depth, dtheta/dH = theta' / H' with H' = -g C Q^2 / P'(H), and
    every depth the solve visits is on the profile, so no guard is needed.
    The abscissa x, the exponents and the speeds and couplings are those of
    ``_potential_drop``, ``phi_exponents`` and ``speeds_couplings``, with
    their per-channel constants taken out and each operation in its order,
    so every value has the kernels' bits (``tests/test_weights.py``).
    """
    spec = profile.spec
    H0, flux, friction = profile.inlet_depth, profile.flux, spec.friction
    p, g = spec.friction_exponent, spec.gravity
    gC, QQ = g * friction, flux * flux
    rate = gC * flux * flux
    s0 = math.sqrt(g * H0 * H0 * H0) / flux
    inv_s0, s0_up, s0_down = 1.0 / s0, s0 + 1.0, s0 - 1.0
    half_p, log_weight = 0.5 * p, 0.25 + 0.5 * p
    p3 = p + 3.0
    H0_p3 = H0**p3

    def rhs(H, theta):
        # phi_exponents: only I1 + I2 enters
        s = math.sqrt(g * H * H * H) / flux
        shared = half_p * (1.0 / s - inv_s0) - (s - s0)
        log_s = log_weight * math.log(s / s0)
        I1 = (2.0 / 3.0) * (shared + log_s + 1.5 * math.log((s + 1.0) / s0_up))
        I2 = (2.0 / 3.0) * (shared - log_s - 1.5 * math.log((s - 1.0) / s0_down))
        # _potential_drop(H0, H) / rate
        log_r = math.log(H0 / H)
        q_term = log_r if p == 0.0 else H**p * math.expm1(p * log_r) / p
        x = (g * (H0_p3 - H**p3) / p3 - QQ * q_term) / rate
        # speeds_couplings
        c = math.sqrt(g * H)
        V = flux / H
        lam1, lam2 = V + c, c - V
        K = gC * V * V / H**p
        half_c, inv_v = p / (2.0 * c), 1.0 / V
        g1 = K * (-3.0 / (4.0 * lam1) + inv_v - half_c)
        d1 = K * (-1.0 / (4.0 * lam1) + inv_v + half_c)
        g2 = K * (1.0 / (4.0 * lam2) + inv_v - half_c)
        d2 = K * (3.0 / (4.0 * lam2) + inv_v + half_c)
        cos = math.cos(theta)
        v = math.sin(theta) + epsilon * x * cos
        theta_x = (
            abs(d1 / lam1 * cos * cos + g2 / lam2 * v * v)
            - v * cos * (g1 / lam1 + d2 / lam2)
            + epsilon * math.expm1(-(I1 + I2)) * cos * cos
        )
        # potential_slope
        return -theta_x * (H ** (p - 1.0) * (g * H * H * H - QQ)) / rate

    return rhs


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
) -> np.ndarray:
    """Strictly increasing comparison solution with slope margin epsilon,
    as eta / phi on the channel's fine grid.

    Solves eta' = |delta1 phi / lambda1 + (gamma2/(lambda2 phi)) eta^2| +
    epsilon with inlet value lambda2(0)/lambda1(0) + epsilon on the trunk and
    1 + epsilon on branch channels, advanced by ``_integrate`` in the angle
    theta = arctan(w) of the scaled variable w = eta / phi - epsilon x (see
    _riccati for the conditioning rationale), and returns tan theta +
    epsilon x at the depths of ``H_fine``. As eta' >= epsilon > 0, eta
    leaves its range only upward: EpsilonTooLarge is raised if w passes
    ETA_BLOWUP before the channel end, where the solve stops, or if the
    step size underflows. A channel whose depth stays H0 to the last bit
    has phi = 1 and no solve: eta is init + epsilon x, the exact solution
    of an uncoupled channel.
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
        return init + epsilon * profile.x_fine

    theta = _integrate(_riccati(profile, epsilon), math.atan(init), profile.H_fine)
    if theta is None:
        raise EpsilonTooLarge(
            f"channel {profile.channel}: comparison solution with epsilon={epsilon:g} "
            f"does not exist on the whole channel"
        )
    return np.tan(theta) + epsilon * profile.x_fine


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
        eta = eta_eps(profile, epsilon, trunk_inlet=(i == topo.root_channel)) * fine.phi
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
