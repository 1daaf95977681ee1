"""Lyapunov weight profiles and network stability certificates.

The linearized network is dissipative in a weighted characteristic norm

    V = sum_i int_0^L ( f1_i y1_i^2 + f2_i y2_i^2 ) dx,

with per-channel weights built from three ingredients:

* exponential factors phi1 = exp(int gamma1/lambda1), phi2 = exp(-int
  delta2/lambda2), phi = phi1/phi2, which absorb the zero-order coupling,
* a comparison function eta(x) with slope margin epsilon over the Riccati
  right-hand side E(eta) = delta1 phi / lambda1 + c eta^2, c = gamma2 /
  (lambda2 phi), so eta' >= E(eta) + epsilon, started at
  lambda2(0)/lambda1(0) + epsilon on the trunk and 1 + epsilon on branch
  channels, and
* per-channel scale factors alpha chosen so that the weighted norm is
  continuous across junctions.

With eta in hand the weights are f1 = alpha phi1^2 / (lambda1 eta) and
f2 = alpha phi2^2 eta / lambda2, and the boundary/junction terms of dV/dt are
controlled by the signs of Z = lambda1 f1 - lambda2 f2 and by small symmetric
matrices assembled from Z and W = lambda1 f1 + lambda2 f2.

No ODE is solved. delta1 > 0, and gamma2 >= 0 at every subcritical Froude
number F exactly when the friction exponent p <= 9/2, since gamma2 / K has
the sign of 1/(4(1 - F)) + 1/F - p/2, whose minimum over F is 9/4 - p/2, at
F = 2/3; ``ChannelSpec`` refuses p > 9/2. So E > 0 and c >= 0. The epsilon = 0
solution eta_bar' = E(eta_bar) is closed form: on the trunk it is eta0 =
(lambda2/lambda1) phi, which starts at lambda2(0)/lambda1(0), and on a
branch m eta0, which starts at 1, with m the rational function of the
steady depth of ``m_value``. With u' = 2 c eta_bar u + 1, u(0) = 1, and
J' = c u, J(0) = 0, the super-solution

    eta = eta_bar + epsilon u / (1 - epsilon J)

has eta' - E(eta) = epsilon / (1 - epsilon J) exactly (a differential
inequality; Hartman, Ordinary Differential Equations, 1964, ch. III): its
interior slack is at least epsilon and is formed without cancellation. It
exists while 1 - epsilon J > 0, and J grows along the channel, so an epsilon
with 1 - epsilon J(L) <= 0 is refused (EpsilonTooLarge). A channel without
flow or friction has c = 0: eta_bar keeps its inlet value, u = 1 + x and
J = 0.
The exponents of phi1 and phi2 and the existence integral I4 are closed-form
functions of the local depth too (``characteristics.phi_exponents`` and
``characteristics.existence_integral``), so ``phi_profiles`` solves no ODE.

Each channel's epsilon-free record (``_Channel``) is made once per
certificate, before the first attempt: its ``CharCoeffs`` (the speeds,
couplings and phi factors on the fine grid) and eta_bar, u and J on the same
grid, u and J as cumulative trapezoid sums. eta_bar[0] is the inlet value
exactly, so eta(0) is that value + epsilon to the bit. An epsilon attempt is
one array expression per channel, on the fine grid or at its two ends, where
each value is the fine grid's to the bit. Every check but the interior
matrix N(x) and the junction matrices reads only the ends of one channel,
and each of those checks is the channel's scale alpha > 0 times a term that
does not depend on alpha, so an attempt (``_attempt``) makes two passes. The
first forms eta at each channel's ends, the one where the last attempt
stopped first, and checks it on its weights there at alpha = 1; unless it is
the last attempt, it fails at the first channel that fails there. The alphas
then follow root first from these unit weights. The second pass scales each
channel by its alpha on the fine grid and runs every check; its margins are
the ones reported. An attempt returns its own ``NetworkCertificate``, whose
fields other than the weights are the report, and ``certify_network`` sets
only its halving count. The test suite (``tests/conftest.py``) keeps the ODE
forms of I4 and of the comparison solution, solved by scipy, as oracles of
the closed forms.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .characteristics import (
    _ENDS,
    CharCoeffs,
    existence_integral,
    outlet_traces,
    phi_exponents,
    reflection_coefficient,
)
from .errors import (
    DegenerateFlux,
    EpsilonTooLarge,
    MissingGain,
    WeightError,
)
from .steady import SteadyProfile
from .topology import NetworkTopology, traversal_order

POSITIVITY_REL_TOL = 1e-12
DEFAULT_EPSILON = 1e-3
MAX_HALVINGS = 20


def __getattr__(name):
    # Nothing here calls solve_ivp (no ODE is solved), but
    # perfbench/spans.py wraps channet.weights.solve_ivp to count the weight
    # layer's ODE solves (zero), so the name resolves, importing
    # scipy.integrate only when looked up. The shim goes when ROADMAP item 7
    # drops the solve_ivp spans.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _cumulative(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The integral of f from x[0] on the grid x by the trapezoid rule,
    exactly 0 at x[0]."""
    out = np.zeros_like(x)
    np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x), out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class _Channel:
    """The epsilon-free record of one channel, made once per channel and
    certificate: its ``coeffs`` and, on its fine grid, the epsilon = 0
    comparison solution ``eta_bar`` and the terms ``u`` and ``J`` of the
    super-solution eta = eta_bar + epsilon u / (1 - epsilon J) (see the
    module docstring). The inlet value ``eta_bar[0]`` is
    lambda2(0)/lambda1(0) on the trunk, from the inlet speeds of ``coeffs``,
    which take the operations of ``eigenvalues`` and so its bits, and 1 on
    branch channels; u[0] = 1 and J[0] = 0 exactly. u = exp(B) (1 + int exp(-B)) with B =
    int 2 c eta_bar, and J = int c u, each integral a cumulative trapezoid
    sum: their O(h^2) error enters eta only times epsilon."""

    coeffs: CharCoeffs
    eta_bar: np.ndarray
    u: np.ndarray
    J: np.ndarray

    @classmethod
    def of(cls, coeffs: CharCoeffs, trunk_inlet: bool) -> "_Channel":
        profile = coeffs.profile
        # eta0 = (lambda2/lambda1) phi, exactly lambda2(0)/lambda1(0) at the
        # inlet, where phi is exactly 1
        eta_bar = coeffs.lambda2 / coeffs.lambda1 * coeffs.phi
        if trunk_inlet:
            if profile.flux == 0.0:
                raise DegenerateFlux("trunk channels carry positive flux")
        else:
            # at zero flux eta0 is exactly 1 and uncoupled
            if profile.flux > 0.0:
                eta_bar *= m_value(profile.H_fine, profile.inlet_depth, profile.flux,
                                   profile.spec.friction_exponent, profile.gravity)
            eta_bar[0] = 1.0
        c = coeffs.gamma2 / (coeffs.lambda2 * coeffs.phi)
        x = profile.x_fine
        B = _cumulative(2.0 * c * eta_bar, x)
        u = np.exp(B) * (1.0 + _cumulative(np.exp(-B), x))
        return cls(coeffs, eta_bar, u, _cumulative(c * u, x))

    def at(self, epsilon: float, index=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(eta, epsilon / (1 - epsilon J)) at ``epsilon``, the super-solution
        and its interior slack eta' - E(eta), on the fine grid or at its
        points ``index`` (``_ENDS``), each with the fine grid's bits.
        EpsilonTooLarge where 1 - epsilon J(L) <= 0: J grows to the outlet,
        which ``index`` ends at, so eta exists on the channel exactly where
        it exists at the outlet."""
        room = 1.0 - epsilon * self.J[index]
        if not room[-1] > 0.0:
            raise EpsilonTooLarge(
                f"channel {self.coeffs.profile.channel}: comparison function with "
                f"epsilon={epsilon:g} does not exist on the whole channel"
            )
        slack = epsilon / room
        return self.eta_bar[index] + self.u[index] * slack, slack


def _channels(topo: NetworkTopology, profiles: dict[int, SteadyProfile]) -> dict[int, _Channel]:
    """Every channel's epsilon-free record, in traversal order."""
    return {i: _Channel.of(CharCoeffs.from_profile(profiles[i]), i == topo.root_channel)
            for i in traversal_order(topo)}


def eta_eps(
    profile: SteadyProfile,
    epsilon: float,
    trunk_inlet: bool = False,
) -> np.ndarray:
    """Strictly increasing comparison function with slope margin epsilon,
    as eta / phi on the channel's fine grid.

    eta = eta_bar + epsilon u / (1 - epsilon J) satisfies eta' = E(eta) +
    epsilon / (1 - epsilon J) >= |delta1 phi / lambda1 + (gamma2/(lambda2
    phi)) eta^2| + epsilon from the inlet value lambda2(0)/lambda1(0) +
    epsilon on the trunk and 1 + epsilon on branch channels (see
    ``_Channel``). EpsilonTooLarge is raised where 1 - epsilon J reaches 0
    before the channel end. A channel without flow or without friction has
    eta = eta_bar[0] + epsilon (1 + x), the exact solution of an uncoupled
    channel; a zero-flux trunk raises DegenerateFlux.
    """
    channel = _Channel.of(CharCoeffs.from_profile(profile), trunk_inlet)
    return channel.at(epsilon)[0] / channel.coeffs.phi


@dataclass(frozen=True, eq=False)
class ChannelWeights:
    """Weight profiles of one channel, sampled on its fine grid, whose first
    and last points are the inlet and the outlet and whose every
    FINE_REFINEMENT-th points from the middle of the first cell are the
    cell centers. ``slack`` is the comparison function's interior slack
    eta' - E(eta) = epsilon / (1 - epsilon J), which the interior matrix
    reads. The weights f1 and f2 are formed when first read, as no check at
    the channel ends reads them."""

    coeffs: CharCoeffs
    alpha: float
    epsilon: float
    eta_eps: np.ndarray
    slack: np.ndarray
    Z: np.ndarray
    W: np.ndarray

    @cached_property
    def f1(self) -> np.ndarray:
        return self.alpha * (self.coeffs.phi1_sq / self.eta_eps) / self.coeffs.lambda1

    @cached_property
    def f2(self) -> np.ndarray:
        return self.alpha * (self.coeffs.phi2_sq * self.eta_eps) / self.coeffs.lambda2

    @property
    def profile(self) -> SteadyProfile:
        return self.coeffs.profile

    @property
    def channel(self) -> int:
        return self.profile.channel


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Weight profiles for every channel of a network; each carries its epsilon."""

    topo: NetworkTopology
    channels: dict[int, ChannelWeights]


def _channel_weights(c: CharCoeffs, eta, slack, alpha: float, epsilon: float) -> ChannelWeights:
    """One channel's weights at the scale ``alpha`` from its epsilon-free
    record ``c`` and its comparison function ``eta`` with its ``slack``,
    all on the fine grid or all at its ends, where each is the fine grid's
    value. Times alpha and over (lambda1, lambda2), (phi1^2 / eta, phi2^2
    eta) are (f1, f2), and their difference and sum are Z / alpha and
    W / alpha."""
    a, b = c.phi1_sq / eta, c.phi2_sq * eta
    return ChannelWeights(
        coeffs=c,
        alpha=alpha,
        epsilon=epsilon,
        eta_eps=eta,
        slack=slack,
        Z=alpha * (a - b),
        W=alpha * (a + b),
    )


def _scaled(topo: NetworkTopology, epsilon: float, channels, unit):
    """Yield the fine-grid weights of every channel in traversal order,
    parents first, each at its alpha. The alphas follow root first from the
    ``unit`` weights, those at alpha = 1: alpha_child = alpha_parent *
    W~_parent(L) / W~_child(0) makes W continuous across every junction. The
    root's alpha is 1, as an overall rescale leaves every verdict unchanged.
    At a branch inlet phi1 = phi2 = 1 and eta = 1 + epsilon, so W~(0) = 1 /
    eta + eta >= 2."""
    alphas: dict[int, float] = {}
    for i in traversal_order(topo):
        if i == topo.root_channel:
            alphas[i] = 1.0
        else:
            parent = topo.parent_of(i)
            alphas[i] = alphas[parent] * float(unit[parent].W[-1]) / float(unit[i].W[0])
        yield _channel_weights(channels[i].coeffs, *channels[i].at(epsilon), alphas[i], epsilon)


def network_weights(
    topo: NetworkTopology,
    profiles: dict[int, SteadyProfile],
    epsilon: float,
) -> WeightSet:
    """Assemble junction-matched weights for the whole tree at one epsilon.
    Raises EpsilonTooLarge where a comparison function does not exist."""
    channels = _channels(topo, profiles)
    unit = {i: _channel_weights(c.coeffs.ends, *c.at(epsilon, _ENDS), 1.0, epsilon)
            for i, c in channels.items()}
    scaled = {cw.channel: cw for cw in _scaled(topo, epsilon, channels, unit)}
    return WeightSet(topo=topo, channels=scaled)


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
    # the inlet speeds of eigenvalues, to the bit
    lam1, lam2 = float(cw.coeffs.lambda1[0]), float(cw.coeffs.lambda2[0])
    eps = cw.epsilon
    eta0 = lam2 / lam1 + eps
    return cw.alpha * lam1 * eps * (2.0 * lam2 + lam1 * eps) / (eta0 * V0**2)


def interior_matrix(cw: ChannelWeights):
    """Symmetric interior dissipation matrix N(x) on the fine grid.

    Entries: N11 = -(f1 lambda1)' + 2 f1 gamma1, N22 = (f2 lambda2)' +
    2 f2 delta2, N12 = f1 delta1 + f2 gamma2. With f1 lambda1 = alpha
    phi1^2 / eta, f2 lambda2 = alpha phi2^2 eta, phi1' = phi1 gamma1 /
    lambda1 and phi2' = -phi2 delta2 / lambda2,

        (f1 lambda1)' = f1 lambda1 (2 gamma1 / lambda1 - eta' / eta),
        (f2 lambda2)' = f2 lambda2 (eta' / eta - 2 delta2 / lambda2),

    so the 2 f1 gamma1 and 2 f2 delta2 terms cancel and N11 = f1 lambda1
    eta' / eta, N22 = f2 lambda2 eta' / eta, with eta' = E(eta) + epsilon /
    (1 - epsilon J), the super-solution's identity. Returns (N11, N12, N22)
    arrays.
    """
    c = cw.coeffs
    lam1, lam2, phi = c.lambda1, c.lambda2, c.phi
    eta = cw.eta_eps
    eta_slope = c.delta1 * phi / lam1 + c.gamma2 / (lam2 * phi) * eta**2 + cw.slack
    growth = eta_slope / eta
    N11 = cw.f1 * lam1 * growth
    N22 = cw.f2 * lam2 * growth
    N12 = cw.f1 * c.delta1 + cw.f2 * c.gamma2
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
    """Outcome of the network positivity checks at one epsilon. Its fields
    other than ``weights`` are its report (``to_dict``). Each margin map
    holds the channels whose check ran, and ``trunk_inlet`` is NaN until its
    check runs, so a refusal before any check has empty maps."""

    certified: bool
    epsilon: float
    halvings: int
    weights: WeightSet | None
    failed_checks: tuple[str, ...]
    alphas: dict[int, float] = field(default_factory=dict)
    z_end: dict[int, float] = field(default_factory=dict)
    z_start: dict[int, float] = field(default_factory=dict)
    junction_min_eig: dict[int, float] = field(default_factory=dict)
    trunk_inlet: float = math.nan
    terminal_margins: dict[int, float] = field(default_factory=dict)
    reflection: dict[int, float] = field(default_factory=dict)
    interior_min_eig: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but ``weights``: each map keyed by channel ids as
        strings in ascending order, ``failed_checks`` as a list."""
        report = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = {str(k): v for k, v in sorted(value.items())}
            report[f.name] = list(value) if isinstance(value, tuple) else value
        del report["weights"]
        return report


CHECK_ORDER = (
    "junction_outflow_positive",
    "branch_inflow_negative",
    "junction_matrix",
    "trunk_inlet",
    "terminal_margin",
    "interior_matrix",
)


def _channel_checks(
    ws: WeightSet,
    cw: ChannelWeights,
    gains: dict[int, float],
    detail: dict,
) -> list[str]:
    """The checks that read channel ``cw`` alone, at its ends: the sign of Z
    at a junction outflow and at a branch inflow, the trunk inlet and the
    terminal margin. Records every margin in ``detail`` and returns the
    names of the failed checks; a check passes only on a strict margin, so
    a NaN margin fails it. Each margin is alpha > 0 times a term free of
    alpha (the root's alpha is 1), so each verdict is the same at alpha = 1.
    A terminal's margin is alpha (phi1^2 / eta y1^2 - phi2^2 eta y2^2) at
    the outlet: f1 lam1 y1^2 - f2 lam2 y2^2
    at the traces of ``outlet_traces``, with no pole in the gain and
    negative at the ill-posed gain, where y1 = 0. The margin alone refuses
    a zero-flux outlet at k <= 0: there phi1 = phi2 = 1, eta >= 1 and r <= 0,
    so |1 + r| <= |1 - r| and the term is at most 0.
    """
    topo = ws.topo
    i = cw.channel
    prof = cw.profile
    failed: list[str] = []
    if i in topo.junctions:
        z = float(cw.Z[-1])
        detail["z_end"][i] = z
        if not z > 0.0:
            failed.append("junction_outflow_positive")
    else:
        k = float(gains[i])
        detail["reflection"][i] = reflection_coefficient(k, prof.outlet_depth, prof.gravity)
        y1, y2 = outlet_traces(k, prof.outlet_depth, prof.gravity)
        c, eta = cw.coeffs, cw.eta_eps[-1]
        term = c.phi1_sq[-1] / eta * y1**2 - c.phi2_sq[-1] * eta * y2**2
        margin = cw.alpha * float(term)
        detail["terminal_margins"][i] = margin
        if not margin > 0.0:
            failed.append("terminal_margin")

    if i == topo.root_channel:
        f1 = trunk_inlet_coefficient(ws)
        detail["trunk_inlet"] = f1
        if not f1 > 0.0:
            failed.append("trunk_inlet")
    else:
        z = float(cw.Z[0])
        detail["z_start"][i] = z
        if not z < 0.0:
            failed.append("branch_inflow_negative")
    return failed


def _fine_checks(ws: WeightSet, cw: ChannelWeights, detail: dict) -> list[str]:
    """The checks that read more than the ends of channel ``cw``, as
    ``_channel_checks`` records and returns its checks: the interior matrix
    N(x) at every point of its weights and, once the last of its siblings is
    built, the junction matrix that feeds it."""
    failed: list[str] = []
    N11, N12, N22 = interior_matrix(cw)
    low, norm = _sym2x2_eig_bounds(N11, N12, N22)
    detail["interior_min_eig"][cw.channel] = float(np.min(low))
    if not np.all(low > POSITIVITY_REL_TOL * norm):
        failed.append("interior_matrix")
    topo = ws.topo
    if cw.channel != topo.root_channel:
        parent = topo.parent_of(cw.channel)
        if all(c in ws.channels for c in topo.junctions[parent]):
            _, M_bar = junction_matrix(ws, parent)
            eigs = np.linalg.eigvalsh(M_bar)
            detail["junction_min_eig"][parent] = float(eigs[0])
            norm = float(np.max(np.abs(eigs)))
            if not eigs[0] > POSITIVITY_REL_TOL * norm:
                failed.append("junction_matrix")
    return failed


def _attempt(
    topo: NetworkTopology,
    gains: dict[int, float],
    epsilon: float,
    channels: dict[int, _Channel],
    last: bool,
    first: int | None,
) -> tuple[NetworkCertificate, int]:
    """Build and check the weights at one epsilon in two passes from each
    channel's epsilon-free record in ``channels``: (its certificate, with
    halvings 0, the channel where it stopped).

    The first pass forms the comparison function at the ends of channel
    ``first``, where the last attempt stopped, then of the rest in traversal
    order, and runs ``_channel_checks`` on each channel's weights there at
    alpha = 1, the fine grid's ends to the bit. Unless this is the ``last``
    attempt, it fails at the first channel that fails one, with no weights
    and no margins. The second pass
    scales each channel by its alpha on the fine grid, in traversal order,
    and runs every check; its margins are the ones reported. Unless this is
    the ``last`` attempt it stops at the first channel with a failed check.
    A missing comparison function fails the attempt as "weight_existence"
    with no weights and no margins.
    """
    unit = WeightSet(topo=topo, channels={})
    # channel first, then the rest in traversal order: the sort is stable
    for i in sorted(traversal_order(topo), key=lambda j: j != first):
        try:
            ends = channels[i].at(epsilon, _ENDS)
        except EpsilonTooLarge:
            return NetworkCertificate(False, epsilon, 0, None, ("weight_existence",)), i
        unit.channels[i] = cw = _channel_weights(channels[i].coeffs.ends, *ends, 1.0, epsilon)
        failed = _channel_checks(unit, cw, gains, defaultdict(dict))
        if failed and not last:
            failed = tuple(name for name in CHECK_ORDER if name in failed)
            return NetworkCertificate(False, epsilon, 0, None, failed), i

    ws = WeightSet(topo=topo, channels={})
    detail = defaultdict(dict)
    failed = set()
    for cw in _scaled(topo, epsilon, channels, unit.channels):
        ws.channels[cw.channel] = cw
        detail["alphas"][cw.channel] = cw.alpha
        failed.update(_channel_checks(ws, cw, gains, detail))
        failed.update(_fine_checks(ws, cw, detail))
        if failed and not last:
            break
    failed = tuple(name for name in CHECK_ORDER if name in failed)
    return NetworkCertificate(not failed, epsilon, 0, ws, failed, **detail), cw.channel


def _check_epsilon_start(epsilon_start: float) -> float:
    """epsilon_start; ValueError if it is not positive and finite."""
    if not 0.0 < epsilon_start < math.inf:
        raise ValueError(f"epsilon_start must be positive and finite, not {epsilon_start!r}")
    return epsilon_start


def certify_network(
    topo: NetworkTopology,
    profiles: dict[int, SteadyProfile],
    gains: dict[int, float],
    epsilon_start: float = DEFAULT_EPSILON,
) -> NetworkCertificate:
    """Search a decreasing epsilon schedule for a full positivity certificate.

    Verifies, at each epsilon: positive outflow coefficient Z at every
    junction inflow face, negative inflow coefficient Z at every non-trunk
    inlet, positive definite junction matrices, a positive trunk inlet
    coefficient, positive terminal margins for the supplied gains, and a
    positive definite interior matrix N(x) at every fine-grid point of every
    channel. Epsilon is halved (at most ``MAX_HALVINGS`` times) whenever the
    comparison function fails to exist or any check fails. Each attempt
    first forms the channels' comparison functions at their ends, the one
    where the last attempt stopped first, and decides there at alpha = 1; only one whose every
    channel passes there reaches the fine grid (``_attempt``). The last
    attempt runs every check on the fine grid, so a refused certificate
    lists every failure at the final epsilon. An ``epsilon_start`` that is
    not positive and finite raises ValueError.
    """
    _check_epsilon_start(epsilon_start)
    for j in topo.terminal_channels:
        if j not in gains:
            raise MissingGain(j)
    channels = _channels(topo, profiles)
    epsilon = float(epsilon_start)
    stop = None
    for halvings in range(MAX_HALVINGS + 1):
        cert, stop = _attempt(topo, gains, epsilon, channels, halvings == MAX_HALVINGS, stop)
        if cert.certified or halvings == MAX_HALVINGS:
            return replace(cert, halvings=halvings)
        epsilon *= 0.5
