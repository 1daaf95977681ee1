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

A network's epsilon-free record (``_Record``) is made once per certificate,
before the first attempt, on one (m x n) array per quantity: one row per
channel in traversal order, each edge-padded to the longest channel by
repeating its last abscissa and depth. A padded point adds dx = 0, so +0.0,
to every cumulative trapezoid sum: the last column holds each channel's
outlet values, and the minimum of a row is its channel's. The record holds
the speeds, couplings and phi factors (``CharCoeffs.rows``) and eta_bar, u
and J, u and J as cumulative trapezoid sums along the rows; each channel's
``CharCoeffs`` is a view of its row, made when first read. Every row has
the bits of its one-row record, which ``eta_eps`` makes. eta_bar[0] is the inlet value
exactly, so eta(0) is that value + epsilon to the bit.

The search (``certify_network``) reads each terminal's traces and
reflection at its gain (``_ends``) and the rows' end values as Python floats
(``_Record.ends``) once, and walks the ladder epsilon_start * 0.5**k from
the rung that the end caps name. Each outlet check, a junction outflow Z(L)
> 0 or a terminal margin, is alpha > 0 times a term free of alpha that is
positive exactly when eta(L) < C: C = phi(L) at a junction and phi(L) /
|rho| at a terminal of reflection rho. Its root in epsilon is the channel's
end cap (``_end_caps``), below the existence bound 1 / J(L), and the search
starts one rung before the first rung below the smallest cap, so that the
checks decide a rung within rounding of it. An attempt (``_attempt``) first
takes every check that reads only channel ends from those floats
(``_walk``), each with the bits of the fine-grid arrays' end column, as
Python's float operations are the IEEE operations of numpy's element-wise
ones. One that fails refuses the attempt exactly, and unless it is the
search's last, before any fine-grid array is formed. Otherwise eta, Z, W,
f1, f2 and N(x) with its 2 x 2 bounds are one array expression each over
every channel, and each junction's eigenvalues follow. Each channel's
``ChannelWeights`` is a view of its row, made when first read. An attempt
returns its own ``NetworkCertificate``, whose fields other than the weights
are the report.
The test suite (``tests/conftest.py``) keeps the per-channel path
(``certify_per_channel``) and the ODE forms of I4 and of the comparison
solution, solved by scipy, as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .characteristics import (
    CharCoeffs,
    existence_integral,
    outlet_traces,
    parameter_columns,
    phi_exponents,
    reflection_coefficient,
    row_power,
)
from .errors import DegenerateFlux, EpsilonTooLarge, MissingGain, WeightError
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
    """Closed-form ratio m = eta_bar / eta0 as a function of the local depth.

    On a stack of depth rows (m x n) each parameter may be a column (m x 1),
    and each row has the bits of its one-row call: the powers of the depth
    take ``row_power``, and the terms free of it are Python floats, taken
    row by row (``_m_terms``). A Python float depth, the gain screen's
    outlet, takes the same operations on Python floats, the powers by the
    C library's pow, and returns a float, which may differ from the array
    path's in its last bits. Either path raises WeightError where the
    denominator vanishes."""
    params = (inlet_depth, flux, friction_exponent, gravity)
    if isinstance(H, float):
        high, p, s, scale_high, inlet, scale_p, inlet_p = _m_terms(*params)
        H = float(H)  # a numpy float64 is a float too
        shared = scale_high * H**high + inlet + scale_p * (H**p - inlet_p)
        half = 0.5 * H**s
        den = shared - half
        if den <= 0.0:
            raise WeightError("m denominator vanished: depth beyond the subcritical range")
        return (half + shared) / den
    if np.ndim(flux) == 0:
        terms = _m_terms(*params)
    else:
        rows = zip(*(v[:, 0].tolist() for v in params))
        terms = np.array([_m_terms(*row) for row in rows]).T.copy()[:, :, None]
    high, p, s, scale_high, inlet, scale_p, inlet_p = terms
    H = np.asarray(H, dtype=float)
    shared = scale_high * row_power(H, high) + inlet + scale_p * (row_power(H, p) - inlet_p)
    half = 0.5 * row_power(H, s)
    num = half + shared
    den = shared - half
    if np.any(den <= 0.0):
        raise WeightError("m denominator vanished: depth beyond the subcritical range")
    out = num / den
    return float(out) if out.ndim == 0 else out


def _m_terms(inlet_depth, flux, p, gravity):
    """The exponents 3 + p, p and (3 + 2p)/2 of ``m_value``'s powers of the
    depth H and its terms free of H, the scales of H^(3+p) and of H^p -
    H0^p, the inlet term and H0^p, from one channel's Python floats."""
    if flux == 0.0:
        raise DegenerateFlux("m is undefined for a zero-flux channel")
    sg = math.sqrt(gravity)
    return (3.0 + p, p, (3.0 + 2.0 * p) / 2.0, sg / ((3.0 + p) * flux),
            ((1.0 + p) * sg / (2.0 * (3.0 + p) * flux)) * inlet_depth ** (3.0 + p),
            flux / (2.0 * sg), inlet_depth**p)


def _riccati_terms(lambda1, lambda2, delta1, gamma2, phi):
    """(delta1 phi / lambda1, c), c = gamma2 / (lambda2 phi): the terms of
    the Riccati right-hand side E(eta) = delta1 phi / lambda1 + c eta^2."""
    return delta1 * phi / lambda1, gamma2 / (lambda2 * phi)


def _cumulative(f: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The integral of each row of f from its first point by the trapezoid
    rule on the abscissa steps dx, exactly 0 at the first point."""
    out = np.zeros(f.shape)
    np.cumsum(0.5 * (f[:, 1:] + f[:, :-1]) * dx, axis=1, out=out[:, 1:])
    return out


def _stack(rows: list[np.ndarray], n: int) -> np.ndarray:
    """The 1-D arrays ``rows`` as the rows of one (m x n) array, each
    edge-padded to n points by repeating its last value."""
    return np.array([a if a.size == n else np.concatenate((a, np.full(n - a.size, a[-1])))
                     for a in rows])


@dataclass(frozen=True, eq=False)
class _Record:
    """The epsilon-free record of a set of channels, made once per
    certificate: row r holds the channel of ``profiles[r]`` (see the module
    docstring). Its fields are the arrays of ``CharCoeffs``, the terms
    ``source`` and ``c`` of E (``_riccati_terms``), the epsilon = 0 comparison
    solution ``eta_bar`` and the terms ``u`` and ``J`` of the super-solution
    eta = eta_bar + epsilon u / (1 - epsilon J). The inlet value
    ``eta_bar[:, 0]`` is lambda2(0)/lambda1(0) on a trunk, from the inlet
    speeds, which take the operations of ``eigenvalues`` and so its bits,
    and 1 on branch channels; u[:, 0] = 1 and J[:, 0] = 0 exactly. u =
    exp(B) (1 + int exp(-B)) with B = int 2 c eta_bar, and J = int c u, each
    integral a cumulative trapezoid sum: their O(h^2) error enters eta only
    times epsilon."""

    profiles: tuple[SteadyProfile, ...]
    lambda1: np.ndarray
    lambda2: np.ndarray
    gamma1: np.ndarray
    delta1: np.ndarray
    gamma2: np.ndarray
    delta2: np.ndarray
    phi: np.ndarray
    phi1_sq: np.ndarray
    phi2_sq: np.ndarray
    source: np.ndarray
    c: np.ndarray
    eta_bar: np.ndarray
    u: np.ndarray
    J: np.ndarray

    @classmethod
    def of(cls, profiles: list[SteadyProfile], trunk: bool) -> "_Record":
        """The record of ``profiles``, one row each in their order: the first
        is a trunk if ``trunk``, and every other channel a branch."""
        if trunk and profiles[0].flux == 0.0:
            raise DegenerateFlux("trunk channels carry positive flux")
        n = max(q.x_fine.size for q in profiles)
        x, H = (_stack(rows, n) for rows in zip(*((q.x_fine, q.H_fine) for q in profiles)))
        arrays = CharCoeffs.rows(profiles, H)
        lam1, lam2, _, delta1, gamma2, _, phi, _, _ = arrays
        # eta0 = (lambda2/lambda1) phi, exactly lambda2(0)/lambda1(0) at the
        # inlet, where phi is exactly 1
        eta_bar = lam2 / lam1 * phi
        first = 1 if trunk else 0
        # at zero flux eta0 is exactly 1 and uncoupled
        flowing = [r for r in range(first, len(profiles)) if profiles[r].flux > 0.0]
        if flowing:
            H0, flux, _, p, g = parameter_columns([profiles[r] for r in flowing])
            eta_bar[flowing] *= m_value(H[flowing], H0, flux, p, g)
        eta_bar[first:, 0] = 1.0
        source, c = _riccati_terms(lam1, lam2, delta1, gamma2, phi)
        dx = np.diff(x, axis=1)
        B = _cumulative(2.0 * c * eta_bar, dx)
        u = np.exp(B) * (1.0 + _cumulative(np.exp(-B), dx))
        return cls(tuple(profiles), *arrays, source, c, eta_bar, u, _cumulative(c * u, dx))

    @cached_property
    def index(self) -> dict[int, int]:
        """The row of each channel."""
        return {q.channel: r for r, q in enumerate(self.profiles)}

    @cached_property
    def coeffs(self) -> tuple[CharCoeffs, ...]:
        """Each row's ``CharCoeffs``, views of the row trimmed to its
        channel's fine grid, made when first read."""
        names = [f.name for f in fields(CharCoeffs)[1:]]
        return tuple(CharCoeffs(q, *(getattr(self, name)[r, : q.x_fine.size] for name in names))
                     for r, q in enumerate(self.profiles))

    @cached_property
    def ends(self) -> tuple[list, list, list[float], tuple[float, float, float]]:
        """(inlet, outlet, phi(L), root) as Python floats, made when first
        read: each row's (eta_bar, u, J, phi1^2, phi2^2) at its inlet and at
        its outlet, and (lambda1, lambda2, V) at the inlet of row 0."""
        arrays = (self.eta_bar, self.u, self.J, self.phi1_sq, self.phi2_sq)
        step = self.J.shape[1] - 1  # the first and the last column, a row has two points or more
        inlet, outlet = np.array([a[:, ::step] for a in arrays]).transpose(2, 1, 0).tolist()
        q = self.profiles[0]
        root = float(self.lambda1[0, 0]), float(self.lambda2[0, 0]), q.velocity_of(q.inlet_depth)
        return inlet, outlet, self.phi[:, -1].tolist(), root

    def outlet_room(self, epsilon: float) -> list[float]:
        """1 - epsilon J(L) of every row; EpsilonTooLarge, naming the first
        such channel, where it is not positive: J grows to the outlet, so
        eta exists on a channel exactly where it exists at the outlet."""
        rooms = [1.0 - epsilon * J for _, _, J, _, _ in self.ends[1]]
        for q, room in zip(self.profiles, rooms):
            if not room > 0.0:
                raise EpsilonTooLarge(f"channel {q.channel}: comparison function with "
                                      f"epsilon={epsilon:g} does not exist on the whole channel")
        return rooms

    def at(self, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
        """(eta, epsilon / (1 - epsilon J)) at ``epsilon`` on every row, the
        super-solution and its interior slack eta' - E(eta), where it exists
        (``outlet_room``)."""
        self.outlet_room(epsilon)
        slack = epsilon / (1.0 - epsilon * self.J)
        return self.eta_bar + self.u * slack, slack


def _record(topo: NetworkTopology, profiles: dict[int, SteadyProfile]) -> _Record:
    """The record of every channel of ``topo``, in traversal order."""
    return _Record.of([profiles[i] for i in traversal_order(topo)], trunk=True)


@dataclass(frozen=True, eq=False)
class _Ends:
    """The rows that feed a junction, the terminal rows and, at each
    terminal's gain, its reflection rho and the squares of its traces y1,
    y2 as Python floats, read once per certificate (``_ends``)."""

    junctions: list[int]
    terminals: list[int]
    reflection: list[float]
    y1_sq: list[float]
    y2_sq: list[float]


def _ends(topo: NetworkTopology, record: _Record, gains: dict[int, float]) -> _Ends:
    """The ``_Ends`` of ``record``, each terminal at the float of its gain."""
    ends = _Ends([], [], [], [], [])
    for r, q in enumerate(record.profiles):
        if q.channel in topo.junctions:
            ends.junctions.append(r)
            continue
        k, H, g = float(gains[q.channel]), q.outlet_depth, q.gravity
        y1, y2 = outlet_traces(k, H, g)
        ends.terminals.append(r)
        ends.reflection.append(reflection_coefficient(k, H, g))
        ends.y1_sq.append(y1**2)
        ends.y2_sq.append(y2**2)
    return ends


def _end_caps(record: _Record, ends: _Ends) -> list[float]:
    """Each row's end cap, the root in epsilon of eta(L) < C, within
    rounding: C is phi(L) on a junction row and phi(L) / |rho| on a
    terminal's, +inf at rho = 0. With d = C - eta_bar(L), the cap is 1 /
    (u(L) / d + J(L)) where d > 0, else 0, and +inf where d = +inf and J(L)
    = 0: an uncoupled terminal at its non-reflecting gain."""
    _, outlet, bound, _ = record.ends
    bound = list(bound)
    for r, rho in zip(ends.terminals, ends.reflection):
        bound[r] = bound[r] / abs(rho) if rho else math.inf
    caps = []
    for C, (eta_bar, u, J, _, _) in zip(bound, outlet):
        d = C - eta_bar
        total = u / d + J if d > 0.0 else math.inf
        caps.append(1.0 / total if total else math.inf)
    return caps


def _walk(topo: NetworkTopology, record: _Record, epsilon: float) -> list[tuple[float, ...]]:
    """Each row's (alpha, a(0), b(0), a(L), b(L)), (a, b) = (phi1^2 / eta,
    phi2^2 eta), at ``epsilon`` from its end values, parents first: the bits
    of ``_weights``' end columns. alpha_child = alpha_parent W~_parent(L) /
    W~_child(0), W~ = a + b, makes W continuous across every junction; the
    root's alpha is 1, as an overall rescale changes no verdict. At a branch
    inlet W~(0) = 1 / eta + eta >= 2.
    EpsilonTooLarge where eta does not exist (``_Record.outlet_room``)."""
    inlet, outlet, _, _ = record.ends
    rows, outlet_W = [], {}  # alpha W~(L) of each channel walked
    for q, (eb0, u0, J0, p10, p20), (ebL, uL, _, p1L, p2L), room in zip(
            record.profiles, inlet, outlet, record.outlet_room(epsilon)):
        eta0 = eb0 + u0 * (epsilon / (1.0 - epsilon * J0))
        etaL = ebL + uL * (epsilon / room)
        a0, b0, aL, bL = p10 / eta0, p20 * eta0, p1L / etaL, p2L * etaL
        i = q.channel
        alpha = 1.0 if i == topo.root_channel else outlet_W[topo.parent_of(i)] / (a0 + b0)
        outlet_W[i] = alpha * (aL + bL)
        rows.append((alpha, a0, b0, aL, bL))
    return rows


def eta_eps(profile: SteadyProfile, epsilon: float, trunk_inlet: bool = False) -> np.ndarray:
    """Strictly increasing comparison function with slope margin epsilon,
    as eta / phi on the channel's fine grid.

    eta = eta_bar + epsilon u / (1 - epsilon J) satisfies eta' = E(eta) +
    epsilon / (1 - epsilon J) >= |delta1 phi / lambda1 + (gamma2/(lambda2
    phi)) eta^2| + epsilon from the inlet value lambda2(0)/lambda1(0) +
    epsilon on the trunk and 1 + epsilon on branch channels (see
    ``_Record``, whose one-row case this is). EpsilonTooLarge is raised
    where 1 - epsilon J reaches 0 before the channel end. A channel without
    flow or without friction has eta = eta_bar[0] + epsilon (1 + x), the
    exact solution of an uncoupled channel; a zero-flux trunk raises
    DegenerateFlux.
    """
    record = _Record.of([profile], trunk_inlet)
    return (record.at(epsilon)[0] / record.phi)[0]


@dataclass(frozen=True, eq=False)
class ChannelWeights:
    """Weight profiles of one channel, sampled on its fine grid, whose first
    and last points are the inlet and the outlet and whose every
    FINE_REFINEMENT-th points from the middle of the first cell are the
    cell centers; each array is a view of the channel's row of its
    ``WeightSet``'s arrays. ``slack`` is the comparison function's interior
    slack eta' - E(eta) = epsilon / (1 - epsilon J), which the interior
    matrix reads. The weights are f1 = alpha phi1^2 / (lambda1 eta) and f2 =
    alpha phi2^2 eta / lambda2."""

    coeffs: CharCoeffs
    alpha: float
    epsilon: float
    eta_eps: np.ndarray
    slack: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    @property
    def profile(self) -> SteadyProfile:
        return self.coeffs.profile

    @property
    def channel(self) -> int:
        return self.profile.channel


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Weight profiles of every channel of a network at one epsilon, on the
    rows of its ``record``: each channel's alpha and the (m x n) arrays of
    eta, its slack, Z, W, f1 and f2. ``channels`` maps each channel to its
    ``ChannelWeights``, views of its row, made when first read."""

    topo: NetworkTopology
    record: _Record
    epsilon: float
    alphas: tuple[float, ...]
    eta_eps: np.ndarray
    slack: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    @cached_property
    def channels(self) -> dict[int, ChannelWeights]:
        arrays = (self.eta_eps, self.slack, self.Z, self.W, self.f1, self.f2)
        return {c.profile.channel: ChannelWeights(c, alpha, self.epsilon,
                                                  *(a[r, : c.lambda1.size] for a in arrays))
                for r, (c, alpha) in enumerate(zip(self.record.coeffs, self.alphas))}


def _weights(topo: NetworkTopology, record: _Record, epsilon: float,
             alphas: list[float]) -> WeightSet:
    """The weights at ``epsilon`` of every row of ``record``, row r at the
    scale ``alphas[r]`` of ``_walk``; EpsilonTooLarge where a comparison
    function does not exist. Times alpha and over (lambda1, lambda2),
    (phi1^2 / eta, phi2^2 eta) are (f1, f2), and their difference and sum
    are Z / alpha and W~ = W / alpha."""
    eta, slack = record.at(epsilon)
    a, b = record.phi1_sq / eta, record.phi2_sq * eta
    alpha = np.array(alphas)[:, None]
    return WeightSet(topo, record, epsilon, tuple(alphas), eta, slack, alpha * (a - b),
                     alpha * (a + b), alpha * a / record.lambda1, alpha * b / record.lambda2)


def network_weights(topo: NetworkTopology, profiles: dict[int, SteadyProfile],
                    epsilon: float) -> WeightSet:
    """Assemble junction-matched weights for the whole tree at one epsilon.
    Raises EpsilonTooLarge where a comparison function does not exist."""
    record = _record(topo, profiles)
    return _weights(topo, record, epsilon, [row[0] for row in _walk(topo, record, epsilon)])


def junction_matrix(ws: WeightSet, incoming: int):
    """Symmetric junction matrices (M, M_bar) for the junction fed by ``incoming``.

    Rows/columns 0..m-1 correspond to the outgoing channels' velocity traces,
    the last row/column to the shared depth trace. M_bar is M with the
    depth-velocity couplings removed, which is exact once the alpha scales
    match W across the junction.
    """
    children = ws.topo.junctions[incoming]
    row = ws.record.index
    r = row[incoming]
    prof = ws.record.profiles[r]
    H_B, g = prof.outlet_depth, prof.gravity
    Z_in, W_in = float(ws.Z[r, -1]), float(ws.W[r, -1])
    # every outgoing channel starts at the junction depth H_B
    Z0 = [float(ws.Z[row[c], 0]) for c in children]
    W0 = [float(ws.W[row[c], 0]) for c in children]
    m = len(children)
    M = np.full((m + 1, m + 1), Z_in)
    s = math.sqrt(g * H_B) / H_B
    for l in range(m):
        M[l, l] = Z_in - Z0[l]
        M[l, m] = M[m, l] = s * (W_in - W0[l])
    M[m, m] = (g / H_B) * (Z_in - sum(Z0))
    M_bar = M.copy()
    M_bar[:m, m] = M_bar[m, :m] = 0.0
    return M, M_bar


def trunk_inlet_coefficient(ws: WeightSet) -> float:
    """Dissipation coefficient (lambda2 lambda1^2 f2 - lambda1 lambda2^2 f1) / V^2
    of the imposed-flux inlet at the trunk.

    At the inlet phi1 = phi2 = 1 and eta = lambda2/lambda1 + epsilon, so it is
    alpha lambda1 epsilon (2 lambda2 + lambda1 epsilon) / (eta V^2) exactly;
    in that form it keeps every digit, where the difference of the two terms
    would lose about 1/epsilon of them.
    """
    return _trunk_inlet(ws.record, ws.alphas[0], ws.epsilon)


def _trunk_inlet(record: _Record, alpha: float, eps: float) -> float:
    """``trunk_inlet_coefficient`` of row 0, the trunk, at ``alpha``."""
    lam1, lam2, V0 = record.ends[3]  # eta(0) = lambda2 / lambda1 + epsilon
    return alpha * lam1 * eps * (2.0 * lam2 + lam1 * eps) / ((lam2 / lam1 + eps) * V0**2)


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
    (1 - epsilon J), the super-solution's identity. It is exact for the
    exact u and J; the record holds their cumulative trapezoid sums, so the
    eta on the fine grid meets it only up to the sums' O(h^2) error, which
    enters eta times epsilon. Returns (N11, N12, N22) arrays.
    """
    k = cw.coeffs
    terms = _riccati_terms(k.lambda1, k.lambda2, k.delta1, k.gamma2, k.phi)
    return _interior(k, *terms, cw.eta_eps, cw.slack, cw.f1, cw.f2)


def _interior(k, source, c, eta, slack, f1, f2):
    """(N11, N12, N22) of ``interior_matrix`` from the speeds and couplings
    of ``k``, a ``CharCoeffs`` or a ``_Record``, the terms of E
    (``_riccati_terms``) and the weights, all on the same points."""
    growth = (source + c * eta**2 + slack) / eta
    return f1 * k.lambda1 * growth, f1 * k.delta1 + f2 * k.gamma2, f2 * k.lambda2 * growth


def _sym2x2_eig_bounds(a11, a12, a22):
    mid = 0.5 * (a11 + a22)
    rad = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12**2)
    low = mid - rad
    return low, np.maximum(np.abs(low), np.abs(mid + rad))


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


def _attempt(topo: NetworkTopology, ends: _Ends, epsilon: float, record: _Record,
             halvings: int) -> NetworkCertificate:
    """The certificate of one epsilon, the search's rung ``halvings``. The
    end checks come first, in Python floats (``_walk``) at the outlets of
    ``ends``: Z(L) > 0 on the rows that feed a junction, Z(0) < 0 on the
    rows after the root's, the trunk inlet and a terminal's margin alpha
    (phi1^2 / eta y1^2 - phi2^2 eta y2^2), f1 lam1 y1^2 - f2 lam2 y2^2 at
    its traces, with no pole in the gain, negative at the ill-posed gain (y1
    = 0) and at a zero-flux outlet at k <= 0. An attempt that fails one and
    is not the last (halvings < ``MAX_HALVINGS``) is refused there, with
    those margins and no weights. Otherwise the weights (``_weights``),
    N(x) and each junction's matrix are checked too. A check passes only on
    a strict margin, so a NaN margin fails it; a missing comparison function
    fails as "weight_existence", with no weights and no margins."""
    try:
        walk = _walk(topo, record, epsilon)
    except EpsilonTooLarge:
        return NetworkCertificate(False, epsilon, halvings, None, ("weight_existence",))
    alphas = [row[0] for row in walk]
    z_end = [alpha * (aL - bL) for alpha, _, _, aL, bL in (walk[r] for r in ends.junctions)]
    z_start = [alpha * (a0 - b0) for alpha, a0, b0, _, _ in walk[1:]]
    margins = [alpha * (aL * y1_sq - bL * y2_sq) for (alpha, _, _, aL, bL), y1_sq, y2_sq
               in zip((walk[r] for r in ends.terminals), ends.y1_sq, ends.y2_sq)]
    trunk = _trunk_inlet(record, alphas[0], epsilon)
    passed = {"junction_outflow_positive": all(z > 0.0 for z in z_end),
              "branch_inflow_negative": all(z < 0.0 for z in z_start),
              "trunk_inlet": trunk > 0.0, "terminal_margin": all(m > 0.0 for m in margins)}
    channels = [q.channel for q in record.profiles]
    terminals = [channels[r] for r in ends.terminals]
    report = dict(alphas=dict(zip(channels, alphas)), trunk_inlet=trunk,
                  z_end=dict(zip([channels[r] for r in ends.junctions], z_end)),
                  z_start=dict(zip(channels[1:], z_start)),
                  terminal_margins=dict(zip(terminals, margins)),
                  reflection=dict(zip(terminals, ends.reflection)))
    ws = None
    if all(passed.values()) or halvings == MAX_HALVINGS:
        ws = _weights(topo, record, epsilon, alphas)
        low, norm = _sym2x2_eig_bounds(
            *_interior(record, record.source, record.c, ws.eta_eps, ws.slack, ws.f1, ws.f2))
        eigs = {i: np.linalg.eigvalsh(junction_matrix(ws, i)[1]) for i in topo.junctions}
        passed["junction_matrix"] = all(
            e[0] > POSITIVITY_REL_TOL * max(abs(v) for v in e.tolist()) for e in eigs.values())
        passed["interior_matrix"] = (low > POSITIVITY_REL_TOL * norm).all()
        report.update(junction_min_eig={i: float(e[0]) for i, e in eigs.items()},
                      interior_min_eig=dict(zip(channels, low.min(axis=1).tolist())))
    failed = tuple(name for name in CHECK_ORDER if not passed.get(name, True))
    return NetworkCertificate(not failed, epsilon, halvings, ws, failed, **report)


def _check_epsilon_start(epsilon_start: float) -> float:
    """epsilon_start; ValueError if it is not positive and finite."""
    if not 0.0 < epsilon_start < math.inf:
        raise ValueError(f"epsilon_start must be positive and finite, not {epsilon_start!r}")
    return epsilon_start


def certify_network(topo: NetworkTopology, profiles: dict[int, SteadyProfile],
                    gains: dict[int, float],
                    epsilon_start: float = DEFAULT_EPSILON) -> NetworkCertificate:
    """Search a decreasing epsilon schedule for a full positivity certificate.

    Verifies, at each epsilon: positive outflow coefficient Z at every
    junction inflow face, negative inflow coefficient Z at every non-trunk
    inlet, positive definite junction matrices, a positive trunk inlet
    coefficient, positive terminal margins for the supplied gains, and a
    positive definite interior matrix N(x) at every fine-grid point of every
    channel. The schedule is the ladder epsilon_start * 0.5**k, k = 0 ...
    ``MAX_HALVINGS``, whose normal rungs have the bits of k halvings. The
    outlets (``_ends``) and the rows' end values are read once. Let
    ``first`` be the ladder's first rung below the smallest end cap
    (``_end_caps``), or ``MAX_HALVINGS`` if there is none: every rung before
    it fails an outlet check or its existence. The search starts at rung
    max(first - 1, 0), so that the checks decide a rung within rounding of
    the cap, and halves epsilon while an attempt (``_attempt``) fails. The
    attempt returned has run every check: a refused certificate lists every
    failure at the final epsilon. An ``epsilon_start`` that is not positive
    and finite raises ValueError.
    """
    start = float(_check_epsilon_start(epsilon_start))
    for j in topo.terminal_channels:
        if j not in gains:
            raise MissingGain(j)
    record = _record(topo, profiles)
    ends = _ends(topo, record, gains)
    cap = min(_end_caps(record, ends))
    first = next((k for k in range(MAX_HALVINGS) if start * 0.5**k < cap), MAX_HALVINGS)
    for halvings in range(max(first - 1, 0), MAX_HALVINGS + 1):
        cert = _attempt(topo, ends, start * 0.5**halvings, record, halvings)
        if cert.certified or halvings == MAX_HALVINGS:
            return cert
