"""Shared fixtures: steady-flow and weight oracles and network generators.

The potential helpers evaluate the first integral of the steady depth
equation with plain algebra. The ODE oracles go the other way: they
integrate the ODE forms of quantities that the library evaluates in closed
form, the steady depth included. brentq, at its tightest setting, is the
oracle of the Newton solve for the blow-up depth. The simulator's sparse
operators have their oracle in scipy's diags, block_diag and bmat chains.
"""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from channet.characteristics import (
    eigenvalues,
    phi_exponents,
    speeds_couplings,
)
from channet.errors import DegenerateFlux, WeightError
from channet.gains import is_admissible
from channet.steady import (
    FINE_REFINEMENT,
    MARGIN_TOL,
    SteadyProfile,
    _potential_drop,
    critical_depth,
    integrate_channel_steady,
    potential_slope,
    solve_network_steady,
)
from channet.topology import ChannelSpec, NetworkTopology
import channet.weights as weights_module
from channet.weights import (
    PhiProfiles,
    certify_network,
    m_value,
)

G = 9.81
SUITE_SEED = 20240817
SUITE_SIZE = 100
P_CHOICES = (0.0, 1.0, 4.0 / 3.0, 2.0)
INTEGRAL_RTOL = 1e-12
INTEGRAL_ATOL = 1e-14
ORACLE_TOL = 1e-12


def depth_potential(H, flux, exponent):
    """Antiderivative of g H^(p+2) - Q^2 H^(p-1) in H.

    Along a steady profile its value drops linearly: potential(H(x)) equals
    potential(H(0)) - g C Q^2 x, which pins the profile without integrating
    anything.
    """
    if exponent == 0.0:
        return G * H**3 / 3.0 - flux * flux * np.log(H)
    return G * H ** (exponent + 3.0) / (exponent + 3.0) - flux * flux * H**exponent / exponent


def steady_rhs(depth, flux, friction=0.0, friction_exponent=1.0, gravity=9.81):
    """Right-hand side dH*/dx of the steady depth equation: the reference
    slope of the tests, against which the closed-form profile is checked.

    Accepts scalar or array depth. Raises ValueError if any depth is at or
    below critical (the subcritical profile equation is not defined there).
    """
    H = np.asarray(depth, dtype=float)
    if np.any(H <= 0.0):
        raise ValueError("depth must be positive")
    V2 = np.zeros_like(H) if flux == 0.0 else (flux / H) ** 2
    margin = gravity * H - V2
    if np.any(margin <= 0.0):
        raise ValueError(
            "flow is critical or supercritical (g H - V^2 <= 0)"
        )
    rhs = -gravity * friction * V2 / (H ** (friction_exponent - 1.0) * margin)
    return float(rhs) if rhs.ndim == 0 else rhs


def closed_form_blowup(H0, flux, friction, exponent):
    """Abscissa where the steady profile hits critical depth."""
    Hc = critical_depth(flux, G)
    drop = depth_potential(H0, flux, exponent) - depth_potential(Hc, flux, exponent)
    return drop / (G * friction * flux * flux)


def blowup_depth_by_brentq(H0, flux, g=G):
    """Depth H_t in (Hc, H0] where g H^3 - threshold H^2 = Q^2, threshold =
    MARGIN_TOL g H0, by brentq at its tightest setting: rtol 4 eps, its
    floor, and an xtol far below any root, as an absolute xtol would be loose
    on tiny roots."""
    threshold = MARGIN_TOL * g * H0
    return brentq(
        lambda H: (g * H - threshold) * H * H - flux * flux,
        critical_depth(flux, g),
        H0,
        xtol=1e-300,
        rtol=4.0 * np.finfo(float).eps,
    )


def blowup_bound_by_brentq(spec, H0, flux):
    """Abscissa where the margin g H - V^2 falls to MARGIN_TOL g H0: the
    potential drop from H0 to the brentq root H_t over g C Q^2."""
    g = spec.gravity
    drop = _potential_drop(H0, blowup_depth_by_brentq(H0, flux, g), flux, spec.friction_exponent, g)
    return drop / (g * spec.friction * flux * flux)


def eta_bar_closed(phi, x):
    """Closed-form eta_bar = m(x) (lambda2/lambda1) phi(x) (unit inlet value)."""
    H = phi.depth(x)
    prof = phi.profile
    m = m_value(H, prof.inlet_depth, prof.flux, prof.spec.friction_exponent, prof.gravity)
    lam1, lam2 = eigenvalues(H, prof.velocity_of(H), prof.gravity)
    return m * (lam2 / lam1) * phi.phi(x)


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


def steady_depth_by_ode(profile, rtol=1e-13, atol=1e-15):
    """The steady depth equation solved by DOP853, an oracle of the depth
    potential's inverse. Returns x -> H(x) on [0, L]."""
    spec = profile.spec
    terms = (profile.flux, spec.friction, spec.friction_exponent, spec.gravity)
    sol = solve_ivp(
        lambda x, y: (steady_rhs(y[0], *terms),),
        (0.0, profile.length),
        (profile.inlet_depth,),
        method="DOP853",
        dense_output=True,
        rtol=rtol,
        atol=atol,
    )
    assert sol.success, sol.message
    return lambda x: sol.sol(x)[0]


def _solve_w_in_depth(profile, dw, init, rtol, atol, events=None):
    """RK45 solve of a scalar w over a coupled channel, in the steady depth.

    ``dw(w, x, H, I1, I2, lam1, lam2, g1, d1, g2, d2)`` is the derivative of
    w in x, which starts at ``init``; the abscissa x, the exponents I1, I2
    and the speeds and couplings come from the closed-form kernels at H, and
    dw/dH = w'(x) / H' with H' = -g C Q^2 / P'(H). The oracles below use it.
    """
    spec = profile.spec
    H0, flux, friction = profile.inlet_depth, profile.flux, spec.friction
    p, g = spec.friction_exponent, spec.gravity
    rate = g * friction * flux * flux

    def rhs(H, y):
        H = float(H)
        I1, I2 = phi_exponents(H, H0, flux, p, g)
        x = _potential_drop(H0, H, flux, p, g) / rate
        w_x = dw(float(y[0]), x, H, I1, I2, *speeds_couplings(H, flux, friction, p, g))
        return (-w_x * potential_slope(H, flux, p, g) / rate,)

    return solve_ivp(
        rhs,
        (H0, profile.outlet_depth),
        (init,),
        method="RK45",
        dense_output=True,
        rtol=rtol,
        atol=atol,
        events=events,
    )


def _w_blowup(H, y):
    return y[0] - 1e12


_w_blowup.terminal = True
_w_blowup.direction = 1


def eta_bar_by_ode(profile, rtol=ORACLE_TOL, atol=ORACLE_TOL):
    """Independent Riccati integration of the unit-inlet comparison solution.

    Solves u = eta_bar / phi, u' = |delta1/lambda1 + (gamma2/lambda2) u^2| -
    u (gamma1/lambda1 + delta2/lambda2), by ``_solve_w_in_depth`` (nothing
    of the closed form m), so it is an oracle of the closed form. Raises WeightError where the solution
    blows up. Needs a channel with flux and friction. Returns x ->
    eta_bar(x), at the profile's depth.
    """

    def du(u, x, H, I1, I2, lam1, lam2, g1, d1, g2, d2):
        return abs(d1 / lam1 + g2 / lam2 * u * u) - u * (g1 / lam1 + d2 / lam2)

    sol = _solve_w_in_depth(profile, du, 1.0, rtol, atol, _w_blowup)
    if sol.t_events[0].size or not sol.success:
        raise WeightError(
            f"channel {profile.channel}: no unit-inlet comparison solution: {sol.message}"
        )
    spec = profile.spec
    terms = (profile.inlet_depth, profile.flux, spec.friction_exponent, spec.gravity)

    def evaluate(x):
        H = np.asarray(profile.depth(x), dtype=float)
        I1, I2 = phi_exponents(H, *terms)
        out = sol.sol(H)[0] * np.exp(I1 + I2)
        return float(out) if np.ndim(x) == 0 else out

    return evaluate


def eta_eps_by_ode_in_x(profile, epsilon, init, rtol=1e-13, atol=1e-16):
    """The comparison solution at epsilon solved in x by DOP853, with the
    depth and both phi exponents integrated beside u = eta / phi, so that
    nothing is sampled through the depth. Needs a channel with flux.
    Returns x -> eta(x).
    """
    spec = profile.spec
    terms = (profile.flux, spec.friction, spec.friction_exponent, spec.gravity)

    def rhs(x, y):
        H, I1, I2, u = y
        lam1, lam2 = eigenvalues(H, profile.flux / H, spec.gravity)
        g1, d1, g2, d2 = speeds_couplings(H, *terms)[2:]
        du = abs(d1 / lam1 + g2 / lam2 * u * u) - u * (g1 / lam1 + d2 / lam2)
        return steady_rhs(H, *terms), g1 / lam1, d2 / lam2, du + epsilon * math.exp(-I1 - I2)

    sol = solve_ivp(
        rhs,
        (0.0, profile.length),
        (profile.inlet_depth, 0.0, 0.0, init),
        method="DOP853",
        dense_output=True,
        rtol=rtol,
        atol=atol,
    )
    assert sol.success, sol.message

    def evaluate(x):
        _, I1, I2, u = sol.sol(x)
        return u * np.exp(I1 + I2)

    return evaluate


def existence_integral_by_ode(profile, rtol=INTEGRAL_RTOL, atol=INTEGRAL_ATOL):
    """The existence integral I4 solved in the steady depth.

    dI4/dx = exp(I1 - I2) (lambda1(0)/lambda1)^2 (H(0)/H) gamma2/lambda2,
    by ``_solve_w_in_depth``, is an oracle of
    ``characteristics.existence_integral``. Needs a channel with flux and
    friction. Returns H -> I4 for depths H on the profile.
    """
    H0 = profile.inlet_depth
    lam1_0 = eigenvalues(H0, profile.velocity_of(H0), profile.gravity)[0]

    def dI4(w, x, H, I1, I2, lam1, lam2, g1, d1, g2, d2):
        return math.exp(I1 - I2) * (lam1_0 / lam1) ** 2 * (H0 / H) * g2 / lam2

    sol = _solve_w_in_depth(profile, dI4, 0.0, rtol, atol)
    if not sol.success:
        raise WeightError(f"channel {profile.channel}: I4 integration failed: {sol.message}")
    return lambda H: sol.sol(H)[0]


def draw_channel(rng, cid=1, cells=32, length_fraction=0.8):
    """Random subcritical channel spanning the supported parameter box."""
    flux = rng.uniform(0.2, 3.0)
    H0 = rng.uniform(max(0.6, 1.7 * critical_depth(flux, G)), 5.0)
    friction = rng.uniform(1e-4, 5e-3)
    p = P_CHOICES[rng.integers(len(P_CHOICES))]
    L = length_fraction * closed_form_blowup(H0, flux, friction, p)
    spec = ChannelSpec(id=cid, length=L, friction=friction, friction_exponent=p, cells=cells)
    return spec, H0, flux


@pytest.fixture(scope="session")
def channel_suite():
    """100 random steady profiles at 0.8 of the blow-up length each."""
    rng = np.random.default_rng(SUITE_SEED)
    out = []
    for _ in range(SUITE_SIZE):
        spec, H0, flux = draw_channel(rng)
        out.append(integrate_channel_steady(spec, H0, flux))
    return out


def draw_channel_into(rng, cid, inlet_depth, flux, cells=24):
    """Channel fed from a given upstream depth.

    Length is capped in absolute terms: on long flat channels the weight
    profiles grow like exp of the accumulated coupling integrals, and past
    a few e-folds the interior positivity margin (proportional to epsilon
    over eta) drops below any workable threshold.
    """
    friction = rng.uniform(2e-4, 3e-3)
    p = P_CHOICES[rng.integers(len(P_CHOICES))]
    if flux == 0.0:
        L = rng.uniform(5.0, 60.0)
    else:
        L = min(
            rng.uniform(0.05, 0.3) * closed_form_blowup(inlet_depth, flux, friction, p),
            rng.uniform(1500.0, 6000.0),
        )
    return ChannelSpec(id=cid, length=L, friction=friction, friction_exponent=p, cells=cells)


def draw_star(rng, n_branches, cells=24):
    """Random star: one trunk feeding n_branches terminal channels."""
    flux = rng.uniform(0.5, 3.0)
    H0 = rng.uniform(max(1.2, 1.7 * critical_depth(flux, G)), 4.0)
    trunk = draw_channel_into(rng, 1, H0, flux)
    H_B = integrate_channel_steady(trunk, H0, flux).outlet_depth
    u = rng.uniform(0.5, 1.5, n_branches)
    fracs = tuple(float(f) for f in u / np.sum(u))
    chans = {1: trunk}
    for j in range(n_branches):
        chans[2 + j] = draw_channel_into(rng, 2 + j, H_B, fracs[j] * flux, cells=cells)
    topo = NetworkTopology(
        channels=chans,
        root_channel=1,
        junctions={1: tuple(range(2, 2 + n_branches))},
        split_fractions={1: fracs},
    )
    return topo, H0, flux


def draw_tree(rng, cells=24):
    """Random two-level tree: trunk, 2-3 children, one child subdivided again."""
    flux = rng.uniform(0.5, 3.0)
    H0 = rng.uniform(max(1.2, 1.7 * critical_depth(flux, G)), 4.0)
    trunk = draw_channel_into(rng, 1, H0, flux)
    H_B = integrate_channel_steady(trunk, H0, flux).outlet_depth
    n_child = 2 + int(rng.integers(2))
    u = rng.uniform(0.5, 1.5, n_child)
    fracs = tuple(float(f) for f in u / np.sum(u))
    chans = {1: trunk}
    junctions = {1: tuple(range(2, 2 + n_child))}
    splits = {1: fracs}
    next_id = 2 + n_child
    for j in range(n_child):
        chans[2 + j] = draw_channel_into(rng, 2 + j, H_B, fracs[j] * flux, cells=cells)
    deep = 2 + int(rng.integers(n_child))
    flux_deep = fracs[deep - 2] * flux
    prof_deep = integrate_channel_steady(chans[deep], H_B, flux_deep)
    n_grand = 2 + int(rng.integers(2))
    u2 = rng.uniform(0.5, 1.5, n_grand)
    fr2 = tuple(float(f) for f in u2 / np.sum(u2))
    junctions[deep] = tuple(range(next_id, next_id + n_grand))
    splits[deep] = fr2
    for j in range(n_grand):
        chans[next_id + j] = draw_channel_into(
            rng, next_id + j, prof_deep.outlet_depth, fr2[j] * flux_deep, cells=cells
        )
    topo = NetworkTopology(
        channels=chans, root_channel=1, junctions=junctions, split_fractions=splits
    )
    return topo, H0, flux


def admissible_gain(rng, profile):
    """Random gain outside the forbidden interval of the given profile.

    Positive gains of boundary-impedance size reflect strongly and leave a
    wide decay margin on every channel shape. Gains far below the lower
    endpoint push the reflection magnitude just under one, which only clears
    the threshold when the interval leaves a wide window, so those draws are
    restricted to such profiles.
    """
    rec = is_admissible(profile, 0.0)
    a, b = rec.forbidden
    s = math.sqrt(profile.gravity / profile.outlet_depth)
    window = 1.0 - (rec.eta_bar_L / rec.phi_L) ** 2
    if not rec.half_line and window > 0.05 and rng.uniform() < 0.2:
        return a - rng.uniform(0.5, 3.0) * max(abs(a), s)
    return max(b, 0.0) + rng.uniform(0.1, 2.0) * s * (1 if rng.uniform() < 0.9 else 3)


def certify_once(topo, profiles, gains, epsilon):
    """certify_network's single attempt at epsilon: the search with
    MAX_HALVINGS at 0, so its one attempt is also its last."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights_module, "MAX_HALVINGS", 0)
        return certify_network(topo, profiles, gains, epsilon_start=epsilon)


def small_star(cells=100):
    """Fixed 3-branch star used by the simulation and CLI tests."""
    chans = {
        1: ChannelSpec(id=1, length=80.0, friction=2e-3, friction_exponent=1.0, cells=cells),
        2: ChannelSpec(id=2, length=60.0, friction=1.5e-3, friction_exponent=1.0, cells=cells),
        3: ChannelSpec(id=3, length=50.0, friction=1e-3, friction_exponent=4.0 / 3.0, cells=cells),
        4: ChannelSpec(id=4, length=40.0, friction=2e-3, friction_exponent=0.0, cells=cells),
    }
    return NetworkTopology(
        channels=chans,
        root_channel=1,
        junctions={1: (2, 3, 4)},
        split_fractions={1: (0.5, 0.3, 0.2)},
    )


def dry_outlet_cell(sim, y, channel):
    """Leave the outlet cell of a channel nearly dry with a slow reverse flow.

    The cell stays wet and subcritical, but its incoming invariant drops
    below -2 sqrt(g H*) at the outlet face, so no face depth satisfies the
    boundary relation there.
    """
    prof = sim.profiles[channel]
    depth = 1e-4
    h, v = sim.fields(y)[channel]
    h[-1] = depth - prof.H_centers[-1]
    v[-1] = -0.5 * math.sqrt(prof.gravity * depth) - prof.V_centers[-1]


def dry_junction(sim, y):
    """Set the velocities next to the star's junction so that its combined
    invariant Y = (y1 - sum y2) / 4 is -2.5 sqrt(g H*) at the junction face:
    the velocity deviation is -4 sqrt(g H*) in channel 1's outlet cell and
    +2 sqrt(g H*) in each child's inlet cell. The cells stay wet but not
    subcritical, and no face depth satisfies the junction's law
    k h + s(h) = Y at k = 0."""
    prof = sim.profiles[1]
    c = math.sqrt(prof.gravity * float(prof.H_faces[-1]))
    fields = sim.fields(y)
    fields[1][1][-1] = -4.0 * c
    for child in sim.topo.junctions[1]:
        fields[child][1][0] = 2.0 * c


# a face solve that fails, on each kind of face law of the star that can
# have no solution, which is the terminal feedback law alone: the channel,
# the end (0 inlet, -1 outlet) whose cell is perturbed, the channel's gain as
# a multiple of its reflection pole -sqrt(g / H*) at the outlet, the error
# type's name and the text that names the channel. A gain 1e-3 short of the
# pole bounds the left side of the law k h + s(h) = y1 by about 1e-6
# sqrt(g H*), so raising the outlet cell by 1e-4 m leaves it no real root.
# The root's cubic and a junction's law always have a root; where it is
# dry, they raise SubcriticalLoss.
FACE_FAILURES = {
    "terminal": (4, -1, 1.0 - 1e-3, "TerminalSolveFailure",
                 "channel 4: terminal feedback has no face depth"),
}


def reflection_pole(profile):
    """The gain -sqrt(g / H*) at a channel's outlet, where the terminal
    feedback law fixes no face depth."""
    return -math.sqrt(profile.gravity / float(profile.H_faces[-1]))


def nudge_face_cell(sim, y, channel, end):
    """Raise the depth of the cell next to one face of a channel by 1e-4.

    Only the relation of that face sees a changed invariant, so only its
    solve can fail.
    """
    h, _ = sim.fields(y)[channel]
    h[end] += 1e-4


STAR_ROOT_DEPTH = 2.0
STAR_ROOT_FLUX = 1.0
STAR_GAINS = {2: 0.0, 3: 0.0, 4: 0.0}


@pytest.fixture(scope="session")
def star_profiles():
    topo = small_star()
    return topo, solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)


def gradient_matrix_by_diags(x):
    """Sparse matrix of np.gradient(., x, edge_order=1) from its three diagonals."""
    dx = np.diff(x)
    d1, d2 = dx[:-1], dx[1:]
    lower = np.concatenate((-d2 / (d1 * (d1 + d2)), [-1.0 / dx[-1]]))
    main = np.concatenate(([-1.0 / dx[0]], (d2 - d1) / (d1 * d2), [1.0 / dx[-1]]))
    upper = np.concatenate(([1.0 / dx[0]], d1 / (d2 * (d1 + d2))))
    return sparse.diags([lower, main, upper], [-1, 0, 1])


def operators_by_bmat(sim, dt=None):
    """The simulator's sparse operators as chains of scipy's diags,
    block_diag, bmat, vstack and sums build them: the oracle of their
    one-pass assembly, whose entries must come in the same order, as every
    product the run takes sums in it. {"L", "LL"} of any simulator and,
    given a linear one and its step dt, also "F", "A", "O", "W" and "M".
    A takes the state's columns of the simulator's flux matrix K."""
    N, m, R = sim.N, sim.m, FINE_REFINEMENT
    fine = []
    for i in sim.ids:
        cw = sim.weights.channels[i]
        c = cw.coeffs
        fine.append((c.lambda1, c.lambda2, c.gamma1, c.delta1, c.gamma2, c.delta2))
    lam1, lam2, g1, d1, g2, d2 = (
        np.concatenate([a[R // 2 :: R] for a in arrays]) for arrays in zip(*fine))
    D = sparse.block_diag([gradient_matrix_by_diags(sim.profiles[i].x_centers) for i in sim.ids])
    diag = sparse.diags
    L = sparse.bmat(
        [[-diag(lam1) @ D - diag(g1), -diag(d1)], [-diag(g2), diag(lam2) @ D - diag(d2)]]
    ).tocsr()
    LL = sparse.vstack([L, L @ L]).tocsr()
    if dt is None:
        return {"L": L, "LL": LL}
    m4, ends = 4 * m, np.unique(sim._ends)
    unit = np.zeros((ends.size, 2 * N))
    unit[np.arange(ends.size), ends] = 1.0
    face = np.array([sim._solve_faces(y)[0] for y in unit]).reshape(ends.size, m4)
    b, k = np.nonzero(face)
    F = sparse.csr_matrix((face[b, k], (k, ends[b])), shape=(m4, 2 * N))
    zero, unit_faces = np.zeros(2 * N), np.identity(m4).reshape(m4, 2, -1)
    steady = sim.phys.admit(sim, zero)
    dY = [sim._tendency(zero, (f, *sim._boundary_fluxes(*f.tolist())), steady)[0]
          for f in unit_faces]
    T = sparse.csr_matrix(np.array(dY).T)
    one, none = np.ones(N), np.zeros(N)
    source = sparse.diags([sim.phys.source(sim, one, none, steady),
                           np.concatenate((none, sim.phys.source(sim, none, one, steady)))],
                          [-N, 0], shape=(2 * N, 2 * N))
    A = (sim._K[:, : 2 * N] + source + T @ F).tocsr()

    def char(s):
        S, I = sparse.diags(s), sparse.identity(s.size)
        return sparse.bmat([[S, I], [-S, I]])

    C = char(sim.g / np.sqrt(sim.g * sim.Hc))
    Cb = char(sim._gb / np.sqrt(sim._gb * sim._Hb)) @ F
    O = sparse.vstack([C, LL @ C, Cb, sparse.identity(2 * N)]).tocsr()
    wf = sparse.csr_matrix(sim._wf)
    sign = sim._sign
    bw = sparse.csr_matrix(np.concatenate((sign * sim._f1lam1, -sign * sim._f2lam2)))
    channel = np.repeat(np.arange(m), np.diff(np.append(sim._starts, N)))
    E = sparse.csr_matrix((sim._w, (channel, np.arange(N))), shape=(m, N))
    W = sparse.bmat([[wf, None, None, None, None],
                     [wf, wf, wf, None, None],
                     [None, None, None, bw, None],
                     [None, None, None, None, sparse.hstack([E, E])]]).tocsr()
    M = (sparse.identity(2 * N) + dt * A + (0.5 * dt * dt) * (A @ A)).tocsr()
    return {"L": L, "LL": LL, "F": F, "A": A, "O": O, "W": W, "M": M}
