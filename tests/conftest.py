"""Shared fixtures: steady-flow and weight oracles and network generators.

The potential helpers evaluate the first integral of the steady depth
equation with plain algebra. The ODE oracles go the other way: they
integrate the ODE forms of quantities that the library evaluates in closed
form, the steady depth included. brentq, at its tightest setting, is the
oracle of the Newton solve for the blow-up depth. The steady depths, which
the library samples in one Newton pass per network, have their oracles in a
Newton solve of each channel alone (``depth_by_channel_newton``) and a
bisection of the depth potential (``depth_by_bisection``). The certificate, which
the library builds on one array per network, has its oracle in the
per-channel path (``certify_per_channel``), and its closed-form junction
and interior margins in LAPACK's eigenvalues of the matrices (``eigvalsh``),
with which the certificate once checked them (``certify_by_eigvalsh``). The
simulator's sparse operators have their oracle in scipy's diags, block_diag
and bmat chains.
"""

import dataclasses
import math
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from channet.characteristics import (
    CharCoeffs,
    eigenvalues,
    outlet_traces,
    phi_exponents,
    reflection_coefficient,
    speeds_couplings,
)
from channet.errors import DegenerateFlux, EpsilonTooLarge, MissingGain, WeightError
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
from channet.topology import ChannelSpec, NetworkTopology, traversal_order
import channet.weights as weights_module
from channet.weights import (
    DEFAULT_EPSILON,
    ChannelWeights,
    NetworkCertificate,
    PhiProfiles,
    certify_network,
    interior_matrix,
    junction_matrix,
    m_value,
)

G = 9.81
SUITE_SEED = 20240817
SUITE_SIZE = 100
P_CHOICES = (0.0, 1.0, 4.0 / 3.0, 2.0)
INTEGRAL_RTOL = 1e-12
INTEGRAL_ATOL = 1e-14
ORACLE_TOL = 1e-12
# the eigenvalue checks that the certificate ran before it took the junction
# and interior margins in closed form: each smallest eigenvalue had to exceed
# POSITIVITY_REL_TOL times the largest eigenvalue magnitude
POSITIVITY_REL_TOL = 1e-12
EIGVALSH_CHECK_ORDER = ("junction_outflow_positive", "branch_inflow_negative", "junction_matrix",
                        "trunk_inlet", "terminal_margin", "interior_matrix")


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


def draw_random_tree(n, seed, cells=24):
    """The random tree Tn/s of ROADMAP items 11-15: channel 1 at inlet depth
    3.5 and flux 2.0; then, while the next id is at most n, the oldest leaf
    gets 2 or 3 children, each with its share of the leaf's flux and fed at
    its outlet depth. Returns (topo, H0, flux, gains), every terminal at its
    non-reflecting gain sqrt(g / H(L))."""
    rng = np.random.default_rng(seed)
    chans = {1: draw_channel_into(rng, 1, 3.5, 2.0, cells)}
    outlet = {1: integrate_channel_steady(chans[1], 3.5, 2.0)}
    junctions, splits, leaves = {}, {}, [1]
    while (next_id := len(chans) + 1) <= n:
        parent = leaves.pop(0)
        k = 2 + int(rng.integers(2))
        u = rng.uniform(0.5, 1.5, k)
        fracs = tuple(float(f) for f in u / np.sum(u))
        junctions[parent] = tuple(range(next_id, next_id + k))
        splits[parent] = fracs
        H_B, flux = outlet[parent].outlet_depth, outlet[parent].flux
        for cid, f in zip(junctions[parent], fracs):
            chans[cid] = draw_channel_into(rng, cid, H_B, f * flux, cells)
            outlet[cid] = integrate_channel_steady(chans[cid], H_B, f * flux)
            leaves.append(cid)
    topo = NetworkTopology(channels=chans, root_channel=1, junctions=junctions,
                           split_fractions=splits)
    gains = {j: math.sqrt(G / outlet[j].outlet_depth) for j in topo.terminal_channels}
    return topo, 3.5, 2.0, gains


def criterion_05_networks(star_profiles):
    """The README star and the 70 criterion-5 networks, with their profiles."""
    rng = np.random.default_rng(31514)
    networks = [draw_star(rng, 2 + int(rng.integers(5))) for _ in range(50)]
    networks += [draw_tree(rng) for _ in range(20)]
    return [star_profiles] + [
        (topo, solve_network_steady(topo, H0, flux)) for topo, H0, flux in networks
    ]


def depth_by_channel_newton(profile):
    """The fine depths of one channel by a Newton solve of its own, every
    parameter a Python float: the per-channel array iteration that the
    steady pass ran before it stacked a network's channels, from the inlet
    tangent, each sample stopping at its first step that does not fall, its
    last sample its own. The oracle of the stacked pass, which may differ
    from it in the last bit."""
    spec, H0, flux, x = profile.spec, profile.inlet_depth, profile.flux, profile.x_fine
    g, p = spec.gravity, spec.friction_exponent
    rate = g * spec.friction * flux * flux

    def drop(H):
        log_r = np.log(H0 / H)
        q_term = log_r if p == 0.0 else H**p * np.expm1(p * log_r) / p
        return g * (H0 ** (p + 3.0) - H ** (p + 3.0)) / (p + 3.0) - flux * flux * q_term

    H = H0 - rate / potential_slope(H0, flux, p, g) * x
    falling = np.ones(x.shape, dtype=bool)
    while falling.any():
        H_next = H - (rate * x - drop(H)) / potential_slope(H, flux, p, g)
        falling &= H_next < H
        H = np.where(falling, H_next, H)
    return H


def depth_by_bisection(profile, x):
    """Depth at abscissa x of one channel at gravity G, by bisection of its
    depth potential between the critical and the inlet depth."""
    spec, H0, flux = profile.spec, profile.inlet_depth, profile.flux
    assert spec.gravity == G
    p = spec.friction_exponent
    target = depth_potential(H0, flux, p) - G * spec.friction * flux * flux * x
    lo, hi = critical_depth(flux, G), H0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if depth_potential(mid, flux, p) < target else (lo, mid)
    return mid


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


def certify_by_ladder(topo, profiles, gains):
    """The epsilon ladder by its definition: the certificate of the first
    rung k <= MAX_HALVINGS at which a single attempt at DEFAULT_EPSILON *
    0.5**k (``certify_once``) certifies, else the single attempt at rung
    MAX_HALVINGS, each with its halvings set to k. The oracle of
    certify_network's search, which starts below the rungs its end caps
    refuse. The network's epsilon-free record is made once and shared by
    the attempts, as in a search."""
    last = weights_module.MAX_HALVINGS
    record = weights_module._record(topo, profiles)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights_module, "_record", lambda *args: record)
        for k in range(last + 1):
            cert = certify_once(topo, profiles, gains, DEFAULT_EPSILON * 0.5**k)
            if cert.certified or k == last:
                return dataclasses.replace(cert, halvings=k)


def sym2x2_eig_bounds(a11, a12, a22):
    """(mid - rad, max(|mid - rad|, |mid + rad|)) of the symmetric 2 x 2
    matrices [[a11, a12], [a12, a22]]: the smallest eigenvalue, a difference
    that loses about lambda_max / lambda_min of its relative accuracy, and
    the largest magnitude."""
    mid = 0.5 * (a11 + a22)
    rad = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12**2)
    low = mid - rad
    return low, np.maximum(np.abs(low), np.abs(mid + rad))


def eigvalsh_failures(cert):
    """The checks that ``cert`` fails by the eigenvalue forms, in
    EIGVALSH_CHECK_ORDER: the four end checks by the signs of the margins in
    its report, and, where it formed the weights, each junction's M_bar
    (``junction_matrix``) by eigvalsh and N(x) by its 2 x 2 bounds, each
    positive definite when its smallest eigenvalue exceeds
    POSITIVITY_REL_TOL times its largest magnitude."""
    if cert.failed_checks == ("weight_existence",):
        return cert.failed_checks
    failed = {"junction_outflow_positive": not all(z > 0.0 for z in cert.z_end.values()),
              "branch_inflow_negative": not all(z < 0.0 for z in cert.z_start.values()),
              "trunk_inlet": not cert.trunk_inlet > 0.0,
              "terminal_margin": not all(m > 0.0 for m in cert.terminal_margins.values())}
    ws = cert.weights
    if ws is not None:
        eigs = [np.linalg.eigvalsh(junction_matrix(ws, i)[1]) for i in ws.topo.junctions]
        failed["junction_matrix"] = not all(
            e[0] > POSITIVITY_REL_TOL * np.abs(e).max() for e in eigs)
        bounds = [sym2x2_eig_bounds(*interior_matrix(cw)) for cw in ws.channels.values()]
        failed["interior_matrix"] = not all(
            np.all(low > POSITIVITY_REL_TOL * norm) for low, norm in bounds)
    return tuple(name for name in EIGVALSH_CHECK_ORDER if failed.get(name))


def certify_by_eigvalsh(topo, profiles, gains, attempts=None):
    """certify_network with the junction and interior checks that it ran by
    eigenvalues before it took those margins in closed form: each attempt
    certifies only where ``eigvalsh_failures`` names no check, and a
    refusal lists those names. The failures of every attempt are appended
    to ``attempts`` if given."""
    attempt = weights_module._attempt

    def checked(*args):
        cert = attempt(*args)
        failed = eigvalsh_failures(cert)
        if attempts is not None:
            attempts.append(failed)
        return dataclasses.replace(cert, certified=not failed, failed_checks=failed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights_module, "_attempt", checked)
        return certify_network(topo, profiles, gains)


def record_rows(topo, profiles):
    """Each channel's row of the certificate's epsilon-free record, in
    traversal order: its ``coeffs`` and, on its fine grid, ``eta_bar``,
    ``u`` and ``J``, with ``at(epsilon)`` and ``cap(gain)``, the end cap
    (``_end_caps``, from the row's end values as Python floats) at a
    terminal's gain or, given None, at a junction, of
    the one-row record that the row trims to, so that no other channel's
    existence bounds its epsilon."""
    record = weights_module._record(topo, profiles)
    names = [f.name for f in dataclasses.fields(record) if f.name != "profiles"]
    rows = {}
    for r, prof in enumerate(record.profiles):
        n = prof.x_fine.size
        one = dataclasses.replace(record, profiles=(prof,),
                                  **{name: getattr(record, name)[r : r + 1, :n] for name in names})
        rows[prof.channel] = SimpleNamespace(
            coeffs=one.coeffs[0], eta_bar=one.eta_bar[0], u=one.u[0], J=one.J[0],
            at=lambda epsilon, one=one: tuple(a[0] for a in one.at(epsilon)),
            cap=lambda gain, one=one, i=prof.channel: weights_module._end_caps(
                one, weights_module._ends(topo, one, {i: gain}))[0])
    return rows


def _char_coeffs_1d(profile):
    """CharCoeffs of one profile by the one-dimensional kernel calls, each
    parameter a Python float: the coefficients of the per-channel path."""
    H, spec = profile.H_fine, profile.spec
    if profile.flux == 0.0 or spec.friction == 0.0:
        lam1, lam2 = eigenvalues(H, profile.velocity_of(H), profile.gravity)
        return CharCoeffs(profile, lam1, lam2, *(np.zeros_like(H) for _ in range(4)),
                          *(np.ones_like(H) for _ in range(3)))
    I1, I2 = phi_exponents(H, profile.inlet_depth, profile.flux,
                           spec.friction_exponent, profile.gravity)
    return CharCoeffs(profile, *speeds_couplings(
        H, profile.flux, spec.friction, spec.friction_exponent, profile.gravity),
        np.exp(I1 + I2), np.exp(I1) ** 2, np.exp(-I2) ** 2)


def _cumulative_1d(f, x):
    """The integral of f from x[0] on the grid x by the trapezoid rule."""
    out = np.zeros_like(x)
    np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x), out=out[1:])
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class _Channel:
    """The epsilon-free record of one channel on its own fine grid: its
    coefficients and eta_bar, u and J, with the super-solution at an
    epsilon (``at``) and the end cap of its outlet check (``cap``)."""

    coeffs: CharCoeffs
    eta_bar: np.ndarray
    u: np.ndarray
    J: np.ndarray

    @classmethod
    def of(cls, profile, trunk_inlet):
        coeffs = _char_coeffs_1d(profile)
        eta_bar = coeffs.lambda2 / coeffs.lambda1 * coeffs.phi
        if trunk_inlet:
            if profile.flux == 0.0:
                raise DegenerateFlux("trunk channels carry positive flux")
        else:
            if profile.flux > 0.0:
                eta_bar *= m_value(profile.H_fine, profile.inlet_depth, profile.flux,
                                   profile.spec.friction_exponent, profile.gravity)
            eta_bar[0] = 1.0
        c = coeffs.gamma2 / (coeffs.lambda2 * coeffs.phi)
        x = profile.x_fine
        B = _cumulative_1d(2.0 * c * eta_bar, x)
        u = np.exp(B) * (1.0 + _cumulative_1d(np.exp(-B), x))
        return cls(coeffs, eta_bar, u, _cumulative_1d(c * u, x))

    def at(self, epsilon):
        room = 1.0 - epsilon * self.J
        if not room[-1] > 0.0:
            raise EpsilonTooLarge(f"channel {self.coeffs.profile.channel}")
        slack = epsilon / room
        return self.eta_bar + self.u * slack, slack

    def cap(self, gain):
        phi, prof = float(self.coeffs.phi[-1]), self.coeffs.profile
        bound = phi
        if gain is not None:
            rho = abs(reflection_coefficient(gain, prof.outlet_depth, prof.gravity))
            bound = math.inf if rho == 0.0 else phi / rho
        d = bound - float(self.eta_bar[-1])
        if not d > 0.0:
            return 0.0
        J = float(self.J[-1])
        return math.inf if d == math.inf and J == 0.0 else 1.0 / (float(self.u[-1]) / d + J)


def _scaled_per_channel(topo, epsilon, channels):
    """Each channel's weights at epsilon from its record, parents first, at
    the alpha that makes W continuous across every junction."""
    outlet_W = {}
    for i in traversal_order(topo):
        c = channels[i]
        eta, slack = c.at(epsilon)
        a, b = c.coeffs.phi1_sq / eta, c.coeffs.phi2_sq * eta
        W = a + b
        alpha = 1.0 if i == topo.root_channel else outlet_W[topo.parent_of(i)] / float(W[0])
        outlet_W[i] = alpha * float(W[-1])
        Z = alpha * (a - b)
        if i != topo.root_channel:
            # at a branch inlet eta is 1 + epsilon: Z(0) without cancellation
            Z[0] = alpha * -(epsilon * (2.0 + epsilon) / (1.0 + epsilon))
        yield ChannelWeights(
            coeffs=c.coeffs, alpha=alpha, epsilon=epsilon, eta_eps=eta, slack=slack,
            Z=Z, W=alpha * W,
            f1=alpha * (c.coeffs.phi1_sq / eta) / c.coeffs.lambda1,
            f2=alpha * (c.coeffs.phi2_sq * eta) / c.coeffs.lambda2)


def _channel_checks_per_channel(ws, cw, gains, detail):
    """The end checks of ``weights._channel_checks`` from the channel's weights."""
    topo, i, prof = ws.topo, cw.channel, cw.profile
    failed = []
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
        V0 = prof.velocity_of(prof.inlet_depth)
        lam1, lam2 = float(cw.coeffs.lambda1[0]), float(cw.coeffs.lambda2[0])
        eps = cw.epsilon
        coefficient = cw.alpha * lam1 * eps * (2.0 * lam2 + lam1 * eps) / ((lam2 / lam1 + eps) * V0**2)
        detail["trunk_inlet"] = coefficient
        if not coefficient > 0.0:
            failed.append("trunk_inlet")
    else:
        z = float(cw.Z[0])
        detail["z_start"][i] = z
        if not z < 0.0:
            failed.append("branch_inflow_negative")
    return failed


def _margins_per_channel(ws, cw, detail):
    """The interior margin of one channel, det N / lambda_max at each point,
    and, once the last of its siblings is built, the junction margin of the
    junction that feeds it, min(d, d + m Z_in, (g / H_B)(Z_in + m d)) with d
    = -Z(0) of the children, without d at a single child."""
    k = cw.coeffs
    E = k.delta1 * k.phi / k.lambda1 + k.gamma2 / (k.lambda2 * k.phi) * cw.eta_eps**2
    a, b = cw.f1 * k.lambda1, cw.f2 * k.lambda2
    growth = (E + cw.slack) / cw.eta_eps
    N11, N12, N22 = a * growth, cw.f1 * k.delta1 + cw.f2 * k.gamma2, b * growth
    high = 0.5 * (N11 + N22) + np.sqrt((0.5 * (N11 - N22)) ** 2 + N12**2)
    low = a * b * cw.slack * (2.0 * E + cw.slack) / cw.eta_eps**2 / high
    detail["interior_min_eig"][cw.channel] = float(np.min(low))
    topo = ws.topo
    if cw.channel != topo.root_channel:
        parent = topo.parent_of(cw.channel)
        children = topo.junctions[parent]
        if all(c in ws.channels for c in children):
            feed, m = ws.channels[parent].profile, len(children)
            z_in, d = float(ws.channels[parent].Z[-1]), -float(ws.channels[children[0]].Z[0])
            eig = min(d + m * z_in, feed.gravity / feed.outlet_depth * (z_in + m * d))
            detail["junction_min_eig"][parent] = min(d, eig) if m > 1 else eig


def _attempt_per_channel(topo, gains, epsilon, channels, last):
    """One attempt, channel by channel in traversal order, stopping at the
    first failure unless it is the ``last``."""
    ws = SimpleNamespace(topo=topo, channels={})
    detail = defaultdict(dict)
    failed = set()
    try:
        for cw in _scaled_per_channel(topo, epsilon, channels):
            ws.channels[cw.channel] = cw
            detail["alphas"][cw.channel] = cw.alpha
            failed.update(_channel_checks_per_channel(ws, cw, gains, detail))
            _margins_per_channel(ws, cw, detail)
            if failed and not last:
                break
    except EpsilonTooLarge:
        return NetworkCertificate(False, epsilon, 0, None, ("weight_existence",))
    failed = tuple(name for name in EIGVALSH_CHECK_ORDER if name in failed)
    return NetworkCertificate(not failed, epsilon, 0, ws, failed, **detail)


def certify_per_channel(topo, profiles, gains, epsilon_start=DEFAULT_EPSILON):
    """certify_network channel by channel: each channel's record on its own
    fine grid, by one-dimensional kernel calls, and each attempt a pass over
    the channels in traversal order. The oracle of the certificate on one
    array per network, which must give its certificate and weights to the
    byte."""
    last = weights_module.MAX_HALVINGS
    for j in topo.terminal_channels:
        if j not in gains:
            raise MissingGain(j)
    channels = {i: _Channel.of(profiles[i], i == topo.root_channel) for i in traversal_order(topo)}
    cap = min(c.cap(None if i in topo.junctions else gains[i]) for i, c in channels.items())
    first = next((k for k in range(last) if epsilon_start * 0.5**k < cap), last)
    for halvings in range(max(first - 1, 0), last + 1):
        cert = _attempt_per_channel(topo, gains, epsilon_start * 0.5**halvings, channels,
                                    halvings == last)
        if cert.certified or halvings == last:
            return dataclasses.replace(cert, halvings=halvings)


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
