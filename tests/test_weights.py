"""Lyapunov weight construction and the network positivity certificate."""

import dataclasses
import json
import math
from collections import defaultdict
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest
from scipy.integrate import quad

from channet.characteristics import (
    CharCoeffs,
    eigenvalues,
    log_phi,
    phi_exponents,
    speeds_couplings,
)
from channet.errors import DegenerateFlux, EpsilonTooLarge, MissingGain
from channet.steady import (
    _potential_drop,
    integrate_channel_steady,
    potential_slope,
    solve_network_steady,
)
from channet.topology import ChannelSpec, NetworkTopology, traversal_order
import channet.steady as steady_module
import channet.weights as weights_module
import conftest
from channet.gains import is_admissible
from channet.weights import (
    DEFAULT_EPSILON,
    MAX_HALVINGS,
    certify_network,
    eta_eps,
    interior_matrix,
    junction_matrix,
    network_weights,
    phi_profiles,
    trunk_inlet_coefficient,
)

from conftest import (
    G,
    STAR_GAINS,
    STAR_ROOT_DEPTH,
    STAR_ROOT_FLUX,
    admissible_gain,
    certify_once,
    draw_channel,
    draw_star,
    draw_tree,
    eta_bar_by_ode,
    eta_bar_closed,
    eta_eps_by_ode_in_x,
    existence_integral_by_ode,
    m_profile,
    riccati_existence_margin,
    small_star,
    theta_by_scipy_dop853,
)


def eta_zero(phi, x):
    """eta0 = (lambda2/lambda1) phi, the epsilon = 0 trunk comparison solution."""
    H = phi.depth(x)
    lam1, lam2 = eigenvalues(H, phi.profile.velocity_of(H), phi.profile.gravity)
    return (lam2 / lam1) * phi.phi(x)


def lyapunov_value(ws, ys):
    """V = sum_i int f1 y1^2 + f2 y2^2 dx over cell centers (trapezoid rule)."""
    total = 0.0
    for ch, (y1, y2) in ys.items():
        cw = ws.channels[ch]
        x = cw.profile.x_centers
        R = steady_module.FINE_REFINEMENT
        f1, f2 = cw.f1[R // 2 :: R], cw.f2[R // 2 :: R]
        total += float(np.trapezoid(f1 * np.asarray(y1) ** 2 + f2 * np.asarray(y2) ** 2, x))
    return total


def quad_exponent(prof, x_end, which):
    """Independent quadrature of the phi exponents."""
    spec = prof.spec

    def integrand(t):
        H = float(prof.depth(t))
        lam1, lam2 = eigenvalues(H, prof.velocity_of(H), G)
        terms = (prof.flux, spec.friction, spec.friction_exponent, G)
        g1, d1, g2, d2 = speeds_couplings(H, *terms)[2:]
        return g1 / lam1 if which == 1 else d2 / lam2

    val, err = quad(integrand, 0.0, x_end, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def test_phi_exponents_match_quadrature():
    rng = np.random.default_rng(71)
    for _ in range(4):
        spec, H0, flux = draw_channel(rng, cells=16)
        prof = integrate_channel_steady(spec, H0, flux)
        phi = phi_profiles(prof)
        for x in (0.37 * spec.length, spec.length):
            # phi1 = exp(+int gamma1/lambda1), phi2 = exp(-int delta2/lambda2)
            assert phi.phi1(x) == pytest.approx(math.exp(quad_exponent(prof, x, 1)), rel=1e-8)
            assert phi.phi2(x) == pytest.approx(math.exp(-quad_exponent(prof, x, 2)), rel=1e-8)
            assert phi.phi(x) == pytest.approx(phi.phi1(x) / phi.phi2(x), rel=1e-10)


def test_comparison_solution_boundary_values():
    rng = np.random.default_rng(72)
    spec, H0, flux = draw_channel(rng, cells=16)
    prof = integrate_channel_steady(spec, H0, flux)
    phi = phi_profiles(prof)
    lam1, lam2 = eigenvalues(H0, flux / H0, G)
    assert eta_bar_closed(phi, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert m_profile(prof, 0.0) == pytest.approx(lam1 / lam2, rel=1e-12)
    assert eta_zero(phi, 0.0) == pytest.approx(lam2 / lam1, rel=1e-12)


def test_closed_form_matches_independent_integration():
    rng = np.random.default_rng(73)
    for _ in range(3):
        spec, H0, flux = draw_channel(rng, cells=16)
        prof = integrate_channel_steady(spec, H0, flux)
        phi = phi_profiles(prof)
        ode = eta_bar_by_ode(prof)
        x = np.linspace(0.0, spec.length, 60)
        closed = eta_bar_closed(phi, x)
        assert np.max(np.abs(closed - ode(x)) / np.abs(closed)) <= 1e-8


def test_comparison_solution_below_phi():
    rng = np.random.default_rng(74)
    spec, H0, flux = draw_channel(rng, cells=16)
    prof = integrate_channel_steady(spec, H0, flux)
    phi = phi_profiles(prof)
    x = np.linspace(0.0, spec.length, 200)[1:]
    assert np.all(phi.phi(x) - eta_bar_closed(phi, x) > 0.0)


def test_existence_margin_positive_and_decreasing():
    rng = np.random.default_rng(75)
    spec, H0, flux = draw_channel(rng, cells=16)
    prof = integrate_channel_steady(spec, H0, flux)
    phi = phi_profiles(prof)
    x = np.linspace(0.0, spec.length, 50)
    margin = riccati_existence_margin(phi, x)
    assert np.all(margin > 0.0)
    assert np.all(np.diff(margin) <= 1e-14)


def test_existence_margin_zero_flux_rejected():
    spec = ChannelSpec(id=1, length=20.0, friction=1e-3, cells=16)
    prof = integrate_channel_steady(spec, 1.5, 0.0)
    with pytest.raises(DegenerateFlux):
        riccati_existence_margin(phi_profiles(prof), 10.0)


def criterion_05_networks(star_profiles):
    """The README star and the 70 criterion-5 networks, with their profiles."""
    rng = np.random.default_rng(31514)
    networks = [draw_star(rng, 2 + int(rng.integers(5))) for _ in range(50)]
    networks += [draw_tree(rng) for _ in range(20)]
    return [star_profiles] + [
        (topo, solve_network_steady(topo, H0, flux)) for topo, H0, flux in networks
    ]


def coupled_suite_profiles(star_profiles):
    """Every channel of the README star and of the 70 criterion-5 networks."""
    return [prof for _, profiles in criterion_05_networks(star_profiles)
            for prof in profiles.values()]


def test_existence_integral_matches_its_oracle(star_profiles):
    # the oracle solves I4 in the depth, so both sides are taken at the
    # profile's depth and the gap is the I4 solve's alone
    profiles = coupled_suite_profiles(star_profiles)
    assert len(profiles) == 367
    for prof in profiles:
        x = np.linspace(0.0, prof.length, 200)
        I4 = existence_integral_by_ode(prof)(prof.depth(x))
        closed = phi_profiles(prof).existence_integral(x)
        assert np.max(np.abs(closed - I4)) <= 1e-9 * np.max(np.abs(I4)), prof.channel


def test_phi_profiles_and_existence_margin_solve_no_ode(monkeypatch):
    # coupled, frictionless and zero-flux channels, each with its closed-form
    # state at the inlet; the profiles are built with every ODE solve
    # refused, so the steady layer solves none either
    def no_ode(*args, **kwargs):
        raise AssertionError("the epsilon = 0 layer solved an ODE")

    monkeypatch.setattr(weights_module, "solve_ivp", no_ode)
    monkeypatch.setattr(weights_module, "_integrate", no_ode)
    monkeypatch.setattr(steady_module, "solve_ivp", no_ode)
    frictionless = ChannelSpec(id=5, length=200.0, friction=0.0, cells=16)
    standing = ChannelSpec(id=6, length=20.0, friction=1e-3, cells=16)
    cases = [
        *solve_network_steady(small_star(), STAR_ROOT_DEPTH, STAR_ROOT_FLUX).values(),
        integrate_channel_steady(frictionless, 2.0, 1.0),
        integrate_channel_steady(standing, 1.5, 0.0),
    ]
    for prof in cases:
        phi = phi_profiles(prof)
        x = np.linspace(0.0, prof.length, 30)
        H, I1, I2, I4 = phi.state(x)
        assert np.array_equal(H, prof.depth(x))
        assert (I1[0], I2[0], I4[0]) == (0.0, 0.0, 0.0)
        assert np.array_equal(phi.depth(x), H)
        assert np.array_equal(phi.phi1(x), np.exp(I1))
        assert np.array_equal(phi.phi2(x), np.exp(-I2))
        assert np.array_equal(phi.phi(x), np.exp(I1 + I2))
        assert np.array_equal(phi.existence_integral(x), I4)
        if prof.flux > 0.0:
            margin = riccati_existence_margin(phi, x)
            assert np.all(margin > 0.0) and np.all(np.diff(margin) <= 0.0)
        if prof.flux == 0.0 or prof.spec.friction == 0.0:
            assert not np.any([I1, I2, I4])


@pytest.fixture(scope="module")
def star_weights(star_profiles):
    topo, profiles = star_profiles
    cert = certify_network(topo, profiles, STAR_GAINS)
    assert cert.certified
    return topo, profiles, cert


def test_weight_product_is_eta_free(star_weights):
    topo, profiles, cert = star_weights
    for i, cw in cert.weights.channels.items():
        prof = profiles[i]
        phi = phi_profiles(prof)
        x = prof.x_fine
        f1, f2 = cw.f1, cw.f2
        lam1, lam2 = eigenvalues(prof.depth(x), prof.velocity(x), G)
        expected = cw.alpha**2 * phi.phi1(x) ** 2 * phi.phi2(x) ** 2 / (lam1 * lam2)
        assert np.allclose(f1 * f2, expected, rtol=1e-9, atol=0.0)


def test_branch_weights_approach_closed_form_as_epsilon_shrinks(star_weights):
    topo, profiles, cert = star_weights
    ws = network_weights(topo, profiles, 1e-9)
    for i in topo.terminal_channels:
        cw = ws.channels[i]
        prof = profiles[i]
        phi = phi_profiles(prof)
        x = prof.x_fine
        f1, f2 = cw.f1, cw.f2
        lam1, lam2 = eigenvalues(prof.depth(x), prof.velocity(x), G)
        m = m_profile(prof, x)
        p12 = phi.phi1(x) * phi.phi2(x)
        assert np.allclose(f1, cw.alpha * p12 / (lam2 * m), rtol=1e-6)
        assert np.allclose(f2, cw.alpha * m * p12 / lam1, rtol=1e-6)


def test_weight_trace_continuous_across_junction(star_weights):
    # the alpha scales are chosen so W = alpha * W~ matches across the node
    topo, profiles, cert = star_weights
    ws = cert.weights
    trunk = ws.channels[1]
    for child in (2, 3, 4):
        assert ws.channels[child].W[0] == pytest.approx(trunk.W[-1], rel=1e-12)


def test_junction_matrix_symmetric_and_decoupled(star_weights):
    topo, profiles, cert = star_weights
    M, M_bar = junction_matrix(cert.weights, 1)
    assert M.shape == (4, 4)
    assert np.array_equal(M, M.T)
    assert np.all(M_bar[:3, 3] == 0.0) and np.all(M_bar[3, :3] == 0.0)
    assert np.all(np.linalg.eigvalsh(M_bar) > 0.0)


def junction_reduction(z_in_end: float, z_out_starts) -> np.ndarray:
    """Determinant-preserving diagonal of the junction velocity block.

    Row/column elimination turns the m x m velocity block into a diagonal
    matrix whose entries are all positive exactly when the block is positive
    definite; the product of the entries equals the block determinant.
    """
    z0 = [float(z) for z in z_out_starts]
    if not z0:
        raise ValueError("junction has no outgoing channels")
    theta2 = z_in_end - z0[0] + sum(z0[0] * z_in_end / z for z in z0[1:])
    return np.array([theta2] + [-z for z in z0[1:]])


def test_trunk_inlet_coefficient_keeps_every_digit(star_profiles):
    # alpha (lambda1^2 eta - lambda2^2 / eta) / V^2 at eta = lambda2/lambda1 +
    # epsilon, in exact arithmetic on the same inputs
    topo, profiles = star_profiles
    cert = certify_network(topo, profiles, STAR_GAINS, epsilon_start=1e-9)
    cw = cert.weights.channels[topo.root_channel]
    V0 = cw.profile.velocity(0.0)
    lam1, lam2 = (Fraction(v) for v in eigenvalues(cw.profile.inlet_depth, V0, G))
    eta = lam2 / lam1 + Fraction(cw.epsilon)
    exact = float(Fraction(cw.alpha) * (lam1**2 * eta - lam2**2 / eta) / Fraction(V0) ** 2)
    assert abs(cert.trunk_inlet - exact) <= 1e-13 * exact


def test_weight_odes_carry_depth_and_one_more_component(star_profiles, monkeypatch):
    sizes = []
    integrate, solve = weights_module._integrate, conftest.solve_ivp

    def recording(rhs, theta, *ends):
        sizes.append(np.size(theta))
        return integrate(rhs, theta, *ends)

    def recording_ivp(fun, t_span, y0, **kwargs):
        sizes.append(len(y0))
        return solve(fun, t_span, y0, **kwargs)

    # the oracle solves through a driver of its own in conftest
    monkeypatch.setattr(weights_module, "_integrate", recording)
    monkeypatch.setattr(conftest, "solve_ivp", recording_ivp)
    prof = star_profiles[1][2]
    eta_eps(prof, 1e-3)
    eta_bar_by_ode(prof)
    # the depth is the independent variable, so it is no component
    assert sizes == [1, 1]


def comparison_slope_by_kernels(profile, epsilon, H, theta):
    """dtheta/dH of the comparison solution composed from the kernels that
    ``weights._riccati`` fuses into its depth kernel, each called as it
    stands."""
    spec = profile.spec
    H0, flux, friction = profile.inlet_depth, profile.flux, spec.friction
    p, g = spec.friction_exponent, spec.gravity
    rate = g * friction * flux * flux
    x = _potential_drop(H0, H, flux, p, g) / rate
    lam1, lam2, g1, d1, g2, d2 = speeds_couplings(H, flux, friction, p, g)
    c = math.cos(theta)
    v = math.sin(theta) + epsilon * x * c
    theta_x = (
        abs(d1 / lam1 * c * c + g2 / lam2 * v * v)
        - v * c * (g1 / lam1 + d2 / lam2)
        + epsilon * math.expm1(-log_phi(H, H0, flux, p, g)) * c * c
    )
    return -theta_x * potential_slope(H, flux, p, g) / rate


def test_comparison_slope_has_the_kernels_bits(star_profiles):
    # the fused right-hand side keeps every operation of the kernels in its
    # order, with only the per-channel constants taken out
    profiles = coupled_suite_profiles(star_profiles)[::9]
    checked = 0
    for prof in profiles:
        if prof.outlet_depth == prof.inlet_depth:
            continue
        kernel, slope_at = weights_module._riccati(prof)
        for epsilon in (1e-3, 1e-7):
            slope = slope_at(epsilon)
            for H in prof.H_fine.tolist():
                terms = kernel(H)
                for theta in (-0.4, 0.7, 1.5):
                    assert slope(terms, theta) == comparison_slope_by_kernels(
                        prof, epsilon, H, theta)
                    checked += 1
    assert checked > 10000


def test_log_phi_keeps_the_digits_of_the_exponents(star_profiles):
    # 1/phi - 1 = expm1(-ln phi), which the comparison slope takes from the
    # one-log1p form, against 40 digits at every 6th fine depth of every
    # coupled channel of the star and of every other suite network, the
    # inlet, where both forms are exactly 0, left out: its median and
    # largest relative error are no larger than those of expm1(-(I1 + I2))
    # from the two exponents. Both forms take s = sqrt(g H^3)/Q in the same
    # operations, and the reference is taken at that s: the rounding of s
    # itself, shared by both, sets an error of about 7e-15 in the median and
    # 5e-11 at most for either form, against a reference at the depth H
    import mpmath

    networks = criterion_05_networks(star_profiles)
    errors = {"fused": [], "exponents": []}
    for _, profiles in networks[:1] + networks[1::2]:
        for prof in profiles.values():
            if prof.outlet_depth == prof.inlet_depth:
                continue
            terms = H0, flux, p, g = (
                prof.inlet_depth, prof.flux, prof.spec.friction_exponent, prof.gravity)
            with mpmath.workdps(40):
                s0 = mpmath.mpf(math.sqrt(g * H0 * H0 * H0) / flux)
                for H in prof.H_fine[6::6].tolist():
                    s = mpmath.mpf(math.sqrt(g * H * H * H) / flux)
                    exact = mpmath.expm1(-(
                        mpmath.mpf(4) / 3 * (mpmath.mpf(p) / 2 * (1 / s - 1 / s0) + s0 - s)
                        + mpmath.log((s + 1) * (s0 - 1) / ((s0 + 1) * (s - 1)))))
                    for name, value in (("fused", log_phi(H, *terms)),
                                        ("exponents", sum(phi_exponents(H, *terms)))):
                        errors[name].append(float(abs((math.expm1(-value) - exact) / exact)))
    assert len(errors["fused"]) == 3240
    assert np.median(errors["fused"]) <= np.median(errors["exponents"])
    assert max(errors["fused"]) <= max(errors["exponents"])


def test_step_loop_matches_scipy_dop853(star_profiles):
    # the loop is scipy's DOP853 on Python floats: on the same right-hand
    # side it makes the same evaluations, ends at the same blow-ups and
    # agrees on theta at the fine grid to rounding; star channel 2 at
    # epsilon = 1e3 and three suite channels at 1e-3 blow up. scipy makes two
    # evaluations to start and twelve per step tried, whose last two sit at
    # one depth: the loop evaluates one depth kernel for both. At a blow-up
    # scipy makes three more, the extra stages of the dense output with
    # which it locates the event; on the fine grid the loop makes those three
    # for each accepted step
    cases = [
        (prof, epsilon)
        for prof in coupled_suite_profiles(star_profiles)[:60]
        for epsilon in (1e-3, 1e-5, 1e-7)
        if prof.outlet_depth != prof.inlet_depth
    ]
    cases.append((star_profiles[1][2], 1e3))
    blowups = 0
    for prof, epsilon in cases:
        kernel, slope_at = weights_module._riccati(prof)
        slope = slope_at(epsilon)
        kernels, calls = [], []

        def counted_kernel(H):
            kernels.append(H)
            return kernel(H)

        def counted(terms, theta):
            calls.append(terms)
            return slope(terms, theta)

        theta0 = math.atan(1.0 + epsilon)
        H = prof.H_fine
        solved = weights_module._integrate((counted_kernel, counted), theta0, float(H[0]),
                                           float(H[-1]), counted_kernel(float(H[0])))
        stepped = len(calls)
        ref, status, nfev = theta_by_scipy_dop853(
            lambda H, theta: slope(kernel(H), theta), theta0, prof.H_fine)
        assert status in (0, 1)
        assert (solved is None) == (status == 1), (prof.channel, epsilon)
        assert stepped == nfev - 3 * (status == 1), (prof.channel, epsilon)
        tried, start = divmod(stepped - 2, 12)
        assert start == 0, (prof.channel, epsilon)
        if solved is None:
            blowups += 1
        else:
            theta = weights_module._on_grid((counted_kernel, counted), *solved, H)
            assert len(calls) - stepped == 3 * len(solved[0]), (prof.channel, epsilon)
            assert np.max(np.abs(theta - ref)) <= 1e-11, (prof.channel, epsilon)
        # no depth has its kernel evaluated twice: besides the shared end of
        # each step tried, a step that ends at the initial step's probe
        # takes the probe's kernel
        assert len(set(kernels)) == len(kernels), (prof.channel, epsilon)
        assert len(kernels) <= len(calls) - tried, (prof.channel, epsilon)
    assert blowups == 4


def test_step_loop_tableau_is_scipys():
    # the tableau, written once in channet.weights, is scipy's DOP853
    # tableau to the bit: the 16 nodes, the rows of A with the solution's
    # weights B and the dense output's three extra stages, the weights of
    # both error estimates, whose weight on stage 12 is 0, and D
    from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

    def bits(values):
        return np.array(values, dtype=float).tobytes()

    assert bits(weights_module._C) == bits(scipy_tableau.C)
    assert len(weights_module._A) == scipy_tableau.N_STAGES_EXTENDED
    for i, row in enumerate(weights_module._A):
        assert bits(row) == bits(scipy_tableau.A[i, :i]), i
        assert not scipy_tableau.A[i, i:].any(), i
    assert bits(weights_module._B) == bits(scipy_tableau.B)
    assert bits(weights_module._E5 + (0.0,)) == bits(scipy_tableau.E5)
    assert bits(weights_module._E3 + (0.0,)) == bits(scipy_tableau.E3)
    assert bits(weights_module._D) == bits(scipy_tableau.D)


# tan theta at the outlet against a DOP853 solve at rtol 1e-13 and atol
# 1e-16, over every 9th coupled channel of the suite at three epsilons: the
# median and the largest relative error of the RK45 loop that the DOP853
# loop replaced (scipy 1.17.1, numpy 2.4.6, x86-64 Linux); the DOP853 loop
# measured 9.6e-14 and 3.9e-11 there
RK45_OUTLET_ERROR = {"median": 9.7224256447244e-13, "max": 2.8268843326621454e-10}


def test_step_loop_is_as_accurate_as_the_rk45_loop(star_profiles):
    # a faster loop must not buy its speed with accuracy
    profiles = [prof for prof in coupled_suite_profiles(star_profiles)
                if prof.outlet_depth != prof.inlet_depth][::9]
    errors, blowups = [], 0
    for prof in profiles:
        for epsilon in (1e-3, 1e-5, 1e-7):
            kernel, slope_at = weights_module._riccati(prof)
            slope = slope_at(epsilon)
            theta0 = math.atan(1.0 + epsilon)
            H = prof.H_fine
            solved = weights_module._integrate(
                (kernel, slope), theta0, float(H[0]), float(H[-1]), kernel(float(H[0])))
            ref, status, _ = theta_by_scipy_dop853(
                lambda H, theta: slope(kernel(H), theta), theta0, H[[0, -1]],
                rtol=1e-13, atol=1e-16)
            assert (solved is None) == (status == 1), (prof.channel, epsilon)
            if solved is None:
                blowups += 1
                continue
            exact = math.tan(ref[-1])
            errors.append(abs(math.tan(solved[1]) - exact) / abs(exact))
    assert len(profiles) == 41
    assert blowups == 6
    assert np.median(errors) <= RK45_OUTLET_ERROR["median"]
    assert max(errors) <= RK45_OUTLET_ERROR["max"]


def test_junction_reduction_product_matches_determinant():
    rng = np.random.default_rng(76)
    agree = 0
    for _ in range(200):
        m = int(rng.integers(1, 5))
        z_in = float(rng.uniform(0.05, 2.0))
        # mix of healthy (negative) and violating (positive) branch traces
        z0 = rng.uniform(0.05, 2.0, m) * np.where(rng.uniform(size=m) < 0.7, -1.0, 1.0)
        block = z_in * np.ones((m, m)) + np.diag(-z0)
        entries = junction_reduction(z_in, z0)
        det_block = float(np.linalg.det(block))
        prod = float(np.prod(entries))
        assert prod == pytest.approx(det_block, rel=1e-9, abs=1e-12)
        # the sign equivalence needs every branch trace negative (the
        # certificate checks that first); the diagonal is then positive and
        # the rank-one coupling can push at most one eigenvalue across zero
        eigs = np.linalg.eigvalsh(block)
        if np.all(z0 < 0.0) and np.min(np.abs(eigs)) > 1e-8:
            assert bool(np.all(entries > 0.0)) == bool(np.all(eigs > 0.0))
            agree += 1
    assert agree > 30


def test_branch_inflow_trace_negative(star_weights):
    topo, profiles, cert = star_weights
    ws = cert.weights
    assert ws.channels[1].Z[-1] > 0.0
    for child in (2, 3, 4):
        assert ws.channels[child].Z[0] < 0.0


def test_trunk_inlet_coefficient_positive(star_weights):
    topo, profiles, cert = star_weights
    assert trunk_inlet_coefficient(cert.weights) > 0.0
    assert cert.trunk_inlet == pytest.approx(trunk_inlet_coefficient(cert.weights))


def test_interior_matrix_matches_finite_differences(star_weights):
    topo, profiles, cert = star_weights
    cw = cert.weights.channels[2]
    prof = profiles[2]
    x = prof.x_fine
    N11, N12, N22 = interior_matrix(cw)
    f1, f2 = cw.f1, cw.f2
    lam1, lam2 = eigenvalues(prof.depth(x), prof.velocity(x), G)
    g1, d1, g2, d2 = speeds_couplings(
        prof.depth(x), prof.flux, prof.spec.friction, prof.spec.friction_exponent, G
    )[2:]
    assert np.allclose(N12, f1 * d1 + f2 * g2, rtol=1e-10, atol=0.0)
    d_f1l1 = np.gradient(f1 * lam1, x, edge_order=2)
    d_f2l2 = np.gradient(f2 * lam2, x, edge_order=2)
    sl = slice(4, -4)
    assert np.allclose(N11[sl], (-d_f1l1 + 2 * f1 * g1)[sl], rtol=2e-4)
    assert np.allclose(N22[sl], (d_f2l2 + 2 * f2 * d2)[sl], rtol=2e-4)
    assert np.all(N11 > 0.0) and np.all(N22 > 0.0)


def test_interior_matrix_diagonal_is_the_derivative_form(star_profiles):
    # N11 = -(f1 lambda1)' + 2 f1 gamma1 and N22 = (f2 lambda2)' + 2 f2 delta2
    # with the derivatives taken through the weights and the eta equation:
    # the 2 f1 gamma1 and 2 f2 delta2 terms cancel, and the closed form
    # agrees with the sum to rounding
    topo, profiles = star_profiles
    for epsilon in (2.44140625e-07, 1e-9, 1e-11, 1e-13, 1e-15):
        for cw in network_weights(topo, profiles, epsilon).channels.values():
            c = cw.coeffs
            lam1, lam2, phi, eta = c.lambda1, c.lambda2, c.phi, cw.eta_eps
            eta_slope = np.abs(c.delta1 * phi / lam1 + c.gamma2 / (lam2 * phi) * eta**2) + epsilon
            N11 = (-(cw.f1 * lam1 * (2.0 * c.gamma1 / lam1 - eta_slope / eta))
                   + 2.0 * cw.f1 * c.gamma1)
            N22 = cw.f2 * lam2 * (eta_slope / eta - 2.0 * c.delta2 / lam2) + 2.0 * cw.f2 * c.delta2
            closed = interior_matrix(cw)
            assert np.max(np.abs(closed[0] - N11) / N11) <= 1e-15, (cw.channel, epsilon)
            assert np.max(np.abs(closed[2] - N22) / N22) <= 1e-15, (cw.channel, epsilon)


def test_certificate_fields_and_serialization(star_weights):
    topo, profiles, cert = star_weights
    assert cert.certified
    assert cert.failed_checks == ()
    assert 0.0 < cert.epsilon <= 1e-3
    assert all(v > 0.0 for v in cert.terminal_margins.values())
    assert all(v > 0.0 for v in cert.junction_min_eig.values())
    assert all(v > 0.0 for v in cert.interior_min_eig.values())
    blob = json.dumps(cert.to_dict())
    assert json.loads(blob)["certified"] is True


def test_weight_existence_refusal_reports_empty_margins(star_weights, tmp_path):
    # at epsilon 1e3 no comparison solution reaches an outlet: the attempt
    # is refused before any check, with the certified report's keys
    from channet.cli import _write_json

    topo, profiles, cert = star_weights
    refused = certify_once(topo, profiles, STAR_GAINS, 1e3)
    assert not refused.certified
    assert refused.weights is None
    assert refused.failed_checks == ("weight_existence",)
    report = refused.to_dict()
    assert report.keys() == cert.to_dict().keys()
    margins = [key for key, value in report.items() if isinstance(value, dict)]
    assert len(margins) == 7 and all(report[key] == {} for key in margins)
    assert math.isnan(report["trunk_inlet"])
    _write_json(tmp_path / "certificate.json", report)
    written = json.loads((tmp_path / "certificate.json").read_text())
    assert written["trunk_inlet"] is None
    assert written == {**report, "trunk_inlet": None}


def test_missing_gain_rejected(star_profiles):
    topo, profiles = star_profiles
    with pytest.raises(MissingGain):
        certify_network(topo, profiles, {2: 0.0, 3: 0.0})


def recording_riccati(monkeypatch, jump_below=None, jump=0.0):
    """Patch the comparison slope so that it records each (H, theta) it is
    called with, and adds ``jump`` below the depth ``jump_below``; the
    depth kernel passes its depth on to the slope. A solve that runs past
    10000 evaluations fails the test there."""
    calls = []
    riccati = weights_module._riccati

    def patched(profile):
        kernel, slope_at = riccati(profile)

        def at_depth(H):
            return H, kernel(H)

        def recorded_at(epsilon):
            slope = slope_at(epsilon)

            def recorded(terms, theta):
                H, terms = terms
                calls.append((H, theta))
                if len(calls) > 10000:
                    raise AssertionError("the comparison solve runs on")
                step = jump if jump_below is not None and H < jump_below else 0.0
                return slope(terms, theta) + step

            return recorded

        return at_depth, recorded_at

    monkeypatch.setattr(weights_module, "_riccati", patched)
    return calls


def test_epsilon_too_large(star_profiles, monkeypatch):
    # w = eta / phi - epsilon x blows up inside the channel; in its angle
    # that is a smooth crossing, and the solve ends at the first step end
    # past arctan(ETA_BLOWUP) rather than in a step-size underflow after
    # thousands of evaluations
    topo, profiles = star_profiles
    calls = recording_riccati(monkeypatch)
    with pytest.raises(EpsilonTooLarge):
        eta_eps(profiles[2], 1e3)
    # the last evaluation is the slope at that accepted step end
    assert calls[-1][1] >= math.atan(weights_module.ETA_BLOWUP)
    assert len(calls) < 500


def test_step_underflow_fails_the_epsilon_promptly(star_profiles, monkeypatch):
    # A slope that jumps by J at mid-depth: a step across the jump has an
    # error norm of at least 0.0075 J h, with E5 and E3 summed over the
    # stages past the jump (the least where only the first stage is short
    # of it), which the tolerance (about 1e-11 here) admits only below the
    # ten depth spacings (at least 2.2e-15) that the step may not undercut
    # once J passes about 6e5.
    # theta falls past the jump, so it cannot blow up: the solve ends at
    # the jump.
    topo, profiles = star_profiles
    for prof in profiles.values():
        mid = 0.5 * (prof.inlet_depth + prof.outlet_depth)
        with monkeypatch.context() as patch:
            calls = recording_riccati(patch, jump_below=mid, jump=1e7)
            with pytest.raises(EpsilonTooLarge):
                eta_eps(prof, 1e-3)
        assert len(calls) < 1000
        assert abs(calls[-1][0] - mid) <= 1e-12 * mid


@pytest.mark.parametrize("epsilon_start", [math.nan, math.inf, 0.0, -1.0])
def test_bad_epsilon_start_raises_value_error(star_profiles, epsilon_start):
    topo, profiles = star_profiles
    with pytest.raises(ValueError, match="epsilon_start"):
        certify_network(topo, profiles, STAR_GAINS, epsilon_start=epsilon_start)


def test_nan_gain_is_neither_admissible_nor_certified(star_profiles):
    # every check passes only on a strict margin, so a NaN margin fails it
    topo, profiles = star_profiles
    assert is_admissible(profiles[2], math.nan).admissible is False
    cert = certify_network(topo, profiles, {**STAR_GAINS, 2: math.nan})
    assert cert.certified is False
    assert "terminal_margin" in cert.failed_checks
    assert math.isnan(cert.terminal_margins[2])


def test_trunk_start_needs_flux():
    spec = ChannelSpec(id=1, length=20.0, friction=1e-3, cells=16)
    prof = integrate_channel_steady(spec, 1.5, 0.0)
    with pytest.raises(DegenerateFlux):
        eta_eps(prof, 1e-6, trunk_inlet=True)


def test_gain_at_endpoint_fails_terminal_margin(star_weights):
    topo, profiles, cert = star_weights
    from channet.gains import is_admissible

    gains = {}
    for j in topo.terminal_channels:
        rec = is_admissible(profiles[j], 1.0)
        assert not rec.half_line
        gains[j] = rec.forbidden[1]
    redo = certify_once(topo, profiles, gains, cert.epsilon)
    assert not redo.certified
    assert redo.failed_checks == ("terminal_margin",)


def test_non_reflecting_gains_certify_every_criterion_05_network():
    # the networks of acceptance criterion 5 with every terminal at
    # sqrt(g / H_L), the gain that sends no wave back into its channel
    rng = np.random.default_rng(31514)
    networks = [draw_star(rng, 2 + int(rng.integers(5))) for _ in range(50)]
    networks += [draw_tree(rng) for _ in range(20)]
    for topo, H0, flux in networks:
        profiles = solve_network_steady(topo, H0, flux)
        gains = {
            j: math.sqrt(profiles[j].gravity / profiles[j].outlet_depth)
            for j in topo.terminal_channels
        }
        assert all(is_admissible(profiles[j], k).admissible for j, k in gains.items())
        cert = certify_network(topo, profiles, gains, epsilon_start=1e-3)
        assert cert.certified, cert.failed_checks
        assert all(abs(rho) < 1e-15 for rho in cert.reflection.values())
        assert all(m > 0.0 for m in cert.terminal_margins.values())


def test_zero_flux_branch_certified_with_positive_gain():
    topo = small_star(cells=16)
    topo = dataclasses.replace(topo, split_fractions={1: (0.6, 0.4, 0.0)})
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    cert = certify_network(topo, profiles, {2: 0.0, 3: 0.0, 4: 0.5})
    assert cert.certified
    # at zero flux phi1 = phi2 = 1 and eta >= 1, so at k <= 0 the margin
    # alone refuses the outlet: the ill-posed gain, -0.0 and 0.0 included
    ill_posed = -math.sqrt(G / profiles[4].outlet_depth)
    for k in (-0.5, 0.0, -0.0, ill_posed):
        bad = certify_network(topo, profiles, {2: 0.0, 3: 0.0, 4: k})
        assert not bad.certified
        assert "terminal_margin" in bad.failed_checks
        assert bad.terminal_margins[4] < 0.0


def test_near_zero_split_branch_matches_oracle_in_x():
    # the branch depth drops by 1e-12 of itself at split 1e-5 and not at
    # all in floating point at 1e-8, yet eta still grows by epsilon x
    certs = []
    for split in (1e-5, 1e-8):
        topo = dataclasses.replace(
            small_star(cells=16), split_fractions={1: (0.6, 0.4 - split, split)}
        )
        profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
        prof = profiles[4]
        if split == 1e-8:
            # a coupled channel whose depth stays H0 to the last bit: its
            # exponents are exact zeros, its couplings those of the kernel
            assert prof.flux > 0.0 and prof.spec.friction > 0.0
            assert np.all(prof.H_fine == prof.inlet_depth)
            c = CharCoeffs.from_profile(prof)
            assert all(np.all(a == 1.0) for a in (c.phi, c.phi1_sq, c.phi2_sq))
            kernel = speeds_couplings(prof.H_fine, prof.flux, prof.spec.friction,
                                      prof.spec.friction_exponent, prof.gravity)
            assert all(np.array_equal(a, b) for a, b in zip(
                (c.lambda1, c.lambda2, c.gamma1, c.delta1, c.gamma2, c.delta2), kernel))
        cw = network_weights(topo, profiles, 1e-3).channels[4]
        ref = eta_eps_by_ode_in_x(prof, 1e-3, 1.0 + 1e-3)(prof.x_fine)
        assert np.max(np.abs(cw.eta_eps - ref) / ref) <= 1e-8
        certs.append(certify_network(topo, profiles, {2: 0.0, 3: 0.0, 4: 0.5}))
    # the branch's margins are continuous in its split fraction
    a, b = certs
    assert a.certified and b.certified and (a.epsilon, a.halvings) == (b.epsilon, b.halvings)
    for key in ("z_start", "terminal_margins", "interior_min_eig"):
        assert getattr(b, key)[4] == pytest.approx(getattr(a, key)[4], rel=1e-4)


def test_single_frictionless_channel_certified():
    spec = ChannelSpec(id=1, length=200.0, friction=0.0, cells=16)
    topo = NetworkTopology(
        channels={1: spec}, root_channel=1, junctions={}, split_fractions={}
    )
    profiles = solve_network_steady(topo, 2.0, 1.0)
    cert = certify_network(topo, profiles, {1: 0.8})
    assert cert.certified


def test_lyapunov_value_positive_definite(star_weights):
    topo, profiles, cert = star_weights
    ws = cert.weights
    ys = {}
    for i in topo.channels:
        n = profiles[i].x_centers.size
        ys[i] = (np.zeros(n), np.zeros(n))
    assert lyapunov_value(ws, ys) == 0.0
    rng = np.random.default_rng(77)
    ys = {
        i: (rng.normal(size=profiles[i].x_centers.size),
            rng.normal(size=profiles[i].x_centers.size))
        for i in topo.channels
    }
    assert lyapunov_value(ws, ys) > 0.0


def _certificate_bytes(cert, halvings):
    record = dict(cert.to_dict(), halvings=halvings)
    arrays = {i: (cw.f1.tobytes(), cw.f2.tobytes()) for i, cw in cert.weights.channels.items()}
    return json.dumps(record), arrays


def test_stopping_search_never_skips_a_passing_epsilon(star_profiles):
    # Each attempt of the search stops at its first failing check, except the
    # last. A single full attempt at every earlier epsilon must fail too, and
    # one at the reported epsilon must give the same certificate.
    topo, profiles = star_profiles
    a, b = is_admissible(profiles[2], 0.0).forbidden
    forbidden = {**STAR_GAINS, 2: 0.5 * (a + b)}
    cases = [(topo, profiles, STAR_GAINS), (topo, profiles, forbidden)]
    rng = np.random.default_rng(4242)
    for n in range(10):
        net, H0, flux = draw_tree(rng) if n % 3 == 2 else draw_star(rng, 2 + n % 4)
        profs = solve_network_steady(net, H0, flux)
        gains = {j: admissible_gain(rng, profs[j]) for j in net.terminal_channels}
        cases.append((net, profs, gains))

    for net, profs, gains in cases:
        cert = certify_network(net, profs, gains)
        for k in range(cert.halvings):
            single = certify_once(net, profs, gains, DEFAULT_EPSILON * 0.5**k)
            assert not single.certified
        last = certify_once(net, profs, gains, cert.epsilon)
        assert _certificate_bytes(last, cert.halvings) == _certificate_bytes(cert, cert.halvings)

    refused = certify_network(topo, profiles, forbidden)
    assert not refused.certified
    assert refused.halvings == MAX_HALVINGS
    assert "terminal_margin" in refused.failed_checks
    # the final attempt checked every channel, not only the failing branch 2
    assert refused.terminal_margins[2] <= 0.0
    assert set(refused.terminal_margins) == set(topo.terminal_channels)
    assert set(refused.z_start) == {2, 3, 4}
    assert set(refused.junction_min_eig) == {1}
    assert set(refused.interior_min_eig) == set(topo.channels)


def test_end_pass_refuses_only_epsilons_a_full_attempt_refuses(star_profiles, monkeypatch):
    # an attempt but the last may refuse its epsilon in its first pass, at
    # the channel ends and at alpha = 1, with no weights; a single full
    # attempt at every epsilon so refused must fail too, and one at the
    # reported epsilon must give the same certificate
    refused = []
    attempt = weights_module._attempt

    def recording(topo, gains, epsilon, *args):
        outcome = attempt(topo, gains, epsilon, *args)
        if outcome[0].weights is None:
            refused.append(epsilon)
        return outcome

    monkeypatch.setattr(weights_module, "_attempt", recording)
    rng = np.random.default_rng(2718)
    checked = 0
    for net, profs in criterion_05_networks(star_profiles):
        drawn = {j: admissible_gain(rng, profs[j]) for j in net.terminal_channels}
        for gains in (drawn, dict.fromkeys(net.terminal_channels, 0.0)):
            refused.clear()
            cert = certify_network(net, profs, gains)
            for epsilon in list(refused):
                single = certify_once(net, profs, gains, epsilon)
                assert not single.certified, (net.channels.keys(), epsilon)
                checked += 1
            last = certify_once(net, profs, gains, cert.epsilon)
            assert _certificate_bytes(last, cert.halvings) == _certificate_bytes(cert, cert.halvings)
    assert checked > 500


def test_end_pass_decides_a_terminal_margin_at_its_exact_sign_change(star_profiles):
    # A terminal margin is alpha times an outlet term free of alpha, so the
    # end pass decides it at alpha = 1 exactly as the fine pass does at the
    # channel's own alpha. Bisect channel 2's gain to the sign change of its
    # term at the 8th epsilon, the first that the zero gain passes. At both
    # bracketing gains a full attempt there has the term's sign, and the
    # search agrees with full attempts rung by rung.
    topo, profiles = star_profiles
    epsilon = DEFAULT_EPSILON * 0.5**8
    prof = profiles[2]
    coeffs = CharCoeffs.from_profile(prof)
    comparison = weights_module._Comparison.of(weights_module._Channel.of(coeffs, False), epsilon)
    cw = weights_module._channel_weights(coeffs.ends, comparison.ends(), 1.0, epsilon)
    unit = weights_module.WeightSet(topo=topo, channels={2: cw})

    def term(gain):
        detail = defaultdict(dict)
        weights_module._channel_checks(unit, cw, {2: gain}, detail)
        return detail["terminal_margins"][2]

    a, b = is_admissible(prof, 0.0).forbidden
    low, high = 0.0, 0.5 * (a + b)
    assert term(low) > 0.0 >= term(high)
    while (mid := 0.5 * (low + high)) not in (low, high):
        if term(mid) > 0.0:
            low = mid
        else:
            high = mid
    for gain in (low, high):
        gains = {**STAR_GAINS, 2: gain}
        single = certify_once(topo, profiles, gains, epsilon)
        assert (single.terminal_margins[2] > 0.0) == (gain == low)
        cert = certify_network(topo, profiles, gains)
        assert cert.halvings >= 8
        for k in range(cert.halvings):
            single = certify_once(topo, profiles, gains, DEFAULT_EPSILON * 0.5**k)
            assert not single.certified, (gain, k)
        last = certify_once(topo, profiles, gains, cert.epsilon)
        assert _certificate_bytes(last, cert.halvings) == _certificate_bytes(cert, cert.halvings)


def test_star_certificate_solve_count(star_weights, monkeypatch):
    topo, profiles, cert = star_weights
    solves, grids, built, kernels = [], [], [], []
    integrate, on_grid = weights_module._integrate, weights_module._on_grid
    riccati = weights_module._riccati

    def counting_solve(*args):
        solves.append(args[2])
        return integrate(*args)

    def counting_grid(*args):
        grids.append(args[3].size)
        return on_grid(*args)

    def counting_riccati(profile):
        built.append(profile.channel)
        kernel, slope_at = riccati(profile)

        def counted(H):
            kernels.append((profile.channel, H))
            return kernel(H)

        return counted, slope_at

    monkeypatch.setattr(weights_module, "_integrate", counting_solve)
    monkeypatch.setattr(weights_module, "_on_grid", counting_grid)
    monkeypatch.setattr(weights_module, "_riccati", counting_riccati)
    counted = certify_network(topo, profiles, STAR_GAINS)
    # 13 attempts over 4 channels took 52 solves when every attempt built
    # every channel, and 33 when each stopped at its first failing channel.
    # 12 of them fail a terminal margin: channel 2 eight times, channel 3
    # three times and channel 4 once. Each but the first solves the channel
    # where the last one stopped first, and 9 fail there after one solve;
    # only the 13th reaches the fine grid. Each channel's depth kernel is
    # built once per certificate, with its value at the inlet, where every
    # solve starts: 4 kernels. Every solve probes its initial step at the
    # far end of its channel, and every solve but the trunk's first tries
    # the step over the whole channel alone, which ends at that probe: the
    # record makes the probe and the step's ten inner stages once per
    # channel, 11 kernels each on channels 2-4. The trunk's first solve
    # makes the probe, a shorter step of eleven and a last step of ten that
    # ends at the probe, 22; its later solves take the whole-channel step's
    # ten inner stages, once. The 4 fine grids add three for each of their
    # 4 steps: 4 + 22 + 33 + 10 + 12 = 81, where a whole-channel step per
    # solve took 269.
    assert counted.halvings == 12
    assert sorted(built) == sorted(topo.channels)
    assert len(solves) == 22
    assert len(grids) == 4
    assert len(kernels) == 81
    # each channel makes every kernel of its whole-channel step and of the
    # probe at its far end exactly once
    c = weights_module._C
    for i, prof in profiles.items():
        start, end = float(prof.H_fine[0]), float(prof.H_fine[-1])
        h = end - start
        whole = {start + ci * h for ci in c[1:12]} | {start - (start - end)}
        made = [H for j, H in kernels if j == i and H in whole]
        assert sorted(made) == sorted(whole), i
    assert _certificate_bytes(counted, 12) == _certificate_bytes(cert, 12)


def test_whole_channel_kernels_keep_every_certificate_bytes(star_profiles, monkeypatch):
    # A certificate takes its whole-channel steps' kernels from each
    # channel's record. With the record bypassed, so that every solve
    # computes every kernel, each certificate keeps its bytes: the README
    # star at zero gains, at non-reflecting gains and with channel 2 at its
    # forbidden gain, and the 70 criterion-5 networks at drawn gains.
    topo, profiles = star_profiles
    a, b = is_admissible(profiles[2], 0.0).forbidden
    cases = [(topo, profiles, STAR_GAINS), (topo, profiles, {**STAR_GAINS, 2: 0.5 * (a + b)}),
             (topo, profiles, {j: math.sqrt(profiles[j].gravity / profiles[j].outlet_depth)
                               for j in topo.terminal_channels})]
    rng = np.random.default_rng(1618)
    for net, profs in criterion_05_networks(star_profiles)[1:]:
        cases.append((net, profs, {j: admissible_gain(rng, profs[j]) for j in net.terminal_channels}))
    certs = [certify_network(*case) for case in cases]
    integrate = weights_module._integrate

    def bypassed(riccati, theta, start, end, at_start, whole=None):
        return integrate(riccati, theta, start, end, at_start)

    monkeypatch.setattr(weights_module, "_integrate", bypassed)
    assert len(cases) == 73
    for case, cert in zip(cases, certs):
        alone = certify_network(*case)
        assert _certificate_bytes(alone, alone.halvings) == _certificate_bytes(cert, cert.halvings)
    assert [c.certified for c in certs[:3]] == [True, False, True]


def test_channel_record_starts_every_solve_at_the_inlet(star_profiles):
    # the epsilon-free record that a certificate makes once per channel: on
    # the trunk, eta / phi starts at lambda2(0)/lambda1(0) with the bits of
    # eigenvalues at the inlet depth, on a branch at 1, and the kernel that
    # starts every solve is the depth kernel at the inlet
    checked = 0
    for topo, profiles in criterion_05_networks(star_profiles):
        channels = weights_module._channels(topo, profiles)
        assert list(channels) == traversal_order(topo)
        for i, c in channels.items():
            prof = profiles[i]
            H0 = prof.inlet_depth
            if i == topo.root_channel:
                lam1, lam2 = eigenvalues(H0, prof.velocity_of(H0), prof.gravity)
                assert c.start == lam2 / lam1, i
            else:
                assert c.start == 1.0, i
            if prof.outlet_depth == prof.inlet_depth:
                assert c.riccati is None and c.at_inlet is None
                continue
            assert c.at_inlet == c.riccati[0](float(prof.H_fine[0]))
            assert c.at_inlet == weights_module._riccati(prof)[0](H0)
            checked += 1
    assert checked > 300


def test_speeds_couplings_array_path_has_the_scalar_bits_on_every_fine_grid(star_profiles):
    # CharCoeffs takes the kernel on arrays, with H^p by the C library's pow
    # one depth at a time, and the tests and its fused copy on scalars
    checked = 0
    for prof in coupled_suite_profiles(star_profiles):
        spec = prof.spec
        terms = (prof.flux, spec.friction, spec.friction_exponent, prof.gravity)
        if prof.flux == 0.0:
            continue
        arrays = np.array(speeds_couplings(prof.H_fine, *terms))
        scalars = np.array([speeds_couplings(H, *terms) for H in prof.H_fine.tolist()]).T
        assert arrays.tobytes() == scalars.tobytes(), prof.channel
        checked += prof.H_fine.size
    assert checked > 35000


def test_speeds_couplings_array_path_has_the_pow_bits_at_exponents_0_and_1():
    # at p = 1 and p = 0 the array path takes H itself and ones for H^p, as
    # pow(x, 1.0) and pow(x, 0.0) are exact; every kernel output keeps the
    # bits of the C library's pow, one depth at a time, on 10^5 random
    # subcritical depths
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        flux, friction, g = rng.uniform(0.05, 5.0), rng.uniform(1e-4, 1e-2), rng.uniform(1.0, 10.0)
        critical = (flux * flux / g) ** (1.0 / 3.0)
        H = critical * (1.0 + rng.uniform(1e-3, 5.0, 1000))
        for p in (0.0, 1.0):
            Hp = np.fromiter(map(pow, H.tolist(), repeat(p)), float, H.size)
            assert Hp.tobytes() == (H if p == 1.0 else np.ones_like(H)).tobytes()
            arrays = np.array(speeds_couplings(H, flux, friction, p, g))
            scalars = np.array([speeds_couplings(h, flux, friction, p, g) for h in H.tolist()]).T
            assert arrays.tobytes() == scalars.tobytes(), (flux, friction, g, p)
        checked += H.size
    assert checked == 100000


def test_channel_end_weights_are_the_fine_grid_ends_to_the_bit(star_profiles):
    # an attempt's first pass decides at the channel ends; it may refuse an
    # epsilon there only because the fine grid holds the same values
    # every array field of the record, so that none can skip its end copy
    def arrays(cw):
        c = cw.coeffs
        fields = [getattr(c, f.name) for f in dataclasses.fields(c) if f.name != "profile"]
        return (cw.eta_eps, cw.f1, cw.f2, cw.Z, cw.W, *interior_matrix(cw), *fields)

    compared = 0
    for topo, profiles in criterion_05_networks(star_profiles):
        for epsilon in (DEFAULT_EPSILON, DEFAULT_EPSILON * 0.5**12):
            try:
                ws = network_weights(topo, profiles, epsilon)
            except EpsilonTooLarge:
                continue
            for i, fine in ws.channels.items():
                coeffs = CharCoeffs.from_profile(profiles[i])
                comparison = weights_module._Comparison.of(
                    weights_module._Channel.of(coeffs, i == topo.root_channel), epsilon)
                ends = weights_module._channel_weights(
                    coeffs.ends, comparison.ends(), fine.alpha, epsilon)
                for a, b in zip(arrays(ends), arrays(fine), strict=True):
                    assert a.size == 2
                    assert a.tobytes() == b[[0, -1]].tobytes(), (i, epsilon)
                compared += 1
    assert compared > 600


# README-star certificate (cells = 100, zero gains) as computed before the
# speeds-and-couplings kernel and the ODE driver were shared; a rewrite that
# only reorders floating-point operations moves each margin by about 1e-11.
PINNED_STAR_CERTIFICATE = {
    "certified": True,
    "epsilon": 2.44140625e-07,
    "halvings": 12,
    "alphas": {"1": 1.0, "2": 0.9795494762083256, "3": 0.9795494762083256, "4": 0.9795494762083256},
    "z_end": {"1": 0.4433353271900923},
    "z_start": {"2": -4.78295584377551e-07, "3": -4.78295584377551e-07, "4": -4.78295584377551e-07},
    "junction_min_eig": {"1": 4.782955840786954e-07},
    "trunk_inlet": 4.745984999487973e-05,
    "terminal_margins": {"2": 0.0006323600602700097, "3": 4.930408603409653e-05,
                         "4": 1.7855914357878255e-05},
    "reflection": {"2": -1.0, "3": -1.0, "4": -1.0},
    "interior_min_eig": {"1": 2.370368596244475e-07, "2": 2.256569606391744e-07,
                         "3": 2.3564930704298792e-07, "4": 2.3034920639116926e-07},
    "failed_checks": [],
}


def test_star_certificate_does_not_depend_on_the_grid():
    # the comparison solution is solved in the depth and scanned on the fine
    # grid of 4 cells + 1 points; the verdict stays the same on a grid 16
    # times finer than the coarsest
    outcomes = set()
    for cells in (25, 100, 400):
        topo = small_star(cells=cells)
        profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
        cert = certify_network(topo, profiles, STAR_GAINS)
        outcomes.add((cert.certified, cert.epsilon, cert.halvings, cert.failed_checks))
    pins = PINNED_STAR_CERTIFICATE
    assert outcomes == {(True, pins["epsilon"], pins["halvings"], ())}


def test_star_certificate_matches_pinned_values(star_weights):
    got = star_weights[2].to_dict()
    pins = PINNED_STAR_CERTIFICATE
    assert got.keys() == pins.keys()
    for key in ("certified", "epsilon", "halvings", "failed_checks"):
        assert got[key] == pins[key], key
    for key in ("alphas", "z_end", "z_start", "junction_min_eig", "terminal_margins",
                "reflection", "interior_min_eig"):
        assert got[key].keys() == pins[key].keys(), key
        for i, value in pins[key].items():
            assert got[key][i] == pytest.approx(value, rel=1e-9, abs=0.0), (key, i)
    assert got["trunk_inlet"] == pytest.approx(pins["trunk_inlet"], rel=1e-9, abs=0.0)
