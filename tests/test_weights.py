"""Lyapunov weight construction and the network positivity certificate."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from channet.characteristics import eigenvalues, phi_exponents, speeds_couplings
from channet.errors import DegenerateFlux, EpsilonTooLarge, MissingGain
from channet.steady import (
    _potential_drop,
    integrate_channel_steady,
    potential_slope,
    solve_network_steady,
)
from channet.topology import ChannelSpec, NetworkTopology
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
    m_profile,
    network_weights,
    phi_profiles,
    riccati_existence_margin,
    trunk_inlet_coefficient,
)

from conftest import (
    G,
    STAR_GAINS,
    STAR_ROOT_DEPTH,
    STAR_ROOT_FLUX,
    admissible_gain,
    draw_channel,
    draw_star,
    draw_tree,
    eta_bar_by_ode,
    eta_bar_closed,
    eta_eps_by_ode_in_x,
    existence_integral_by_ode,
    small_star,
    theta_by_scipy_rk45,
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


def coupled_suite_profiles(star_profiles):
    """Every channel of the README star and of the 70 criterion-5 networks."""
    rng = np.random.default_rng(31514)
    networks = [draw_star(rng, 2 + int(rng.integers(5))) for _ in range(50)]
    networks += [draw_tree(rng) for _ in range(20)]
    profiles = list(star_profiles[1].values())
    for topo, H0, flux in networks:
        profiles += solve_network_steady(topo, H0, flux).values()
    return profiles


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


def test_root_alpha_scales_weights(star_weights):
    topo, profiles, cert = star_weights
    eps = cert.epsilon
    base = network_weights(topo, profiles, eps)
    doubled = network_weights(topo, profiles, eps, root_alpha=2.0)
    for i in topo.channels:
        a, b = base.channels[i], doubled.channels[i]
        assert b.f1 == pytest.approx(2.0 * a.f1, rel=1e-13)
        assert b.f2 == pytest.approx(2.0 * a.f2, rel=1e-13)


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

    def recording(rhs, theta, depths):
        sizes.append(np.size(theta))
        return integrate(rhs, theta, depths)

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
    ``weights._riccati`` fuses, each called as it stands."""
    spec = profile.spec
    H0, flux, friction = profile.inlet_depth, profile.flux, spec.friction
    p, g = spec.friction_exponent, spec.gravity
    rate = g * friction * flux * flux
    I1, I2 = phi_exponents(H, H0, flux, p, g)
    x = _potential_drop(H0, H, flux, p, g) / rate
    lam1, lam2, g1, d1, g2, d2 = speeds_couplings(H, flux, friction, p, g)
    c = math.cos(theta)
    v = math.sin(theta) + epsilon * x * c
    theta_x = (
        abs(d1 / lam1 * c * c + g2 / lam2 * v * v)
        - v * c * (g1 / lam1 + d2 / lam2)
        + epsilon * math.expm1(-(I1 + I2)) * c * c
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
        for epsilon in (1e-3, 1e-7):
            rhs = weights_module._riccati(prof, epsilon)
            for H in prof.H_fine.tolist():
                for theta in (-0.4, 0.7, 1.5):
                    assert rhs(H, theta) == comparison_slope_by_kernels(prof, epsilon, H, theta)
                    checked += 1
    assert checked > 10000


def test_step_loop_matches_scipy_rk45(star_profiles):
    # the loop is scipy's RK45 on Python floats: on the same right-hand side
    # it makes the same evaluations, ends at the same blow-ups and agrees on
    # theta at the fine grid to rounding; star channel 2 at epsilon = 1e3
    # and three suite channels at 1e-3 blow up
    cases = [
        (prof, epsilon)
        for prof in coupled_suite_profiles(star_profiles)[:60]
        for epsilon in (1e-3, 1e-5, 1e-7)
        if prof.outlet_depth != prof.inlet_depth
    ]
    cases.append((star_profiles[1][2], 1e3))
    blowups = 0
    for prof, epsilon in cases:
        rhs = weights_module._riccati(prof, epsilon)
        calls = []

        def counted(H, theta):
            calls.append(H)
            return rhs(H, theta)

        theta0 = math.atan(1.0 + epsilon)
        theta = weights_module._integrate(counted, theta0, prof.H_fine)
        ref, status, nfev = theta_by_scipy_rk45(rhs, theta0, prof.H_fine)
        assert status in (0, 1)
        assert (theta is None) == (status == 1), (prof.channel, epsilon)
        assert len(calls) == nfev, (prof.channel, epsilon)
        if theta is None:
            blowups += 1
        else:
            assert np.max(np.abs(theta - ref)) <= 1e-11, (prof.channel, epsilon)
    assert blowups == 4


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


def test_missing_gain_rejected(star_profiles):
    topo, profiles = star_profiles
    with pytest.raises(MissingGain):
        certify_network(topo, profiles, {2: 0.0, 3: 0.0})


def recording_riccati(monkeypatch, jump_below=None, jump=0.0):
    """Patch the comparison slope so that it records each (H, theta) it is
    called with, and adds ``jump`` below the depth ``jump_below``. A solve
    that runs past 10000 evaluations fails the test there."""
    calls = []
    riccati = weights_module._riccati

    def patched(profile, epsilon):
        rhs = riccati(profile, epsilon)

        def recorded(H, theta):
            calls.append((H, theta))
            if len(calls) > 10000:
                raise AssertionError("the comparison solve runs on")
            step = jump if jump_below is not None and H < jump_below else 0.0
            return rhs(H, theta) + step

        return recorded

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
    # error estimate of at least (71/57600) J h, which the tolerance (about
    # 1e-11 here) admits only below the ten depth spacings (at least
    # 2.2e-15) that the step may not undercut once J passes about 4e6.
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
    redo = certify_network(
        topo, profiles, gains, epsilon_start=cert.epsilon, max_halvings=0
    )
    assert not redo.certified
    assert redo.failed_checks == ("terminal_margin",)


def test_zero_flux_branch_certified_with_positive_gain():
    topo = small_star(cells=16)
    topo = dataclasses.replace(topo, split_fractions={1: (0.6, 0.4, 0.0)})
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    cert = certify_network(topo, profiles, {2: 0.0, 3: 0.0, 4: 0.5})
    assert cert.certified
    bad = certify_network(topo, profiles, {2: 0.0, 3: 0.0, 4: -0.5})
    assert not bad.certified
    assert "terminal_margin" in bad.failed_checks


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
            single = certify_network(
                net, profs, gains, epsilon_start=DEFAULT_EPSILON * 0.5**k, max_halvings=0
            )
            assert not single.certified
        last = certify_network(net, profs, gains, epsilon_start=cert.epsilon, max_halvings=0)
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


def test_star_certificate_solve_count(star_weights, monkeypatch):
    topo, profiles, cert = star_weights
    calls = []
    real = weights_module.eta_eps

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(weights_module, "eta_eps", counting)
    counted = certify_network(topo, profiles, STAR_GAINS)
    # 13 attempts over 4 channels took 52 solves when every attempt built
    # every channel
    assert counted.halvings == 12
    assert len(calls) <= 33
    assert _certificate_bytes(counted, 12) == _certificate_bytes(cert, 12)


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
