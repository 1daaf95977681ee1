"""Lyapunov weight construction and the network positivity certificate."""

import dataclasses
import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from channet.characteristics import (
    _ENDS,
    CharCoeffs,
    eigenvalues,
    log_phi,
    phi_exponents,
    speeds_couplings,
)
from channet.errors import DegenerateFlux, EpsilonTooLarge, MissingGain
from channet.steady import (
    integrate_channel_steady,
    solve_network_steady,
)
from channet.topology import ChannelSpec, NetworkTopology, traversal_order
import channet.steady as steady_module
import channet.weights as weights_module
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


def test_log_phi_keeps_the_digits_of_the_exponents(star_profiles):
    # 1/phi - 1 = expm1(-ln phi) from the one-log1p form, which the gain
    # screen takes phi(L) from, against 40 digits at every 6th fine depth of every
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
    # with the derivatives taken through the weights and the eta equation
    # eta' = E(eta) + epsilon / (1 - epsilon J): the 2 f1 gamma1 and 2 f2
    # delta2 terms cancel, and the closed form agrees with the sum to rounding
    topo, profiles = star_profiles
    for epsilon in (2.44140625e-07, 1e-9, 1e-11, 1e-13, 1e-15):
        for cw in network_weights(topo, profiles, epsilon).channels.values():
            c = cw.coeffs
            lam1, lam2, phi, eta = c.lambda1, c.lambda2, c.phi, cw.eta_eps
            eta_slope = c.delta1 * phi / lam1 + c.gamma2 / (lam2 * phi) * eta**2 + cw.slack
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


def test_epsilon_too_large(star_profiles):
    # the super-solution exists while 1 - epsilon J > 0, and J grows to the
    # outlet: an epsilon 1 % above 1 / J(L) is refused, one 1 % below it is not
    topo, profiles = star_profiles
    for i, prof in profiles.items():
        trunk = i == topo.root_channel
        J_L = float(weights_module._Channel.of(CharCoeffs.from_profile(prof), trunk).J[-1])
        assert J_L > 0.0
        for epsilon in (1.01 / J_L, 1e3):
            with pytest.raises(EpsilonTooLarge, match=f"channel {i}: "):
                eta_eps(prof, epsilon, trunk_inlet=trunk)
        assert np.all(eta_eps(prof, 0.99 / J_L, trunk_inlet=trunk) > 0.0)


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
    channel = weights_module._Channel.of(coeffs, False)
    cw = weights_module._channel_weights(coeffs.ends, *channel.at(epsilon, _ENDS), 1.0, epsilon)
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


def test_speeds_couplings_array_path_is_within_three_ulp_of_the_scalar_path(star_profiles):
    # CharCoeffs takes the kernel on arrays, with numpy's power, and the
    # tests on scalars, with the C library's pow: H^p differs by at most an
    # ulp, which the division into K and the product with the couplings'
    # bracket, itself the same in both, raise to at most 3 ulp (6 to 8 of
    # the suite's 36 815 values of each coupling reach 3). The speeds take no
    # power and keep their bits.
    checked = 0
    for prof in coupled_suite_profiles(star_profiles):
        spec = prof.spec
        terms = (prof.flux, spec.friction, spec.friction_exponent, prof.gravity)
        H = prof.H_fine
        Hp = np.array([pow(h, spec.friction_exponent) for h in H.tolist()])
        assert np.all(np.abs(H**spec.friction_exponent - Hp) <= np.spacing(Hp)), prof.channel
        arrays = np.array(speeds_couplings(H, *terms))
        scalars = np.array([speeds_couplings(h, *terms) for h in H.tolist()]).T
        assert arrays[:2].tobytes() == scalars[:2].tobytes(), prof.channel
        assert np.all(np.abs(arrays - scalars) <= 3.0 * np.spacing(np.abs(scalars))), prof.channel
        checked += H.size
    assert checked == 36815


def test_channel_record_starts_at_the_inlet_value(star_profiles):
    # the epsilon-free record that a certificate makes once per channel: on
    # the trunk, eta_bar starts at lambda2(0)/lambda1(0) with the bits of
    # eigenvalues at the inlet depth, on a branch at 1, so that eta(0) is
    # start + epsilon and its slack epsilon to the bit
    checked = 0
    for topo, profiles in criterion_05_networks(star_profiles):
        channels = weights_module._channels(topo, profiles)
        assert list(channels) == traversal_order(topo)
        for i, c in channels.items():
            prof = profiles[i]
            H0 = prof.inlet_depth
            if i == topo.root_channel:
                lam1, lam2 = eigenvalues(H0, prof.velocity_of(H0), prof.gravity)
                assert c.eta_bar[0] == lam2 / lam1, i
            else:
                assert c.eta_bar[0] == 1.0, i
            assert (c.u[0], c.J[0]) == (1.0, 0.0), i
            for epsilon in (DEFAULT_EPSILON * 0.5**12, 1e-15):
                eta, slack = c.at(epsilon)
                assert (eta[0], slack[0]) == (c.eta_bar[0] + epsilon, epsilon), (i, epsilon)
            checked += 1
    assert checked == 367


def test_eta_bar_is_the_comparison_solution_on_every_channel(star_profiles):
    # the epsilon = 0 solution in closed form, eta0 = (lambda2/lambda1) phi on
    # the trunk and m eta0 on a branch, against the DOP853 oracle in x from
    # the same inlet value on every channel of the README star and the 70
    # criterion-5 networks: within 1e-13 at the outlet, where the oracle ends
    # a step, and 5e-13 over the fine grid, where it reads its dense output
    # (the oracle at a tolerance three times tighter halves that gap)
    checked = 0
    for topo, profiles in criterion_05_networks(star_profiles):
        for i, c in weights_module._channels(topo, profiles).items():
            prof = profiles[i]
            ref = eta_eps_by_ode_in_x(prof, 0.0, c.eta_bar[0])(prof.x_fine)
            error = np.abs(c.eta_bar - ref) / ref
            assert error[-1] <= 1e-13, (i, error[-1])
            assert np.max(error) <= 5e-13, (i, np.max(error))
            checked += 1
    assert checked == 367


def test_eta_is_the_comparison_solution_to_first_order_on_the_star(star_profiles):
    # at the README star's certified epsilon the super-solution eta_bar +
    # epsilon u / (1 - epsilon J) is the comparison solution of slope
    # margin epsilon within 1e-10: they differ at second order in epsilon,
    # and u and J by the trapezoid rule's error, both times epsilon
    topo, profiles = star_profiles
    epsilon = 2.44140625e-07
    for i, c in weights_module._channels(topo, profiles).items():
        prof = profiles[i]
        ref = eta_eps_by_ode_in_x(prof, epsilon, c.eta_bar[0] + epsilon)(prof.x_fine)
        assert np.max(np.abs(c.at(epsilon)[0] - ref) / ref) <= 1e-10, i


def test_eta_bar_is_the_comparison_solution_at_the_largest_friction_exponent():
    # at p = 9/2 gamma2 touches 0 at Froude number 2/3 and stays >= 0, so the
    # closed forms still solve eta_bar' = |E(eta_bar)|; a star whose trunk
    # and three branches all have p = 9/2
    topo = small_star(cells=24)
    channels = {i: dataclasses.replace(s, friction_exponent=4.5) for i, s in topo.channels.items()}
    topo = dataclasses.replace(topo, channels=channels)
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    for i, c in weights_module._channels(topo, profiles).items():
        prof = profiles[i]
        assert np.all(c.coeffs.gamma2 >= 0.0)
        ref = eta_eps_by_ode_in_x(prof, 0.0, c.eta_bar[0])(prof.x_fine)
        assert np.max(np.abs(c.eta_bar - ref) / ref) <= 1e-13, i


def test_super_solution_has_its_slack(star_profiles):
    # eta' - E(eta) = epsilon / (1 - epsilon J), the slack the interior
    # matrix reads, against a fourth-order central difference of the
    # certificate's own eta on every channel of the README star and of every
    # 7th criterion-5 network, at epsilon where epsilon J(L) = 1/2, within
    # 3e-3 of the slack (measured: 3.1e-4, the difference's and the
    # trapezoid sums' error): without the factor 1 / (1 - epsilon J) the
    # slack would be epsilon (1 - epsilon c u^2), half or less of it near
    # the outlet
    networks = criterion_05_networks(star_profiles)
    checked = 0
    for topo, profiles in networks[:1] + networks[1::7]:
        for i, c in weights_module._channels(topo, profiles).items():
            if not c.J[-1] > 0.0:
                continue
            epsilon = 0.5 / float(c.J[-1])
            eta, slack = c.at(epsilon)
            x = profiles[i].x_fine
            h = x[1] - x[0]
            slope = (eta[:-4] - 8.0 * eta[1:-3] + 8.0 * eta[3:-1] - eta[4:]) / (12.0 * h)
            k = c.coeffs
            E = (k.delta1 * k.phi / k.lambda1 + k.gamma2 / (k.lambda2 * k.phi) * eta**2)[2:-2]
            assert np.max(np.abs(slope - E - slack[2:-2]) / slack[2:-2]) <= 3e-3, i
            checked += 1
    assert checked == 57


def test_certificate_limit_is_the_gain_screens_ratio(star_profiles):
    # ROADMAP item 8's limit: the terminal check at epsilon admits exactly
    # |rho| < phi(L) / eta(L), and as epsilon -> 0 that ratio is the gain
    # screen's phi_L / eta_bar_L on every terminal of the README star and of
    # the 70 criterion-5 networks
    checked = 0
    for topo, profiles in criterion_05_networks(star_profiles):
        channels = weights_module._channels(topo, profiles)
        for j in topo.terminal_channels:
            c, rec = channels[j], is_admissible(profiles[j], 0.0)
            limit = c.eta_bar[-1] / c.coeffs.phi[-1]
            assert abs(limit - rec.eta_bar_L / rec.phi_L) <= 1e-14 * limit, j
            checked += 1
    assert checked == 276


def test_channel_end_weights_are_the_fine_grid_ends_to_the_bit(star_profiles):
    # an attempt's first pass decides at the channel ends; it may refuse an
    # epsilon there only because the fine grid holds the same values
    # every array field of the record, so that none can skip its end copy
    def arrays(cw):
        c = cw.coeffs
        fields = [getattr(c, f.name) for f in dataclasses.fields(c) if f.name != "profile"]
        return (cw.eta_eps, cw.slack, cw.f1, cw.f2, cw.Z, cw.W, *interior_matrix(cw), *fields)

    compared = 0
    for topo, profiles in criterion_05_networks(star_profiles):
        for epsilon in (DEFAULT_EPSILON, DEFAULT_EPSILON * 0.5**12):
            # the first rung of the ladder from epsilon down whose weights exist
            while True:
                try:
                    ws = network_weights(topo, profiles, epsilon)
                    break
                except EpsilonTooLarge:
                    epsilon *= 0.5
            for i, fine in ws.channels.items():
                coeffs = CharCoeffs.from_profile(profiles[i])
                channel = weights_module._Channel.of(coeffs, i == topo.root_channel)
                ends = weights_module._channel_weights(
                    coeffs.ends, *channel.at(epsilon, _ENDS), fine.alpha, epsilon)
                for a, b in zip(arrays(ends), arrays(fine), strict=True):
                    assert a.size == 2
                    assert a.tobytes() == b[[0, -1]].tobytes(), (i, epsilon)
                compared += 1
    assert compared > 600


# README-star certificate (cells = 100, zero gains) with the closed-form
# super-solution; against the DOP853 solve it replaced, the O(epsilon)
# interior margins moved by up to 9.3e-7 relative, the terminal margins by
# up to 3.4e-8 and the rest by at most 5.3e-10, and a rewrite that only
# reorders floating-point operations moves each margin by about 1e-11.
PINNED_STAR_CERTIFICATE = {
    "certified": True,
    "epsilon": 2.44140625e-07,
    "halvings": 12,
    "alphas": {"1": 1.0, "2": 0.9795494762067746, "3": 0.9795494762067746, "4": 0.9795494762067746},
    "z_end": {"1": 0.4433353271764324},
    "z_start": {"2": -4.782955843767936e-07, "3": -4.782955843767936e-07,
                "4": -4.782955843767936e-07},
    "junction_min_eig": {"1": 4.782955843286435e-07},
    "trunk_inlet": 4.7459849994052974e-05,
    "terminal_margins": {"2": 0.0006323600583650316, "3": 4.930408567955005e-05,
                         "4": 1.7855913746615164e-05},
    "reflection": {"2": -1.0, "3": -1.0, "4": -1.0},
    "interior_min_eig": {"1": 2.370370790765082e-07, "2": 2.2565700572669753e-07,
                         "3": 2.356493173704473e-07, "4": 2.303492280375909e-07},
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
