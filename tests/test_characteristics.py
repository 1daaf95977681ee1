"""Characteristic speeds, invariants, couplings and reflection."""

import math

import numpy as np
import pytest

from channet.characteristics import (
    CharCoeffs,
    eigenvalues,
    existence_integral,
    log_phi,
    outlet_traces,
    phi_exponents,
    reflection_coefficient,
    speeds_couplings,
)
from channet.gains import forbidden_interval
from channet.steady import critical_depth, integrate_channel_steady
from channet.topology import ChannelSpec
from channet.weights import phi_profiles

from conftest import G, P_CHOICES, draw_channel, steady_rhs


def riemann_forward(h, v, depth_star, gravity=9.81):
    """Deviation fields to characteristic variables (y1, y2)."""
    s = np.sqrt(gravity / np.asarray(depth_star, dtype=float))
    return v + h * s, v - h * s


def nonlinear_change(H, V, depth_star, velocity_star, gravity=9.81):
    """Exact characteristic coordinates of the full flow state.

    y1/y2 agree with the linear transform to second order in the deviation and
    vanish exactly on the steady state.
    """
    d = 2.0 * (np.sqrt(gravity * np.asarray(H, dtype=float)) - np.sqrt(gravity * np.asarray(depth_star, dtype=float)))
    w = np.asarray(V, dtype=float) - velocity_star
    return w + d, w - d


def riemann_inverse(y1, y2, depth_star, gravity=9.81):
    """Characteristic variables back to deviation fields (h, v)."""
    s = np.sqrt(gravity / np.asarray(depth_star, dtype=float))
    return (y1 - y2) / (2.0 * s), 0.5 * (y1 + y2)


def nonlinear_inverse(y1, y2, depth_star, velocity_star, gravity=9.81):
    """Invert nonlinear_change back to (H, V)."""
    y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
    s = np.sqrt(gravity * np.asarray(depth_star, dtype=float)) + (y1 - y2) / 4.0
    return s**2 / gravity, np.asarray(velocity_star, dtype=float) + (y1 + y2) / 2.0


def test_eigenvalues_frozen_point():
    lam1, lam2 = eigenvalues(1.0, 1.0, G)
    c = math.sqrt(G)
    assert lam1 == pytest.approx(c + 1.0, rel=1e-15)
    assert lam2 == pytest.approx(c - 1.0, rel=1e-15)


def test_eigenvalues_positive_iff_subcritical():
    lam1, lam2 = eigenvalues(1.0, 0.5 * math.sqrt(G), G)
    assert lam1 > 0 and lam2 > 0
    _, lam2_super = eigenvalues(1.0, 1.5 * math.sqrt(G), G)
    assert lam2_super < 0


def test_riemann_round_trip():
    rng = np.random.default_rng(11)
    h = rng.normal(size=40)
    v = rng.normal(size=40)
    y1, y2 = riemann_forward(h, v, 2.3, G)
    h2, v2 = riemann_inverse(y1, y2, 2.3, G)
    assert np.allclose(h2, h, rtol=0, atol=1e-14)
    assert np.allclose(v2, v, rtol=0, atol=1e-14)


def test_riemann_forward_definition():
    # y = v +/- sqrt(g/H*) h
    y1, y2 = riemann_forward(0.2, 0.1, 4.0, G)
    s = math.sqrt(G / 4.0)
    assert y1 == pytest.approx(0.1 + s * 0.2, rel=1e-14)
    assert y2 == pytest.approx(0.1 - s * 0.2, rel=1e-14)


def test_nonlinear_round_trip():
    rng = np.random.default_rng(22)
    H = 2.0 + 0.3 * rng.normal(size=30)
    V = 0.5 + 0.2 * rng.normal(size=30)
    y1, y2 = nonlinear_change(H, V, 2.0, 0.5, G)
    H2, V2 = nonlinear_inverse(y1, y2, 2.0, 0.5, G)
    assert np.allclose(H2, H, rtol=1e-13)
    assert np.allclose(V2, V, rtol=0, atol=1e-13)


def test_nonlinear_change_matches_linear_to_second_order():
    H_star, V_star = 2.0, 0.5
    h, v = 0.3, 0.2
    prev = None
    for eps in (1e-2, 5e-3, 2.5e-3):
        y1n, y2n = nonlinear_change(H_star + eps * h, V_star + eps * v, H_star, V_star, G)
        y1l, y2l = riemann_forward(eps * h, eps * v, H_star, G)
        gap = max(abs(y1n - y1l), abs(y2n - y2l))
        assert gap <= 1.0 * eps**2
        if prev is not None:
            # quadratic remainder: halving eps divides the gap by about 4
            assert prev / gap == pytest.approx(4.0, rel=0.1)
        prev = gap


def test_reflection_frozen_point():
    # H* = g makes sqrt(H/g) = 1, so r = k and rho = (k - 1)/(k + 1)
    assert reflection_coefficient(3.0, G, G) == pytest.approx(0.5, rel=1e-14)
    assert reflection_coefficient(0.0, G, G) == pytest.approx(-1.0, rel=1e-14)


def test_reflection_pole():
    # the non-reflecting gain sqrt(g/H) sends nothing back; the pole of rho
    # sits at the ill-posed gain -sqrt(g/H), and neither raises
    H = 2.5
    assert reflection_coefficient(math.sqrt(G / H), H, G) == pytest.approx(0.0, abs=1e-15)
    rho = reflection_coefficient(-math.sqrt(G / H), H, G)
    assert math.isinf(rho) or abs(rho) > 1e15


@pytest.mark.parametrize("kernel, args", [
    (eigenvalues, (2.0, 0.5)),
    (outlet_traces, (0.5, 2.0)),
    (reflection_coefficient, (0.5, 2.0)),
    (forbidden_interval, (5.0, 4.0, 0.9, 2.0)),
    (critical_depth, (1.0,)),
], ids=["eigenvalues", "outlet_traces", "reflection_coefficient", "forbidden_interval",
        "critical_depth"])
def test_kernels_take_gravity_from_their_caller(kernel, args):
    # a network may have any one gravity: a kernel called without it refuses
    # to answer for 9.81
    with pytest.raises(TypeError):
        kernel(*args)


def test_coupling_frozen_point():
    H, Q, C, p = 2.0, 1.0, 2e-3, 1.0
    V = Q / H
    c = math.sqrt(G * H)
    lam1, lam2 = c + V, c - V
    K = G * C * V**2 / H**p
    g1, d1, g2, d2 = speeds_couplings(H, Q, C, p, G)[2:]
    assert g1 == pytest.approx(K * (-3.0 / (4 * lam1) + 1.0 / V - p / (2 * c)), rel=1e-13)
    assert d1 == pytest.approx(K * (-1.0 / (4 * lam1) + 1.0 / V + p / (2 * c)), rel=1e-13)
    assert g2 == pytest.approx(K * (1.0 / (4 * lam2) + 1.0 / V - p / (2 * c)), rel=1e-13)
    assert d2 == pytest.approx(K * (3.0 / (4 * lam2) + 1.0 / V + p / (2 * c)), rel=1e-13)


def test_coupling_gradient_form_agrees():
    # the friction term K = g C V^2 / H^p of the couplings equals the
    # gradient form P = -(H_x / H) lambda1 lambda2 with H_x from the steady
    # depth equation. Both are exact, so they agree to rounding where the
    # margin g H - V^2 inside H_x keeps its digits: the depths stay at
    # least 1.1 critical depths, where the margin is above a quarter of g H.
    rng = np.random.default_rng(57)
    for p in P_CHOICES:
        flux = rng.uniform(0.2, 3.0)
        Hc = (flux / math.sqrt(G)) ** (2.0 / 3.0)
        H = Hc * rng.uniform(1.1, 4.0, size=64)
        friction = rng.uniform(1e-4, 5e-3)
        V, c = flux / H, np.sqrt(G * H)
        H_x = steady_rhs(H, flux, friction, p, G)
        P = -(H_x / H) * (V + c) * (c - V)
        K = G * friction * V**2 / H**p
        assert np.max(np.abs(P - K) / K) <= 1e-12, p


def test_speeds_couplings_scalar_path_matches_array_path():
    # CharCoeffs evaluates the kernel on arrays and the tests on scalars: the
    # speeds agree bit for bit, and the couplings within 3 ulp, as numpy's
    # power may differ from the C library's pow by an ulp
    rng = np.random.default_rng(55)
    for p in P_CHOICES:
        flux = rng.uniform(0.2, 3.0)
        Hc = (flux / math.sqrt(G)) ** (2.0 / 3.0)
        H = Hc * rng.uniform(1.01, 4.0, size=64)
        friction = rng.uniform(1e-4, 5e-3)
        arrays = speeds_couplings(H, flux, friction, p, G)
        for k, h in enumerate(H):
            scalars = speeds_couplings(float(h), flux, friction, p, G)
            assert all(type(v) is float for v in scalars)
            assert scalars[:2] == tuple(float(a[k]) for a in arrays[:2]), (p, k)
            for a, s in zip(arrays[2:], scalars[2:]):
                assert abs(a[k] - s) <= 3.0 * np.spacing(abs(s)), (p, k)


def test_gamma2_is_nonnegative_up_to_friction_exponent_nine_halves():
    # c gamma2 / K = 1/(4 (1 - F)) + 1/F - p/2 at Froude number F = (Hc/H)^1.5,
    # least at F = 2/3, where it is 9/4 - p/2: at p = 9/2 gamma2 touches 0
    # there and stays >= 0 over the subcritical range, and at 4.6 it is
    # negative there
    flux, friction = 1.3, 2e-3
    Hc = (flux / math.sqrt(G)) ** (2.0 / 3.0)
    F = np.append(np.linspace(0.01, 0.99, 99), 2.0 / 3.0)
    H = Hc * F ** (-2.0 / 3.0)
    for p in (0.0, 1.0, 4.5):
        lam1, lam2, g1, d1, g2, d2 = speeds_couplings(H, flux, friction, p, G)
        K = G * friction * (flux / H) ** 2 / H**p
        assert np.all(d1 > 0.0) and np.all(g2 >= -1e-14 * K), p
    g2 = speeds_couplings(H[-1], flux, friction, 4.5, G)[4]
    assert abs(g2) <= 1e-14 * G * friction * (flux / H[-1]) ** 2 / H[-1] ** 4.5
    assert speeds_couplings(H[-1], flux, friction, 4.6, G)[4] < 0.0


def test_phi_exponents_match_their_definition():
    # dI1/dx = gamma1/lambda1 and dI2/dx = delta2/lambda2 along the steady
    # depth equation: dI/dx = dI/dH H_x, with dI/dH a fourth-order central
    # difference; no ODE is involved. gamma1 = K (-3/(4 lambda1) + 1/V -
    # p/(2c)) changes sign at some depths when p > 0, so its error is taken
    # relative to the sum of the magnitudes of its terms; every term of
    # delta2 is positive, and that sum is delta2 itself.
    rng = np.random.default_rng(58)
    for p in P_CHOICES:
        flux = rng.uniform(0.2, 3.0)
        Hc = (flux / math.sqrt(G)) ** (2.0 / 3.0)
        H = Hc * rng.uniform(1.01, 4.0, size=64)
        H0 = 4.2 * Hc
        friction = rng.uniform(1e-4, 5e-3)
        h = 3e-5 * H
        I = [phi_exponents(H + k * h, H0, flux, p, G) for k in (-2, -1, 1, 2)]
        H_x = steady_rhs(H, flux, friction, p, G)
        dI1, dI2 = ((a - 8.0 * b + 8.0 * c - d) / (12.0 * h) * H_x for a, b, c, d in zip(*I))
        lam1, lam2, g1, d1, g2, d2 = speeds_couplings(H, flux, friction, p, G)
        V, c = flux / H, np.sqrt(G * H)
        K = G * friction * V * V / H**p
        scale1 = K * (3.0 / (4.0 * lam1) + 1.0 / V + p / (2.0 * c)) / lam1
        assert np.max(np.abs(dI1 - g1 / lam1) / scale1) <= 1e-8, p
        assert np.max(np.abs(dI2 - d2 / lam2) / (d2 / lam2)) <= 1e-8, p
        # both exponents vanish exactly at the inlet, on either path
        assert phi_exponents(H0, H0, flux, p, G) == (0.0, 0.0)
        I1, I2 = phi_exponents(np.array([H0, H[0]]), H0, flux, p, G)
        assert I1[0] == 0.0 and I2[0] == 0.0


def test_log_phi_is_the_sum_of_the_exponents():
    # ln phi = I1 + I2 in one log1p: the two agree to rounding on either
    # path, and both vanish exactly at the inlet
    rng = np.random.default_rng(57)
    for p in P_CHOICES:
        flux = rng.uniform(0.2, 3.0)
        Hc = (flux / math.sqrt(G)) ** (2.0 / 3.0)
        H = Hc * rng.uniform(1.01, 4.0, size=64)
        H0 = 4.2 * Hc
        I1, I2 = phi_exponents(H, H0, flux, p, G)
        scale = np.maximum(np.abs(I1) + np.abs(I2), 1.0)
        for fused in (log_phi(H, H0, flux, p, G),
                      np.array([log_phi(float(h), H0, flux, p, G) for h in H])):
            assert np.max(np.abs(fused - (I1 + I2)) / scale) <= 1e-13, p
        assert log_phi(H0, H0, flux, p, G) == 0.0
        assert log_phi(np.array([H0, H[0]]), H0, flux, p, G)[0] == 0.0


def test_existence_integral_matches_its_definition():
    # dI4/dx = exp(I1 - I2) (lambda1(0)/lambda1)^2 (H0/H) gamma2/lambda2,
    # with dI4/dH a fourth-order central difference as for the phi
    # exponents. gamma2 = K (1/(4 lambda2) + 1/V - p/(2c)) can change sign,
    # so the error is taken relative to the integrand with the sum of the
    # magnitudes of its terms in place of gamma2.
    rng = np.random.default_rng(59)
    for p in (*P_CHOICES, *rng.uniform(0.0, 3.0, size=4)):
        flux = rng.uniform(0.2, 3.0)
        Hc = (flux / math.sqrt(G)) ** (2.0 / 3.0)
        H = Hc * rng.uniform(1.01, 4.0, size=64)
        H0 = 4.2 * Hc
        friction = rng.uniform(1e-4, 5e-3)
        h = 3e-5 * H
        I4 = [existence_integral(H + k * h, H0, flux, p, G) for k in (-2, -1, 1, 2)]
        dI4_dH = (I4[0] - 8.0 * I4[1] + 8.0 * I4[2] - I4[3]) / (12.0 * h)
        dI4 = dI4_dH * steady_rhs(H, flux, friction, p, G)
        lam1, lam2, g1, d1, g2, d2 = speeds_couplings(H, flux, friction, p, G)
        I1, I2 = phi_exponents(H, H0, flux, p, G)
        lam1_0 = speeds_couplings(H0, flux, friction, p, G)[0]
        factor = np.exp(I1 - I2) * (lam1_0 / lam1) ** 2 * (H0 / H) / lam2
        V, c = flux / H, np.sqrt(G * H)
        K = G * friction * V * V / H**p
        scale = factor * K * (1.0 / (4.0 * lam2) + 1.0 / V + p / (2.0 * c))
        assert np.max(np.abs(dI4 - factor * g2) / scale) <= 1e-8, p
        # I4 vanishes exactly at the inlet, on either path
        assert existence_integral(H0, H0, flux, p, G) == 0.0
        assert existence_integral(np.array([H0, H[0]]), H0, flux, p, G)[0] == 0.0


def test_zero_friction_couplings_vanish():
    # a frictionless channel and a zero-flux channel have no coupling: their
    # couplings are exact (positive) zeros, their speeds the eigenvalues, and
    # the factors that absorb the couplings exact ones
    for friction, flux in ((0.0, 1.0), (2e-3, 0.0)):
        spec = ChannelSpec(id=1, length=10.0, friction=friction, cells=8)
        prof = integrate_channel_steady(spec, 2.0, flux)
        cc = CharCoeffs.from_profile(prof)
        for a in (cc.gamma1, cc.delta1, cc.gamma2, cc.delta2):
            assert a.shape == prof.H_fine.shape
            assert np.all(a == 0.0) and not np.any(np.signbit(a))
        lam1, lam2 = eigenvalues(prof.H_fine, prof.velocity_of(prof.H_fine), G)
        assert np.array_equal(cc.lambda1, lam1) and np.array_equal(cc.lambda2, lam2)
        for a in (cc.phi, cc.phi1_sq, cc.phi2_sq):
            assert a.shape == prof.H_fine.shape and np.all(a == 1.0)


def test_char_coeffs_from_profile(star_profiles):
    rng = np.random.default_rng(33)
    spec, H0, flux = draw_channel(rng, cells=16)
    prof = integrate_channel_steady(spec, H0, flux)
    cc = CharCoeffs.from_profile(prof)
    x = prof.x_fine[5]
    e1, e2 = eigenvalues(prof.depth(x), prof.velocity(x), G)
    assert cc.lambda1[5] == pytest.approx(e1, rel=1e-10)
    assert cc.lambda2[5] == pytest.approx(e2, rel=1e-10)
    g1, d1, g2, d2 = (cc.gamma1[5], cc.delta1[5], cc.gamma2[5], cc.delta2[5])
    ref = speeds_couplings(float(prof.depth(x)), flux, spec.friction, spec.friction_exponent, G)[2:]
    assert (g1, d1, g2, d2) == pytest.approx(ref, rel=1e-8)
    assert cc.phi[5] == pytest.approx(float(phi_profiles(prof).phi(x)), rel=1e-12)
    # every factor is exactly 1 at the inlet, where the exponents vanish:
    # the junction scales rely on it for W~(0) >= 2 at a branch inlet
    for p in (prof, *star_profiles[1].values()):
        c = CharCoeffs.from_profile(p)
        assert (c.phi[0], c.phi1_sq[0], c.phi2_sq[0]) == (1.0, 1.0, 1.0), p.channel
