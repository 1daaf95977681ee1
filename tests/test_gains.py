"""Admissible feedback gains at terminal outlets."""

import math

import numpy as np
import pytest

from channet.gains import (
    boundary_constants,
    forbidden_interval,
    is_admissible,
)
import channet.steady
import channet.weights
from channet.errors import WeightError
from channet.steady import critical_depth, integrate_channel_steady, solve_network_steady
from channet.topology import ChannelSpec
from channet.weights import m_value, phi_profiles

from conftest import (
    G,
    STAR_GAINS,
    admissible_gain,
    criterion_05_networks,
    draw_channel,
    draw_star,
    draw_tree,
    eta_bar_closed,
)

# floating-point dead-band of the inlet verdict's reflection cross-check
CROSS_CHECK_DEADBAND = 1e-9


class InletPole(ArithmeticError):
    """The inlet gain pins the outgoing characteristic: c0 has a pole."""


def inlet_reflection(gain: float, inlet_depth: float, gravity: float = 9.81) -> float:
    """Inlet reflection coefficient c0 = (k0 H0 + sqrt(g H0)) / (k0 H0 - sqrt(g H0)).

    |c0| <= 1 exactly when k0 <= 0.
    """
    num = gain * inlet_depth + math.sqrt(gravity * inlet_depth)
    den = gain * inlet_depth - math.sqrt(gravity * inlet_depth)
    if abs(den) <= 1e-300:
        raise InletPole(f"inlet gain {gain:g} pins the outgoing characteristic")
    return num / den


def single_channel_conditions(profile, k0: float, kL: float) -> bool:
    """Verdict for a single channel controlled at both ends.

    True iff the inlet gain lies in (-inf, 0] and the outlet gain avoids the
    closed forbidden interval. The inlet condition is cross-checked against
    |c0| <= 1 for the inlet reflection coefficient.
    """
    inlet_ok = k0 <= 0.0
    try:
        c0 = inlet_reflection(k0, profile.inlet_depth, profile.gravity)
    except InletPole:
        c0 = None
    if c0 is not None:
        gap = c0 * c0 - 1.0
        if abs(gap) > CROSS_CHECK_DEADBAND and (gap <= 0.0) != inlet_ok:
            raise AssertionError(
                f"inlet verdict and reflection criterion disagree for k0 = {k0:g}"
            )
    return inlet_ok and is_admissible(profile, kL).admissible


def test_gain_screen_solves_no_ode(star_profiles, monkeypatch):
    # every terminal of the README star and of the criterion-5 networks: the
    # explicit screen gives the verdict, interval and c that the screen fed
    # by phi_profiles and eta_bar = m eta0 along the dense depth gives
    rng = np.random.default_rng(31514)
    networks = [draw_star(rng, 2 + int(rng.integers(5))) for _ in range(50)]
    networks += [draw_tree(rng) for _ in range(20)]
    cases = [(star_profiles[1][j], k) for j, k in STAR_GAINS.items()]
    for topo, H0, flux in networks:
        profiles = solve_network_steady(topo, H0, flux)
        for j in topo.terminal_channels:
            cases += [(profiles[j], 0.0), (profiles[j], admissible_gain(rng, profiles[j]))]
    expected = []
    for prof, k in cases:
        phi = phi_profiles(prof)
        L = prof.length
        expected.append(
            is_admissible(prof, k, eta_bar_L=float(eta_bar_closed(phi, L)), phi_L=float(phi.phi(L)))
        )

    def no_ode(*args, **kwargs):
        raise AssertionError("the gain screen solved an ODE")

    monkeypatch.setattr(channet.weights, "solve_ivp", no_ode)
    monkeypatch.setattr(channet.steady, "solve_ivp", no_ode)
    for (prof, k), ref in zip(cases, expected):
        rec = is_admissible(prof, k)
        assert rec.admissible == ref.admissible
        assert (rec.forbidden, rec.half_line, rec.reflection) == (
            ref.forbidden, ref.half_line, ref.reflection)
        assert rec.phi_L == pytest.approx(ref.phi_L, rel=1e-9)
        assert rec.eta_bar_L == pytest.approx(ref.eta_bar_L, rel=1e-9)


@pytest.fixture(scope="module")
def sample_profiles():
    rng = np.random.default_rng(91)
    out = []
    for _ in range(12):
        spec, H0, flux = draw_channel(rng, cells=16)
        out.append(integrate_channel_steady(spec, H0, flux))
    return out


def test_endpoint_product_identity(sample_profiles):
    for prof in sample_profiles:
        lam_p, lam_m, m_L = boundary_constants(prof)
        a, b, half = forbidden_interval(lam_p, lam_m, m_L, prof.outlet_depth, G)
        if half:
            continue
        assert a * b == pytest.approx(G / prof.outlet_depth, rel=1e-12)


def test_boundary_constants_are_outlet_speeds(sample_profiles):
    prof = sample_profiles[0]
    c = math.sqrt(G * prof.outlet_depth)
    V = prof.outlet_velocity
    lam_p, lam_m, m_L = boundary_constants(prof)
    assert lam_p == pytest.approx(c + V, rel=1e-12)
    assert lam_m == pytest.approx(c - V, rel=1e-12)
    assert m_L > 1.0


def test_interval_verdict_matches_reflection_inequality(sample_profiles):
    rng = np.random.default_rng(92)
    checked = 0
    for prof in sample_profiles:
        phi = phi_profiles(prof)
        ratio = (eta_bar_closed(phi, prof.length) / phi.phi(prof.length)) ** 2
        rec0 = is_admissible(prof, 1.0)
        a, b = rec0.forbidden
        s = math.sqrt(G / prof.outlet_depth)
        scale = max(abs(a), abs(b), s)
        for _ in range(20):
            k = rng.uniform(a - 3 * s, b + 3 * s)
            if min(abs(k - a), abs(k - b)) < 1e-6 * scale:
                continue
            rec = is_admissible(prof, k)
            r = k * math.sqrt(prof.outlet_depth / G)
            assert rec.admissible == (k < a or k > b)
            assert rec.admissible == ((1.0 + r) ** 2 > ratio * (1.0 - r) ** 2)
            checked += 1
    assert checked > 150


def test_frictionless_forbidden_set_is_nonpositive_half_line():
    spec = ChannelSpec(id=1, length=300.0, friction=0.0, cells=16)
    prof = integrate_channel_steady(spec, 2.0, 1.0)
    rec = is_admissible(prof, 0.5)
    assert rec.half_line
    a, b = rec.forbidden
    assert math.isinf(a) and a < 0
    assert b == 0.0
    assert rec.admissible
    assert not is_admissible(prof, -0.3).admissible
    assert not is_admissible(prof, 0.0).admissible


def test_zero_flux_outlet_needs_positive_gain():
    spec = ChannelSpec(id=1, length=30.0, friction=1e-3, cells=16)
    prof = integrate_channel_steady(spec, 1.5, 0.0)
    assert is_admissible(prof, 0.4).admissible
    assert not is_admissible(prof, 0.0).admissible
    assert not is_admissible(prof, -0.4).admissible


def test_pole_gain_rejected(sample_profiles):
    # the non-reflecting gain sqrt(g/H) is admissible; the ill-posed gain
    # -sqrt(g/H), where rho has its pole, is not
    prof = sample_profiles[1]
    s = math.sqrt(G / prof.outlet_depth)
    rec = is_admissible(prof, s)
    assert rec.admissible
    assert abs(rec.reflection) < 1e-15
    rec = is_admissible(prof, -s)
    assert not rec.admissible
    assert math.isinf(rec.reflection) or abs(rec.reflection) > 1e15


def test_gain_record_serialization(sample_profiles):
    prof = sample_profiles[2]
    d = is_admissible(prof, 0.9).to_dict()
    assert d["channel"] == prof.channel
    assert d["admissible"] in (True, False)
    assert "reflection" in d
    assert "k_pole" not in d


def test_inlet_reflection_bounded_iff_gain_nonpositive():
    H0 = 2.0
    s = math.sqrt(G / H0)
    assert abs(inlet_reflection(0.0, H0, G)) == pytest.approx(1.0, rel=1e-14)
    assert abs(inlet_reflection(-s, H0, G)) == pytest.approx(0.0, abs=1e-14)
    for k0 in (-3.0, -0.7, -0.1):
        assert abs(inlet_reflection(k0, H0, G)) < 1.0
    for k0 in (0.05, 0.6, 1.9):
        assert abs(inlet_reflection(k0, H0, G)) > 1.0


def test_single_channel_conditions(sample_profiles):
    prof = sample_profiles[3]
    rec = is_admissible(prof, 1.0)
    a, b = rec.forbidden
    k_good = b + abs(b) + 1.0
    assert single_channel_conditions(prof, 0.0, k_good)
    assert single_channel_conditions(prof, -0.5, k_good)
    # a reflecting inlet with positive gain amplifies
    assert not single_channel_conditions(prof, 0.2, k_good)
    # outlet gain inside the forbidden interval
    assert not single_channel_conditions(prof, 0.0, 0.5 * (a + b))


def test_m_value_on_a_float_is_its_one_element_array_path(star_profiles):
    # the gain screen's float path against the stacked one, on every terminal
    # of the README star and the 70 criterion-5 networks and on 2000 draws
    # of a depth between 1.05 times critical and the inlet depth
    cases = [(q.outlet_depth, q.inlet_depth, q.flux, q.spec.friction_exponent, q.gravity)
             for topo, profiles in criterion_05_networks(star_profiles)
             for q in (profiles[j] for j in topo.terminal_channels)]
    assert len(cases) == 276
    rng = np.random.default_rng(4141)
    for p in (0.0, 1.0, 4.0 / 3.0, 2.0, 4.5):
        for _ in range(400):
            flux = rng.uniform(0.2, 3.0)
            Hc = critical_depth(flux, G)
            H0 = rng.uniform(1.1 * Hc, 5.0)
            cases.append((rng.uniform(1.05 * Hc, H0), H0, flux, p, G))
    for H, *terms in cases:
        m = m_value(H, *terms)
        assert type(m) is float
        ref = m_value(np.array([H]), *terms)[0]
        assert abs(m - ref) <= 1e-14 * abs(ref), (H, terms)
    # both paths refuse a depth where the denominator vanishes
    flux = 1.0
    Hc = critical_depth(flux, G)
    for p in (1.0, 2.0, 4.5):
        for H in (0.5 * Hc, np.array([0.5 * Hc])):
            with pytest.raises(WeightError):
                m_value(H, 1.05 * Hc, flux, p, G)
