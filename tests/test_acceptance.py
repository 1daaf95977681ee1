"""Verification gate: ten independent end-to-end checks.

Each test states one guaranteed property of the package: oracle agreement
for the comparison solution, positivity of the certified margins, gain
interval correctness, exact steady-state preservation, and decay of the
Lyapunov functional in both simulation modes.
"""

import json
import math
import time

import numpy as np
import pytest

from channet.characteristics import CharCoeffs
from channet.cli import main
from channet.gains import is_admissible
from channet.simulate import Bump, NetworkSimulator
from channet.steady import integrate_channel_steady, solve_network_steady
from channet.topology import ChannelSpec, network_to_dict
from channet.weights import (
    certify_network,
    m_value,
    network_weights,
    phi_profiles,
)

from conftest import (
    G,
    STAR_ROOT_DEPTH,
    STAR_ROOT_FLUX,
    admissible_gain,
    certify_once,
    draw_channel,
    draw_star,
    draw_tree,
    eta_bar_by_ode,
    eta_bar_closed,
    riccati_existence_margin,
    small_star,
    steady_rhs,
)


def transit_time(topo, profiles):
    """Longest root-terminal round trip along both characteristic families."""
    best = 0.0
    for term in topo.terminal_channels:
        path = [term]
        while path[-1] != topo.root_channel:
            path.append(topo.parent_of(path[-1]))
        t = 0.0
        for i in path:
            p = profiles[i]
            c = np.sqrt(p.gravity * p.H_faces)
            t += float(np.trapezoid(1.0 / (p.V_faces + c), p.x_faces))
            t += float(np.trapezoid(1.0 / (c - p.V_faces), p.x_faces))
        best = max(best, t)
    return best


@pytest.fixture(scope="module")
def decay_setup():
    """Certified 3-branch star shared by the two decay criteria.

    Terminal gains sit at twice the outlet surface-wave slope, which keeps
    the decay close to a single exponential so the fitted rate predicts the
    endpoint drop.
    """
    topo = small_star(cells=100)
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    gains = {
        j: 2.0 * math.sqrt(G / profiles[j].outlet_depth)
        for j in topo.terminal_channels
    }
    cert = certify_network(topo, profiles, gains)
    assert cert.certified, cert.failed_checks
    T = 5.05 * transit_time(topo, profiles)
    bump = {1: Bump(amplitude_h=1e-3 * STAR_ROOT_DEPTH, center=0.5, width=0.8)}
    lin = NetworkSimulator(cert.weights, gains, mode="linear")
    trace = lin.run(bump, T)
    return topo, profiles, gains, cert, T, bump, trace


def test_criterion_01_closed_form_comparison_matches_adaptive_integration(
    channel_suite,
):
    assert len(channel_suite) >= 100
    start = time.perf_counter()
    worst = 0.0
    for prof in channel_suite:
        phi = phi_profiles(prof)
        ode = eta_bar_by_ode(prof)
        x = np.linspace(0.0, prof.length, 60)
        closed = eta_bar_closed(phi, x)
        gap = float(np.max(np.abs(closed - ode(x)) / np.abs(closed)))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed <= 10.0


def test_criterion_02_comparison_solution_dominated_and_anchored(channel_suite):
    for prof in channel_suite:
        phi = phi_profiles(prof)
        x = np.linspace(0.0, prof.length, 200)[1:]
        assert np.all(phi.phi(x) - eta_bar_closed(phi, x) > 0.0)
        assert eta_bar_closed(phi, 0.0) == pytest.approx(1.0, abs=1e-10)
        c0 = math.sqrt(G * prof.inlet_depth)
        V0 = prof.velocity_of(prof.inlet_depth)
        m0 = m_value(
            prof.inlet_depth,
            prof.inlet_depth,
            prof.flux,
            prof.spec.friction_exponent,
            G,
        )
        assert m0 == pytest.approx((c0 + V0) / (c0 - V0), rel=1e-10)


def test_criterion_03_existence_margin_positive_up_to_blowup(channel_suite):
    for prof in channel_suite:
        stretched = ChannelSpec(
            id=prof.spec.id,
            length=0.99 * prof.blowup_bound,
            friction=prof.spec.friction,
            friction_exponent=prof.spec.friction_exponent,
            cells=prof.spec.cells,
        )
        long_prof = integrate_channel_steady(stretched, prof.inlet_depth, prof.flux)
        phi = phi_profiles(long_prof)
        x = np.linspace(0.0, stretched.length, 80)
        assert np.all(riccati_existence_margin(phi, x) > 0.0)


def test_criterion_04_gain_interval_matches_reflection_inequality():
    rng = np.random.default_rng(555)
    pairs = 0
    checked = 0
    profiles = []
    for _ in range(25):
        spec, H0, flux = draw_channel(rng, cells=16)
        profiles.append(integrate_channel_steady(spec, H0, flux))
    for prof in profiles:
        phi = phi_profiles(prof)
        ratio = (eta_bar_closed(phi, prof.length) / phi.phi(prof.length)) ** 2
        a, b = is_admissible(prof, 1.0).forbidden
        assert a * b == pytest.approx(G / prof.outlet_depth, rel=1e-12)
        s = math.sqrt(G / prof.outlet_depth)
        scale = max(abs(a), abs(b), s)
        for _ in range(20):
            u = rng.random()
            if u < 0.4:
                k = b + rng.uniform(0.0, 4.0) * s
            elif u < 0.7:
                k = a - rng.uniform(0.0, 3.0) * s - rng.uniform(0.0, 0.1) * abs(a)
            else:
                k = rng.uniform(a, b)
            pairs += 1
            if min(abs(k - a), abs(k - b)) <= 1e-9 * scale:
                continue
            rec = is_admissible(prof, k)
            r = k * math.sqrt(prof.outlet_depth / G)
            assert rec.admissible == (k < a or k > b)
            assert rec.admissible == ((1.0 + r) ** 2 > ratio * (1.0 - r) ** 2)
            checked += 1
    assert pairs == 500
    assert checked >= 495

    # zero friction degenerates the interval to the nonpositive half line
    spec = ChannelSpec(id=1, length=250.0, friction=0.0, cells=16)
    prof = integrate_channel_steady(spec, 2.0, 1.0)
    rec = is_admissible(prof, 0.7)
    assert rec.half_line
    assert math.isinf(rec.forbidden[0]) and rec.forbidden[0] < 0.0
    assert rec.forbidden[1] == 0.0
    assert rec.admissible
    assert not is_admissible(prof, 0.0).admissible
    assert not is_admissible(prof, -0.4).admissible


def test_criterion_05_random_networks_certified_and_endpoint_gains_fail():
    rng = np.random.default_rng(31514)
    networks = [draw_star(rng, 2 + int(rng.integers(5))) for _ in range(50)]
    networks += [draw_tree(rng) for _ in range(20)]
    first = None
    for topo, H0, flux in networks:
        profiles = solve_network_steady(topo, H0, flux)
        gains = {j: admissible_gain(rng, profiles[j]) for j in topo.terminal_channels}
        cert = certify_network(topo, profiles, gains, epsilon_start=1e-3)
        assert cert.certified, cert.failed_checks
        assert all(e > 0.0 for e in cert.junction_min_eig.values())
        assert cert.trunk_inlet > 0.0
        assert all(m > 0.0 for m in cert.terminal_margins.values())
        assert all(e > 0.0 for e in cert.interior_min_eig.values())
        if first is None:
            first = (topo, profiles, cert)

    topo, profiles, cert = first
    at_endpoint = {
        j: is_admissible(profiles[j], 0.0).forbidden[1]
        for j in topo.terminal_channels
    }
    bad = certify_once(topo, profiles, at_endpoint, cert.epsilon)
    assert not bad.certified
    assert bad.failed_checks == ("terminal_margin",)


def test_criterion_06_nonlinear_scheme_preserves_steady_state():
    topo = small_star(cells=40)
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    cert = certify_network(topo, profiles, {2: 0.0, 3: 0.0, 4: 0.0})
    assert cert.certified
    sim = NetworkSimulator(cert.weights, {2: 0.0, 3: 0.0, 4: 0.0}, mode="nonlinear")
    state = sim.initial_state(None)
    dt = sim.cfl_dt(state)
    for _ in range(10000):
        state, _ = sim.step(state, dt)
    drift = max(
        max(float(np.max(np.abs(h))), float(np.max(np.abs(v))))
        for h, v in sim.fields(state).values()
    )
    assert drift <= 1e-10


def test_criterion_07_linear_decay_with_consistent_rate(decay_setup):
    topo, profiles, gains, cert, T, bump, trace = decay_setup
    assert trace.nu_hat > 0.0
    assert trace.r2 >= 0.95
    viol_coarse = float(max(0.0, np.max(np.diff(trace.V)))) / trace.V[0]
    assert viol_coarse <= 1e-6

    fine = small_star(cells=200)
    profiles_f = solve_network_steady(fine, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    ws_f = network_weights(fine, profiles_f, cert.epsilon)
    sim_f = NetworkSimulator(ws_f, gains, mode="linear")
    trace_f = sim_f.run(bump, T)
    viol_fine = float(max(0.0, np.max(np.diff(trace_f.V)))) / trace_f.V[0]
    assert viol_fine <= max(viol_coarse, 1e-12)
    assert abs(trace_f.nu_hat - trace.nu_hat) / trace.nu_hat <= 0.30


def test_criterion_08_nonlinear_decay_and_quadratic_remainder(decay_setup):
    topo, profiles, gains, cert, T, bump, trace = decay_setup
    non = NetworkSimulator(cert.weights, gains, mode="nonlinear")
    tr = non.run(bump, T)
    ratio = tr.V_ext[-1] / tr.V_ext[0]
    target = math.exp(-trace.nu_hat * T)
    assert 0.5 * target <= ratio <= 1.5 * target

    # halving the amplitude must shrink the defect against the linear run
    # by the quadratic factor four
    lin = NetworkSimulator(cert.weights, gains, mode="linear")
    amp = bump[1].amplitude_h
    half = {1: Bump(amplitude_h=0.5 * amp, center=0.5, width=0.8)}
    sl = lin.initial_state(bump)
    sa = non.initial_state(bump)
    sh = non.initial_state(half)
    dt = 0.95 * min(lin.cfl_dt(sl), non.cfl_dt(sa))
    for _ in range(120):
        sl, _ = lin.step(sl, dt)
        sa, _ = non.step(sa, dt)
        sh, _ = non.step(sh, dt)
    rem_full = max(
        float(np.max(np.abs(non.fields(sa)[i][0] - lin.fields(sl)[i][0])))
        for i in topo.channels
    )
    rem_half = max(
        float(np.max(np.abs(non.fields(sh)[i][0] - 0.5 * lin.fields(sl)[i][0])))
        for i in topo.channels
    )
    assert 3.0 <= rem_full / rem_half <= 5.0


def test_criterion_09_dual_coupling_forms_agree(channel_suite):
    for prof in channel_suite:
        CharCoeffs.from_profile(prof)
        spec = prof.spec
        H = prof.H_fine
        V = prof.velocity_of(H)
        c = np.sqrt(G * H)
        H_x = steady_rhs(H, prof.flux, spec.friction, spec.friction_exponent, G)
        P = -(H_x / H) * (V + c) * (c - V)
        K = G * spec.friction * V**2 / H**spec.friction_exponent
        assert float(np.max(np.abs(P - K) / np.abs(K))) <= 1e-10


def test_criterion_10_simulation_outputs_byte_identical(tmp_path):
    cfg = {
        "network": network_to_dict(small_star(cells=24)),
        "root": {"Q": STAR_ROOT_FLUX, "H0": STAR_ROOT_DEPTH},
        "gains": {"2": 0.0, "3": 0.0, "4": 0.0},
        "simulation": {
            "mode": "linear",
            "T": 2.0,
            "perturbation": {
                "2": {"amplitude_h": 1e-3, "center": 0.5, "width": 0.5}
            },
            "snapshot_path": "snapshot.csv",
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        assert main(["simulate", "--config", str(path), "--out", str(outdir)]) == 0
        outs.append(outdir)
    for fname in ("trace.csv", "snapshot.csv", "simulate_summary.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
