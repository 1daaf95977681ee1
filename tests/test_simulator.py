"""Finite-volume network integrator: exactness, faces, stability, decay."""

import dataclasses
import decimal
import gc
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

import channet.errors
import channet.simulate
from channet.errors import (
    CflViolation,
    MissingGain,
    NonPositiveV,
    SimulationError,
    SubcriticalLoss,
    TerminalSolveFailure,
)
from channet.simulate import (
    DEFAULT_SAMPLES,
    Bump,
    NetworkSimulator,
    _outlet_depths,
    _solve_relation,
    decay_fit,
    mass_balance,
)
from channet.steady import FINE_REFINEMENT, solve_network_steady
from channet.topology import ChannelSpec, NetworkTopology
from channet.weights import DEFAULT_EPSILON, certify_network, network_weights

from conftest import (
    FACE_FAILURES,
    G,
    STAR_GAINS,
    STAR_ROOT_DEPTH,
    STAR_ROOT_FLUX,
    admissible_gain,
    draw_random_tree,
    draw_tree,
    dry_junction,
    dry_outlet_cell,
    nudge_face_cell,
    operators_by_bmat,
    reflection_pole,
    small_star,
)


@pytest.fixture(scope="module")
def star_sim_parts(star_profiles):
    topo, profiles = star_profiles
    cert = certify_network(topo, profiles, STAR_GAINS)
    assert cert.certified
    return topo, profiles, cert.weights


def make_sim(parts, mode="linear", gains=None):
    _, _, weights = parts
    return NetworkSimulator(weights, gains or STAR_GAINS, mode=mode)


BUMP = {2: Bump(amplitude_h=1e-3, center=0.5, width=0.5)}


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_steady_state_preserved_exactly(star_sim_parts, mode):
    sim = make_sim(star_sim_parts, mode)
    state = sim.initial_state(None)
    dt = sim.cfl_dt(state)
    for _ in range(50):
        state, _ = sim.step(state, dt)
    for i in sim.topo.channels:
        h, v = sim.fields(state)[i]
        assert np.all(h == 0.0)
        assert np.all(v == 0.0)


def test_initial_bump_is_compatible(star_sim_parts):
    sim = make_sim(star_sim_parts)
    state = sim.initial_state(BUMP)
    h, v = sim.fields(state)[2]
    assert h[0] == 0.0 and h[1] == 0.0 and h[-1] == 0.0 and h[-2] == 0.0
    assert np.max(h) == pytest.approx(1e-3, rel=0.05)
    assert sim.face_states(state)[2] == (0.0, 0.0, 0.0, 0.0)


def test_linear_mode_is_linear(star_sim_parts):
    sim = make_sim(star_sim_parts)
    state_a = sim.initial_state(BUMP)
    state_b = sim.initial_state({2: Bump(amplitude_h=2e-3, center=0.5, width=0.5)})
    dt = sim.cfl_dt(state_a)
    for _ in range(25):
        state_a, _ = sim.step(state_a, dt)
        state_b, _ = sim.step(state_b, dt)
    for i in sim.topo.channels:
        ha, _ = sim.fields(state_a)[i]
        hb, _ = sim.fields(state_b)[i]
        # each linear face solve is one exact step, so doubling holds to
        # round-off, well inside this bound
        assert np.allclose(2.0 * ha, hb, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_root_face_keeps_inflow_flux(star_sim_parts, mode):
    sim = make_sim(star_sim_parts, mode)
    state = sim.initial_state({1: Bump(amplitude_h=1e-3, center=0.3, width=0.4)})
    dt = 0.97 * sim.cfl_dt(state)
    # enough steps for the upstream-running wave to reach the inlet
    for _ in range(80):
        state, _ = sim.step(state, dt)
    faces = sim.face_states(state)
    h0, v0, _, _ = faces[1]
    prof = sim.profiles[1]
    H0, V0 = float(prof.H_faces[0]), float(prof.V_faces[0])
    if mode == "linear":
        residual = H0 * v0 + V0 * h0
    else:
        residual = (H0 + h0) * (V0 + v0) - H0 * V0
    assert abs(residual) <= 1e-11 * STAR_ROOT_FLUX


def test_terminal_face_obeys_feedback_law(star_sim_parts):
    gains = {2: 0.5, 3: -0.2, 4: 1.1}
    sim = make_sim(star_sim_parts, gains=gains)
    state = sim.initial_state(BUMP)
    dt = sim.cfl_dt(state)
    for _ in range(30):
        state, _ = sim.step(state, dt)
    faces = sim.face_states(state)
    for j, k in gains.items():
        _, _, hL, vL = faces[j]
        assert vL == pytest.approx(k * hL, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_junction_faces_share_depth_and_conserve_flux(star_sim_parts, mode):
    sim = make_sim(star_sim_parts, mode)
    state = sim.initial_state({1: Bump(amplitude_h=1e-3, center=0.7, width=0.4)})
    dt = 0.97 * sim.cfl_dt(state)
    for _ in range(20):
        state, _ = sim.step(state, dt)
    faces = sim.face_states(state)
    _, _, h_B, v_in = faces[1]
    flux_scale = STAR_ROOT_FLUX

    def face_flux(i, h, v, at_end):
        prof = sim.profiles[i]
        H_star = float(prof.H_faces[-1] if at_end else prof.H_faces[0])
        V_star = float(prof.V_faces[-1] if at_end else prof.V_faces[0])
        q = H_star * v + V_star * h
        if mode == "nonlinear":
            q += h * v
        return q

    total_out = 0.0
    for child in (2, 3, 4):
        h0, v0, _, _ = faces[child]
        assert h0 == h_B
        total_out += face_flux(child, h0, v0, at_end=False)
    total_in = face_flux(1, h_B, v_in, at_end=True)
    assert abs(total_in - total_out) <= 1e-10 * flux_scale


def test_mass_ledger_closes(star_sim_parts):
    _, _, weights = star_sim_parts
    trace = NetworkSimulator(weights, STAR_GAINS).run(BUMP, T=20.0)
    assert mass_balance(trace) <= 1e-10


def test_mass_ledger_closes_nonlinear(star_sim_parts):
    _, _, weights = star_sim_parts
    sim = NetworkSimulator(weights, STAR_GAINS, mode="nonlinear")
    trace = sim.run(BUMP, T=20.0)
    assert mass_balance(trace) <= 1e-10


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_cfl_violation_rejected(star_sim_parts, mode):
    # a nonlinear step takes its bound from the first stage's admission
    sim = make_sim(star_sim_parts, mode)
    state = sim.initial_state(BUMP)
    with pytest.raises(CflViolation):
        sim.step(state, 3.0 * sim.cfl_dt(state))


@pytest.mark.parametrize("option, value", [("sample_stride", 2.5), ("sample_stride", True)])
def test_bad_run_option_raises_value_error(star_sim_parts, option, value):
    sim = make_sim(star_sim_parts)
    with pytest.raises(ValueError, match=option):
        sim.run(BUMP, T=1.0, **{option: value})


def test_infinite_duration_raises_value_error(star_sim_parts):
    sim = make_sim(star_sim_parts)
    with pytest.raises(ValueError, match="T must be positive and finite"):
        sim.run(BUMP, T=math.inf)


@pytest.mark.parametrize("kwargs", [
    {"width": 0.0}, {"width": -0.5}, {"width": math.nan}, {"width": math.inf},
    {"amplitude_h": math.nan}, {"amplitude_v": math.inf}, {"center": math.nan},
])
def test_bump_rejects_values_that_are_not_finite_or_a_width_of_zero(kwargs):
    with pytest.raises(ValueError, match="bump"):
        Bump(**{"amplitude_h": 1e-3, **kwargs})


def test_supercritical_initial_state_rejected(star_sim_parts):
    sim = make_sim(star_sim_parts, "nonlinear")
    with pytest.raises(SubcriticalLoss):
        sim.initial_state({2: Bump(amplitude_h=-1.8, amplitude_v=-2.0, center=0.5, width=0.5)})


@pytest.mark.parametrize("cell", [50, 0])
def test_nonlinear_step_refuses_a_nan_cell(star_sim_parts, cell):
    # g H <= V^2 is False for NaN, so an admission written that way passed
    # the cell, and the root's cubic returns a NaN face for a NaN invariant
    # at the first cell: the step returned a NaN state without an error
    sim = make_sim(star_sim_parts, "nonlinear")
    state = sim.initial_state(None)
    dt = sim.cfl_dt(state)
    h, _ = sim.fields(state)[1]
    h[cell] = math.nan
    with pytest.raises(SubcriticalLoss) as exc:
        sim.step(state, dt)
    assert (exc.value.channel, exc.value.cell) == (1, cell)


def test_step_check_refuses_a_nan_bound(star_sim_parts):
    sim = make_sim(star_sim_parts)
    with pytest.raises(CflViolation):
        sim._check_step(1e-3, math.nan)


def test_dry_face_raises_subcritical_loss(star_sim_parts):
    # the outlet cell stays wet and subcritical, but its incoming invariant
    # lies below -2 sqrt(g H*), which no face depth can match
    sim = make_sim(star_sim_parts, "nonlinear")
    state = sim.initial_state(None)
    dry_outlet_cell(sim, state, 4)
    with pytest.raises(SubcriticalLoss) as exc:
        sim.step(state, sim.cfl_dt(state))
    assert (exc.value.channel, exc.value.face) == (4, "outlet")
    assert "outlet face" in str(exc.value)


@pytest.mark.parametrize("face", sorted(FACE_FAILURES))
def test_face_solve_failure_is_typed_and_stamped(star_sim_parts, monkeypatch, face):
    channel, end, pole_share, error, text = FACE_FAILURES[face]
    gain = pole_share * reflection_pole(star_sim_parts[1][channel])
    sim = make_sim(star_sim_parts, "nonlinear", gains={**STAR_GAINS, channel: gain})
    # the steady faces solve at that gain: only the nudge leaves no solution
    sim.run(None, T=1.0)
    initial_state = sim.initial_state

    def nudged(perturbation=None):
        state = initial_state(perturbation)
        nudge_face_cell(sim, state, channel, end)
        return state

    monkeypatch.setattr(sim, "initial_state", nudged)
    with pytest.raises(channet.errors.SimulationError) as exc:
        sim.run(None, T=1.0)
    assert type(exc.value) is getattr(channet.errors, error)
    assert text in str(exc.value)
    # the t = 0 sample solves the faces before the first step
    assert exc.value.sim_time == 0.0


def test_terminal_face_without_root_is_typed_and_stamped(star_sim_parts, monkeypatch):
    # a gain 1e-3 short of the reflection pole -sqrt(g / H) bounds the left
    # side of the feedback law k h + s(h) = y1 by about 1e-6 sqrt(g H), so
    # raising the outlet cell by 1e-4 m leaves the closed form no real root
    prof = star_sim_parts[1][4]
    pole = -math.sqrt(prof.gravity / float(prof.H_faces[-1]))
    sim = make_sim(star_sim_parts, "nonlinear", gains={**STAR_GAINS, 4: (1.0 - 1e-3) * pole})
    sim.run(None, T=1.0)
    initial_state = sim.initial_state

    def nudged(perturbation=None):
        state = initial_state(perturbation)
        nudge_face_cell(sim, state, 4, -1)
        return state

    monkeypatch.setattr(sim, "initial_state", nudged)
    with pytest.raises(TerminalSolveFailure) as exc:
        sim.run(None, T=1.0)
    assert "channel 4: terminal feedback has no face depth" in str(exc.value)
    assert exc.value.sim_time == 0.0


def test_linear_overflow_is_typed_and_stamped(star_sim_parts):
    # a gain 1e-9 past the ill-posed gain -sqrt(g / H) on channel 2 makes
    # the linear run grow until V overflows: the first sample whose V is not
    # finite raises, stamped with its own time, and numpy warns of nothing
    prof = star_sim_parts[1][2]
    k = (1.0 + 1e-9) * -math.sqrt(prof.gravity / float(prof.H_faces[-1]))
    sim = make_sim(star_sim_parts, gains={**STAR_GAINS, 2: k})
    T, stride = 20.0, 5
    dt = T / math.ceil(T / sim.cfl_dt(sim.initial_state(BUMP)))
    with pytest.raises(SimulationError, match="not finite") as exc:
        sim.run(BUMP, T=T, sample_stride=stride)
    n = round(exc.value.sim_time / dt)
    assert 0 < n * dt < T and n % stride == 0
    assert exc.value.sim_time == n * dt
    assert sim.final_state is None


def exact_shift(h, H, g):
    """2 (sqrt(g (H + h)) - sqrt(g H)) in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        h, H, g = decimal.Decimal(h), decimal.Decimal(H), decimal.Decimal(g)
        return float(2 * ((g * (H + h)).sqrt() - (g * H).sqrt()))


@pytest.mark.parametrize("fraction", [1e-3, 1e-6, 1e-9, 1e-12, -1e-3, -1e-12])
def test_nonlinear_shift_does_not_cancel(star_sim_parts, fraction):
    # the characteristic fields of a small perturbation h = fraction H
    # against the exact shift: the difference of two square roots would
    # lose about 1e-16 H / h of it, 4e-4 at 1e-12
    sim = make_sim(star_sim_parts, "nonlinear")
    y = np.concatenate((fraction * sim.Hc, np.zeros(sim.N)))
    s = sim._char_fields(y)[: sim.N]
    ref = np.array([exact_shift(h, H, g)
                    for h, H, g in zip(y[: sim.N].tolist(), sim.Hc.tolist(), sim.g.tolist())])
    assert np.all(np.abs(s - ref) <= 1e-15 * np.abs(ref))


def exact_root_depth(y2, V, H, g):
    """The face depth h of the root's mass flux (H + h) (y2 + s(h)) + V h = 0
    in 60-digit decimal arithmetic. In the face celerity e = sqrt(g (H + h)),
    g times the flux is e^2 (y2 + 2 (e - c)) + V (e^2 - c^2), c = sqrt(g H),
    increasing and convex right of its one positive root; Newton's method
    falls to that root from e = max(2 c - V - y2, c), which lies right of it
    for V < c, and stops where it no longer falls."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        y2, V, H, g = (decimal.Decimal(x) for x in (y2, V, H, g))
        c = (g * H).sqrt()
        e, last = max(2 * c - V - y2, c), None
        while last is None or e < last:
            wave = y2 + 2 * (e - c)
            last, e = e, e - (e * e * wave + V * (e * e - c * c)) / (2 * e * (wave + e + V))
        return float((e * e - c * c) / g)


@pytest.mark.parametrize("amplitude", [1e-1, 1e-3, 1e-6, 1e-9, 1e-12])
def test_root_face_depth_is_exact_at_small_amplitude(star_sim_parts, amplitude):
    # the cubic in d = e - c has the constant term y2 c^2, so its root falls
    # with y2 and keeps its relative accuracy; a solve stopped at an absolute
    # residual would keep about 2e-7 of it at y2 / c = 1e-6
    _, V, face = make_sim(star_sim_parts, "nonlinear")._root
    H, g, c, _ = face
    rng = np.random.default_rng(41)
    for y2 in (rng.uniform(-amplitude, amplitude, 20) * c).tolist():
        ref = exact_root_depth(y2, V, H, g)
        assert abs(_solve_relation(1.0, y2, V, face)[0] - ref) <= 1e-15 * abs(ref)


def test_root_face_depth_is_exact_at_extreme_inlet_states(star_sim_parts):
    # inlet cells from nearly dry to four times the steady depth, with
    # velocities up to 0.99 of the wave speed either way: where c + V + y2
    # <= 0 the linear step is no start, and the root is still found
    sim = make_sim(star_sim_parts, "nonlinear")
    _, V, face = sim._root
    H, g, c, _ = face
    Hc, Vc = float(sim.Hc[0]), float(sim.Vc[0])
    reversed_flow = 0
    for depth in (-0.9, -0.5, 0.5, 1.0, 2.0, 2.9):
        h = depth * Hc
        e = math.sqrt(g * (Hc + h))
        for froude in (-0.99, -0.6, -0.2, 0.2, 0.6, 0.99):
            y2 = froude * e - Vc - 2.0 * (e - math.sqrt(g * Hc))
            reversed_flow += c + V + y2 <= 0.0
            ref = exact_root_depth(y2, V, H, g)
            assert abs(_solve_relation(1.0, y2, V, face)[0] - ref) <= 1e-15 * abs(ref)
    assert reversed_flow >= 10


def test_reversed_inflow_at_the_root_has_a_wet_face(star_sim_parts):
    # channel 1's first cell at twice its steady depth with a velocity
    # deviation of -2 m/s is admitted, and its outgoing invariant has
    # c + V + y2 <= 0 at the root face. The cubic's root there is wet and
    # subcritical, although Newton on the flux from h = 0 steps to a
    # negative depth
    sim = make_sim(star_sim_parts, "nonlinear")
    state = sim.initial_state(None)
    h, v = sim.fields(state)[1]
    h[0], v[0] = sim.Hc[0], -2.0
    sim.cfl_dt(state)  # admits the state
    _, V, (H, g, c, _) = sim._root
    y2 = sim.fields(sim._char_fields(state))[1][1][0]
    assert c + V + y2 <= 0.0
    h0, v0, _, _ = sim.face_states(state)[1]
    assert H + h0 > 0.0 and abs(V + v0) < math.sqrt(g * (H + h0))
    assert abs((H + h0) * (V + v0) - H * V) <= 1e-14 * H * c


def test_root_solve_of_a_non_finite_invariant_returns_at_once(star_sim_parts):
    # the root's Newton loop has no iteration cap: a NaN or infinite
    # invariant stops it within two steps, with a NaN face
    _, V, face = make_sim(star_sim_parts, "nonlinear")._root
    faces = []
    worker = threading.Thread(daemon=True, target=lambda: faces.extend(
        _solve_relation(1.0, y2, V, face) for y2 in (math.nan, math.inf, -math.inf)))
    worker.start()
    worker.join(10.0)
    assert not worker.is_alive()
    assert len(faces) == 3 and all(math.isnan(x) for face in faces for x in face)


def star_terminal_faces(sim):
    """(H, g, c, site) of each terminal face of the simulator's network."""
    return [face for _, children, _, face in sim._outlets if not children]


def test_terminal_law_at_q_zero_is_the_linear_law(star_sim_parts):
    # the shared closed form at q = 0 against y1 / (k + g / c), and exactly
    # linear in y1: doubling y1 doubles the depth bit for bit
    faces = star_terminal_faces(make_sim(star_sim_parts))
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(2000):
        H, g, c, site = faces[int(rng.integers(len(faces)))]
        k, y1 = rng.uniform(-20.0, 20.0), rng.uniform(-1.0, 1.0)
        terminal = (0, (), k, (H, g, c, site))
        h, twice = (_outlet_depths(0.0, [y], [terminal])[0][0] for y in (y1, 2.0 * y1))
        ref = y1 / (k + g / c)
        worst = max(worst, abs(h - ref) / abs(ref))
        assert twice == 2.0 * h
    assert worst <= 1e-12


def test_terminal_law_at_q_one_solves_the_feedback_law(star_sim_parts):
    # k h + s(h) = y1 at the closed form's depth, for gains at least 5 % of
    # g / c away from the reflection pole -g / c at every star terminal
    faces = star_terminal_faces(make_sim(star_sim_parts, "nonlinear"))
    rng = np.random.default_rng(29)
    checked = 0
    for H, g, c, site in faces:
        pole = -g / c
        for _ in range(500):
            k = rng.uniform(-20.0, 20.0)
            if abs(k - pole) < 0.05 * abs(pole):
                continue
            y1 = rng.uniform(-0.2, 0.2) * c
            try:
                h = _outlet_depths(1.0, [y1], [(0, (), k, (H, g, c, site))])[0][0]
            except (TerminalSolveFailure, SubcriticalLoss):
                continue
            s = exact_shift(h, H, g)
            assert abs(k * h + s - y1) <= 1e-14 * max(abs(y1), abs(k * h), abs(s))
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("channel", [2, 3, 4])
def test_gain_at_the_reflection_pole_has_no_face_depth(star_sim_parts, mode, channel):
    # the feedback law k h + s(h) = y1 fixes no depth at k = -g / c. Both
    # ways of writing that gain are refused: at channel 2's outlet they
    # differ by an ulp, so a test for an exact zero misses one of them, and
    # a linear run then overflows without an error
    prof = star_sim_parts[1][channel]
    g, H = prof.gravity, float(prof.H_faces[-1])
    for k in (-g / math.sqrt(g * H), -math.sqrt(g / H)):
        with pytest.raises(TerminalSolveFailure, match=f"channel {channel}"):
            make_sim(star_sim_parts, mode, gains={**STAR_GAINS, channel: k}).run(None, T=1.0)


def test_missing_gain_rejected(star_sim_parts):
    _, _, weights = star_sim_parts
    with pytest.raises(MissingGain):
        NetworkSimulator(weights, {2: 0.0, 3: 0.0})


def test_perturbation_of_a_channel_not_in_the_network_rejected(star_sim_parts):
    sim = make_sim(star_sim_parts)
    with pytest.raises(ValueError, match="channel\\(s\\) 9, which are not in the network"):
        sim.run({**BUMP, 9: BUMP[2]}, T=1.0)


def test_run_rejects_nonpositive_horizon(star_sim_parts):
    sim = make_sim(star_sim_parts)
    with pytest.raises(ValueError):
        sim.run(BUMP, 0.0)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_finished_simulator_is_freed_by_reference_counting(star_sim_parts, mode):
    # a simulator and its final state form no reference cycle, so a finished
    # run's operators are freed as soon as the caller drops them
    sim = make_sim(star_sim_parts, mode)
    sim.run(BUMP, T=1.0)
    h, _ = sim.fields(sim.final_state)[2]
    assert np.any(h != 0.0)
    freed = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert freed() is None
    finally:
        gc.enable()


def test_zero_perturbation_gives_zero_trace(star_sim_parts):
    _, _, weights = star_sim_parts
    sim = NetworkSimulator(weights, STAR_GAINS)
    trace = sim.run(None, T=3.0)
    assert trace.zero_trace
    assert np.all(trace.V == 0.0)
    assert math.isnan(trace.nu_hat) and math.isnan(trace.r2)
    # a bump of zero amplitudes, -0.0 included, adds +0.0: the same zero trace
    zero = {2: Bump(amplitude_h=0.0, amplitude_v=-0.0)}
    y = sim.initial_state(zero)
    assert np.all(y == 0.0) and not np.any(np.signbit(y))
    again = sim.run(zero, T=3.0)
    assert again.zero_trace and math.isnan(again.nu_hat) and math.isnan(again.r2)
    for name in ("t", "V", "V_ext", "l2", "boundary_B", "mass_deviation", "mass_flux_integral"):
        assert getattr(again, name).tobytes() == getattr(trace, name).tobytes(), name


def test_pulse_travels_at_characteristic_speed():
    spec = ChannelSpec(id=1, length=100.0, friction=1e-4, cells=200)
    topo = NetworkTopology(
        channels={1: spec}, root_channel=1, junctions={}, split_fractions={}
    )
    profiles = solve_network_steady(topo, 2.0, 1.0)
    weights = network_weights(topo, profiles, 1e-6)
    sim = NetworkSimulator(weights, {1: 0.5})
    prof = profiles[1]
    center = 0.3 * spec.length
    s = math.sqrt(G / float(prof.depth(center)))
    # equal characteristic shares make a pure downstream wave
    bump = {1: Bump(amplitude_h=1e-4, amplitude_v=1e-4 * s, center=0.3, width=0.15)}
    state = sim.initial_state(bump)
    T = 6.0
    dt = sim.cfl_dt(state)
    n = math.ceil(T / dt)
    for _ in range(n):
        state, _ = sim.step(state, T / n)
    lam1 = float(prof.velocity(center)) + math.sqrt(G * float(prof.depth(center)))
    x_expected = center + lam1 * T
    x_peak = float(prof.x_centers[int(np.argmax(sim.fields(state)[1][0]))])
    assert abs(x_peak - x_expected) <= 3.0 * spec.length / spec.cells


def test_decay_fit_recovers_exact_rate():
    t = np.linspace(0.0, 10.0, 300)
    V = 3e-4 * np.exp(-0.37 * t)
    nu, r2 = decay_fit((t, V), (2.0, 10.0))
    assert nu == pytest.approx(0.37, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_constant_trace():
    t = np.linspace(0.0, 5.0, 50)
    V = 2.0 * np.ones_like(t)
    assert decay_fit((t, V), (0.0, 5.0)) == (0.0, 1.0)


def test_decay_fit_rejects_nonpositive_values():
    t = np.linspace(0.0, 5.0, 50)
    V = np.exp(-t)
    V[25] = 0.0
    with pytest.raises(NonPositiveV):
        decay_fit((t, V), (0.0, 5.0))


def test_decay_fit_needs_two_samples():
    t = np.linspace(0.0, 5.0, 50)
    V = np.exp(-t)
    with pytest.raises(ValueError):
        decay_fit((t, V), (6.0, 7.0))


def test_scheme_converges_at_first_order():
    # four samples of the 76, 151, 301 and 1203 steps of each grid
    strides = {100: 19, 200: 37, 400: 75, 1600: 300}
    errors = {}
    reference = None
    grids = (100, 200, 400)
    for cells in grids + (1600,):
        topo = small_star(cells=cells)
        profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
        weights = network_weights(topo, profiles, 1e-5)
        sim = NetworkSimulator(weights, STAR_GAINS)
        sim.run(BUMP, T=6.0, sample_stride=strides[cells])
        fields = {i: h for i, (h, _) in sim.fields(sim.final_state).items()}
        if cells == 1600:
            reference = fields
        else:
            errors[cells] = fields
    for cells, fields in errors.items():
        total = 0.0
        for i, h in fields.items():
            ref = reference[i].reshape(cells, 1600 // cells).mean(axis=1)
            dx = small_star(cells=cells).channels[i].length / cells
            total += float(np.sum(dx * (h - ref) ** 2))
        errors[cells] = math.sqrt(total)
    order_a = math.log2(errors[100] / errors[200])
    order_b = math.log2(errors[200] / errors[400])
    assert 0.7 <= order_a <= 1.3
    assert 0.7 <= order_b <= 1.3


def test_nonlinear_tracks_linear_at_small_amplitude(star_sim_parts):
    lin = make_sim(star_sim_parts, "linear")
    non = make_sim(star_sim_parts, "nonlinear")
    amp = 1e-4
    bump = {2: Bump(amplitude_h=amp, center=0.5, width=0.5)}
    sa = lin.initial_state(bump)
    sb = non.initial_state(bump)
    dt = 0.95 * min(lin.cfl_dt(sa), non.cfl_dt(sb))
    for _ in range(40):
        sa, _ = lin.step(sa, dt)
        sb, _ = non.step(sb, dt)
    gap = max(
        float(np.max(np.abs(lin.fields(sa)[i][0] - non.fields(sb)[i][0])))
        for i in lin.topo.channels
    )
    assert gap <= 50.0 * amp**2


# V, V_ext, l2 and B of small_star(cells=40), T = 20, as the per-channel
# simulator with scalar Newton face solves computed them, re-pinned for the
# certificate's closed-form comparison function and numpy's power in the
# couplings: V, V_ext and l2 moved by at most 6.9e-11 relative and B by
# 1.1e-9 of its largest value
PINNED = {
    "linear": {
        "t": (0.0, 4.9504950495049505, 9.900990099009901, 14.851485148514852, 19.801980198019802, 20.0),
        "V": (2.1438163160836117e-05, 1.3175931186513696e-05, 1.025620453892884e-05,
              8.680460256892379e-06, 7.294300355940001e-06, 7.2479139088175415e-06),
        "V_ext": (3.819951515759231e-05, 1.6376698230730277e-05, 1.1629032132485918e-05,
                  9.505261948038996e-06, 7.830268147544841e-06, 7.775925878408787e-06),
        "l2": (0.0035469157759611862, 0.004032167041064409, 0.00362885719168116,
               0.0035976964529200817, 0.002956167269898219, 0.0029659919816091332),
        "boundary_B": (0.0, 2.630711309214907e-08, 2.3011526718093677e-08,
                       4.957061062013339e-10, 4.638338864423268e-08, 4.971678869221125e-08),
    },
    "nonlinear": {
        "t": (0.0, 4.854368932038835, 9.70873786407767, 14.563106796116505, 19.41747572815534, 20.0),
        "V": (2.143401314093139e-05, 1.3309386156854207e-05, 1.0305369046715246e-05,
              8.770622174700026e-06, 7.387848121444046e-06, 7.2473973960005215e-06),
        "V_ext": (3.819070921690353e-05, 1.658129454412816e-05, 1.1711326580460825e-05,
                  9.619077215367542e-06, 7.939900885355894e-06, 7.775453430162426e-06),
        "l2": (0.003546915775961186, 0.004073563672146338, 0.0036206777436455415,
               0.003679838550240654, 0.0029348117456981524, 0.002965924060733936),
        "boundary_B": (0.0, 2.3006454209136544e-08, 2.5024825016251774e-08,
                       6.57166145692678e-10, 3.969631248948109e-08, 4.9726862857345965e-08),
    },
}


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_trace_matches_pinned_values(mode):
    topo = small_star(cells=40)
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    cert = certify_network(topo, profiles, STAR_GAINS)
    bump = {
        2: Bump(amplitude_h=1e-3, center=0.5, width=0.5),
        1: Bump(amplitude_v=5e-4, center=0.4, width=0.6),
    }
    sim = NetworkSimulator(cert.weights, STAR_GAINS, mode=mode)
    trace = sim.run(bump, T=20.0, sample_stride=25)  # 101 and 103 steps: four samples
    pins = PINNED[mode]
    assert np.array_equal(trace.t, pins["t"])
    for name in ("V", "V_ext", "l2"):
        assert np.allclose(getattr(trace, name), pins[name], rtol=1e-9, atol=0.0), name
    B = np.asarray(pins["boundary_B"])
    assert np.max(np.abs(trace.boundary_B - B)) <= 1e-9 * np.max(np.abs(B))


def test_linear_operator_is_jacobian_of_nonlinear_rhs(star_sim_parts):
    lin = make_sim(star_sim_parts, "linear")
    non = make_sim(star_sim_parts, "nonlinear")
    A = lin.A.toarray()
    n = A.shape[0]
    assert n == 2 * sum(spec.cells for spec in lin.topo.channels.values())
    step = 1e-7
    J = np.empty_like(A)
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        up = non.rhs(e)[0]
        down = non.rhs(-e)[0]
        J[:, j] = (up - down) / (2.0 * step)
    assert np.max(np.abs(J - A)) <= 1e-6 * np.max(np.abs(A))


def test_spectral_rate_lies_below_fitted_rate(star_sim_parts):
    # a fit over T = 200 still sees the faster transients of a non-normal
    # operator, so it overstates the asymptotic rate -2 max Re(lambda)
    sim = make_sim(star_sim_parts, "linear")
    nu_spectral = -2.0 * float(np.max(scipy.linalg.eigvals(sim.A.toarray()).real))
    assert nu_spectral == pytest.approx(0.00441, rel=5e-3)
    trace = sim.run(BUMP, T=200.0)
    assert trace.nu_hat == pytest.approx(0.00865, rel=5e-3)
    assert nu_spectral < trace.nu_hat


def reference_tendency(sim, y, face):
    """dy of the flat state y and its faces, channel by channel from two-sided
    face fluxes: at an interior face the mean of the left and right cells'
    fluxes less half of |A| times their jump, at a boundary face the flux of
    the face state; plus the friction source relative to the steady baseline."""
    q = sim.phys.quadratic
    faces = sim._face_dict(face)
    out = np.empty_like(y)

    def flux(h, v, H, V, g):
        return H * v + V * h + q * (h * v), V * v + q * (0.5 * v * v) + g * h

    fields, tendencies = sim.fields(y), sim.fields(out)
    for i in sim.ids:
        (h, v), (dh, dv) = fields[i], tendencies[i]
        pr, spec = sim.profiles[i], sim.profiles[i].spec
        g, C, p = spec.gravity, spec.friction, spec.friction_exponent
        H, V = pr.H_faces[1:-1], pr.V_faces[1:-1]
        c = np.sqrt(g * H)
        F1_l, F2_l = flux(h[:-1], v[:-1], H, V, g)
        F1_r, F2_r = flux(h[1:], v[1:], H, V, g)
        jh, jv = h[1:] - h[:-1], v[1:] - v[:-1]
        h0, v0, hL, vL = faces[i]
        B0 = flux(h0, v0, pr.H_faces[0], pr.V_faces[0], g)
        BL = flux(hL, vL, pr.H_faces[-1], pr.V_faces[-1], g)
        G1 = 0.5 * (F1_l + F1_r) - 0.5 * (c * jh + H * V / c * jv)
        G2 = 0.5 * (F2_l + F2_r) - 0.5 * (g * V / c * jh + c * jv)
        F1, F2 = (np.concatenate(([b0], G, [bL])) for b0, G, bL in zip(B0, (G1, G2), BL))
        Hc, Vc = pr.H_centers, pr.V_centers
        if q:
            source = -g * C * ((Vc + v) ** 2 / (Hc + h) ** p - Vc**2 / Hc**p)
        else:
            source = g * C * (p * Vc**2 / Hc ** (p + 1.0) * h - 2.0 * Vc / Hc**p * v)
        dx = spec.length / spec.cells
        dh[:] = (F1[:-1] - F1[1:]) / dx
        dv[:] = (F2[:-1] - F2[1:]) / dx + source
    return out


def face_residuals(sim, y, face):
    """(residual, scale) of every face relation, from the solved faces and the
    invariants of the cells next to them: the root's mass flux, a terminal's
    incoming invariant at the face against its cell's, and a junction's mass
    balance over H* + q h. The root's row comes first, its scale the flux
    H* sqrt(g H*); the outlet laws are held to the wave speed or the
    invariant, whichever is larger, so the junction's row shows that its
    velocity balance conserves mass."""
    q, topo = sim.phys.quadratic, sim.topo
    faces, fields = sim._face_dict(face), sim.fields(y)

    def shift(h, H, g):
        return 2.0 * (np.sqrt(g * (H + h)) - np.sqrt(g * H)) if q else h * np.sqrt(g / H)

    def inlet(i):  # mass flux at the face, and the cell's outgoing invariant y2
        pr, (h, v), (hf, vf, _, _) = sim.profiles[i], fields[i], faces[i]
        flux = pr.H_faces[0] * vf + pr.V_faces[0] * hf + q * hf * vf
        return flux, v[0] - shift(h[0], pr.H_centers[0], pr.gravity)

    def outlet(i):  # mass flux at the face, and the cell's incoming invariant y1
        pr, (h, v), (_, _, hf, vf) = sim.profiles[i], fields[i], faces[i]
        flux = pr.H_faces[-1] * vf + pr.V_faces[-1] * hf + q * hf * vf
        return flux, v[-1] + shift(h[-1], pr.H_centers[-1], pr.gravity)

    pr = sim.profiles[topo.root_channel]
    H = pr.H_faces[0]
    out = [(inlet(topo.root_channel)[0], H * np.sqrt(pr.gravity * H))]
    for j in topo.terminal_channels:
        pr, (_, _, hL, vL) = sim.profiles[j], faces[j]
        H, y1 = pr.H_faces[-1], outlet(j)[1]
        out.append((vL + shift(hL, H, pr.gravity) - y1, max(np.sqrt(pr.gravity * H), abs(y1))))
    for i in topo.internal_channels:
        pr, children = sim.profiles[i], topo.junctions[i]
        H, h = pr.H_faces[-1], faces[i][2]
        assert all(faces[c][0] == h for c in children)
        (flux_in, y1), out_flows = outlet(i), [inlet(c) for c in children]
        balance = (flux_in - sum(f for f, _ in out_flows)) / (H + q * h)
        a0 = y1 - sum(y2 for _, y2 in out_flows)
        out.append((balance, max(np.sqrt(pr.gravity * H), abs(a0))))
    return out


@pytest.fixture(scope="module")
def tree_parts():
    rng = np.random.default_rng(5)
    topo, H0, flux = draw_tree(rng)
    profiles = solve_network_steady(topo, H0, flux)
    gains = {j: admissible_gain(rng, profiles[j]) for j in topo.terminal_channels}
    cert = certify_network(topo, profiles, gains)
    assert cert.certified
    return topo, profiles, cert.weights, gains


@pytest.fixture(scope="module")
def zero_flux_parts():
    # the star with all of the root's flux in channel 2: the faces of
    # channels 3 and 4 carry V = 0, so the face-flux Jacobian holds zeros
    topo = dataclasses.replace(small_star(), split_fractions={1: (1.0, 0.0, 0.0)})
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    gains = {2: 0.0, 3: 0.5, 4: 0.5}
    cert = certify_network(topo, profiles, gains)
    assert cert.certified
    return topo, profiles, cert.weights, gains


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("network", ["star", "tree"])
def test_tendency_and_faces_match_two_sided_reference(star_sim_parts, tree_parts, network, mode):
    if network == "star":
        sim = make_sim(star_sim_parts, mode)
    else:
        _, _, weights, gains = tree_parts
        sim = NetworkSimulator(weights, gains, mode=mode)
    assert len(sim.topo.internal_channels) == (1 if network == "star" else 2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        # admissible: a few percent of the steady depth and of the wave speed
        y = np.concatenate((0.05 * sim.Hc, 0.05 * np.sqrt(sim.g * sim.Hc)))
        y *= rng.uniform(-1.0, 1.0, y.size)
        dy, face, _ = sim.rhs(y)
        ref = reference_tendency(sim, y, face)
        for block in (slice(0, sim.N), slice(sim.N, None)):
            assert np.max(np.abs(dy[block] - ref[block])) <= 1e-12 * np.max(np.abs(ref[block]))
        (root, scale), *outlets = face_residuals(sim, y, face)
        # the root's cubic is solved to rounding: at most 2.6e-17 measured
        assert abs(root) <= 1e-15 * scale
        for residual, scale in outlets:
            assert abs(residual) <= 1e-13 * scale


@pytest.mark.parametrize("network", ["star", "tree"])
def test_junction_is_the_outlet_law_at_gain_zero(star_sim_parts, tree_parts, network):
    # at q = 1 a junction fed by an outlet with invariant y1 and n children
    # with inlet invariants y2_c solves (n + 1) s(h) = y1 - sum y2_c in
    # closed form, and its faces balance velocity, v_in = sum v_c
    if network == "star":
        sim = make_sim(star_sim_parts, "nonlinear")
    else:
        _, _, weights, gains = tree_parts
        sim = NetworkSimulator(weights, gains, mode="nonlinear")
    rng = np.random.default_rng(31)
    for _ in range(20):
        # admissible: a few percent of the steady depth and of the wave speed
        y = np.concatenate((0.05 * sim.Hc, 0.05 * np.sqrt(sim.g * sim.Hc)))
        y *= rng.uniform(-1.0, 1.0, y.size)
        faces = sim.face_states(y)
        invariants = sim.fields(sim._char_fields(y))  # id -> (y1, y2) of every cell
        for i in sim.topo.internal_channels:
            children = sim.topo.junctions[i]
            pr = sim.profiles[i]
            H, g = float(pr.H_faces[-1]), pr.gravity
            c = math.sqrt(g * H)
            a0 = invariants[i][0][-1] - sum([invariants[k][1][0] for k in children])
            _, _, h, v_in = faces[i]
            s = exact_shift(h, H, g)
            assert abs((len(children) + 1) * s - a0) <= 1e-14 * abs(a0)
            v_out = sum(faces[k][1] for k in children)
            assert abs(v_in - v_out) <= 1e-14 * max(c, abs(a0) / (len(children) + 1))


def test_dry_junction_face_raises_subcritical_loss(star_sim_parts):
    # Y = -2.5 sqrt(g H*) leaves the junction's law no wet face depth; its
    # face is channel 1's outlet face
    sim = make_sim(star_sim_parts, "nonlinear")
    state = sim.initial_state(None)
    dry_junction(sim, state)
    with pytest.raises(SubcriticalLoss) as exc:
        sim.face_states(state)
    assert (exc.value.channel, exc.value.face) == (1, "outlet")
    assert "channel 1, outlet face" in str(exc.value)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_lyapunov_value_is_the_extended_pair_first_entry(star_sim_parts, mode):
    sim = make_sim(star_sim_parts, mode)
    rng = np.random.default_rng(37)
    for _ in range(10):
        y = rng.standard_normal(2 * sim.N) * np.concatenate((0.01 * sim.Hc, 0.01 * sim.Vc))
        assert sim.lyapunov_value_state(y) == sim.lyapunov_extended(y)[0]


def relative_gap(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("T, stride", [(200.0, None), (20.0, 1), (20.0, 13), (20.0, 16)])
def test_linear_run_matches_the_step_loop(star_sim_parts, T, stride):
    # the block propagator against the public step at the run's dt: the
    # default stride (6 of 2505 steps), one step per sample, and strides
    # that end in a partial block, with 251 steps a multiple of neither
    sim = make_sim(star_sim_parts, "linear")
    trace = sim.run(BUMP, T=T, sample_stride=stride)
    nsteps = round(T / trace.dt)
    assert T / nsteps == trace.dt
    every = stride or nsteps // DEFAULT_SAMPLES
    assert every == 1 or nsteps % every != 0
    state = sim.initial_state(BUMP)
    flux, rows = 0.0, [(0.0, 0.0, *sim._sample(state))]
    for n in range(1, nsteps + 1):
        state, dflux = sim.step(state, trace.dt)
        flux += dflux
        if n % every == 0 or n == nsteps:
            rows.append((n * trace.dt, flux, *sim._sample(state)))
    t, flux, V, V_ext, B, mass, *norms = np.array(rows).T
    assert np.array_equal(trace.t, t)
    assert relative_gap(trace.V, V) <= 1e-12
    assert relative_gap(trace.V_ext, V_ext) <= 1e-12
    assert relative_gap(trace.boundary_B, B) <= 1e-12
    assert relative_gap(trace.mass_deviation, mass) <= 1e-12
    assert relative_gap(trace.mass_flux_integral, flux) <= 1e-12
    assert relative_gap(trace.l2, np.sqrt(np.sum(np.square(norms), axis=0))) <= 1e-12
    for i, norm in zip(sim.ids, norms):
        assert relative_gap(trace.channel_l2[i], norm) <= 1e-12
    assert relative_gap(sim.final_state, state) <= 1e-12


@pytest.mark.parametrize("network", ["star", "tree"])
def test_stacked_observation_matches_instrumentation(star_sim_parts, tree_parts, network):
    if network == "star":
        sim = make_sim(star_sim_parts, "linear")
    else:
        _, _, weights, gains = tree_parts
        sim = NetworkSimulator(weights, gains)
    rng = np.random.default_rng(13)
    for _ in range(10):
        y = rng.standard_normal(2 * sim.N) * np.concatenate((0.01 * sim.Hc, 0.01 * sim.Vc))
        V, V_ext, B, mass, *norms = sim._observe(y)
        ref = sim._sample(y)
        assert (V, V_ext) == pytest.approx(sim.lyapunov_extended(y), rel=1e-12, abs=0.0)
        assert B == pytest.approx(sim.boundary_form(y), rel=1e-12, abs=0.0)
        assert mass == float(sim.dx @ y[: sim.N])
        assert norms == pytest.approx(ref[4:], rel=1e-12, abs=0.0)
        assert len(norms) == sim.m


@pytest.mark.parametrize("network", ["star", "tree"])
def test_nonlinear_extended_value_matches_two_products(star_sim_parts, tree_parts, network):
    # a nonlinear sample takes L z and L^2 z from one product with the
    # stacked [L; L^2]; against L applied twice to the characteristic fields
    if network == "star":
        sim = make_sim(star_sim_parts, "nonlinear")
    else:
        _, _, weights, gains = tree_parts
        sim = NetworkSimulator(weights, gains, mode="nonlinear")
    L = sim._LL[: 2 * sim.N]
    rng = np.random.default_rng(19)
    for _ in range(10):
        y = rng.standard_normal(2 * sim.N) * np.concatenate((0.01 * sim.Hc, 0.01 * sim.Vc))
        z = sim._char_fields(y)
        z1 = L @ z
        V, V1, V2 = (float(sim._wf @ (a * a)) for a in (z, z1, L @ z1))
        got = sim.lyapunov_extended(y)
        assert got == pytest.approx((V, V + V1 + V2), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("network", ["star", "tree", "zero-flux"])
def test_operators_are_the_linear_physics(star_sim_parts, tree_parts, zero_flux_parts, network):
    # A, F and the influx row against the linear rhs and face solve that
    # every other linear method runs
    if network == "star":
        sim = make_sim(star_sim_parts, "linear")
    else:
        _, _, weights, gains = tree_parts if network == "tree" else zero_flux_parts
        sim = NetworkSimulator(weights, gains)
    rng = np.random.default_rng(17)
    for _ in range(10):
        y = rng.standard_normal(2 * sim.N) * np.concatenate((0.01 * sim.Hc, 0.01 * sim.Vc))
        dy, face, influx = sim.rhs(y)
        assert relative_gap(sim.A @ y, dy) <= 1e-12
        assert relative_gap(sim.F @ y, np.ravel(face)) <= 1e-12
        assert np.array_equal(face, sim.face_states(y, flat=True))
        assert abs(sim._influx @ y - influx) <= 1e-12 * abs(influx)


def test_linear_build_runs_no_tendency_probe(star_sim_parts, monkeypatch):
    # T and the influx row come from two boundary-flux calls, not from the
    # tendency of each unit face
    calls = []
    tendency = NetworkSimulator._tendency
    monkeypatch.setattr(NetworkSimulator, "_tendency",
                        lambda self, *args: calls.append(args) or tendency(self, *args))
    sim = make_sim(star_sim_parts, "linear")
    assert calls == []
    sim.rhs(np.zeros(2 * sim.N))  # the spy sees a tendency once one is taken
    assert len(calls) == 1


def test_faces_depend_only_on_the_state(star_sim_parts):
    # a stepped state and a fresh copy of its y solve to the same faces,
    # bit for bit: no face solve starts from faces an earlier stage left
    sim = make_sim(star_sim_parts, "nonlinear")
    state = sim.initial_state({1: Bump(amplitude_h=1e-3, center=0.7, width=0.4)})
    dt = 0.97 * sim.cfl_dt(state)
    for _ in range(20):
        state, _ = sim.step(state, dt)
    fresh = state.copy()
    (dy, face, influx), (dy0, face0, influx0) = sim.rhs(state), sim.rhs(fresh)
    assert np.any(np.array(face) != 0.0)
    assert np.array_equal(dy, dy0) and np.array_equal(face, face0) and influx == influx0
    assert np.array_equal(sim.face_states(state, flat=True), sim.face_states(fresh, flat=True))


def test_linear_face_solve_is_exact_at_any_amplitude(star_sim_parts):
    # the linear face relations end after their one exact step: no absolute
    # residual test refuses the rounding of a state of amplitude up to 1e12
    sim = make_sim(star_sim_parts, "linear")
    rng = np.random.default_rng(31)
    for _ in range(2000):
        y = rng.standard_normal(2 * sim.N) * 10.0 ** rng.uniform(0.0, 12.0)
        face = sim._solve_faces(y)[0]
        assert relative_gap(np.ravel(face), sim.F @ y) <= 1e-12


@pytest.fixture(scope="module")
def t40_parts():
    # T40/1, 14 junctions of 2 or 3 children, at the rung where the ladder
    # certifies it
    topo, H0, flux, gains = draw_random_tree(40, 1)
    profiles = solve_network_steady(topo, H0, flux)
    return topo, profiles, network_weights(topo, profiles, DEFAULT_EPSILON * 0.5**22), gains


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("network", ["star", "tree", "zero-flux", "T40/1"])
def test_operators_match_the_bmat_assembly_entry_for_entry(star_sim_parts, tree_parts,
                                                            zero_flux_parts, t40_parts,
                                                            network, mode):
    # a product sums in the entry order of its operands, so the operators of
    # the one-pass assembly hold the same entries in the same order as the
    # chains of diags, block_diag and bmat: every product a run takes is then
    # the same to the bit. M is the step matrix at the dt of a run to T = 200
    if network == "star":
        sim = make_sim(star_sim_parts, mode)
    else:
        parts = {"tree": tree_parts, "zero-flux": zero_flux_parts, "T40/1": t40_parts}[network]
        _, _, weights, gains = parts
        sim = NetworkSimulator(weights, gains, mode=mode)
    N = sim.N
    got = {"L": sim._LL[: 2 * N], "LL": sim._LL}
    dt = None
    if mode == "linear":
        # 2505, 113, 2449 and 26 steps: two samples
        stride = {"star": 1252, "tree": 56, "zero-flux": 1224, "T40/1": 13}[network]
        dt = sim.run(None, T=200.0, sample_stride=stride).dt
        got |= {"F": sim.F, "A": sim.A, "O": sim._O, "W": sim._W, "M": sim._heun(dt)[0]}
    ref = operators_by_bmat(sim, dt)
    assert sorted(got) == sorted(ref)
    for name, op in got.items():
        assert op.shape == ref[name].shape, name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op, part), getattr(ref[name], part)), (name, part)


def test_linear_build_probes_the_faces_with_the_end_entries_alone():
    # F is probed with unit lists of the 4m end entries that a face reads,
    # not with rows of a dense (4m x 2N) state array: T161/1's linear build
    # peaks below that array's 4m 2N 8 bytes (39.8 MB), where a build that
    # made it peaked at 57.7 MB
    topo, H0, flux, gains = draw_random_tree(161, 1)
    weights = network_weights(topo, solve_network_steady(topo, H0, flux), 1e-12)
    tracemalloc.start()
    try:
        sim = NetworkSimulator(weights, gains, mode="linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sim.m, sim.N) == (161, 3864)
    assert peak < 4 * sim.m * 2 * sim.N * 8


@pytest.mark.parametrize("network", ["star", "tree"])
def test_characteristic_operator_is_its_definition(star_sim_parts, tree_parts, network):
    # L [y1; y2] = [-lam1 dx y1 - gamma1 y1 - delta1 y2; lam2 dx y2 - gamma2 y1
    # - delta2 y2], dx per channel by np.gradient at the cell centers, and
    # the coefficients at the centers, the slice [R/2::R] of the fine grid
    if network == "star":
        sim = make_sim(star_sim_parts, "nonlinear")
    else:
        _, _, weights, gains = tree_parts
        sim = NetworkSimulator(weights, gains, mode="nonlinear")
    R = FINE_REFINEMENT

    def at_centers(name):
        return np.concatenate([getattr(sim.weights.channels[i].coeffs, name)[R // 2 :: R]
                               for i in sim.ids])

    lam1, lam2, g1, d1, g2, d2 = map(at_centers, ("lambda1", "lambda2", "gamma1", "delta1",
                                                   "gamma2", "delta2"))

    def dx(f):
        return np.concatenate([np.gradient(f[sh], sim.profiles[i].x_centers, edge_order=1)
                               for i, sh, _ in sim._slices])

    L = sim._LL[: 2 * sim.N]
    rng = np.random.default_rng(23)
    for _ in range(5):
        y1, y2 = rng.standard_normal((2, sim.N))
        got = L @ np.concatenate((y1, y2))
        ref = (-lam1 * dx(y1) - g1 * y1 - d1 * y2, lam2 * dx(y2) - g2 * y1 - d2 * y2)
        assert relative_gap(got[: sim.N], ref[0]) <= 1e-12
        assert relative_gap(got[sim.N :], ref[1]) <= 1e-12
