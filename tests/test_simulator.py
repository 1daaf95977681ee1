"""Finite-volume network integrator: exactness, faces, stability, decay."""

import decimal
import gc
import math
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
    SubcriticalLoss,
    TerminalSolveFailure,
)
from channet.simulate import (
    DEFAULT_SAMPLES,
    Bump,
    NetworkSimulator,
    SimState,
    _face_shift,
    _terminal_depths,
    decay_fit,
    mass_balance,
)
from channet.steady import solve_network_steady
from channet.topology import ChannelSpec, NetworkTopology
from channet.weights import certify_network, network_weights

from conftest import (
    FACE_FAILURES,
    G,
    STAR_GAINS,
    STAR_ROOT_DEPTH,
    STAR_ROOT_FLUX,
    admissible_gain,
    draw_tree,
    dry_outlet_cell,
    nudge_face_cell,
    small_star,
)


@pytest.fixture(scope="module")
def star_sim_parts(star_profiles):
    topo, profiles = star_profiles
    cert = certify_network(topo, profiles, STAR_GAINS)
    assert cert.certified
    return topo, profiles, cert.weights


def make_sim(parts, mode="linear", gains=None):
    topo, profiles, weights = parts
    return NetworkSimulator(
        topo, profiles, gains or STAR_GAINS, weights=weights, mode=mode
    )


BUMP = {2: Bump(amplitude_h=1e-3, center=0.5, width=0.5)}


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_steady_state_preserved_exactly(star_sim_parts, mode):
    sim = make_sim(star_sim_parts, mode)
    state = sim.initial_state(None)
    dt = sim.cfl_dt(state)
    for _ in range(50):
        state, _ = sim.step(state, dt)
    for i in sim.topo.channels:
        h, v = sim.fields(state.y)[i]
        assert np.all(h == 0.0)
        assert np.all(v == 0.0)


def test_initial_bump_is_compatible(star_sim_parts):
    sim = make_sim(star_sim_parts)
    state = sim.initial_state(BUMP)
    h, v = sim.fields(state.y)[2]
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
        ha, _ = sim.fields(state_a.y)[i]
        hb, _ = sim.fields(state_b.y)[i]
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
    assert abs(residual) <= 1e-11 * sim.root_flux


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
    flux_scale = sim.root_flux

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
    topo, profiles, weights = star_sim_parts
    trace = NetworkSimulator(topo, profiles, STAR_GAINS, weights=weights).run(BUMP, T=20.0)
    assert mass_balance(trace) <= 1e-10


def test_mass_ledger_closes_nonlinear(star_sim_parts):
    topo, profiles, weights = star_sim_parts
    sim = NetworkSimulator(topo, profiles, STAR_GAINS, weights=weights, mode="nonlinear")
    trace = sim.run(BUMP, T=20.0)
    assert mass_balance(trace) <= 1e-10


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_cfl_violation_rejected(star_sim_parts, mode):
    # a nonlinear step takes its bound from the first stage's admission
    sim = make_sim(star_sim_parts, mode)
    state = sim.initial_state(BUMP)
    with pytest.raises(CflViolation):
        sim.step(state, 3.0 * sim.cfl_dt(state))


@pytest.mark.parametrize("option, value", [
    ("max_samples", 0), ("max_samples", -1), ("sample_stride", 2.5), ("sample_stride", True),
])
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
    channel, end, error, text = FACE_FAILURES[face]
    sim = make_sim(star_sim_parts, "nonlinear")
    initial_state = sim.initial_state

    def nudged(perturbation=None):
        state = initial_state(perturbation)
        nudge_face_cell(sim, state, channel, end)
        return state

    monkeypatch.setattr(sim, "initial_state", nudged)
    # the nudged state itself is admissible: the solves converge given iterations
    sim.run(None, T=1.0)
    monkeypatch.setattr(channet.simulate, "NEWTON_MAX_ITER", 0)
    with pytest.raises(channet.errors.SimulationError) as exc:
        sim.run(None, T=1.0)
    assert type(exc.value) is getattr(channet.errors, error)
    assert text in str(exc.value)
    if face == "junction":
        assert exc.value.channel == channel
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


def star_terminal_faces(sim):
    """(H, g, c, site) of each terminal face of the simulator's network."""
    return [face for _, _, face, _ in sim._terminals]


def test_terminal_law_at_q_zero_is_the_linear_law(star_sim_parts):
    # the shared closed form at q = 0 against y1 / (k + g / c), and exactly
    # linear in y1: doubling y1 doubles the depth bit for bit
    faces = star_terminal_faces(make_sim(star_sim_parts))
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(2000):
        H, g, c, site = faces[int(rng.integers(len(faces)))]
        k, y1 = rng.uniform(-20.0, 20.0), rng.uniform(-1.0, 1.0)
        terminal = (0, k, (H, g, c, site), TerminalSolveFailure)
        h, twice = (_terminal_depths(0.0, [y], [terminal])[0] for y in (y1, 2.0 * y1))
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
                h = _terminal_depths(1.0, [y1], [(0, k, (H, g, c, site), TerminalSolveFailure)])[0]
            except (TerminalSolveFailure, SubcriticalLoss):
                continue
            s = _face_shift(h, 1.0, H, g, c, site)[0]
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
    topo, profiles, weights = star_sim_parts
    with pytest.raises(MissingGain):
        NetworkSimulator(topo, profiles, {2: 0.0, 3: 0.0}, weights=weights)


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
    h, _ = sim.fields(sim.final_state.y)[2]
    assert np.any(h != 0.0)
    freed = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert freed() is None
    finally:
        gc.enable()


def test_zero_perturbation_gives_zero_trace(star_sim_parts):
    topo, profiles, weights = star_sim_parts
    trace = NetworkSimulator(topo, profiles, STAR_GAINS, weights=weights).run(None, T=3.0)
    assert trace.zero_trace
    assert np.all(trace.V == 0.0)
    assert math.isnan(trace.nu_hat) and math.isnan(trace.r2)


def test_pulse_travels_at_characteristic_speed():
    spec = ChannelSpec(id=1, length=100.0, friction=1e-4, cells=200)
    topo = NetworkTopology(
        channels={1: spec}, root_channel=1, junctions={}, split_fractions={}
    )
    profiles = solve_network_steady(topo, 2.0, 1.0)
    weights = network_weights(topo, profiles, 1e-6)
    sim = NetworkSimulator(topo, profiles, {1: 0.5}, weights=weights)
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
    x_peak = float(prof.x_centers[int(np.argmax(sim.fields(state.y)[1][0]))])
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
    errors = {}
    reference = None
    grids = (100, 200, 400)
    for cells in grids + (1600,):
        topo = small_star(cells=cells)
        profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
        weights = network_weights(topo, profiles, 1e-5)
        sim = NetworkSimulator(topo, profiles, STAR_GAINS, weights=weights)
        sim.run(BUMP, T=6.0, max_samples=4)
        fields = {i: h for i, (h, _) in sim.fields(sim.final_state.y).items()}
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
        float(np.max(np.abs(lin.fields(sa.y)[i][0] - non.fields(sb.y)[i][0])))
        for i in lin.topo.channels
    )
    assert gap <= 50.0 * amp**2


# V, V_ext, l2 and B of small_star(cells=40), T = 20, as the per-channel
# simulator with scalar Newton face solves computed them
PINNED = {
    "linear": {
        "t": (0.0, 4.9504950495049505, 9.900990099009901, 14.851485148514852, 19.801980198019802, 20.0),
        "V": (2.1438163160871807e-05, 1.3175931186531002e-05, 1.0256204538934502e-05,
              8.680460256902896e-06, 7.29430035595109e-06, 7.247913908828348e-06),
        "V_ext": (3.81995151576559e-05, 1.637669823074996e-05, 1.1629032132492457e-05,
                  9.50526194805026e-06, 7.830268147556888e-06, 7.775925878420556e-06),
        "l2": (0.0035469157759611854, 0.004032167041063241, 0.003628857191680532,
               0.003597696452919258, 0.0029561672698990953, 0.0029659919816098037),
        "boundary_B": (0.0, 2.6307113095187377e-08, 2.3011526718893084e-08,
                       4.957061064350993e-10, 4.638338864616344e-08, 4.971678869422203e-08),
    },
    "nonlinear": {
        "t": (0.0, 4.854368932038835, 9.70873786407767, 14.563106796116505, 19.41747572815534, 20.0),
        "V": (2.1434013140966676e-05, 1.3309386156804181e-05, 1.0305369046149133e-05,
              8.770622174174779e-06, 7.387848120941268e-06, 7.247397395512864e-06),
        "V_ext": (3.819070921697437e-05, 1.658129454418719e-05, 1.171132657995749e-05,
                  9.619077214821453e-06, 7.939900884851411e-06, 7.77545342967475e-06),
        "l2": (0.0035469157759611854, 0.004073563672192575, 0.003620677743568532,
               0.003679838550173914, 0.0029348117455674787, 0.002965924060590944),
        "boundary_B": (0.0, 2.300645425940177e-08, 2.5024825034493062e-08,
                       6.571661495377207e-10, 3.9696312488143096e-08, 4.97268628597833e-08),
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
    sim = NetworkSimulator(topo, profiles, STAR_GAINS, weights=cert.weights, mode=mode)
    trace = sim.run(bump, T=20.0, max_samples=4)
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
    face = np.zeros((2, 2 * non.m))
    step = 1e-7
    J = np.empty_like(A)
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        up = non.rhs(SimState(0.0, e, face))[0]
        down = non.rhs(SimState(0.0, -e, face))[0]
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
    balance over H* + q h. The scales are those at which the face solve stops."""
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


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("network", ["star", "tree"])
def test_tendency_and_faces_match_two_sided_reference(star_sim_parts, tree_parts, network, mode):
    if network == "star":
        sim = make_sim(star_sim_parts, mode)
    else:
        topo, profiles, weights, gains = tree_parts
        sim = NetworkSimulator(topo, profiles, gains, weights=weights, mode=mode)
    assert len(sim.topo.internal_channels) == (1 if network == "star" else 2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        # admissible: a few percent of the steady depth and of the wave speed
        y = np.concatenate((0.05 * sim.Hc, 0.05 * np.sqrt(sim.g * sim.Hc)))
        y *= rng.uniform(-1.0, 1.0, y.size)
        state = SimState(0.0, y, np.zeros((2, 2 * sim.m)))
        dy, face, _ = sim.rhs(state)
        ref = reference_tendency(sim, y, face)
        for block in (slice(0, sim.N), slice(sim.N, None)):
            assert np.max(np.abs(dy[block] - ref[block])) <= 1e-12 * np.max(np.abs(ref[block]))
        for residual, scale in face_residuals(sim, y, face):
            assert abs(residual) <= channet.simulate.NEWTON_TOL * scale


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
    assert relative_gap(sim.final_state.y, state.y) <= 1e-12


@pytest.mark.parametrize("network", ["star", "tree"])
def test_stacked_observation_matches_instrumentation(star_sim_parts, tree_parts, network):
    if network == "star":
        sim = make_sim(star_sim_parts, "linear")
    else:
        topo, profiles, weights, gains = tree_parts
        sim = NetworkSimulator(topo, profiles, gains, weights=weights)
    rng = np.random.default_rng(13)
    for _ in range(10):
        y = rng.standard_normal(2 * sim.N) * np.concatenate((0.01 * sim.Hc, 0.01 * sim.Vc))
        state = SimState(0.0, y, None)
        V, V_ext, B, mass, *norms = sim._observe(y)
        ref = sim._sample(state)
        assert (V, V_ext) == pytest.approx(sim.lyapunov_extended(state), rel=1e-12, abs=0.0)
        assert B == pytest.approx(sim.boundary_form(state), rel=1e-12, abs=0.0)
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
        topo, profiles, weights, gains = tree_parts
        sim = NetworkSimulator(topo, profiles, gains, weights=weights, mode="nonlinear")
    L = sim._LL[: 2 * sim.N]
    rng = np.random.default_rng(19)
    for _ in range(10):
        y = rng.standard_normal(2 * sim.N) * np.concatenate((0.01 * sim.Hc, 0.01 * sim.Vc))
        z = sim._char_fields(y)
        z1 = L @ z
        V, V1, V2 = (float(sim._wf @ (a * a)) for a in (z, z1, L @ z1))
        got = sim.lyapunov_extended(SimState(0.0, y, None))
        assert got == pytest.approx((V, V + V1 + V2), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("network", ["star", "tree"])
def test_operators_are_the_linear_physics(star_sim_parts, tree_parts, network):
    # A, F and the influx row against the linear rhs and face solve that
    # every other linear method runs
    if network == "star":
        sim = make_sim(star_sim_parts, "linear")
    else:
        topo, profiles, weights, gains = tree_parts
        sim = NetworkSimulator(topo, profiles, gains, weights=weights)
    rng = np.random.default_rng(17)
    for _ in range(10):
        y = rng.standard_normal(2 * sim.N) * np.concatenate((0.01 * sim.Hc, 0.01 * sim.Vc))
        state = SimState(0.0, y, None)
        dy, face, influx = sim.rhs(state)
        assert relative_gap(sim.A @ y, dy) <= 1e-12
        assert relative_gap(sim.F @ y, face.ravel()) <= 1e-12
        assert np.array_equal(face, sim.face_states(state, flat=True))
        assert abs(sim._influx @ y - influx) <= 1e-12 * abs(influx)
