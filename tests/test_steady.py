"""Steady profiles against the closed-form depth potential."""

import dataclasses
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
import scipy.integrate

from channet.errors import (
    NegativeFlux,
    SteadyStateBlowup,
    SupercriticalStart,
)
from channet.steady import (
    _potential_drop,
    critical_depth,
    integrate_channel_steady,
    solve_network_steady,
)
from channet.topology import ChannelSpec, NetworkTopology
import channet.steady as steady_module
import channet.weights as weights_module

from conftest import (
    G,
    P_CHOICES,
    STAR_ROOT_DEPTH,
    STAR_ROOT_FLUX,
    blowup_bound_by_brentq,
    blowup_depth_by_brentq,
    closed_form_blowup,
    criterion_05_networks,
    depth_by_bisection,
    depth_by_channel_newton,
    depth_potential,
    draw_channel,
    draw_random_tree,
    draw_star,
    draw_tree,
    small_star,
    steady_depth_by_ode,
    steady_rhs,
)


def test_profile_satisfies_potential_relation():
    rng = np.random.default_rng(101)
    for _ in range(15):
        spec, H0, flux = draw_channel(rng)
        prof = integrate_channel_steady(spec, H0, flux)
        x = np.linspace(0.0, spec.length, 300)
        H = prof.depth(x)
        lhs = depth_potential(H, flux, spec.friction_exponent)
        rhs = depth_potential(H0, flux, spec.friction_exponent) - G * spec.friction * flux**2 * x
        drop = abs(lhs[0] - lhs[-1])
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(drop, abs(lhs[0]))


def test_blowup_bound_matches_closed_form():
    rng = np.random.default_rng(202)
    for _ in range(10):
        spec, H0, flux = draw_channel(rng, length_fraction=0.5)
        prof = integrate_channel_steady(spec, H0, flux)
        x0 = closed_form_blowup(H0, flux, spec.friction, spec.friction_exponent)
        assert prof.blowup_bound == pytest.approx(x0, rel=1e-5)


def test_blowup_bound_is_potential_drop_to_margin_threshold():
    # The bound is the abscissa where g H - V^2 falls to MARGIN_TOL * g * H0:
    # the potential drop from H0 to that depth over g C Q^2.
    rng = np.random.default_rng(303)
    for p in P_CHOICES:
        for _ in range(4):
            base, H0, flux = draw_channel(rng)
            x0 = closed_form_blowup(H0, flux, base.friction, p)
            spec = dataclasses.replace(base, friction_exponent=p, length=0.5 * x0)
            prof = integrate_channel_steady(spec, H0, flux)
            threshold = steady_module.MARGIN_TOL * G * H0
            roots = np.roots([G, -threshold, 0.0, -flux * flux])
            H_t = max(r.real for r in roots if abs(r.imag) < 1e-12)
            assert critical_depth(flux, G) < H_t < H0
            drop = depth_potential(H0, flux, p) - depth_potential(H_t, flux, p)
            expected = drop / (G * spec.friction * flux * flux)
            assert prof.blowup_bound == pytest.approx(expected, rel=1e-10)
            assert prof.blowup_bound < x0


@pytest.fixture
def newton_steps(monkeypatch):
    """Steps of each blow-up depth solve, one residual evaluation each."""
    steps = []
    excess, blowup_depth = steady_module._margin_excess, steady_module._blowup_depth

    def counted_excess(*args):
        steps[-1] += 1
        return excess(*args)

    def counted_solve(*args):
        steps.append(0)
        return blowup_depth(*args)

    monkeypatch.setattr(steady_module, "_margin_excess", counted_excess)
    monkeypatch.setattr(steady_module, "_blowup_depth", counted_solve)
    return steps


def _blowup_depth(H0, flux, g=G):
    return steady_module._blowup_depth(H0, flux, steady_module.MARGIN_TOL * g * H0, g)


@pytest.fixture(scope="module")
def suite_profiles():
    """The 363 channels of the criterion-5 suite, then the README star's 4."""
    rng = np.random.default_rng(31514)
    networks = [draw_star(rng, 2 + int(rng.integers(5))) for _ in range(50)]
    networks += [draw_tree(rng) for _ in range(20)]
    networks.append((small_star(), STAR_ROOT_DEPTH, STAR_ROOT_FLUX))
    profiles = [p for net in networks for p in solve_network_steady(*net).values()]
    assert len(profiles) == 363 + 4
    return profiles


def test_blowup_depth_newton_matches_brentq(newton_steps, suite_profiles):
    # on the README star, the 363 channels of the criterion-5 suite, a branch
    # carrying 1e-8 of the flux and a grid of depths and fluxes
    profiles = list(suite_profiles)
    tiny = ChannelSpec(id=1, length=80.0, friction=2e-3, cells=16)
    profiles.append(integrate_channel_steady(tiny, profiles[-1].inlet_depth, 1e-8))
    assert 0.5e-6 < _blowup_depth(profiles[-1].inlet_depth, 1e-8) / profiles[-1].inlet_depth < 2e-6
    for prof in profiles:
        H0, flux = prof.inlet_depth, prof.flux
        H_t = _blowup_depth(H0, flux, prof.gravity)
        assert abs(H_t / blowup_depth_by_brentq(H0, flux, prof.gravity) - 1.0) <= 1e-15
        assert abs(prof.blowup_bound / blowup_bound_by_brentq(prof.spec, H0, flux) - 1.0) <= 1e-15
    for H0 in np.geomspace(0.05, 10.0, 12).tolist():
        for flux in np.geomspace(1e-8, 5.0, 12).tolist():
            if G * H0 - (flux / H0) ** 2 > steady_module.MARGIN_TOL * G * H0:
                assert abs(_blowup_depth(H0, flux) / blowup_depth_by_brentq(H0, flux) - 1.0) <= 1e-15
    assert max(newton_steps) <= 60


def test_blowup_depth_at_the_margin_tolerance(newton_steps):
    # an inlet margin just above MARGIN_TOL g H0: H_t lies within about 1e-12
    # of H0, and the channel is refused at once. The bound itself is the
    # difference of two nearly equal potentials there, so only H_t is compared.
    H0 = 2.0
    threshold = steady_module.MARGIN_TOL * G * H0
    flux = H0 * math.sqrt(G * H0 - threshold * (1.0 + 1e-6))
    assert G * H0 - (flux / H0) ** 2 > threshold
    H_t = _blowup_depth(H0, flux)
    assert 0.0 < 1.0 - H_t / H0 < 1e-11
    assert abs(H_t / blowup_depth_by_brentq(H0, flux) - 1.0) <= 1e-15
    spec = ChannelSpec(id=1, length=10.0, friction=2e-3, cells=16)
    with pytest.raises(SteadyStateBlowup):
        integrate_channel_steady(spec, H0, flux)
    assert max(newton_steps) <= 60


def potential_drop_by_decimal(H0, H_t, flux, p, g):
    """P(H0) - P(H_t) in 60-digit decimal arithmetic from the binary64 inputs."""
    getcontext().prec = 60

    def P(H):
        H, n = Decimal(H), Decimal(p)
        Q2 = Decimal(flux) ** 2 * (H.ln() if p == 0.0 else H**n / n)
        return Decimal(g) * H ** (n + 3) / (n + 3) - Q2

    return float(P(H0) - P(H_t))


@pytest.mark.parametrize("p", P_CHOICES)
@pytest.mark.parametrize("above", [1e-9, 1e-4])
def test_blowup_bound_keeps_its_sign_at_the_margin_tolerance(p, above):
    # an inlet margin 1e-9 or 1e-4 above MARGIN_TOL g H0 puts H_t within
    # 1e-10 of H0, where P(H0) - P(H_t) is all rounding; the drop keeps its
    # sign and is accurate to the conditioning of g H_t^3 - Q^2, about
    # 1 / MARGIN_TOL ulp
    H0 = 2.0
    flux = H0 * math.sqrt(G * H0 - steady_module.MARGIN_TOL * G * H0 * (1.0 + above))
    spec = ChannelSpec(id=1, length=10.0, friction=2e-3, friction_exponent=p, cells=16)
    with pytest.raises(SteadyStateBlowup) as exc:
        integrate_channel_steady(spec, H0, flux)
    H_t = _blowup_depth(H0, flux)
    assert 0.0 < 1.0 - H_t / H0 < 1e-9
    x = potential_drop_by_decimal(H0, H_t, flux, p, G) / (G * spec.friction * flux**2)
    assert exc.value.x_reached > 0.0
    assert exc.value.x_reached == pytest.approx(x, rel=1e-8, abs=0.0)


def test_blowup_bound_is_the_potential_drop_where_it_is_large(suite_profiles):
    # on the suite and the star H0 > 1.5 H_t, and the bound is the difference
    # of the two potentials bit for bit, within 1e-12 of the decimal drop
    for prof in suite_profiles:
        H0, flux, p, g = prof.inlet_depth, prof.flux, prof.spec.friction_exponent, prof.gravity
        H_t = _blowup_depth(H0, flux, g)
        rate = g * prof.spec.friction * flux**2
        assert H0 > 1.5 * H_t
        assert prof.blowup_bound == _potential_drop(H0, H_t, flux, p, g) / rate
        x = potential_drop_by_decimal(H0, H_t, flux, p, g) / rate
        assert prof.blowup_bound == pytest.approx(x, rel=1e-12, abs=0.0)


def test_solve_ivp_resolves_on_lookup():
    # steady and weights solve no ODE but keep the name for the benchmark's
    # ODE spans; any other missing name is still an AttributeError
    for module in (steady_module, weights_module):
        assert module.solve_ivp is scipy.integrate.solve_ivp
        assert not hasattr(module, "no_such_name")


def test_depth_against_hand_rolled_rk4():
    spec = ChannelSpec(id=1, length=400.0, friction=2e-3, friction_exponent=1.0, cells=32)
    H0, flux = 2.0, 1.0
    prof = integrate_channel_steady(spec, H0, flux)

    def rhs(H):
        p = spec.friction_exponent
        return -G * spec.friction * flux**2 / (H ** (p - 1.0) * (G * H**3 - flux**2))

    n = 4000
    dx = spec.length / n
    H = H0
    for _ in range(n):
        k1 = rhs(H)
        k2 = rhs(H + 0.5 * dx * k1)
        k3 = rhs(H + 0.5 * dx * k2)
        k4 = rhs(H + dx * k3)
        H += dx / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert prof.depth(spec.length) == pytest.approx(H, rel=1e-10)


def test_depth_matches_ode_oracle():
    # the potential inverse against a DOP853 solve of the depth equation, up
    # to channels ending a thousandth of the blow-up length short of it
    rng = np.random.default_rng(606)
    for fraction in (0.5, 0.8, 0.98, 0.999):
        for _ in range(6):
            spec, H0, flux = draw_channel(rng, length_fraction=fraction)
            prof = integrate_channel_steady(spec, H0, flux)
            H = steady_depth_by_ode(prof)(prof.x_fine)
            assert np.max(np.abs(prof.H_fine - H) / H) <= 1e-11, (fraction, spec)


def test_depth_decreases_and_stays_subcritical():
    rng = np.random.default_rng(303)
    for _ in range(5):
        spec, H0, flux = draw_channel(rng)
        prof = integrate_channel_steady(spec, H0, flux)
        assert np.all(np.diff(prof.H_fine) < 0.0)
        assert np.all(prof.H_fine > prof.critical_depth)
        assert np.all(G * prof.H_fine - prof.velocity_of(prof.H_fine) ** 2 > 0.0)


def test_velocity_consistent_with_flux():
    rng = np.random.default_rng(404)
    spec, H0, flux = draw_channel(rng)
    prof = integrate_channel_steady(spec, H0, flux)
    x = np.linspace(0.0, spec.length, 50)
    assert np.allclose(prof.depth(x) * prof.velocity(x), flux, rtol=1e-13)
    assert prof.outlet_depth == pytest.approx(float(prof.depth(spec.length)), rel=1e-14)
    assert prof.outlet_velocity == pytest.approx(flux / prof.outlet_depth, rel=1e-14)


def test_slopes_match_rhs():
    rng = np.random.default_rng(505)
    spec, H0, flux = draw_channel(rng)
    prof = integrate_channel_steady(spec, H0, flux)
    # the dense depth obeys its own equation: a fourth-order central
    # difference of it against steady_rhs, without an absolute floor
    x = np.linspace(0.0, spec.length, 40)[1:-1]
    h = 1e-3 * spec.length
    d = prof.depth
    slope = (d(x - 2 * h) - 8 * d(x - h) + 8 * d(x + h) - d(x + 2 * h)) / (12 * h)
    expected = steady_rhs(d(x), flux, spec.friction, spec.friction_exponent, G)
    assert np.allclose(slope, expected, rtol=5e-8, atol=0.0)


def test_frictionless_profile_is_uniform():
    spec = ChannelSpec(id=1, length=500.0, friction=0.0, cells=16)
    prof = integrate_channel_steady(spec, 2.0, 1.0)
    assert np.all(prof.H_fine == 2.0)
    assert math.isinf(prof.blowup_bound)


def test_zero_flux_profile_is_standing_water():
    spec = ChannelSpec(id=1, length=30.0, friction=1e-3, cells=16)
    # a flux of -0.0 is stored as +0.0, so no velocity carries a sign bit
    for flux in (0.0, -0.0):
        prof = integrate_channel_steady(spec, 1.5, flux)
        assert not math.copysign(1.0, prof.flux) < 0.0
        assert np.all(prof.H_fine == 1.5)
        V = prof.velocity_of(prof.H_fine)
        assert np.all(V == 0.0) and not np.any(np.signbit(V))
        assert math.isinf(prof.blowup_bound)


def test_supercritical_start_rejected():
    flux = 2.0
    Hc = critical_depth(flux, G)
    spec = ChannelSpec(id=1, length=50.0, friction=1e-3, cells=16)
    with pytest.raises(SupercriticalStart):
        integrate_channel_steady(spec, 0.9 * Hc, flux)


def test_blowup_raised_past_the_bound():
    H0, flux, C, p = 1.5, 1.0, 2e-3, 1.0
    x0 = closed_form_blowup(H0, flux, C, p)
    spec = ChannelSpec(id=1, length=1.05 * x0, friction=C, friction_exponent=p, cells=16)
    with pytest.raises(SteadyStateBlowup) as err:
        integrate_channel_steady(spec, H0, flux)
    assert err.value.x_reached == pytest.approx(x0, rel=1e-3)
    assert abs(err.value.x_reached / blowup_bound_by_brentq(spec, H0, flux) - 1.0) <= 1e-15


def test_negative_flux_rejected():
    spec = ChannelSpec(id=1, length=50.0, friction=1e-3, cells=16)
    with pytest.raises(NegativeFlux):
        integrate_channel_steady(spec, 2.0, -1.0)


@pytest.mark.parametrize("H0, flux, error", [
    (math.nan, 1.0, SupercriticalStart), (math.inf, 1.0, SupercriticalStart),
    (2.0, math.nan, NegativeFlux), (2.0, math.inf, NegativeFlux),
])
def test_non_finite_inlet_rejected(H0, flux, error):
    spec = ChannelSpec(id=1, length=50.0, friction=1e-3, cells=16)
    with pytest.raises(error):
        integrate_channel_steady(spec, H0, flux)


@pytest.mark.parametrize("root_flux", [math.nan, math.inf])
def test_non_finite_root_flux_rejected(root_flux):
    with pytest.raises(NegativeFlux):
        solve_network_steady(small_star(cells=8), STAR_ROOT_DEPTH, root_flux)


def test_network_propagates_depth_and_flux():
    topo = small_star()
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    trunk = profiles[1]
    assert trunk.inlet_depth == STAR_ROOT_DEPTH
    assert trunk.flux == STAR_ROOT_FLUX
    for child, frac in zip((2, 3, 4), (0.5, 0.3, 0.2)):
        assert profiles[child].inlet_depth == pytest.approx(trunk.outlet_depth, rel=1e-14)
        assert profiles[child].flux == pytest.approx(frac * STAR_ROOT_FLUX, rel=1e-14)
    # each branch profile obeys its own potential relation
    for child in (2, 3, 4):
        prof = profiles[child]
        spec = topo.channels[child]
        x = np.linspace(0.0, spec.length, 80)
        lhs = depth_potential(prof.depth(x), prof.flux, spec.friction_exponent)
        rhs = (
            depth_potential(prof.inlet_depth, prof.flux, spec.friction_exponent)
            - G * spec.friction * prof.flux**2 * x
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * abs(lhs[0])


def test_depth_clips_abscissae_to_the_channel():
    prof = integrate_channel_steady(ChannelSpec(id=1, length=80.0, friction=1e-3, cells=8), 2.0, 1.0)
    assert prof.depth(np.array([-5.0, 0.0, 80.0, 1e6])).tolist() == [2.0, 2.0] + 2 * [prof.outlet_depth]


def test_network_with_zero_split_branch():
    topo = small_star(cells=16)
    topo = dataclasses.replace(topo, split_fractions={1: (0.6, 0.4, 0.0)})
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    assert profiles[4].flux == 0.0
    assert np.all(profiles[4].velocity_of(profiles[4].H_fine) == 0.0)
    assert np.all(profiles[4].H_fine == profiles[1].outlet_depth)


def feedback_law(profile, gain: float):
    """Terminal feedback law V = V*(L) + k (H - H*(L)) anchored at the outlet."""
    H_L, V_L, k = profile.outlet_depth, profile.outlet_velocity, float(gain)

    def law(depth):
        out = V_L + k * (np.asarray(depth, dtype=float) - H_L)
        return float(out) if out.ndim == 0 else out

    return law


def test_feedback_law_anchored_at_outlet():
    spec = ChannelSpec(id=1, length=100.0, friction=1e-3, cells=16)
    prof = integrate_channel_steady(spec, 2.0, 1.0)
    law = feedback_law(prof, 0.7)
    assert law(prof.outlet_depth) == pytest.approx(prof.outlet_velocity, rel=1e-14)
    assert law(prof.outlet_depth + 0.1) == pytest.approx(
        prof.outlet_velocity + 0.07, rel=1e-12
    )


def test_grid_layout():
    spec = ChannelSpec(id=1, length=80.0, friction=1e-3, cells=20)
    prof = integrate_channel_steady(spec, 2.0, 1.0)
    assert prof.x_faces.size == 21
    assert prof.x_centers.size == 20
    assert prof.x_fine.size == 81
    assert prof.x_faces[0] == 0.0 and prof.x_faces[-1] == spec.length
    assert np.allclose(prof.x_centers, 0.5 * (prof.x_faces[:-1] + prof.x_faces[1:]))
    # faces and centers are every R-th fine point, the faces bitwise the
    # uniform grid of the cells (R is a power of two), so the face samples
    # keep their abscissae; 73.3 / 17 is not a binary fraction
    R = steady_module.FINE_REFINEMENT
    assert R % 2 == 0
    for spec in (spec, ChannelSpec(id=1, length=73.3, friction=1e-3, cells=17)):
        prof = integrate_channel_steady(spec, 2.0, 1.0)
        assert np.array_equal(prof.x_fine, np.linspace(0.0, spec.length, R * spec.cells + 1))
        assert np.array_equal(prof.x_faces, np.linspace(0.0, spec.length, spec.cells + 1))
        assert np.array_equal(prof.x_centers, prof.x_fine[R // 2 :: R])
        assert np.array_equal(prof.H_faces, prof.H_fine[::R])
        assert np.array_equal(prof.H_centers, prof.H_fine[R // 2 :: R])


def mixed_star():
    """A star of 16, 37, 64 and 8 cells: the trunk feeds a branch at friction
    exponent 4.5, a frictionless branch and a branch split no flux."""
    chans = {
        1: ChannelSpec(id=1, length=80.0, friction=2e-3, friction_exponent=1.0, cells=16),
        2: ChannelSpec(id=2, length=60.0, friction=1.5e-3, friction_exponent=4.5, cells=37),
        3: ChannelSpec(id=3, length=50.0, friction=0.0, friction_exponent=0.0, cells=64),
        4: ChannelSpec(id=4, length=40.0, friction=2e-3, friction_exponent=0.0, cells=8),
    }
    return NetworkTopology(channels=chans, root_channel=1, junctions={1: (2, 3, 4)},
                           split_fractions={1: (0.6, 0.4, 0.0)})


@pytest.fixture(scope="module")
def steady_networks(star_profiles):
    """(topo, profiles) of the README star, the 70 criterion-5 networks,
    T12/1, T40/1 and the mixed star."""
    networks = criterion_05_networks(star_profiles)
    for n in (12, 40):
        topo, H0, flux, _ = draw_random_tree(n, 1)
        networks.append((topo, solve_network_steady(topo, H0, flux)))
    topo = mixed_star()
    networks.append((topo, solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)))
    return networks


def test_network_rows_have_the_bits_of_their_one_row_calls(steady_networks):
    # every profile of the network's one array pass against the one-row pass
    # of its channel, inlet depth and flux, field by field
    rows = 0
    for _, profiles in steady_networks:
        for prof in profiles.values():
            one = integrate_channel_steady(prof.spec, prof.inlet_depth, prof.flux)
            for field in dataclasses.fields(prof):
                a, b = getattr(prof, field.name), getattr(one, field.name)
                if isinstance(a, np.ndarray):
                    assert a.tobytes() == b.tobytes(), (prof.channel, field.name)
                else:
                    assert a == b, (prof.channel, field.name)
            rows += 1
    assert rows == 367 + 12 + 40 + 4


def test_depth_is_continuous_to_the_bit_at_every_junction(steady_networks):
    # each child starts at the outlet depth of the scalar pass, which is also
    # the last sample of its parent's row
    checked = 0
    for topo, profiles in steady_networks:
        for parent, children in topo.junctions.items():
            up = profiles[parent]
            for child in children:
                down = profiles[child]
                assert down.inlet_depth == up.outlet_depth == up.H_fine[-1] == down.H_fine[0]
                checked += 1
    assert checked == 349


def test_network_is_sampled_by_one_newton_pass(monkeypatch):
    tree, H0, flux, _ = draw_random_tree(40, 1)
    calls = []
    newton = steady_module._depth_from_potential

    def counting(x, *columns):
        calls.append(x.shape)
        return newton(x, *columns)

    monkeypatch.setattr(steady_module, "_depth_from_potential", counting)
    solve_network_steady(tree, H0, flux)
    # one row per channel, each edge-padded to the longest fine grid
    assert calls == [(40, 4 * 24 + 1)]
    calls.clear()
    solve_network_steady(mixed_star(), STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    assert calls == [(4, 4 * 64 + 1)]


def test_depths_within_two_ulp_of_the_per_channel_newton(steady_networks):
    # the stacked pass against a Newton solve of each channel alone, and each
    # outlet against a bisection of the depth potential
    for _, profiles in steady_networks:
        for prof in profiles.values():
            H = depth_by_channel_newton(prof)
            assert np.all(np.abs(prof.H_fine - H) <= 2.0 * np.spacing(H)), prof.spec
            assert abs(prof.outlet_depth / depth_by_bisection(prof, prof.length) - 1.0) <= 1e-12
