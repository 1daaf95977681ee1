"""Workload inputs, generated by the benchmark itself.

The README star and the criterion-5 network generator are copied here so that
edits to the README or to the test fixtures cannot change what the benchmark
measures. The generator needs the outlet depth of a channel before channet
has solved anything; it takes it from the closed-form depth potential, which
also serves as the independent oracle for the steady solver's outlet depths.
"""

import math

import numpy as np

G = 9.81
P_CHOICES = (0.0, 1.0, 4.0 / 3.0, 2.0)
SUITE_SEED = 31514
SUITE_STARS = 50
SUITE_TREES = 20

# The README star: 4 channels x 100 cells, zero gains, T = 200, a bump on
# channel 2. Channel 3 has the Manning exponent 4/3 exactly, which the README
# rounds to 1.333.
STAR_CONFIG = {
    "network": {
        "channels": [
            {"id": 1, "length": 80.0, "friction": 0.002, "friction_exponent": 1.0, "gravity": 9.81, "cells": 100},
            {"id": 2, "length": 60.0, "friction": 0.0015, "friction_exponent": 1.0, "gravity": 9.81, "cells": 100},
            {"id": 3, "length": 50.0, "friction": 0.001, "friction_exponent": 4.0 / 3.0, "gravity": 9.81, "cells": 100},
            {"id": 4, "length": 40.0, "friction": 0.002, "friction_exponent": 0.0, "gravity": 9.81, "cells": 100},
        ],
        "root_channel": 1,
        "junctions": {"1": [2, 3, 4]},
        "split_fractions": {"1": [0.5, 0.3, 0.2]},
    },
    "root": {"Q": 1.0, "H0": 2.0},
    "gains": {"2": 0.0, "3": 0.0, "4": 0.0},
    "lyapunov": {"epsilon_start": 1e-3},
    "simulation": {
        "mode": "linear",
        "T": 200.0,
        "cfl": 0.9,
        "perturbation": {"2": {"amplitude_h": 1e-3, "center": 0.5, "width": 0.5}},
        "trace_path": "trace.csv",
        "snapshot_path": "snapshot.csv",
    },
}

# nu_hat of the star as the first benchmarked version computes it. A rewrite
# that changes only the order of floating-point operations moves it by about
# 1e-12 relative, and each halving of the certificate's epsilon by about
# 2e-7. Writing the exponent 4/3 as 1.333 already moves it by 7e-6.
STAR_NU_HAT = {"linear": 0.008650928724842584, "nonlinear": 0.008650781624517658}
NU_HAT_REL_TOL = 1e-6


def star_config(mode):
    cfg = {k: dict(v) for k, v in STAR_CONFIG.items()}
    cfg["simulation"]["mode"] = mode
    return cfg


def critical_depth(flux, g=G):
    return (flux / math.sqrt(g)) ** (2.0 / 3.0)


def depth_potential(H, flux, p, g=G):
    """P(H), the first integral of the steady depth equation.

    Along a steady profile P(H(x)) = P(H(0)) - g C Q^2 x.
    """
    if p == 0.0:
        return g * H**3 / 3.0 - flux * flux * math.log(H)
    return g * H ** (p + 3.0) / (p + 3.0) - flux * flux * H**p / p


def closed_form_blowup(H0, flux, friction, p, g=G):
    """Abscissa where the steady profile reaches the critical depth."""
    drop = depth_potential(H0, flux, p, g) - depth_potential(critical_depth(flux, g), flux, p, g)
    return drop / (g * friction * flux * flux)


def closed_form_depth(H0, flux, friction, p, x, g=G):
    """Subcritical depth at abscissa x, by bisection on the monotone P.

    P increases with H above the critical depth, so the target value has
    exactly one root between the critical depth and H0.
    """
    target = depth_potential(H0, flux, p, g) - g * friction * flux * flux * x
    lo, hi = critical_depth(flux, g), H0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if depth_potential(mid, flux, p, g) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _draw_channel_into(rng, channels, outlets, cid, inlet_depth, flux, cells=24):
    """Draw one channel; record and return its closed-form outlet depth."""
    friction = rng.uniform(2e-4, 3e-3)
    p = P_CHOICES[rng.integers(len(P_CHOICES))]
    length = min(
        rng.uniform(0.05, 0.3) * closed_form_blowup(inlet_depth, flux, friction, p),
        rng.uniform(1500.0, 6000.0),
    )
    channels[cid] = {
        "id": cid, "length": length, "friction": friction,
        "friction_exponent": p, "gravity": G, "cells": cells,
    }
    outlets[cid] = closed_form_depth(inlet_depth, flux, friction, p, length)
    return outlets[cid]


def _fractions(rng, n):
    u = rng.uniform(0.5, 1.5, n)
    return [float(f) for f in u / np.sum(u)]


def _draw_star(rng, n_branches):
    flux = rng.uniform(0.5, 3.0)
    H0 = rng.uniform(max(1.2, 1.7 * critical_depth(flux)), 4.0)
    channels, outlets = {}, {}
    H_B = _draw_channel_into(rng, channels, outlets, 1, H0, flux)
    fracs = _fractions(rng, n_branches)
    for j in range(n_branches):
        _draw_channel_into(rng, channels, outlets, 2 + j, H_B, fracs[j] * flux)
    return _network(channels, outlets, {1: list(range(2, 2 + n_branches))}, {1: fracs}, H0, flux)


def _draw_tree(rng):
    flux = rng.uniform(0.5, 3.0)
    H0 = rng.uniform(max(1.2, 1.7 * critical_depth(flux)), 4.0)
    channels, outlets = {}, {}
    H_B = _draw_channel_into(rng, channels, outlets, 1, H0, flux)
    n_child = 2 + int(rng.integers(2))
    fracs = _fractions(rng, n_child)
    junctions = {1: list(range(2, 2 + n_child))}
    splits = {1: fracs}
    for j in range(n_child):
        _draw_channel_into(rng, channels, outlets, 2 + j, H_B, fracs[j] * flux)
    deep = 2 + int(rng.integers(n_child))
    flux_deep = fracs[deep - 2] * flux
    n_grand = 2 + int(rng.integers(2))
    fr2 = _fractions(rng, n_grand)
    next_id = 2 + n_child
    junctions[deep] = list(range(next_id, next_id + n_grand))
    splits[deep] = fr2
    for j in range(n_grand):
        _draw_channel_into(rng, channels, outlets, next_id + j, outlets[deep], fr2[j] * flux_deep)
    return _network(channels, outlets, junctions, splits, H0, flux)


def _network(channels, outlets, junctions, splits, H0, flux):
    return {
        "network": {
            "channels": [channels[i] for i in sorted(channels)],
            "root_channel": 1,
            "junctions": {str(i): c for i, c in junctions.items()},
            "split_fractions": {str(i): f for i, f in splits.items()},
        },
        "H0": H0,
        "flux": flux,
        "outlet_depths": outlets,
    }


def suite(seed=SUITE_SEED):
    """The criterion-5 suite: 50 stars with 2-6 branches, 20 two-level trees.

    Returns the networks as plain dicts in the CLI's network format, each with
    its root depth and flux and the closed-form outlet depth of every channel.
    """
    rng = np.random.default_rng(seed)
    networks = [_draw_star(rng, 2 + int(rng.integers(5))) for _ in range(SUITE_STARS)]
    networks += [_draw_tree(rng) for _ in range(SUITE_TREES)]
    return networks


def draw_gain(seed, index, channel, record, outlet_depth):
    """Random gain outside the forbidden interval of a gain record at k = 0.

    Mostly a positive gain of boundary-impedance size; now and then, when the
    interval leaves a wide window, a gain far below its lower endpoint. Each
    terminal draws from its own stream, so the gains do not depend on the
    order in which the networks are visited.
    """
    rng = np.random.default_rng([seed, index, channel])
    a, b = record.forbidden
    s = math.sqrt(G / outlet_depth)
    window = 1.0 - (record.eta_bar_L / record.phi_L) ** 2
    if not record.half_line and window > 0.05 and rng.uniform() < 0.2:
        return a - rng.uniform(0.5, 3.0) * max(abs(a), s)
    return max(b, 0.0) + rng.uniform(0.1, 2.0) * s * (1 if rng.uniform() < 0.9 else 3)
