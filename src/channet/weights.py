"""Lyapunov weight profiles and network stability certificates.

The linearized network is dissipative in a weighted characteristic norm

    V = sum_i int_0^L ( f1_i y1_i^2 + f2_i y2_i^2 ) dx,

with per-channel weights built from three ingredients:

* exponential factors phi1 = exp(int gamma1/lambda1), phi2 = exp(-int
  delta2/lambda2), phi = phi1/phi2, which absorb the zero-order coupling,
* a comparison function eta(x) solving the scalar Riccati inequality
  eta' = |delta1 phi / lambda1 + (gamma2 / (lambda2 phi)) eta^2| + epsilon,
  started strictly inside (0, phi) at the inlet, and
* per-channel scale factors alpha chosen so that the weighted norm is
  continuous across junctions.

With eta in hand the weights are f1 = alpha phi1^2 / (lambda1 eta) and
f2 = alpha phi2^2 eta / lambda2, and the boundary/junction terms of dV/dt are
controlled by the signs of Z = lambda1 f1 - lambda2 f2 and by small symmetric
matrices assembled from Z and W = lambda1 f1 + lambda2 f2. The epsilon = 0
comparison solution with unit inlet value has the closed form
eta_bar = m(x) eta0(x) with eta0 = (lambda2/lambda1) phi and m an explicit
rational function of the steady depth.

The exponents of phi1 and phi2 and the existence integral I4 are closed-form
functions of the local depth (``characteristics.phi_exponents`` and
``characteristics.existence_integral``), so ``phi_profiles`` solves no
ODE. Only the comparison solution at epsilon > 0
is integrated, by adaptive Runge-Kutta (relative tolerance 1e-11), so
certificate accuracy does not depend on the simulation grid. One function,
``_integrate``, makes that solve: a DOP853 step loop (Dormand-Prince
8(5,3)) on Python floats with the steady depth as the independent variable.
From the inlet depth down to the outlet depth, its state is the angle theta
= arctan(w) of w = eta / phi - epsilon x alone, and its right-hand side
(``_riccati``) fuses the depth kernels of ``steady`` and
``characteristics``, ``log_phi`` for ln phi among them, with their
per-channel constants computed once.
It is a depth kernel, every epsilon-free term at one depth, and a slope
that combines the kernel with theta and epsilon; the two stages of a step
at its end depth share one kernel, as does a step end at the depth that
the initial step probed.
As eta' >= epsilon > 0, eta can leave its range only upward; where w blows
up inside the channel, theta crosses arctan(1e12) smoothly and the solve
stops at the first step end past it. The loop keeps its accepted steps
and theta at the outlet (``_Comparison``); ``_on_grid`` writes theta on
the fine grid from each step's 7th-order interpolant, whose three extra
stages only it evaluates, in one numpy pass at the depths the steady
profile holds there, and ``eta_eps`` returns eta / phi =
tan theta + epsilon x there; the weights, speeds and couplings at the faces
and centers are elements and slices of the fine-grid arrays. An epsilon
attempt does only epsilon-dependent work: per channel one solve, while
each channel's epsilon-free record (``_Channel``) is made once per
certificate, before the first attempt: the speeds, couplings and phi
factors on the fine grid (``CharCoeffs``), the depth kernel, its value at
the inlet, where every solve starts, and the inlet value of eta / phi. The
same record makes, on the first solve that needs them, the kernels of the
DOP853 step over the whole channel and of the initial step's probe at its
far end: their depths depend on the channel's two end depths alone, not on
epsilon, and on the README star each solve but one tries that step. They
are made lazily: on the criterion-5 suite only 1.6% of the kernels sit at
those depths, and making them for every channel up front would slow it.
The kernel is a pure function of the depth, so every value keeps its bits
and a certificate at epsilon stays a function of the network, the gains
and epsilon alone. Every check but the interior matrix N(x) and the
junction matrices reads only
the ends of one channel, where theta is exact: the inlet value and the
solve's last one. Each of those checks is the channel's scale alpha > 0
times a term that does not depend on alpha, so an attempt (``_attempt``)
makes two passes. The first solves each channel, the one where the last
attempt stopped first, and checks it on its weights at the two ends at
alpha = 1; unless it is the last attempt, it fails at the first channel
that fails there. The alphas then follow root first from these unit
weights. The second pass scales each channel by its alpha on the fine grid
and runs every check; its margins are the ones reported. An attempt
returns its own ``NetworkCertificate``, whose fields other than the
weights are the report, and ``certify_network`` sets only its halving
count. The test suite (``tests/conftest.py``) keeps the ODE forms of I4
and of the unit-inlet comparison solution, in w and with a driver of their
own, as oracles of the closed forms, and scipy's DOP853 as the oracle of
the step loop.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .characteristics import (
    _ENDS,
    CharCoeffs,
    existence_integral,
    outlet_traces,
    phi_exponents,
    reflection_coefficient,
)
from .errors import (
    DegenerateFlux,
    EpsilonTooLarge,
    MissingGain,
    WeightError,
)
from .steady import SteadyProfile
from .topology import NetworkTopology, traversal_order

ETA_BLOWUP = 1e12
ETA_RTOL = 1e-11
ETA_ATOL = 1e-13
POSITIVITY_REL_TOL = 1e-12
DEFAULT_EPSILON = 1e-3
MAX_HALVINGS = 20


def __getattr__(name):
    # Nothing here calls solve_ivp (the comparison solution has its own step
    # loop), but perfbench/spans.py wraps channet.weights.solve_ivp to count
    # the weight layer's ODE solves (zero), so the name resolves, importing
    # scipy.integrate only when looked up. The shim goes when ROADMAP item 7
    # drops the solve_ivp spans.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The DOP853 tableau (Prince & Dormand 1981; Hairer, Norsett & Wanner,
# Solving ODEs I, II.5), with scipy.integrate's constants: the nodes C of its
# 16 stages and, for each stage i > 0, the row A[i] of its weights on stages
# 0 .. i-1. Stage 12, at the step end, is the solution: its row is the
# weights B. Stages 13-15 are the dense output's extra stages. E5 and E3
# weigh stages 0-11 into the error estimates of orders 5 and 3, E3 as B less
# the weights of the third-order solution, and the rows of D weigh all 16
# stages into the dense output's coefficients 3-6.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_B = _A[12]
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
_E3 = tuple(b - b3 for b, b3 in zip(_B, (
    0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7338466882816118, 0.0, 0.0,
    0.022058823529411766)))
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
# D on the stages that a step keeps, 0 and 5-15: its weights on 1-4 are 0
_D_KEPT = np.array(_D)[:, [0, *range(5, 16)]]


def _integrate(riccati, theta, start, end, at_start, whole=None):
    """One adaptive DOP853 solve of dtheta/dH = slope(kernel(H), theta),
    with ``riccati`` the pair (kernel, slope) of one solve (``_riccati``),
    from theta(start) = ``theta`` down to the depth ``end``, ``at_start``
    being kernel(start): (its accepted steps, theta at ``end``), or None
    where the solution does not exist. ``whole``, where given, is the
    channel's record (``_Channel``): whenever the solve probes its initial
    step at ``start`` - span or tries the step from ``start`` to ``end``, it
    takes those kernels from the record, which makes them on first use,
    once per certificate, as they do not depend on epsilon. Every other
    step evaluates its own, and a call without ``whole`` evaluates all.

    The solve is scipy's DOP853 on Python floats: its 8th-order tableau with
    error estimates of orders 5 and 3, its initial step, error norm and
    step-size control with exponent -1/8 (Hairer, Norsett & Wanner, Solving
    ODEs I, II.4-II.6) at relative tolerance ETA_RTOL and absolute tolerance
    ETA_ATOL. Its stage 11 and the solution's stage 12 sit at the same depth
    t + h (c = 1), so each step tried evaluates the depth kernel there once
    for both: eleven kernels and twelve slopes per step tried. A step that
    ends at the depth where the initial step probed the slope, as a first
    step over the whole channel does, takes the probe's kernel. Each
    accepted step is kept as (t, t_new, h, y, y_new, k0, k5, ..., k12), the
    stages that ``_on_grid`` needs for its dense output (D and the extra
    stages weigh stages 1-4 by 0), so no fine-grid depth is visited here. It
    returns None when theta reaches arctan(ETA_BLOWUP) at a step end, and
    when the step falls below ten spacings of the depth.
    """
    kernel, slope = riccati
    c = _C
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, b = _A[1:13]
    e5, e3 = _E5, _E3
    t, t_end = start, end
    y, f = theta, slope(at_start, theta)
    span = t - t_end
    # the initial step of scipy's select_initial_step
    scale = ETA_ATOL + abs(y) * ETA_RTOL
    d0, d1 = abs(y) / scale, abs(f) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    probe = t - h0
    at_probe = whole.at_probe if whole is not None and h0 == span else kernel(probe)
    d2 = abs(slope(at_probe, y - h0 * f) - f) / scale / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, span)
    blowup = math.atan(ETA_BLOWUP)
    steps = []
    while True:
        min_step = 10.0 * (t - math.nextafter(t, -math.inf))
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return None
            t_new = max(t - h_abs, t_end)
            h = t_new - t
            h_abs = -h
            if whole is not None and t == start and t_new == t_end:
                at1, at2, at3, at4, at5, at6, at7, at8, at9, at10, at_end = whole.at_step
            else:
                at1, at2, at3, at4, at5 = (kernel(t + c[1] * h), kernel(t + c[2] * h),
                                           kernel(t + c[3] * h), kernel(t + c[4] * h),
                                           kernel(t + c[5] * h))
                at6, at7, at8, at9, at10 = (kernel(t + c[6] * h), kernel(t + c[7] * h),
                                            kernel(t + c[8] * h), kernel(t + c[9] * h),
                                            kernel(t + c[10] * h))
                at_end = at_probe if t + h == probe else kernel(t + h)
            # each stage sums its row's nonzero weights only
            k0 = f
            k1 = slope(at1, y + h * (a1[0] * k0))
            k2 = slope(at2, y + h * (a2[0] * k0 + a2[1] * k1))
            k3 = slope(at3, y + h * (a3[0] * k0 + a3[2] * k2))
            k4 = slope(at4, y + h * (a4[0] * k0 + a4[2] * k2 + a4[3] * k3))
            k5 = slope(at5, y + h * (a5[0] * k0 + a5[3] * k3 + a5[4] * k4))
            k6 = slope(at6, y + h * (a6[0] * k0 + a6[3] * k3 + a6[4] * k4 + a6[5] * k5))
            k7 = slope(at7, y + h * (
                a7[0] * k0 + a7[3] * k3 + a7[4] * k4 + a7[5] * k5 + a7[6] * k6))
            k8 = slope(at8, y + h * (
                a8[0] * k0 + a8[3] * k3 + a8[4] * k4 + a8[5] * k5 + a8[6] * k6 + a8[7] * k7))
            k9 = slope(at9, y + h * (
                a9[0] * k0 + a9[3] * k3 + a9[4] * k4 + a9[5] * k5 + a9[6] * k6 + a9[7] * k7
                + a9[8] * k8))
            k10 = slope(at10, y + h * (
                a10[0] * k0 + a10[3] * k3 + a10[4] * k4 + a10[5] * k5 + a10[6] * k6
                + a10[7] * k7 + a10[8] * k8 + a10[9] * k9))
            k11 = slope(at_end, y + h * (
                a11[0] * k0 + a11[3] * k3 + a11[4] * k4 + a11[5] * k5 + a11[6] * k6
                + a11[7] * k7 + a11[8] * k8 + a11[9] * k9 + a11[10] * k10))
            y_new = y + h * (
                b[0] * k0 + b[5] * k5 + b[6] * k6 + b[7] * k7 + b[8] * k8 + b[9] * k9
                + b[10] * k10 + b[11] * k11)
            k12 = slope(at_end, y_new)
            # scipy's error norm, |h| err5^2 / sqrt(err5^2 + err3^2 / 100)
            # in units of the tolerance
            scale = ETA_ATOL + max(abs(y), abs(y_new)) * ETA_RTOL
            err5 = (e5[0] * k0 + e5[5] * k5 + e5[6] * k6 + e5[7] * k7 + e5[8] * k8
                    + e5[9] * k9 + e5[10] * k10 + e5[11] * k11) / scale
            err3 = (e3[0] * k0 + e3[5] * k5 + e3[6] * k6 + e3[7] * k7 + e3[8] * k8
                    + e3[9] * k9 + e3[10] * k10 + e3[11] * k11) / scale
            denom = err5 * err5 + 0.01 * err3 * err3
            norm = 0.0 if denom == 0.0 else -h * err5 * err5 / math.sqrt(denom)
            if norm < 1.0:
                factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm**-0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * norm**-0.125)
            rejected = True
        if y_new >= blowup:
            return None
        steps.append((t, t_new, h, y, y_new, k0, k5, k6, k7, k8, k9, k10, k11, k12))
        t, y, f = t_new, y_new, k12
        if t <= t_end:
            return steps, y


def _on_grid(riccati, steps, theta_end, depths):
    """theta at ``depths``, which fall from the start of the solve that made
    ``steps`` to its end, in one numpy pass: each depth inside a step takes
    the step's 7th-order dense output, and the depths at the end take
    ``theta_end``, the solve's last value. The dense output's three extra
    stages are evaluated here, on the solve's own ``riccati``, once per
    accepted step. A depth belongs to the first step that ends below it, so
    a depth at a step end starts the next step, where the interpolant is
    that step's start value exactly, and the first depth, the start, takes
    the start value.
    """
    kernel, slope = riccati
    c, (a13, a14, a15) = _C, _A[13:]
    rows = []
    for t, t_new, h, y, y_new, k0, k5, k6, k7, k8, k9, k10, k11, k12 in steps:
        k13 = slope(kernel(t + c[13] * h), y + h * (
            a13[0] * k0 + a13[6] * k6 + a13[7] * k7 + a13[8] * k8 + a13[9] * k9
            + a13[10] * k10 + a13[11] * k11 + a13[12] * k12))
        k14 = slope(kernel(t + c[14] * h), y + h * (
            a14[0] * k0 + a14[5] * k5 + a14[6] * k6 + a14[7] * k7 + a14[10] * k10
            + a14[11] * k11 + a14[12] * k12 + a14[13] * k13))
        k15 = slope(kernel(t + c[15] * h), y + h * (
            a15[0] * k0 + a15[5] * k5 + a15[6] * k6 + a15[7] * k7 + a15[8] * k8
            + a15[12] * k12 + a15[13] * k13 + a15[14] * k14))
        dy = y_new - y
        rows.append((t_new, t, h, y, dy, h * k0 - dy, 2.0 * dy - h * (k12 + k0),
                     k0, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15))
    rows = np.array(rows)
    ends, widths, stages = rows[:, 0], rows[:, 2:3], rows[:, 7:]
    # per step: its start, width and start value, and the coefficients F0-F6
    # of its dense output, theta(t + s h) = y + s (F0 + (1 - s) (F1 + s (F2
    # + (1 - s) (F3 + s (F4 + (1 - s) (F5 + s F6))))))
    dense = np.hstack((rows[:, 1:7], widths * (stages @ _D_KEPT.T))).T
    step = np.searchsorted(-ends, -depths, side="right")
    inside = int(np.searchsorted(step, len(steps)))
    t, h, y, *F = dense.take(step[:inside], axis=1)
    s = (depths[:inside] - t) / h
    r = 1.0 - s
    value = F[6] * s
    for i in range(5, -1, -1):
        value += F[i]
        value *= r if i % 2 else s
    theta = np.full(depths.shape, theta_end)
    theta[:inside] = y + value
    return theta


def _riccati(profile: SteadyProfile):
    """dtheta/dH for the comparison solution in the angle theta = arctan(w)
    of the scaled variable w = eta / phi - epsilon x, with the steady depth
    H as the variable, as the pair (kernel, slope_at): ``kernel(H)`` holds
    every term at the depth H that does not depend on epsilon, and
    ``slope_at(epsilon)`` makes one solve's ``slope``, with
    ``slope(kernel(H), theta)`` = dtheta/dH. A certificate makes the pair
    once per channel (``_Channel``) and a slope per solve. Stages at one
    depth share one kernel (``_integrate``), and the dense output's stages
    evaluate it on the fine pass alone (``_on_grid``).

    With u = w + epsilon x, w' = |delta1/lambda1 + (gamma2/lambda2) u^2| -
    u (gamma1/lambda1 + delta2/lambda2) + epsilon (1/phi - 1), and theta' =
    w' cos^2 theta. With v = u cos theta = sin theta + epsilon x cos theta,

        theta' = |(delta1/lambda1) cos^2 theta + (gamma2/lambda2) v^2|
                 - (gamma1/lambda1 + delta2/lambda2) v cos theta
                 + epsilon (1/phi - 1) cos^2 theta,

    bounded however large w grows: a blow-up of w is a smooth crossing of
    theta = arctan(ETA_BLOWUP), where the solve stops.

    The scaled form has the neutral exponential drift removed: the raw eta
    equation amplifies truncation error by exp(int 2 gamma2 eta / (lambda2
    phi)), which overwhelms any tolerance on channels approaching the
    blow-up length, while the scaled form stays well conditioned. Taking
    epsilon x out leaves w' of the size of the couplings, so w is smooth
    in the depth however flat the profile.

    In the depth, dtheta/dH = theta' / H' with H' = -g C Q^2 / P'(H), and
    every depth the solve visits is on the profile, so no guard is needed.
    The kernel fuses ``log_phi``, ``_potential_drop``, ``speeds_couplings``
    and ``potential_slope``, with their per-channel constants taken out,
    H^p and g H^3 taken once and each operation in its order, so every value
    has the kernels' bits (``tests/test_weights.py``); 1/phi - 1 is
    expm1(-ln phi).
    """
    spec = profile.spec
    H0, flux, friction = profile.inlet_depth, profile.flux, spec.friction
    p, g = spec.friction_exponent, spec.gravity
    gC, QQ = g * friction, flux * flux
    rate = gC * flux * flux
    s0 = math.sqrt(g * H0 * H0 * H0) / flux
    inv_s0, s0_up, half_p = 1.0 / s0, s0 + 1.0, 0.5 * p
    p3 = p + 3.0
    H0_p3 = H0**p3

    def kernel(H):
        # log_phi
        gH3 = g * H * H * H
        s = math.sqrt(gH3) / flux
        drop = s0 - s
        log_phi = ((4.0 / 3.0) * (half_p * (1.0 / s - inv_s0) + drop)
                   + math.log1p(2.0 * drop / (s0_up * (s - 1.0))))
        # _potential_drop(H0, H) / rate
        Hp = H**p
        log_r = math.log(H0 / H)
        q_term = log_r if p == 0.0 else Hp * math.expm1(p * log_r) / p
        x = (g * (H0_p3 - H**p3) / p3 - QQ * q_term) / rate
        # speeds_couplings
        c = math.sqrt(g * H)
        V = flux / H
        lam1, lam2 = V + c, c - V
        K = gC * V * V / Hp
        half_c, inv_v = p / (2.0 * c), 1.0 / V
        g1 = K * (-3.0 / (4.0 * lam1) + inv_v - half_c)
        d1 = K * (-1.0 / (4.0 * lam1) + inv_v + half_c)
        g2 = K * (1.0 / (4.0 * lam2) + inv_v - half_c)
        d2 = K * (3.0 / (4.0 * lam2) + inv_v + half_c)
        # potential_slope
        return (x, d1 / lam1, g2 / lam2, g1 / lam1 + d2 / lam2, math.expm1(-log_phi),
                H ** (p - 1.0) * (gH3 - QQ))

    def slope_at(epsilon):
        def slope(terms, theta):
            x, d1_l1, g2_l2, drift, inv_phi_m1, potential = terms
            cos = math.cos(theta)
            v = math.sin(theta) + epsilon * x * cos
            theta_x = (
                abs(d1_l1 * cos * cos + g2_l2 * v * v)
                - v * cos * drift
                + epsilon * inv_phi_m1 * cos * cos
            )
            return -theta_x * potential / rate

        return slope

    return kernel, slope_at


@dataclass(frozen=True, eq=False)
class PhiProfiles:
    """Cumulative coefficient integrals of one channel, in closed form.

    The state is (H, I1, I2, I4) with

        I1 = int gamma1/lambda1,    I2 = int delta2/lambda2,
        I3 = int 2 gamma2/lambda1,  I4 = int exp(I3) gamma2/(lambda2 phi),

    so phi1 = exp(I1), phi2 = exp(-I2), phi = exp(I1 + I2), and I4 is the
    integral whose smallness guarantees the comparison solution exists.
    With exp(I3) = phi1^2 (lambda1(0)/lambda1)^2 H(0)/H, all three are
    closed form in the steady depth. A zero-flux channel has constant depth
    and no coupling, and all three vanish.
    """

    profile: SteadyProfile

    def state(self, x):
        prof = self.profile
        H = prof.depth(x)
        if prof.flux == 0.0:
            zeros = np.zeros(np.shape(H))
            return np.array([H, zeros, zeros, zeros])
        terms = (prof.inlet_depth, prof.flux, prof.spec.friction_exponent, prof.gravity)
        return np.array([H, *phi_exponents(H, *terms), existence_integral(H, *terms)])

    def depth(self, x):
        return self.state(x)[0]

    def phi1(self, x):
        return np.exp(self.state(x)[1])

    def phi2(self, x):
        return np.exp(-self.state(x)[2])

    def phi(self, x):
        s = self.state(x)
        return np.exp(s[1] + s[2])

    def existence_integral(self, x):
        return self.state(x)[3]


def phi_profiles(profile: SteadyProfile) -> PhiProfiles:
    """The coefficient integrals of one channel; no ODE is solved."""
    return PhiProfiles(profile)


def m_value(H, inlet_depth, flux, friction_exponent, gravity):
    """Closed-form ratio m = eta_bar / eta0 as a function of the local depth."""
    if flux == 0.0:
        raise DegenerateFlux("m is undefined for a zero-flux channel")
    H = np.asarray(H, dtype=float)
    p = friction_exponent
    sg = math.sqrt(gravity)
    s = (3.0 + 2.0 * p) / 2.0
    shared = (
        (sg / ((3.0 + p) * flux)) * H ** (3.0 + p)
        + ((1.0 + p) * sg / (2.0 * (3.0 + p) * flux)) * inlet_depth ** (3.0 + p)
        + (flux / (2.0 * sg)) * (H**p - inlet_depth**p)
    )
    half = 0.5 * H**s
    num = half + shared
    den = shared - half
    if np.any(den <= 0.0):
        raise WeightError("m denominator vanished: depth beyond the subcritical range")
    out = num / den
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class _Channel:
    """The epsilon-free record of one channel's comparison solves, made once
    per channel and certificate beside its ``coeffs``: eta / phi at the
    inlet at epsilon = 0, ``start``, and, unless the depth stays H0, the
    pair (kernel, slope_at) of ``_riccati`` and the kernel at the inlet
    depth, where every solve starts. ``start`` is lambda2(0)/lambda1(0) on
    the trunk, from the inlet speeds of ``coeffs``, which take the
    operations of ``eigenvalues`` and so its bits, and 1 on branch channels.

    ``at_probe`` and ``at_step`` are the kernels of the probe and of the
    DOP853 step that span the whole channel, which ``_integrate`` takes
    whenever a solve probes or steps there. Each is made when first read,
    once per certificate: eagerly, every channel would pay about 12
    kernels, while on the criterion-5 suite only 1.6% of the kernels sit
    at those depths. They live in this record alone, so no certificate
    reads another's.
    """

    coeffs: CharCoeffs
    start: float
    riccati: tuple | None
    at_inlet: tuple | None

    @classmethod
    def of(cls, coeffs: CharCoeffs, trunk_inlet: bool) -> "_Channel":
        profile = coeffs.profile
        if trunk_inlet:
            if profile.flux == 0.0:
                raise DegenerateFlux("trunk channels carry positive flux")
            start = float(coeffs.lambda2[0] / coeffs.lambda1[0])
        else:
            start = 1.0
        if profile.outlet_depth == profile.inlet_depth:
            # the depth stays H0 (no flux, no friction, or a drop below
            # rounding), and with it the exponents
            return cls(coeffs, start, None, None)
        riccati = _riccati(profile)
        return cls(coeffs, start, riccati, riccati[0](float(profile.H_fine[0])))

    @cached_property
    def at_probe(self) -> tuple:
        """The kernel at start - span, where a solve's initial step probes
        when it spans the whole channel."""
        H = self.coeffs.profile.H_fine
        start = float(H[0])
        return self.riccati[0](start - (start - float(H[-1])))

    @cached_property
    def at_step(self) -> tuple:
        """The kernels of the step over the whole channel, with h = end -
        start as ``_integrate`` forms it: at its ten inner stage depths and
        at its end, the last being ``at_probe`` where the two depths agree."""
        kernel = self.riccati[0]
        H = self.coeffs.profile.H_fine
        start, end = float(H[0]), float(H[-1])
        h = end - start
        at_end = self.at_probe if start + h == start - (start - end) else kernel(start + h)
        return (*(kernel(start + c * h) for c in _C[1:11]), at_end)


def _channels(topo: NetworkTopology, profiles: dict[int, SteadyProfile]) -> dict[int, _Channel]:
    """Every channel's epsilon-free record, in traversal order."""
    return {i: _Channel.of(CharCoeffs.from_profile(profiles[i]), i == topo.root_channel)
            for i in traversal_order(topo)}


@dataclass(frozen=True, eq=False)
class _Comparison:
    """The comparison solution of one channel at one epsilon, as eta / phi =
    tan theta + epsilon x with theta(H) from the accepted ``steps`` of its
    solve (see ``_integrate``) and ``theta_end`` at the outlet. The solve's
    ``riccati``, its kernel and slope, stays for the dense output's extra
    stages, which only the fine grid needs. A channel whose depth stays H0
    has no steps: there eta / phi = init + epsilon x.
    """

    profile: SteadyProfile
    epsilon: float
    init: float
    riccati: tuple | None
    steps: list | None
    theta_end: float

    @classmethod
    def of(cls, channel: _Channel, epsilon: float) -> "_Comparison":
        """Solve from the inlet value ``channel.start`` + epsilon;
        EpsilonTooLarge where the solution does not reach the outlet."""
        profile = channel.coeffs.profile
        init = channel.start + epsilon
        if channel.riccati is None:
            return cls(profile, epsilon, init, None, None, math.nan)
        kernel, slope_at = channel.riccati
        riccati = kernel, slope_at(epsilon)
        H = profile.H_fine
        solved = _integrate(riccati, math.atan(init), float(H[0]), float(H[-1]), channel.at_inlet,
                            channel)
        if solved is None:
            raise EpsilonTooLarge(
                f"channel {profile.channel}: comparison solution with epsilon={epsilon:g} "
                f"does not exist on the whole channel"
            )
        return cls(profile, epsilon, init, riccati, *solved)

    def ends(self) -> np.ndarray:
        """eta / phi at the inlet and the outlet alone. theta is exact there,
        arctan(init) and the solve's last value, and each operation is the
        fine grid's on its end elements, so both values are those of
        ``fine`` to the bit."""
        x = self.profile.x_fine[_ENDS]
        if self.steps is None:
            return self.init + self.epsilon * x
        return np.tan(np.array([math.atan(self.init), self.theta_end])) + self.epsilon * x

    def fine(self) -> np.ndarray:
        """eta / phi on the whole fine grid."""
        prof = self.profile
        if self.steps is None:
            return self.init + self.epsilon * prof.x_fine
        theta = _on_grid(self.riccati, self.steps, self.theta_end, prof.H_fine)
        return np.tan(theta) + self.epsilon * prof.x_fine


def eta_eps(
    profile: SteadyProfile,
    epsilon: float,
    trunk_inlet: bool = False,
) -> np.ndarray:
    """Strictly increasing comparison solution with slope margin epsilon,
    as eta / phi on the channel's fine grid.

    Solves eta' = |delta1 phi / lambda1 + (gamma2/(lambda2 phi)) eta^2| +
    epsilon with inlet value lambda2(0)/lambda1(0) + epsilon on the trunk and
    1 + epsilon on branch channels, advanced by ``_integrate`` in the angle
    theta = arctan(w) of the scaled variable w = eta / phi - epsilon x (see
    _riccati for the conditioning rationale), and returns tan theta +
    epsilon x at the depths of ``H_fine``. As eta' >= epsilon > 0, eta
    leaves its range only upward: EpsilonTooLarge is raised if w passes
    ETA_BLOWUP before the channel end, where the solve stops, or if the
    step size underflows. A channel whose depth stays H0 to the last bit
    has phi = 1 and no solve: eta is init + epsilon x, the exact solution
    of an uncoupled channel.
    """
    channel = _Channel.of(CharCoeffs.from_profile(profile), trunk_inlet)
    return _Comparison.of(channel, epsilon).fine()


@dataclass(frozen=True, eq=False)
class ChannelWeights:
    """Weight profiles of one channel, sampled on its fine grid, whose first
    and last points are the inlet and the outlet and whose every
    FINE_REFINEMENT-th points from the middle of the first cell are the
    cell centers. The weights f1 and f2 are formed when first read, as no
    check at the channel ends reads them."""

    coeffs: CharCoeffs
    alpha: float
    epsilon: float
    eta_eps: np.ndarray
    Z: np.ndarray
    W: np.ndarray

    @cached_property
    def f1(self) -> np.ndarray:
        return self.alpha * (self.coeffs.phi1_sq / self.eta_eps) / self.coeffs.lambda1

    @cached_property
    def f2(self) -> np.ndarray:
        return self.alpha * (self.coeffs.phi2_sq * self.eta_eps) / self.coeffs.lambda2

    @property
    def profile(self) -> SteadyProfile:
        return self.coeffs.profile

    @property
    def channel(self) -> int:
        return self.profile.channel


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Weight profiles for every channel of a network; each carries its epsilon."""

    topo: NetworkTopology
    channels: dict[int, ChannelWeights]


def _channel_weights(c: CharCoeffs, ratio, alpha: float, epsilon: float) -> ChannelWeights:
    """One channel's weights at the scale ``alpha`` from its epsilon-free
    record ``c`` and its comparison solution's eta / phi, ``ratio``, both on
    the fine grid or both at its ends, where each is the fine grid's value.
    Times alpha and over (lambda1, lambda2), (phi1^2 / eta, phi2^2 eta) are
    (f1, f2), and their difference and sum are Z / alpha and W / alpha."""
    eta = ratio * c.phi
    a, b = c.phi1_sq / eta, c.phi2_sq * eta
    return ChannelWeights(
        coeffs=c,
        alpha=alpha,
        epsilon=epsilon,
        eta_eps=eta,
        Z=alpha * (a - b),
        W=alpha * (a + b),
    )


def _scaled(topo: NetworkTopology, epsilon: float, channels, solved, unit):
    """Yield the fine-grid weights of every channel in traversal order,
    parents first, each at its alpha. The alphas follow root first from the
    ``unit`` weights, those at alpha = 1: alpha_child = alpha_parent *
    W~_parent(L) / W~_child(0) makes W continuous across every junction. The
    root's alpha is 1, as an overall rescale leaves every verdict unchanged.
    At a branch inlet phi1 = phi2 = 1 and eta = 1 + epsilon, so W~(0) = 1 /
    eta + eta >= 2."""
    alphas: dict[int, float] = {}
    for i in traversal_order(topo):
        if i == topo.root_channel:
            alphas[i] = 1.0
        else:
            parent = topo.parent_of(i)
            alphas[i] = alphas[parent] * float(unit[parent].W[-1]) / float(unit[i].W[0])
        yield _channel_weights(channels[i].coeffs, solved[i].fine(), alphas[i], epsilon)


def network_weights(
    topo: NetworkTopology,
    profiles: dict[int, SteadyProfile],
    epsilon: float,
) -> WeightSet:
    """Assemble junction-matched weights for the whole tree at one epsilon.
    Raises EpsilonTooLarge where a comparison solution does not exist."""
    channels = _channels(topo, profiles)
    solved = {i: _Comparison.of(c, epsilon) for i, c in channels.items()}
    unit = {i: _channel_weights(c.coeffs.ends, solved[i].ends(), 1.0, epsilon)
            for i, c in channels.items()}
    scaled = {cw.channel: cw for cw in _scaled(topo, epsilon, channels, solved, unit)}
    return WeightSet(topo=topo, channels=scaled)


def junction_matrix(ws: WeightSet, incoming: int):
    """Symmetric junction matrices (M, M_bar) for the junction fed by ``incoming``.

    Rows/columns 0..m-1 correspond to the outgoing channels' velocity traces,
    the last row/column to the shared depth trace. M_bar is M with the
    depth-velocity couplings removed, which is exact once the alpha scales
    match W across the junction.
    """
    topo = ws.topo
    children = topo.junctions[incoming]
    cw_in = ws.channels[incoming]
    prof = cw_in.profile
    H_B = prof.outlet_depth
    g = prof.gravity
    Z_in, W_in = float(cw_in.Z[-1]), float(cw_in.W[-1])
    # every outgoing channel starts at the junction depth H_B
    Z0 = [float(ws.channels[c].Z[0]) for c in children]
    W0 = [float(ws.channels[c].W[0]) for c in children]
    m = len(children)
    M = np.full((m + 1, m + 1), Z_in)
    for l in range(m):
        M[l, l] = Z_in - Z0[l]
    s = math.sqrt(g * H_B) / H_B
    for l in range(m):
        M[l, m] = M[m, l] = s * (W_in - W0[l])
    M[m, m] = (g / H_B) * (Z_in - sum(Z0))
    M_bar = M.copy()
    M_bar[:m, m] = 0.0
    M_bar[m, :m] = 0.0
    return M, M_bar


def trunk_inlet_coefficient(ws: WeightSet) -> float:
    """Dissipation coefficient (lambda2 lambda1^2 f2 - lambda1 lambda2^2 f1) / V^2
    of the imposed-flux inlet at the trunk.

    At the inlet phi1 = phi2 = 1 and eta = lambda2/lambda1 + epsilon, so it is
    alpha lambda1 epsilon (2 lambda2 + lambda1 epsilon) / (eta V^2) exactly;
    in that form it keeps every digit, where the difference of the two terms
    would lose about 1/epsilon of them.
    """
    cw = ws.channels[ws.topo.root_channel]
    prof = cw.profile
    V0 = prof.velocity_of(prof.inlet_depth)
    # the inlet speeds of eigenvalues, to the bit
    lam1, lam2 = float(cw.coeffs.lambda1[0]), float(cw.coeffs.lambda2[0])
    eps = cw.epsilon
    eta0 = lam2 / lam1 + eps
    return cw.alpha * lam1 * eps * (2.0 * lam2 + lam1 * eps) / (eta0 * V0**2)


def interior_matrix(cw: ChannelWeights):
    """Symmetric interior dissipation matrix N(x) on the fine grid.

    Entries: N11 = -(f1 lambda1)' + 2 f1 gamma1, N22 = (f2 lambda2)' +
    2 f2 delta2, N12 = f1 delta1 + f2 gamma2. With f1 lambda1 = alpha
    phi1^2 / eta, f2 lambda2 = alpha phi2^2 eta, phi1' = phi1 gamma1 /
    lambda1 and phi2' = -phi2 delta2 / lambda2,

        (f1 lambda1)' = f1 lambda1 (2 gamma1 / lambda1 - eta' / eta),
        (f2 lambda2)' = f2 lambda2 (eta' / eta - 2 delta2 / lambda2),

    so the 2 f1 gamma1 and 2 f2 delta2 terms cancel and N11 = f1 lambda1
    eta' / eta, N22 = f2 lambda2 eta' / eta, with eta' from the comparison
    equation. Returns (N11, N12, N22) arrays.
    """
    c = cw.coeffs
    lam1, lam2, phi = c.lambda1, c.lambda2, c.phi
    eta = cw.eta_eps
    eta_slope = np.abs(c.delta1 * phi / lam1 + c.gamma2 / (lam2 * phi) * eta**2) + cw.epsilon
    growth = eta_slope / eta
    N11 = cw.f1 * lam1 * growth
    N22 = cw.f2 * lam2 * growth
    N12 = cw.f1 * c.delta1 + cw.f2 * c.gamma2
    return N11, N12, N22


def _sym2x2_eig_bounds(a11, a12, a22):
    mid = 0.5 * (a11 + a22)
    rad = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12**2)
    low = mid - rad
    high = mid + rad
    norm = np.maximum(np.abs(low), np.abs(high))
    return low, norm


@dataclass(frozen=True, eq=False)
class NetworkCertificate:
    """Outcome of the network positivity checks at one epsilon. Its fields
    other than ``weights`` are its report (``to_dict``). Each margin map
    holds the channels whose check ran, and ``trunk_inlet`` is NaN until its
    check runs, so a refusal before any check has empty maps."""

    certified: bool
    epsilon: float
    halvings: int
    weights: WeightSet | None
    failed_checks: tuple[str, ...]
    alphas: dict[int, float] = field(default_factory=dict)
    z_end: dict[int, float] = field(default_factory=dict)
    z_start: dict[int, float] = field(default_factory=dict)
    junction_min_eig: dict[int, float] = field(default_factory=dict)
    trunk_inlet: float = math.nan
    terminal_margins: dict[int, float] = field(default_factory=dict)
    reflection: dict[int, float] = field(default_factory=dict)
    interior_min_eig: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but ``weights``: each map keyed by channel ids as
        strings in ascending order, ``failed_checks`` as a list."""
        report = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = {str(k): v for k, v in sorted(value.items())}
            report[f.name] = list(value) if isinstance(value, tuple) else value
        del report["weights"]
        return report


CHECK_ORDER = (
    "junction_outflow_positive",
    "branch_inflow_negative",
    "junction_matrix",
    "trunk_inlet",
    "terminal_margin",
    "interior_matrix",
)


def _channel_checks(
    ws: WeightSet,
    cw: ChannelWeights,
    gains: dict[int, float],
    detail: dict,
) -> list[str]:
    """The checks that read channel ``cw`` alone, at its ends: the sign of Z
    at a junction outflow and at a branch inflow, the trunk inlet and the
    terminal margin. Records every margin in ``detail`` and returns the
    names of the failed checks; a check passes only on a strict margin, so
    a NaN margin fails it. Each margin is alpha > 0 times a term free of
    alpha (the root's alpha is 1), so each verdict is the same at alpha = 1.
    A terminal's margin is alpha (phi1^2 / eta y1^2 - phi2^2 eta y2^2) at
    the outlet: f1 lam1 y1^2 - f2 lam2 y2^2
    at the traces of ``outlet_traces``, with no pole in the gain and
    negative at the ill-posed gain, where y1 = 0. The margin alone refuses
    a zero-flux outlet at k <= 0: there phi1 = phi2 = 1, eta >= 1 and r <= 0,
    so |1 + r| <= |1 - r| and the term is at most 0.
    """
    topo = ws.topo
    i = cw.channel
    prof = cw.profile
    failed: list[str] = []
    if i in topo.junctions:
        z = float(cw.Z[-1])
        detail["z_end"][i] = z
        if not z > 0.0:
            failed.append("junction_outflow_positive")
    else:
        k = float(gains[i])
        detail["reflection"][i] = reflection_coefficient(k, prof.outlet_depth, prof.gravity)
        y1, y2 = outlet_traces(k, prof.outlet_depth, prof.gravity)
        c, eta = cw.coeffs, cw.eta_eps[-1]
        term = c.phi1_sq[-1] / eta * y1**2 - c.phi2_sq[-1] * eta * y2**2
        margin = cw.alpha * float(term)
        detail["terminal_margins"][i] = margin
        if not margin > 0.0:
            failed.append("terminal_margin")

    if i == topo.root_channel:
        f1 = trunk_inlet_coefficient(ws)
        detail["trunk_inlet"] = f1
        if not f1 > 0.0:
            failed.append("trunk_inlet")
    else:
        z = float(cw.Z[0])
        detail["z_start"][i] = z
        if not z < 0.0:
            failed.append("branch_inflow_negative")
    return failed


def _fine_checks(ws: WeightSet, cw: ChannelWeights, detail: dict) -> list[str]:
    """The checks that read more than the ends of channel ``cw``, as
    ``_channel_checks`` records and returns its checks: the interior matrix
    N(x) at every point of its weights and, once the last of its siblings is
    built, the junction matrix that feeds it."""
    failed: list[str] = []
    N11, N12, N22 = interior_matrix(cw)
    low, norm = _sym2x2_eig_bounds(N11, N12, N22)
    detail["interior_min_eig"][cw.channel] = float(np.min(low))
    if not np.all(low > POSITIVITY_REL_TOL * norm):
        failed.append("interior_matrix")
    topo = ws.topo
    if cw.channel != topo.root_channel:
        parent = topo.parent_of(cw.channel)
        if all(c in ws.channels for c in topo.junctions[parent]):
            _, M_bar = junction_matrix(ws, parent)
            eigs = np.linalg.eigvalsh(M_bar)
            detail["junction_min_eig"][parent] = float(eigs[0])
            norm = float(np.max(np.abs(eigs)))
            if not eigs[0] > POSITIVITY_REL_TOL * norm:
                failed.append("junction_matrix")
    return failed


def _attempt(
    topo: NetworkTopology,
    gains: dict[int, float],
    epsilon: float,
    channels: dict[int, _Channel],
    last: bool,
    first: int | None,
) -> tuple[NetworkCertificate, int]:
    """Build and check the weights at one epsilon in two passes from each
    channel's epsilon-free record in ``channels``: (its certificate, with
    halvings 0, the channel where it stopped).

    The first pass solves channel ``first``, where the last attempt
    stopped, then the rest in traversal order, and runs ``_channel_checks``
    on each channel's weights at its ends at alpha = 1, the fine grid's ends
    to the bit. Unless this is the ``last`` attempt, it fails at the first
    channel that fails one, with no weights and no margins. The second pass
    scales each channel by its alpha on the fine grid, in traversal order,
    and runs every check; its margins are the ones reported. Unless this is
    the ``last`` attempt it stops at the first channel with a failed check.
    A missing comparison solution fails the attempt as "weight_existence"
    with no weights and no margins.
    """
    unit = WeightSet(topo=topo, channels={})
    solved: dict[int, _Comparison] = {}
    # channel first, then the rest in traversal order: the sort is stable
    for i in sorted(traversal_order(topo), key=lambda j: j != first):
        try:
            solved[i] = _Comparison.of(channels[i], epsilon)
        except EpsilonTooLarge:
            return NetworkCertificate(False, epsilon, 0, None, ("weight_existence",)), i
        unit.channels[i] = cw = _channel_weights(
            channels[i].coeffs.ends, solved[i].ends(), 1.0, epsilon)
        failed = _channel_checks(unit, cw, gains, defaultdict(dict))
        if failed and not last:
            failed = tuple(name for name in CHECK_ORDER if name in failed)
            return NetworkCertificate(False, epsilon, 0, None, failed), i

    ws = WeightSet(topo=topo, channels={})
    detail = defaultdict(dict)
    failed = set()
    for cw in _scaled(topo, epsilon, channels, solved, unit.channels):
        ws.channels[cw.channel] = cw
        detail["alphas"][cw.channel] = cw.alpha
        failed.update(_channel_checks(ws, cw, gains, detail))
        failed.update(_fine_checks(ws, cw, detail))
        if failed and not last:
            break
    failed = tuple(name for name in CHECK_ORDER if name in failed)
    return NetworkCertificate(not failed, epsilon, 0, ws, failed, **detail), cw.channel


def _check_epsilon_start(epsilon_start: float) -> float:
    """epsilon_start; ValueError if it is not positive and finite."""
    if not 0.0 < epsilon_start < math.inf:
        raise ValueError(f"epsilon_start must be positive and finite, not {epsilon_start!r}")
    return epsilon_start


def certify_network(
    topo: NetworkTopology,
    profiles: dict[int, SteadyProfile],
    gains: dict[int, float],
    epsilon_start: float = DEFAULT_EPSILON,
) -> NetworkCertificate:
    """Search a decreasing epsilon schedule for a full positivity certificate.

    Verifies, at each epsilon: positive outflow coefficient Z at every
    junction inflow face, negative inflow coefficient Z at every non-trunk
    inlet, positive definite junction matrices, a positive trunk inlet
    coefficient, positive terminal margins for the supplied gains, and a
    positive definite interior matrix N(x) at every fine-grid point of every
    channel. Epsilon is halved (at most ``MAX_HALVINGS`` times) whenever the
    comparison solution fails to exist or any check fails. Each attempt
    first solves the channels, the one where the last attempt stopped
    first, and decides at their ends at alpha = 1; only one whose every
    channel passes there reaches the fine grid (``_attempt``). The last
    attempt runs every check on the fine grid, so a refused certificate
    lists every failure at the final epsilon. An ``epsilon_start`` that is
    not positive and finite raises ValueError.
    """
    _check_epsilon_start(epsilon_start)
    for j in topo.terminal_channels:
        if j not in gains:
            raise MissingGain(j)
    channels = _channels(topo, profiles)
    epsilon = float(epsilon_start)
    stop = None
    for halvings in range(MAX_HALVINGS + 1):
        cert, stop = _attempt(topo, gains, epsilon, channels, halvings == MAX_HALVINGS, stop)
        if cert.certified or halvings == MAX_HALVINGS:
            return replace(cert, halvings=halvings)
        epsilon *= 0.5
