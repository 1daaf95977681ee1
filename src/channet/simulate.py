"""Time-domain simulation of flow networks with feedback boundary control.

The solver advances the deviation fields (h, v) = (H - H*, V - V*) of every
channel, held in one flat vector, with a first-order upwind finite-volume
scheme and a Heun step. Every flux and source term is assembled from
deviation quantities that vanish bitwise at h = v = 0, so the steady state is
an exact fixed point. Both the nonlinear system and its linearization fit

    dt h + dx F1 = 0,          F1 = H* v + V* h (+ h v),
    dt v + dx F2 = S,          F2 = V* v + g h (+ v^2 / 2),

with S the friction source relative to the steady baseline. The bracketed
terms carry the weight q, 0 linear and 1 nonlinear, and so does the depth
shift s(h) = h 2 g / (sqrt(g (H + q h)) + sqrt(g H)) of the characteristic
variables v +- s(h): both modes share one shift and one terminal feedback law
in q. The physics pair _Linear, _Nonlinear holds what else differs: the
source, the admission of a state, and how a run marches and samples.
Interior fluxes are upwinded in the characteristic variables of the frozen
steady Jacobian. Every flux is linear in the cell values, in their products
h v and v^2 / 2 and in the boundary-face fluxes, so the tendency is one sparse
matrix, built once, applied to those, plus the friction source. Each boundary
and junction face carries an exactly imposed state: the invariant of the
nearest cell with the imposed flux, feedback law or junction coupling leaves
one scalar equation in the face depth. A terminal's feedback law is solved in
closed form. Newton's method on Python floats solves a nonlinear root or
junction relation from the previous face values, one exact step a linear one.
Each Heun stage is one pass over its state: one admission gives the depths,
velocities, g H and V^2 that the subcriticality check, the stability bound
(first stage) and the friction source share; one face solve on Python floats
gives the faces with their boundary fluxes and net influx; and the sparse
matrix acts on a preallocated vector that the stage fills in place. The
nonlinear run steps these stages and reads V_ext from one product with the
stacked [L; L^2]. A linear run does not call step: its tendency is y' = A y,
with A from the chain rule through the face map F, so a Heun step is one
fixed matrix M. The run advances from one sample to the next by cached powers
of M, at most _BLOCK steps per product, and reads each sample through one
stacked observation operator built on the same [L; L^2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.sparse is imported where the operators are built, so that only a
# simulation loads it: importing channet loads no scipy.
from .errors import CflViolation, JunctionDivergence, MissingGain, NonPositiveV, RootSolveFailure
from .errors import SimulationError, SubcriticalLoss, TerminalSolveFailure
from .steady import FINE_REFINEMENT, SteadyProfile
from .topology import NetworkTopology, _count, validate_topology
# certify_network is not called here: perfbench's span test looks it up in
# this module by name, so the import goes when that test does
from .weights import WeightSet, certify_network  # noqa: F401

CFL_SAFETY = 0.9
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
DEFAULT_SAMPLES = 400
# most Heun steps one cached power of M takes: the cost per step is flat from
# about 6 steps up, while building M^b costs about b^2 and densifies it
_BLOCK = 8


@dataclass(frozen=True)
class Bump:
    """Smooth compact perturbation of one channel's deviation fields.

    center and width are fractions of the channel length; the profile is the
    quartic bump (1 - r^2)^4 on |r| < 1, zero outside, further damped to zero
    over the two cells adjacent to each face so the initial data is compatible
    with the boundary relations.
    """

    amplitude_h: float = 0.0
    amplitude_v: float = 0.0
    center: float = 0.5
    width: float = 0.5

    def __post_init__(self):
        for name in ("amplitude_h", "amplitude_v", "center"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"bump {name} must be finite, not {getattr(self, name)!r}")
        if not 0.0 < self.width < math.inf:
            raise ValueError(f"bump width must be positive and finite, not {self.width!r}")


@dataclass
class SimState:
    """Flat deviation vector y (h of every channel, then v) and solved faces.

    face holds the depths and velocities of the m inlet then m outlet faces,
    shape (2, 2m), from which a nonlinear face solve starts (None: from
    zero). NetworkSimulator.fields and face_states give per-channel views.
    """

    time: float
    y: np.ndarray
    face: np.ndarray | None


@dataclass(frozen=True, eq=False)
class LyapunovTrace:
    """Sampled Lyapunov and norm history of one run; cfl_bound is the
    stability bound at t = 0 from which dt is derived."""

    mode: str
    dt: float
    cfl_bound: float
    t: np.ndarray
    V: np.ndarray
    V_ext: np.ndarray
    l2: np.ndarray
    boundary_B: np.ndarray
    channel_l2: dict[int, np.ndarray]
    mass_deviation: np.ndarray
    mass_flux_integral: np.ndarray
    root_flux: float
    nu_hat: float
    r2: float
    fit_window: tuple[float, float]
    zero_trace: bool


class _Linear:
    """Linearized deviation physics. admit checks the cells of a flat state
    and returns the (H, V, g H, V^2) whose speeds bound a step from it and
    from which the source is taken. march yields the states a run reaches
    (step count, state, flux integral since the last one) and sample reads
    one for the trace. The depth shift and the terminal law are shared
    (_shift, _face_shift, _terminal_depths): quadratic weighs them too."""

    quadratic = 0.0  # weight of the h v and v^2 / 2 flux terms and of h in the shift
    headroom = 1.0  # share of the initial stability bound taken as the step

    def products(self, h, v, hv, vv):
        """The h v and v^2 / 2 flux terms, which stay zero."""

    def source(self, sim, h, v, admitted):
        return sim.src_h * h - sim.src_v * v

    def admit(self, sim, y):
        """No depth or Froude limit; the steady speeds bound every step."""
        H, V = sim.Hc, sim.Vc
        return H, V, sim.g * H, V * V

    def face_start(self, sim, face):
        """Every face relation is linear: None solves it exactly in one step."""
        return None

    def prepare(self, sim):
        """The operators A, F and the influx row, and the stacked observation."""
        sim.A, sim.F, sim._influx = sim._linear_operator()
        sim._O, sim._W = sim._observation()

    def march(self, sim, state, dt, nsteps, stride):
        return sim._propagate(state, dt, nsteps, stride)

    def sample(self, sim, state):
        return sim._observe(state.y)


class _Nonlinear:
    """Full deviation physics; a dry cell or face raises SubcriticalLoss."""

    quadratic = 1.0
    headroom = 0.98  # the bound tightens as speeds grow

    def products(self, h, v, hv, vv):
        """Write h v into hv and v^2 / 2 into vv."""
        np.multiply(h, v, out=hv)
        np.multiply(0.5, v, out=vv)
        vv *= v

    def source(self, sim, h, v, admitted):
        H, _, _, VV = admitted
        return sim.neg_gC * (VV / H**sim.p - sim.src0)

    def admit(self, sim, y):
        """Raise SubcriticalLoss at the first cell with g H <= V^2, which
        takes in every cell with H <= 0 as g > 0."""
        HV = sim.HVc + y
        H, V = HV[: sim.N], HV[sim.N :]
        gH, VV = sim.g * H, V * V
        bad = gH <= VV
        if bad.any():
            raise SubcriticalLoss(*sim._where_cell[int(np.argmax(bad))])
        return H, V, gH, VV

    def face_start(self, sim, face):
        """Newton starts from the previous faces, or from zero."""
        return np.zeros((2, 2 * sim.m)) if face is None else face

    def prepare(self, sim):
        """A nonlinear run steps the shared physics: it has no operators."""
        sim.A = sim.F = None

    def march(self, sim, state, dt, nsteps, stride):
        for n in range(1, nsteps + 1):
            state, dflux = sim.step(state, dt)
            yield n, state, dflux

    def sample(self, sim, state):
        return sim._sample(state)


_PHYSICS = {"linear": _Linear(), "nonlinear": _Nonlinear()}


def check_run_options(**options) -> None:
    """Raise ValueError for the first named run option (mode, cfl, T,
    sample_stride or max_samples) that the simulator does not accept."""
    rules = {"mode": (lambda x: x in _PHYSICS, "'linear' or 'nonlinear'"),
             "cfl": (lambda x: 0.0 < x <= 0.95, "in (0, 0.95]"),
             "T": (lambda x: 0.0 < x < math.inf, "positive and finite"),
             "sample_stride": (lambda x: x is None or _count(x), "a whole number, at least 1"),
             "max_samples": (_count, "a whole number, at least 1")}
    for name, value in options.items():
        accepts, text = rules[name]
        if not accepts(value):
            raise ValueError(f"{name} must be {text}, not {value!r}")


def _shift(h, H, g, q, where):
    """The depth shift s(h) of the characteristic variables v +- s(h) at the
    depths H, element-wise; where names the site of each element.

    With c = sqrt(g H) and e = sqrt(g (H + q h)), s = 2 (e - c) written as
    h 2 g / (e + c), which does not cancel as h -> 0; at q = 0 it is the
    linear h g / c. A depth H + q h <= 0 raises SubcriticalLoss.
    """
    arg = H + q * h
    dry = arg <= 0.0
    if dry.any():
        raise SubcriticalLoss(*where[int(np.flatnonzero(dry)[0])])
    return h * (2.0 * g / (np.sqrt(g * arg) + np.sqrt(g * H)))


def _face_shift(h, q, H, g, c, site):
    """(s(h), ds/dh) of _shift at one face in Python floats, c = sqrt(g H):
    the slope is g / e, so at q = 0 s is exactly the slope times h."""
    arg = H + q * h
    if arg <= 0.0:
        raise SubcriticalLoss(*site)
    e = math.sqrt(g * arg)
    return h * (2.0 * g / (e + c)), g / e


def _terminal_depths(q, inv, terminals):
    """Face depth h of each terminal's feedback law k h + s(h) = y1.

    With d = e - c (_shift), q s = 2 d and q h = d (2 c + d) / g, so q
    times the law reads (k / g) d^2 + B d - q y1 = 0 with B = 2 (1 + k c /
    g). The root that tends to q y1 / B as k -> 0 is taken in the form that
    does not cancel, and h = 2 y1 (2 c + d) / (g (B + R)), R = +-sqrt(B^2 +
    4 (k / g) q y1) of the sign of B; at q = 0 that is y1 / (k + g / c),
    exactly linear in y1. No real root, or |B| <= 1e-12 (the reflection pole
    k = -g / c, to within the rounding of either way of writing it), raises
    fail(); a root with c + d <= 0, or H + q h <= 0 in rounding, has no wet
    face depth.
    """
    out = []
    for f, k, (H, g, c, site), fail in terminals:
        y1 = inv[f]
        B = 2.0 * (1.0 + k * c / g)
        disc = B * B + 4.0 * (k / g) * q * y1
        if disc < 0.0 or abs(B) <= 1e-12:
            raise fail()
        BR = B + math.copysign(math.sqrt(disc), B)
        d = 2.0 * q * y1 / BR
        h = 2.0 * y1 * (2.0 * c + d) / (g * BR)
        if c + d <= 0.0 or H + q * h <= 0.0:
            raise SubcriticalLoss(*site)
        out.append(h)
    return out


def _solve_relation(q, a0, a1, face, a2, b, dust, scale, fail, h):
    """(h, s(h)) of Newton's method on one face relation G(h) = a0 + a1 h +
    a2 s(h) + b h s(h) + dust h / (H + q h) = 0 in Python floats (see
    NetworkSimulator._solve_faces), stopping at |G| <= NEWTON_TOL * scale.

    face is the (H, g, c, site) of _face_shift. The start h None takes the
    one step from zero that solves a linear relation exactly. fail() builds
    the typed error.
    """
    H, exact = face[0], h is None
    h, left = (0.0, 0) if exact else (h, NEWTON_MAX_ITER)
    while True:
        s, ds = _face_shift(h, q, *face)
        hh = H + q * h
        G = a0 + a1 * h + a2 * s + b * (h * s) + dust * h / hh
        if not exact and (abs(G) <= NEWTON_TOL * scale or left == 0):
            break
        dG = a1 + a2 * ds + b * (s + h * ds) + dust * H / (hh * hh)
        if exact:
            if dG == 0.0:
                raise fail()
            h = -G / dG
            return h, _face_shift(h, q, *face)[0]
        # a non-finite iterate shows up here as a non-finite slope
        if not (math.isfinite(dG) and abs(dG) >= 1e-14):
            raise fail()
        h -= G / dG
        left -= 1
    if not abs(G) <= 10.0 * NEWTON_TOL * scale:
        raise fail()
    return h, s


def _split(n, size):
    """n as parts of size and a smaller remainder: _split(13, 8) == [8, 5]."""
    return [size] * (n // size) + ([n % size] if n % size else [])


def _trapezoid_weights(x):
    """Weights w with w @ f = np.trapezoid(f, x)."""
    dx = np.diff(x)
    return np.concatenate(([dx[0]], dx[:-1] + dx[1:], [dx[-1]])) / 2.0


def _gradient_matrix(x):
    """Sparse matrix of np.gradient(., x, edge_order=1)."""
    from scipy import sparse

    dx = np.diff(x)
    d1, d2 = dx[:-1], dx[1:]
    lower = np.concatenate((-d2 / (d1 * (d1 + d2)), [-1.0 / dx[-1]]))
    main = np.concatenate(([-1.0 / dx[0]], (d2 - d1) / (d1 * d2), [1.0 / dx[-1]]))
    upper = np.concatenate(([1.0 / dx[0]], d1 / (d2 * (d1 + d2))))
    return sparse.diags([lower, main, upper], [-1, 0, 1])


class NetworkSimulator:
    """Upwind finite-volume integrator for one network configuration.

    mode selects the evolved system: "linear" advances the linearized
    deviation equations (the setting of the decay certificates), "nonlinear"
    the full equations written in deviation form. The Lyapunov weights are
    those of ``weights``, a certificate's weight set. Every public method
    runs the same code in both modes. Only a linear run reads A, the sparse
    operator of y' = A y, and F, the sparse face map (faces = F y); both are
    None in nonlinear mode. final_state is the state the last run ended in,
    None before one.
    """

    def __init__(self, topo: NetworkTopology, profiles: dict[int, SteadyProfile],
                 gains: dict[int, float], weights: WeightSet,
                 mode: str = "linear", cfl: float = CFL_SAFETY):
        check_run_options(mode=mode, cfl=cfl)
        self.cfl = cfl
        validate_topology(topo)
        for j in topo.terminal_channels:
            if j not in gains:
                raise MissingGain(j)
        self.topo = topo
        self.profiles = profiles
        self.gains = {j: float(k) for j, k in gains.items()}
        self.mode = mode
        self.phys = _PHYSICS[mode]
        self.weights = weights
        self.root_flux = profiles[topo.root_channel].flux
        self.final_state: SimState | None = None  # set by run
        self._layout()
        self._face_relations()
        self._instrumentation()
        self.phys.prepare(self)

    # -- flat layout ---------------------------------------------------------

    def _layout(self):
        """Concatenate every channel's samples at its offset in the flat state."""
        from scipy import sparse

        self.ids = ids = list(self.topo.channels)
        ps = [self.profiles[i] for i in ids]
        m, n = len(ids), np.array([pr.spec.cells for pr in ps])
        N = self.N = int(n.sum())
        self.m, self._starts = m, np.concatenate(([0], np.cumsum(n)[:-1]))
        start = self._starts
        self._slices = [(i, slice(a, a + k), slice(N + a, N + a + k))
                        for i, a, k in zip(ids, start, n)]
        Hc = np.concatenate([pr.H_centers for pr in ps])
        Vc = np.concatenate([pr.V_centers for pr in ps])
        specs = [(s.gravity, s.friction, s.friction_exponent, s.length / s.cells)
                 for s in (pr.spec for pr in ps)]
        g, fr, p, dx = (np.repeat(a, n) for a in zip(*specs))
        self.Hc, self.Vc, self.g, self.friction, self.p, self.dx = Hc, Vc, g, fr, p, dx
        self.HVc = np.concatenate((Hc, Vc))
        self.src_h = p * g * fr * Vc**2 / Hc ** (p + 1.0)
        self.src_v = 2.0 * g * fr * Vc / Hc**p
        self.src0 = Vc * Vc / Hc**p
        self.neg_gC = -g * fr
        loc = np.arange(N) - np.repeat(start, n)
        self._first, self._last = start, start + n - 1
        # boundary faces: m inlets then m outlets
        Hf, Vf = [pr.H_faces for pr in ps], [pr.V_faces for pr in ps]
        self._Hb = np.array([H[0] for H in Hf] + [H[-1] for H in Hf])
        self._Vb = np.array([V[0] for V in Vf] + [V[-1] for V in Vf])
        self._gb = np.concatenate((g[self._first], g[self._last]))
        self._bfaces = list(zip(self._Hb.tolist(), self._Vb.tolist(), self._gb.tolist()))
        self._sign = np.repeat([-1.0, 1.0], m)
        # dy = K [h, v, q h v, q v^2 / 2, B1, B2] plus the source, B the boundary
        # fluxes: a cell takes its left face's flux minus its right one's, over dx.
        # Interior face j between cells il[j] and il[j] + 1 carries the mean of
        # their fluxes less half of |A| times their jump, |A| the absolute steady
        # Jacobian in the (h, v) basis: diagonal c, off-diagonal H V / c, g V / c
        il = np.flatnonzero(loc < np.repeat(n, n) - 1)
        Hi, Vi = (np.concatenate([a[1:-1] for a in f]) for f in (Hf, Vf))
        gi, c = g[il], np.sqrt(g[il] * Hi)
        terms = ((0, 0, Vi, c), (0, N, Hi, Hi * Vi / c), (1, 0, gi, gi * Vi / c), (1, N, Vi, c),
                 (0, 2 * N, 1.0, 0.0), (1, 3 * N, 1.0, 0.0))  # (flux, column, mean, |A|)
        rows, cols, vals = map(list, zip(*(
            (k * N + to, col + cell, sign * 0.5 * (a + side * d) / dx[to])
            for cell, side in ((il, 1.0), (il + 1, -1.0)) for k, col, a, d in terms
            for to, sign in ((il + 1, 1.0), (il, -1.0)))))  # into the right cell, out of the left
        bnd = np.concatenate((self._first, self._last))
        self._ends = np.concatenate((bnd, N + bnd))  # h, then v, of the inlet then outlet cells
        rows += [bnd, N + bnd]
        cols += [4 * N + np.arange(2 * m), 4 * N + 2 * m + np.arange(2 * m)]
        vals += [-self._sign / dx[bnd]] * 2
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        self._K = sparse.csr_matrix((vals, (rows, cols)), shape=(2 * N, 4 * N + 4 * m))
        # the vector [h, v, q h v, q v^2 / 2, B1, B2] that K acts on, which each
        # stage fills in place through views of its four parts
        self._u = u = np.zeros(4 * N + 4 * m)
        self._u_parts = (u[: 2 * N], u[2 * N : 3 * N], u[3 * N : 4 * N], u[4 * N :])
        # the channel and cell[, face] of each cell and boundary face, named when it runs dry
        self._where_cell = [(i, int(k)) for i, k in zip(np.repeat(ids, n), loc)]
        self._where_face = ([(i, 0, "inlet") for i in ids]
                            + [(i, int(k) - 1, "outlet") for i, k in zip(ids, n)])

    def _face_relations(self):
        """Unknowns and coefficients of the face relations in Python floats (see _solve_faces)."""
        m = self.m
        ordinal = {i: k for k, i in enumerate(self.ids)}
        # one unknown depth per relation: root inlet, terminal outlets, junctions' incoming
        # outlets; an unknown's face f is also the index of its cell's invariant (_solve_faces)
        terminals, internal = list(self.topo.terminal_channels), list(self.topo.internal_channels)
        children = [[ordinal[c] for c in self.topo.junctions[i]] for i in internal]
        kr = ordinal[self.topo.root_channel]
        kt, kj = [m + ordinal[j] for j in terminals], [m + ordinal[i] for i in internal]
        ku = [kr] + kt + kj

        def at(H, g, sites):  # (H, g, sqrt(g H), site) of each face or cell
            return list(zip(H.tolist(), g.tolist(), np.sqrt(g * H).tolist(), sites))

        ends = self._ends[: 2 * m]
        cells = at(self.Hc[ends], self.g[ends], [self._where_cell[k] for k in ends])
        self._end_cells = [(*cell, sign) for cell, sign in zip(cells, self._sign.tolist())]
        faces = dict(zip(ku, at(self._Hb[ku], self._gb[ku], [self._where_face[k] for k in ku])))
        # the root's mass flux, whose tolerance scales with the steady flux
        H, _, c, _ = faces[kr]
        self._root = (kr, H, float(self._Vb[kr]), faces[kr], H * c,
                      lambda i=self.topo.root_channel: RootSolveFailure(
                          f"channel {i}: inlet flux solve diverged"))
        # the terminals' feedback laws, solved in closed form
        gains = [self.gains[j] for j in terminals]
        self._terminals = [
            (f, gain, faces[f], lambda j=j: TerminalSolveFailure(
                f"channel {j}: terminal feedback has no face depth"))
            for f, gain, j in zip(kt, gains, terminals)]
        # the junctions' mass balances, with the steady velocity mismatch of
        # the stored baselines (a few ulp at most); the tolerance scales with
        # the wave speed or the invariant, whichever is larger (_solve_faces)
        pr = self.profiles
        dust = [pr[i].flux / pr[i].outlet_depth
                - sum(pr[c].flux / pr[i].outlet_depth for c in self.topo.junctions[i])
                for i in internal]
        self._junctions = [(f, ch, faces[f], -1.0 - len(ch), d, faces[f][2],
                            lambda i=i: JunctionDivergence(i))
                           for f, ch, d, i in zip(kj, children, dust, internal)]
        # each face's unknown, the sign of s in its velocity, and a terminal's gain
        unknown = {f: u for u, f in enumerate(ku)}
        unknown |= {c: u for u, ch in enumerate(children, 1 + len(kt)) for c in ch}
        gain = dict(zip(kt, gains))
        self._face_map = [(unknown[f], 1.0 if f < m else -1.0, gain.get(f)) for f in range(2 * m)]

    def _instrumentation(self):
        """Trapezoid and Lyapunov weights, boundary-form terms, and the
        linearized characteristic system dt (y1, y2) = L (y1, y2) with
        centered spatial differences. The weights, speeds and couplings are
        the certificate's fine-grid arrays: at the centers their slice
        [R/2::R], R = FINE_REFINEMENT, at the inlet and outlet faces their
        first and last elements."""
        from scipy import sparse

        fine = []  # f1, f2, lambda1, lambda2, gamma1, delta1, gamma2, delta2 of each channel
        for i in self.ids:
            cw = self.weights.channels[i]
            c = cw.coeffs
            fine.append((cw.f1, cw.f2, c.lambda1, c.lambda2, c.gamma1, c.delta1, c.gamma2,
                         c.delta2))
        # the boundary terms at the m inlets, then the m outlets
        f1, f2, lam1, lam2 = np.array([[a[k] for a in q[:4]] for k in (0, -1) for q in fine]).T
        self._f1lam1, self._f2lam2 = f1 * lam1, f2 * lam2
        R = FINE_REFINEMENT
        f1, f2, lam1, lam2, g1, d1, g2, d2 = (
            np.concatenate([a[R // 2 :: R] for a in arrays]) for arrays in zip(*fine))
        x = [self.profiles[i].x_centers for i in self.ids]
        self._w = np.concatenate([_trapezoid_weights(xc) for xc in x])
        self._wf = np.concatenate((self._w * f1, self._w * f2))
        D = sparse.block_diag([_gradient_matrix(xc) for xc in x])
        diag = sparse.diags
        L = sparse.bmat(
            [[-diag(lam1) @ D - diag(g1), -diag(d1)], [-diag(g2), diag(lam2) @ D - diag(d2)]]
        ).tocsr()
        self._LL = sparse.vstack([L, L @ L]).tocsr()  # [L; L^2], one product for V_ext

    def fields(self, y: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per-channel views of the flat state y: id -> (h, v)."""
        return {i: (y[sh], y[sv]) for i, sh, sv in self._slices}

    def _face_dict(self, f):
        inlet, outlet = f[:, : self.m].T.tolist(), f[:, self.m :].T.tolist()
        return {i: (*inlet[k], *outlet[k]) for k, i in enumerate(self.ids)}

    def _linear_operator(self):
        """(A, F, influx row) of the linear right-hand side, by the chain rule.

        The faces are linear in the end cells, F holding the faces of each
        unit end cell, and the tendency is linear in the state and the faces:
        A is the state's part of the flux matrix plus the source's diagonals
        plus T F, T the tendencies of the 4m unit faces at y = 0. The influx
        row is likewise that of the unit faces times F.
        """
        from scipy import sparse

        N, m4, ends = self.N, 4 * self.m, np.unique(self._ends)
        unit = np.zeros((ends.size, 2 * N))
        unit[np.arange(ends.size), ends] = 1.0
        face = np.array([self._solve_faces(y, None)[0].ravel() for y in unit])
        b, k = np.nonzero(face)
        F = sparse.csr_matrix((face[b, k], (k, ends[b])), shape=(m4, 2 * N))
        zero, unit_faces = np.zeros(2 * N), np.identity(m4).reshape(m4, 2, -1)
        steady = self.phys.admit(self, zero)
        dY, _, influx = zip(*(
            self._tendency(zero, (f, *self._boundary_fluxes(*f.tolist())), steady)
            for f in unit_faces))
        T = sparse.csr_matrix(np.array(dY).T)
        one, none = np.ones(N), np.zeros(N)
        source = sparse.diags([self.phys.source(self, one, none, steady),
                               np.concatenate((none, self.phys.source(self, none, one, steady)))],
                              [-N, 0], shape=(2 * N, 2 * N))
        A = (self._K[:, : 2 * N] + source + T @ F).tocsr()
        return A, F, F.T @ np.array(influx)

    def initial_state(self, perturbation: dict[int, Bump] | None = None) -> SimState:
        """The steady state plus each channel's bump; ValueError if a key of
        perturbation names no channel."""
        stray = sorted(set(perturbation or ()) - set(self.ids))
        if stray:
            raise ValueError(f"perturbation of channel(s) {', '.join(map(str, stray))}, "
                             "which are not in the network")
        y = np.zeros(2 * self.N)
        for i, (h, v) in self.fields(y).items():
            pr = self.profiles[i]
            bump = None if perturbation is None else perturbation.get(i)
            if bump is not None and (bump.amplitude_h != 0.0 or bump.amplitude_v != 0.0):
                r = (pr.x_centers - bump.center * pr.length) / (0.5 * bump.width * pr.length)
                shape = (1.0 - np.minimum(r * r, 1.0)) ** 4
                cells = np.arange(h.size, dtype=float)
                edge = np.minimum(cells, h.size - 1 - cells)
                ramp = np.clip((edge - 1.0) / 2.0, 0.0, 1.0)
                shape *= ramp * ramp * (3.0 - 2.0 * ramp)
                h += bump.amplitude_h * shape
                v += bump.amplitude_v * shape
        self.phys.admit(self, y)
        return SimState(0.0, y, np.zeros((2, 2 * self.m)))

    def _observation(self):
        """(O, W) of the linear samples: O stacks [C; L C; L^2 C; C_b F; I]
        and W turns the squares of O y into V, V_ext, B and the squared
        channel L2 norms. C maps the flat state to the linear characteristic
        fields (v + s h, v - s h), s = g / sqrt(g H), C_b does so at the faces."""
        from scipy import sparse

        def char(s):
            S, I = sparse.diags(s), sparse.identity(s.size)
            return sparse.bmat([[S, I], [-S, I]])

        C = char(self.g / np.sqrt(self.g * self.Hc))
        Cb = char(self._gb / np.sqrt(self._gb * self._Hb)) @ self.F
        O = sparse.vstack([C, self._LL @ C, Cb, sparse.identity(2 * self.N)]).tocsr()
        wf = sparse.csr_matrix(self._wf)
        sign = self._sign
        bw = sparse.csr_matrix(np.concatenate((sign * self._f1lam1, -sign * self._f2lam2)))
        channel = np.repeat(np.arange(self.m), np.diff(np.append(self._starts, self.N)))
        E = sparse.csr_matrix((self._w, (channel, np.arange(self.N))), shape=(self.m, self.N))
        W = sparse.bmat([[wf, None, None, None, None],
                         [wf, wf, wf, None, None],
                         [None, None, None, bw, None],
                         [None, None, None, None, sparse.hstack([E, E])]])
        return O, W.tocsr()

    def cfl_dt(self, state: SimState) -> float:
        """Largest stable step, CFL safety times min over cells of dx / speed,
        with the speeds of the state's admission; in linear mode the steady
        ones."""
        return self._bound(self.phys.admit(self, state.y))

    def _bound(self, admitted):
        _, V, gH, _ = admitted
        speed = np.sqrt(gH)
        speed += np.abs(V)
        return self.cfl * float((self.dx / speed).min())

    def _solve_faces(self, y, start):
        """(faces, B1, B2, net boundary mass influx) of the flat state y: the
        face depths and velocities, shape (2, 2m), and the boundary fluxes
        of the inlet then outlet faces as lists.

        Each face relation is G(h) = a0 + a1 h + a2 s(h) + b h s(h) +
        c h / (H + q h) = 0 in a face depth h, with s the depth shift, y2 the
        outgoing invariant of an inlet cell and y1 the incoming one of an
        outlet cell: the root's mass flux H v + V h + q h v with v = y2 + s
        (a0 = H y2, a1 = V + q y2, a2 = H, b = q); a junction's mass balance
        y1 - sum y2 = (n + 1) s - c h / (H + q h) over n children, c the
        steady velocity mismatch (a0 = y1 - sum y2, a2 = -(n + 1)). Newton
        starts from the faces in start; None takes the exact linear step. A
        terminal's feedback law k h = y1 - s is solved in closed form. One
        pass on Python floats: one loop gives the end cells' invariants with
        _shift's formula, Newton returns the shift at each unknown it
        solves, and the boundary fluxes follow from the faces.
        """
        m, q = self.m, self.phys.quadratic
        end = y[self._ends].tolist()
        # y2 of the m inlet cells, then y1 of the m outlet cells
        inv = []
        for h, v, (H, g, c, site, sign) in zip(end[: 2 * m], end[2 * m :], self._end_cells):
            arg = H + q * h
            if arg <= 0.0:
                raise SubcriticalLoss(*site)
            inv.append(v + sign * (h * (2.0 * g / (math.sqrt(g * arg) + c))))
        start = None if start is None else start[0].tolist()
        f, H, V, face, scale, fail = self._root
        h, s = _solve_relation(q, H * inv[f], V + q * inv[f], face, H, q, 0.0, scale, fail,
                               None if start is None else start[f])
        # the unknowns and their shifts in order: root, terminals, junctions;
        # a terminal face's velocity is its gain times its depth, not a shift
        hu = [h, *_terminal_depths(q, inv, self._terminals)]
        su = [s] + [0.0] * len(self._terminals)
        for f, children, face, a2, dust, speed, fail in self._junctions:
            a0 = inv[f] - sum([inv[k] for k in children])
            h, s = _solve_relation(q, a0, 0.0, face, a2, 0.0, dust, max(speed, abs(a0)),
                                   fail, None if start is None else start[f])
            hu.append(h)
            su.append(s)
        fh, fv = [], []
        for f, (u, sign, gain) in enumerate(self._face_map):
            h = hu[u]
            fh.append(h)
            fv.append(inv[f] + sign * su[u] if gain is None else gain * h)
        return (np.array((fh, fv)), *self._boundary_fluxes(fh, fv))

    def _boundary_fluxes(self, fh, fv):
        """(B1, B2, net boundary mass influx) of the lists fh, fv of face
        depths and velocities, inlets then outlets; B1 and B2 as lists."""
        q, m, B1, B2 = self.phys.quadratic, self.m, [], []
        for (H, V, g), h, v in zip(self._bfaces, fh, fv):
            B1.append(H * v + V * h + q * (h * v))
            B2.append(V * v + q * (0.5 * v * v) + g * h)
        return B1, B2, sum(B1[:m]) - sum(B1[m:])

    def face_states(self, state: SimState, flat: bool = False):
        """Every boundary and junction face: channel id -> (h0, v0, hL, vL), or
        the (2, 2m) array if flat. A nonlinear solve starts from the state's
        faces, a linear one is exact from None."""
        f = self._solve_faces(state.y, self.phys.face_start(self, state.face))[0]
        return f if flat else self._face_dict(f)

    # -- semi-discrete right-hand side ---------------------------------------

    def _tendency(self, y, faces, admitted):
        """(dy, face, net boundary mass influx) of the flat state y, its
        admission and its solved faces, B1 and B2 (_solve_faces)."""
        N, (uy, hv, vv, uB) = self.N, self._u_parts
        face, B1, B2, influx = faces
        h, v = y[:N], y[N:]
        uy[:] = y
        self.phys.products(h, v, hv, vv)
        uB[:] = B1 + B2
        dy = self._K @ self._u
        dy[N:] += self.phys.source(self, h, v, admitted)
        return dy, face, influx

    def rhs(self, state: SimState, dt: float | None = None):
        """Flat tendencies, solved faces, and the net boundary mass influx of
        the state, which one pass admits. Given dt, a step dt above the
        state's stability bound raises CflViolation first."""
        admitted = self.phys.admit(self, state.y)
        if dt is not None:
            self._check_step(dt, self._bound(admitted), state.time)
        faces = self._solve_faces(state.y, self.phys.face_start(self, state.face))
        return self._tendency(state.y, faces, admitted)

    def _check_step(self, dt: float, bound: float, time: float):
        """Refuse a step dt above the stability bound of the state at time."""
        if dt > bound * (1.0 + 1e-12):
            raise CflViolation(f"dt = {dt:.6e} exceeds the stability bound {bound:.6e} "
                               f"at t = {time:.6e}")

    def step(self, state: SimState, dt: float):
        """One Heun (two-stage Runge-Kutta) step: (new state, flux integral).

        Each stage admits its state once; the first stage's admission also
        bounds dt. The flux integral applies the scheme's own quadrature to
        the net boundary mass influx, so stored mass and ledger agree to
        round-off."""
        k1, face1, influx1 = self.rhs(state, dt)
        mid = SimState(state.time + dt, state.y + dt * k1, face1)
        k2, face2, influx2 = self.rhs(mid)
        new = SimState(state.time + dt, state.y + 0.5 * dt * (k1 + k2), face2)
        return new, 0.5 * dt * (influx1 + influx2)

    # -- instrumentation -----------------------------------------------------

    def _char_fields(self, y):
        s = _shift(y[: self.N], self.Hc, self.g, self.phys.quadratic, self._where_cell)
        v = y[self.N :]
        return np.concatenate((v + s, v - s))

    def _weighted(self, z):
        return float(self._wf @ (z * z))

    def lyapunov_value_state(self, state: SimState) -> float:
        """Weighted characteristic norm of the current deviation fields."""
        return self._weighted(self._char_fields(state.y))

    def lyapunov_extended(self, state: SimState) -> tuple[float, float]:
        """(V, V_ext): the weighted norm and its two-derivative extension, with
        the time derivatives of the characteristic fields taken from the
        linearized system dt y1 = -lam1 dx y1 - gamma1 y1 - delta1 y2,
        dt y2 = lam2 dx y2 - gamma2 y1 - delta2 y2 (the operator L), twice."""
        z = self._char_fields(state.y)
        V = self._weighted(z)
        u = self._LL @ z
        return V, V + self._weighted(u[: z.size]) + self._weighted(u[z.size :])

    def boundary_form(self, state: SimState) -> float:
        """B(t), the sum over channels of [f1 lam1 y1^2 - f2 lam2 y2^2]_0^L."""
        f = self.face_states(state, flat=True)
        s = _shift(f[0], self._Hb, self._gb, self.phys.quadratic, self._where_face)
        y1, y2 = f[1] + s, f[1] - s
        return float(self._sign @ (self._f1lam1 * y1**2 - self._f2lam2 * y2**2))

    def _sample(self, state: SimState):
        """V, V_ext, B, stored mass and per-channel L2 norms of one state."""
        h, v = state.y[: self.N], state.y[self.N :]
        norms = np.sqrt(np.add.reduceat(self._w * (h * h + v * v), self._starts))
        V, V_ext = self.lyapunov_extended(state)
        return (V, V_ext, self.boundary_form(state), float(self.dx @ h), *norms)

    def _observe(self, y):
        """_sample of the flat state y on the linear operator path, through
        the stacked observation operator."""
        u = self._O @ y
        V, V_ext, B, *squares = (self._W @ (u * u)).tolist()
        return (V, V_ext, B, float(self.dx @ y[: self.N]), *map(math.sqrt, squares))

    # -- marching ------------------------------------------------------------

    def _propagate(self, state: SimState, dt: float, nsteps: int, stride: int):
        """The sampled states of a linear run: (step count, state, flux
        integral since the last sample).

        A Heun step of y' = A y is the fixed matrix M = I + dt A + dt^2 A^2 / 2,
        and its ledger increment the fixed row r = dt q + dt^2 A^T q / 2, q the
        influx row. The run advances by the cached powers M^b and rows
        R_b = sum_{j<b} r M^j of the blocks of at most _BLOCK steps that make
        up each stride and the final partial stride. The speeds are frozen,
        so one stability check covers every step.
        """
        from scipy import sparse

        self._check_step(dt, self.cfl_dt(state), state.time)
        A, q = self.A, self._influx
        M = (sparse.identity(2 * self.N) + dt * A + (0.5 * dt * dt) * (A @ A)).tocsr()
        r = dt * q + (0.5 * dt * dt) * (A.T @ q)
        gaps = _split(nsteps, stride)
        plans = {g: _split(g, _BLOCK) for g in gaps}
        sizes = {b for plan in plans.values() for b in plan}
        powers, P, R, u = {}, M, r, r
        for b in range(1, max(sizes) + 1):
            if b > 1:
                P, u = P @ M, M.T @ u
                R = R + u
            if b in sizes:
                powers[b] = P, R
        y, n = state.y, 0
        for gap in gaps:
            dflux = 0.0
            for b in plans[gap]:
                P, R = powers[b]
                dflux += float(R @ y)
                y = P @ y
            n += gap
            yield n, SimState(n * dt, y, None), dflux

    # -- driver --------------------------------------------------------------

    def run(self, perturbation: dict[int, Bump] | None, T: float,
            max_samples: int = DEFAULT_SAMPLES, sample_stride: int | None = None) -> LyapunovTrace:
        """Advance the perturbed steady state to time T and sample the decay.

        The time step is fixed from the initial CFL bound, re-checked every
        step, or once where the speeds are frozen. Samples land every
        sample_stride steps when given, otherwise about max_samples times
        over the run. The decay rate and its R^2 are fitted on ln V over
        [0.2 T, T], and are NaN where V is zero or under two samples fall in it.
        """
        check_run_options(T=T, sample_stride=sample_stride, max_samples=max_samples)
        now = 0.0  # time of the last state reached, stamped on a SimulationError
        try:
            state = self.initial_state(perturbation)
            bound = self.cfl_dt(state)
            nsteps = max(1, math.ceil(T / (bound * self.phys.headroom)))
            dt = T / nsteps
            stride = (max(1, nsteps // int(max_samples)) if sample_stride is None
                      else int(sample_stride))
            flux_integral = 0.0
            rows = [(0.0, flux_integral, *self.phys.sample(self, state))]
            for n, state, dflux in self.phys.march(self, state, dt, nsteps, stride):
                now = n * dt
                flux_integral += dflux
                if n % stride == 0 or n == nsteps:
                    rows.append((now, flux_integral, *self.phys.sample(self, state)))
        except SimulationError as exc:
            exc.sim_time = now
            raise

        self.final_state = state
        t, flux_integrals, V, V_ext, B, mass, *norms = np.array(rows).T
        zero = bool(np.all(V == 0.0))
        window = (0.2 * T, T)
        nu_hat, r2 = math.nan, math.nan
        if not zero and np.count_nonzero(_in_window(t, window)) >= 2:
            nu_hat, r2 = decay_fit((t, V), window)
        return LyapunovTrace(
            mode=self.mode, dt=dt, cfl_bound=bound, t=t, V=V, V_ext=V_ext,
            l2=np.sqrt(np.sum(np.square(norms), axis=0)), boundary_B=B,
            channel_l2=dict(zip(self.ids, norms)), mass_deviation=mass,
            mass_flux_integral=flux_integrals, root_flux=self.root_flux,
            nu_hat=nu_hat, r2=r2, fit_window=window, zero_trace=zero,
        )


def _in_window(t, window):
    return (t >= window[0]) & (t <= window[1])


def decay_fit(samples, window: tuple[float, float]) -> tuple[float, float]:
    """Least-squares decay rate of ln V over the window: (nu_hat, r_squared).

    samples is a (t, V) pair of arrays. Raises ValueError when fewer than
    two samples fall in the window, NonPositiveV when V is not strictly
    positive on it.
    """
    t, V = (np.asarray(a, dtype=float) for a in samples)
    mask = _in_window(t, window)
    if np.count_nonzero(mask) < 2:
        raise ValueError("fit window contains fewer than two samples")
    if np.any(V[mask] <= 0.0):
        raise NonPositiveV("V is not strictly positive on the fit window")
    logs = np.log(V[mask])
    spread = float(np.max(logs) - np.min(logs))
    if spread <= 1e-12 * max(1.0, float(np.max(np.abs(logs)))):
        return 0.0, 1.0
    slope, intercept = np.polyfit(t[mask], logs, 1)
    pred = slope * t[mask] + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r2


def mass_balance(trace: LyapunovTrace) -> float:
    """Largest per-unit-time defect between stored mass and boundary influx."""
    dm = trace.mass_deviation - trace.mass_deviation[0]
    defect = np.abs(dm - trace.mass_flux_integral)
    t = np.maximum(trace.t, trace.dt)
    return float(np.max(defect / t))

