"""Time-domain simulation of flow networks with feedback boundary control.

The solver advances the deviation fields (h, v) = (H - H*, V - V*) of every
channel, held in one flat vector, with a first-order upwind finite-volume
scheme and a Heun step. Every flux and source term is assembled from
deviation quantities that vanish bitwise at h = v = 0, so the steady state is
an exact fixed point. Both the nonlinear system and its linearization fit

    dt h + dx F1 = 0,          F1 = H* v + V* h (+ h v),
    dt v + dx F2 = S,          F2 = V* v + g h (+ v^2 / 2),

with S the friction source relative to the steady baseline; the modes differ
only in the bracketed terms, the characteristic depth shift and the source.
Interior fluxes are upwinded in the characteristic variables of the frozen
steady Jacobian. Every flux is linear in the cell values, in their products
h v and v^2 / 2 and in the boundary-face fluxes, so the tendency is one sparse
matrix, built once, applied to those, plus the friction source. Each boundary
and junction face carries an exactly imposed state: the invariant of the
nearest cell with the imposed flux, feedback law or junction coupling leaves
one scalar equation in the face depth, and Newton's method on Python floats
solves them one at a time from the previous face values. In linear mode every
relation is linear, y' = A y with faces F y: both sparse operators are probed
once, and a Heun step is two matrix-vector products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.sparse is imported where the operators are built, so that only a
# simulation loads it: importing channet loads no scipy.
from .errors import CflViolation, JunctionDivergence, MissingGain, NonPositiveV, RootSolveFailure
from .errors import SimulationError, SubcriticalLoss, TerminalSolveFailure, WeightError
from .steady import FINE_REFINEMENT, SteadyProfile
from .topology import NetworkTopology, validate_topology
from .weights import WeightSet, certify_network

CFL_SAFETY = 0.9
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
DEFAULT_SAMPLES = 400


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


@dataclass
class SimState:
    """Flat deviation vector y (h of every channel, then v) and solved faces.

    face holds the depths and velocities of the m inlet then m outlet faces,
    shape (2, 2m), and seeds the next Newton face solve; it is None on the
    linear operator path, where the faces are F y. fields and faces give the
    per-channel views: id -> (h, v), and id -> (h0, v0, hL, vL).
    """

    time: float
    y: np.ndarray
    face: np.ndarray | None
    sim: "NetworkSimulator"

    @property
    def fields(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        return self.sim._views(self.y)

    @property
    def faces(self) -> dict[int, tuple[float, float, float, float]]:
        if self.face is None:
            return self.sim.face_states(self)
        return self.sim._face_dict(self.face)


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
    """Linearized deviation physics. shift returns the depth part of the
    characteristic variables and its slope in h, face_shift the same on
    Python floats given c = sqrt(g H); admit checks the cell depths and
    velocities H, V of a state."""

    quadratic = 0.0  # weight of the h v and v^2 / 2 flux terms
    headroom = 1.0  # share of the initial stability bound taken as the step

    def shift(self, h, H, g, where):
        s = np.sqrt(g / H)
        return h * s, s

    def face_shift(self, h, H, g, c, site):
        s = math.sqrt(g / H)
        return h * s, s

    def source(self, sim, h, v):
        return sim.src_h * h - sim.src_v * v

    def admit(self, sim, H, V):
        """The linearized system has no depth or Froude limit."""


class _Nonlinear:
    """Full deviation physics; a dry cell or face raises SubcriticalLoss."""

    quadratic = 1.0
    headroom = 0.98  # the bound tightens as speeds grow

    def shift(self, h, H, g, where):
        arg = H + h
        dry = arg <= 0.0
        if dry.any():
            raise SubcriticalLoss(*where[int(np.flatnonzero(dry)[0])])
        return 2.0 * (np.sqrt(g * arg) - np.sqrt(g * H)), np.sqrt(g / arg)

    def face_shift(self, h, H, g, c, site):
        arg = H + h
        if arg <= 0.0:
            raise SubcriticalLoss(*site)
        return 2.0 * (math.sqrt(g * arg) - c), math.sqrt(g / arg)

    def source(self, sim, h, v):
        V = sim.Vc + v
        return -sim.g * sim.friction * (V * V / (sim.Hc + h) ** sim.p - sim.src0)

    def admit(self, sim, H, V):
        bad = (H <= 0.0) | (sim.g * H - V * V <= 0.0)
        if bad.any():
            raise SubcriticalLoss(*sim._where_cell[int(np.argmax(bad))])


_PHYSICS = {"linear": _Linear(), "nonlinear": _Nonlinear()}


def _solve_relation(residual, start, scale, fail):
    """Newton iteration on one face relation in Python floats, stopping at
    |G| <= NEWTON_TOL * scale.

    residual(h) returns (G, dG/dh). start None takes the one step from zero
    that solves a linear relation exactly. fail() builds the typed error.
    """
    if start is None:
        G, dG = residual(0.0)
        if dG == 0.0:
            raise fail()
        return -G / dG
    h = start
    for _ in range(NEWTON_MAX_ITER):
        G, dG = residual(h)
        if abs(G) <= NEWTON_TOL * scale:
            return h
        # a non-finite iterate shows up here as a non-finite slope
        if not (math.isfinite(dG) and abs(dG) >= 1e-14):
            raise fail()
        h -= G / dG
    if not abs(residual(h)[0]) <= 10.0 * NEWTON_TOL * scale:
        raise fail()
    return h


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
    taken from ``weights`` or recomputed by certifying the supplied gains.
    In linear mode A is the sparse operator of y' = A y and F the sparse
    face map (faces = F y); both are None in nonlinear mode.
    """

    def __init__(self, topo: NetworkTopology, profiles: dict[int, SteadyProfile],
                 gains: dict[int, float], weights: WeightSet | None = None,
                 mode: str = "linear", cfl: float = CFL_SAFETY):
        if mode not in _PHYSICS:
            raise ValueError(f"unknown mode {mode!r}")
        if not 0.0 < cfl <= 0.95:
            raise ValueError("cfl must lie in (0, 0.95]")
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
        if weights is None:
            weights = certify_network(topo, profiles, gains).weights
        if weights is None:
            raise WeightError("no weight set available for Lyapunov instrumentation")
        self.weights = weights
        self.root_flux = profiles[topo.root_channel].flux
        self._final = None  # time, y and face of the last run's end state
        self._layout()
        self._face_relations()
        self._instrumentation()
        self.A = self.F = None
        if mode == "linear":
            self._frozen_bound = self.cfl_dt(SimState(0.0, np.zeros(2 * self.N), None, self))
            self.A, self.F, self._influx = self._linear_operator()

    @property
    def final_state(self) -> SimState | None:
        """State at the end of the last run, None before one. It is built on
        access, so the simulator keeps no state that refers back to it: that
        cycle would hold a finished simulator until the cyclic garbage
        collector ran."""
        return None if self._final is None else SimState(*self._final, self)

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
        self.src_h = p * g * fr * Vc**2 / Hc ** (p + 1.0)
        self.src_v = 2.0 * g * fr * Vc / Hc**p
        self.src0 = Vc * Vc / Hc**p
        loc = np.arange(N) - np.repeat(start, n)
        self._first, self._last = start, start + n - 1
        self._interior = (loc > 0) & (loc < np.repeat(n, n) - 1)
        self._loc = loc
        # boundary faces: m inlets then m outlets
        Hf, Vf = [pr.H_faces for pr in ps], [pr.V_faces for pr in ps]
        self._Hb = np.array([H[0] for H in Hf] + [H[-1] for H in Hf])
        self._Vb = np.array([V[0] for V in Vf] + [V[-1] for V in Vf])
        self._gb = np.concatenate((g[self._first], g[self._last]))
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
        # the channel and cell[, face] of each cell and boundary face, named when it runs dry
        self._where_cell = [(i, int(k)) for i, k in zip(np.repeat(ids, n), loc)]
        self._where_face = ([(i, 0, "inlet") for i in ids]
                            + [(i, int(k) - 1, "outlet") for i, k in zip(ids, n)])

    def _face_relations(self):
        """Unknowns and coefficients of the face relations in Python floats (see _solve_faces)."""
        m, q = self.m, self.phys.quadratic
        ordinal = {i: k for k, i in enumerate(self.ids)}
        # one unknown depth per relation: root inlet, terminal outlets, junctions' incoming outlets
        terminals, internal = list(self.topo.terminal_channels), list(self.topo.internal_channels)
        children = [self.topo.junctions[i] for i in internal]
        self._kr = ordinal[self.topo.root_channel]
        self._kt, self._kj = [ordinal[j] for j in terminals], [ordinal[i] for i in internal]
        self._kc = [[ordinal[c] for c in ch] for ch in children]
        self._k = [self.gains[j] for j in terminals]
        ku = [self._kr] + [m + k for k in self._kt + self._kj]

        def at(H, g, sites):  # (H, g, sqrt(g H), site) of each face or cell
            return list(zip(H.tolist(), g.tolist(), np.sqrt(g * H).tolist(), sites))

        ends = self._ends[: 2 * m]
        self._end_cells = at(self.Hc[ends], self.g[ends], [self._where_cell[k] for k in ends])
        faces = at(self._Hb[ku], self._gb[ku], [self._where_face[k] for k in ku])
        self._Hr, self._Vr = faces[0][0], float(self._Vb[self._kr])
        # steady velocity mismatch of the stored baselines, a few ulp at most
        pr = self.profiles
        dust = [pr[i].flux / pr[i].outlet_depth - sum(pr[c].flux / pr[i].outlet_depth for c in ch)
                for i, ch in zip(internal, children)]
        nt = len(terminals)
        a2 = [self._Hr] + [1.0] * nt + [-1.0 - len(ch) for ch in children]
        b = [q] + [0.0] * (len(ku) - 1)
        # the root's tolerance scales with its steady flux, the others' with
        # the wave speed or the invariant, whichever is larger
        scale = [self._Hr * faces[0][2]] + [c for _, _, c, _ in faces[1:]]
        message = "channel {}: {} solve diverged"
        fail = [lambda i=self.topo.root_channel: RootSolveFailure(message.format(i, "inlet flux"))]
        fail += [lambda j=j: TerminalSolveFailure(message.format(j, "terminal feedback"))
                 for j in terminals]
        fail += [lambda i=i: JunctionDivergence(i) for i in internal]
        wide = [0.0] + [1.0] * (len(ku) - 1)  # weight of |a0| in the scale
        self._relations = list(zip(ku, faces, a2, b, [0.0] * (1 + nt) + dust, scale, wide, fail))
        # each face's unknown, the sign of s in its velocity, and a terminal's gain
        unknown = {f: u for u, f in enumerate(ku)}
        unknown |= {c: u for u, ch in enumerate(self._kc, 1 + nt) for c in ch}
        gain = {m + k: g for k, g in zip(self._kt, self._k)}
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
        self._L = sparse.bmat(
            [[-diag(lam1) @ D - diag(g1), -diag(d1)], [-diag(g2), diag(lam2) @ D - diag(d2)]]
        ).tocsr()

    def _views(self, y):
        return {i: (y[sh], y[sv]) for i, sh, sv in self._slices}

    def _face_dict(self, f):
        inlet, outlet = f[:, : self.m].T.tolist(), f[:, self.m :].T.tolist()
        return {i: (*inlet[k], *outlet[k]) for k, i in enumerate(self.ids)}

    def _linear_operator(self):
        """(A, F, influx row) of the linear right-hand side, probed once.

        An interior cell reaches only its own and its neighbours' tendencies,
        so interior cells three apart share a probe; a boundary cell, which
        also reaches the faces, is probed alone. No dense N x N array is formed.
        """
        from scipy import sparse

        N, loc = self.N, self._loc
        groups = [(part, r) for part in (0, 1) for r in range(3)]
        bnd = np.flatnonzero(~self._interior)
        bcols = np.concatenate((bnd, N + bnd))
        Y = np.zeros((len(groups) + bcols.size, 2 * N))
        for g, (part, r) in enumerate(groups):
            Y[g, part * N + np.flatnonzero(self._interior & (loc % 3 == r))] = 1.0
        Y[len(groups) + np.arange(bcols.size), bcols] = 1.0
        face = np.array([self._solve_faces(y, None) for y in Y])
        dY, _, influx = (np.array(a) for a in zip(*map(self._tendency, Y, face)))
        dY_b, face_b = dY[len(groups) :], face[len(groups) :].reshape(bcols.size, -1)
        cell = np.arange(2 * N) % N
        rows, cols = [], []
        for g, (part, r) in enumerate(groups):
            # the row of cell c belongs to the probed cell among c - 1, c, c + 1
            owner = np.clip(cell + (r - loc[cell] + 1) % 3 - 1, 0, N - 1)
            sel = np.flatnonzero(self._interior[owner] & (dY[g] != 0.0))
            rows.append((np.full(sel.size, g), sel))
            cols.append(part * N + owner[sel])
        b, sel = np.nonzero(dY_b)
        rows.append((len(groups) + b, sel))
        cols.append(bcols[b])
        probe, row = (np.concatenate(a) for a in zip(*rows))
        A = sparse.csr_matrix((dY[probe, row], (row, np.concatenate(cols))), shape=(2 * N, 2 * N))
        b, k = np.nonzero(face_b)
        F = sparse.csr_matrix((face_b[b, k], (k, bcols[b])), shape=(face_b.shape[1], 2 * N))
        q = np.zeros(2 * N)
        q[bcols] = influx[len(groups) :]
        return A, F, q

    def initial_state(self, perturbation: dict[int, Bump] | None = None) -> SimState:
        y = np.zeros(2 * self.N)
        for i, (h, v) in self._views(y).items():
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
        self._admit(y)
        return SimState(0.0, y, np.zeros((2, 2 * self.m)), self)

    def _admit(self, y):
        """Cell depths and velocities (H, V) of the flat state y, admitted by
        the physics."""
        H, V = self.Hc + y[: self.N], self.Vc + y[self.N :]
        self.phys.admit(self, H, V)
        return H, V

    def cfl_dt(self, state: SimState) -> float:
        """Largest stable step, CFL safety times min over cells of dx / speed;
        the linear operator path freezes the speeds at the steady state. The
        speeds come from the pass that admits the state, so step does not
        check it again."""
        if self.A is not None:
            return self._frozen_bound
        H, V = self._admit(state.y)
        return self.cfl * float(np.min(self.dx / (np.abs(V) + np.sqrt(self.g * H))))

    def _solve_faces(self, y, start):
        """Face depths and velocities, shape (2, 2m), of the flat state y.

        Each face relation is G(h) = a0 + a1 h + a2 s(h) + b h s(h) +
        c h / (H + q h) = 0 in a face depth h, with s the depth shift, y2 the
        outgoing invariant of an inlet cell and y1 the incoming one of an
        outlet cell: the root's mass flux H v + V h + q h v with v = y2 + s
        (a0 = H y2, a1 = V + q y2, a2 = H, b = q); a terminal's feedback law
        k h = y1 - s (a0 = -y1, a1 = k, a2 = 1); a junction's mass balance
        y1 - sum y2 = (n + 1) s - c h / (H + q h) over n children, c the
        steady velocity mismatch (a0 = y1 - sum y2, a2 = -(n + 1)). Newton
        starts from the faces in start; None takes the exact linear step.
        """
        m, q, shift = self.m, self.phys.quadratic, self.phys.face_shift
        end = y[self._ends].tolist()
        sh = [shift(h, *cell)[0] for h, cell in zip(end, self._end_cells)]
        y2 = [v - s for v, s in zip(end[2 * m : 3 * m], sh)]
        y1 = [v + s for v, s in zip(end[3 * m :], sh[m:])]
        y2r = y2[self._kr]
        a0 = [self._Hr * y2r] + [-y1[k] for k in self._kt]
        a0 += [y1[k] - sum(y2[c] for c in ch) for k, ch in zip(self._kj, self._kc)]
        a1 = [self._Vr + q * y2r] + self._k + [0.0] * len(self._kj)
        start = None if start is None else start[0].tolist()
        hu, su = [], []
        for A0, A1, (k, face, a2, b, dust, scale, wide, fail) in zip(a0, a1, self._relations):
            H = face[0]

            def residual(hf):
                s, ds = shift(hf, *face)
                hh = H + q * hf
                return (A0 + A1 * hf + a2 * s + b * (hf * s) + dust * hf / hh,
                        A1 + a2 * ds + b * (s + hf * ds) + dust * H / (hh * hh))

            scale = max(scale, wide * abs(A0))
            hu.append(_solve_relation(residual, None if start is None else start[k], scale, fail))
            su.append(shift(hu[-1], *face)[0])
        invariant = y2 + y1
        velocity = [invariant[f] + sign * su[u] if gain is None else gain * hu[u]
                    for f, (u, sign, gain) in enumerate(self._face_map)]
        return np.array(([hu[u] for u, _, _ in self._face_map], velocity))

    def face_states(self, state: SimState, flat: bool = False):
        """Every boundary and junction face: channel id -> (h0, v0, hL, vL), or
        the (2, 2m) array if flat; F y on the linear operator path."""
        if self.A is not None:
            f = (self.F @ state.y).reshape(2, 2 * self.m)
        else:
            start = state.face if state.face is not None else np.zeros((2, 2 * self.m))
            f = self._solve_faces(state.y, start)
        return f if flat else self._face_dict(f)

    # -- semi-discrete right-hand side ---------------------------------------

    def _tendency(self, y, face):
        """(dy, face, net boundary mass influx) of the flat state y and its faces."""
        N, q = self.N, self.phys.quadratic
        h, v = y[:N], y[N:]
        fh, fv = face
        B1 = self._Hb * fv + self._Vb * fh + q * (fh * fv)
        B2 = self._Vb * fv + q * (0.5 * fv * fv) + self._gb * fh
        dy = self._K @ np.concatenate((y, q * (h * v), q * (0.5 * v * v), B1, B2))
        dy[N:] += self.phys.source(self, h, v)
        return dy, face, -(B1 @ self._sign)

    def rhs(self, state: SimState):
        """Flat tendencies, solved faces, and the net boundary mass influx of
        an admitted state."""
        return self._tendency(state.y, self.face_states(state, flat=True))

    def _linear_stage(self, state: SimState):
        return self.A @ state.y, None, float(self._influx @ state.y)

    def step(self, state: SimState, dt: float):
        """One Heun (two-stage Runge-Kutta) step: (new state, flux integral).

        The flux integral applies the scheme's own quadrature to the net
        boundary mass influx, so stored mass and ledger agree to round-off."""
        bound = self.cfl_dt(state)  # admits the state
        if dt > bound * (1.0 + 1e-12):
            raise CflViolation(f"dt = {dt:.6e} exceeds the stability bound {bound:.6e} "
                               f"at t = {state.time:.6e}")
        stage = self._linear_stage if self.A is not None else self.rhs
        k1, face1, influx1 = stage(state)
        mid = SimState(state.time + dt, state.y + dt * k1, face1, self)
        if self.A is None:
            self._admit(mid.y)
        k2, face2, influx2 = stage(mid)
        new = SimState(state.time + dt, state.y + 0.5 * dt * (k1 + k2), face2, self)
        return new, 0.5 * dt * (influx1 + influx2)

    # -- instrumentation -----------------------------------------------------

    def _char_fields(self, y):
        s = self.phys.shift(y[: self.N], self.Hc, self.g, self._where_cell)[0]
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
        z1 = self._L @ z
        return V, V + self._weighted(z1) + self._weighted(self._L @ z1)

    def boundary_form(self, state: SimState) -> float:
        """B(t), the sum over channels of [f1 lam1 y1^2 - f2 lam2 y2^2]_0^L."""
        f = self.face_states(state, flat=True)
        s = self.phys.shift(f[0], self._Hb, self._gb, self._where_face)[0]
        y1, y2 = f[1] + s, f[1] - s
        return float(self._sign @ (self._f1lam1 * y1**2 - self._f2lam2 * y2**2))

    def _sample(self, state: SimState):
        """V, V_ext, B, stored mass and per-channel L2 norms of one state."""
        h, v = state.y[: self.N], state.y[self.N :]
        norms = np.sqrt(np.add.reduceat(self._w * (h * h + v * v), self._starts))
        V, V_ext = self.lyapunov_extended(state)
        return (V, V_ext, self.boundary_form(state), float(self.dx @ h), *norms)

    # -- driver --------------------------------------------------------------

    def run(self, perturbation: dict[int, Bump] | None, T: float,
            max_samples: int = DEFAULT_SAMPLES, sample_stride: int | None = None) -> LyapunovTrace:
        """Advance the perturbed steady state to time T and sample the decay.

        The time step is fixed from the initial CFL bound (re-checked every
        step). Samples land every sample_stride steps when given, otherwise
        about max_samples times over the run. The decay rate is fitted on
        ln V over [0.2 T, T].
        """
        if T <= 0.0:
            raise ValueError("T must be positive")
        now = 0.0  # time of the last state reached, stamped on a SimulationError
        try:
            state = self.initial_state(perturbation)
            bound = self.cfl_dt(state)
            nsteps = max(1, math.ceil(T / (bound * self.phys.headroom)))
            dt = T / nsteps
            stride = max(1, nsteps // max_samples if sample_stride is None else int(sample_stride))
            flux_integral = 0.0
            rows = [(0.0, flux_integral, *self._sample(state))]
            for n in range(1, nsteps + 1):
                state, dflux = self.step(state, dt)
                now = n * dt
                flux_integral += dflux
                if n % stride == 0 or n == nsteps:
                    rows.append((now, flux_integral, *self._sample(state)))
        except SimulationError as exc:
            exc.sim_time = now
            raise

        self._final = state.time, state.y, state.face
        t, flux_integrals, V, V_ext, B, mass, *norms = np.array(rows).T
        zero = bool(np.all(V == 0.0))
        window = (0.2 * T, T)
        nu_hat, r2 = (math.nan, math.nan) if zero else decay_fit((t, V), window)
        return LyapunovTrace(
            mode=self.mode, dt=dt, cfl_bound=bound, t=t, V=V, V_ext=V_ext,
            l2=np.sqrt(np.sum(np.square(norms), axis=0)), boundary_B=B,
            channel_l2=dict(zip(self.ids, norms)), mass_deviation=mass,
            mass_flux_integral=flux_integrals, root_flux=self.root_flux,
            nu_hat=nu_hat, r2=r2, fit_window=window, zero_trace=zero,
        )


def decay_fit(trace, window: tuple[float, float]) -> tuple[float, float]:
    """Least-squares decay rate of ln V over the window: (nu_hat, r_squared).

    trace is a LyapunovTrace or a plain (t, V) pair of arrays. Raises
    NonPositiveV when V is not strictly positive on the window.
    """
    t, V = (trace.t, trace.V) if isinstance(trace, LyapunovTrace) else trace
    t = np.asarray(t, dtype=float)
    V = np.asarray(V, dtype=float)
    mask = (t >= window[0]) & (t <= window[1])
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


def run(topo: NetworkTopology, profiles: dict[int, SteadyProfile], gains: dict[int, float],
        perturbation: dict[int, Bump] | None, T: float, mode: str = "linear",
        weights: WeightSet | None = None, max_samples: int = DEFAULT_SAMPLES,
        sample_stride: int | None = None, cfl: float = CFL_SAFETY) -> LyapunovTrace:
    """Build a simulator and advance the perturbed steady state to time T."""
    sim = NetworkSimulator(topo, profiles, gains, weights=weights, mode=mode, cfl=cfl)
    return sim.run(perturbation, T, max_samples=max_samples, sample_stride=sample_stride)
