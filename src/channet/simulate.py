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
steady Jacobian. Each boundary and junction face carries an exactly imposed
state: the invariant of the nearest cell with the imposed flux, feedback law
or junction coupling leaves one scalar equation in the face depth, and one
vectorised Newton iteration from the previous face values solves them all.
In linear mode every relation is linear, y' = A y with faces F y: both sparse
operators are probed once, and a Heun step is two matrix-vector products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .characteristics import coupling_coefficients, eigenvalues
from .errors import CflViolation, JunctionDivergence, MissingGain, NonPositiveV, RootSolveFailure
from .errors import SimulationError, SubcriticalLoss, TerminalSolveFailure, WeightError
from .steady import SteadyProfile
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


def _flux(h, v, H, V, g, q):
    """(F1, F2) in deviation form; q = 1 keeps the quadratic terms, q = 0 drops them."""
    return H * v + V * h + q * (h * v), V * v + q * (0.5 * v * v) + g * h


class _Linear:
    """Linearized deviation physics. shift returns the depth part of the
    characteristic variables and its slope in h; admit checks a state."""

    quadratic = 0.0  # weight of the h v and v^2 / 2 flux terms
    headroom = 1.0  # share of the initial stability bound taken as the step

    def shift(self, h, H, g, site):
        s = np.sqrt(g / H)
        return h * s, s

    def source(self, sim, h, v):
        return sim.src_h * h - sim.src_v * v

    def admit(self, sim, y):
        """The linearized system has no depth or Froude limit."""


class _Nonlinear:
    """Full deviation physics; a dry cell or face raises SubcriticalLoss."""

    quadratic = 1.0
    headroom = 0.98  # the bound tightens as speeds grow

    def shift(self, h, H, g, site):
        arg = H + h
        dry = arg <= 0.0
        if dry.any():
            where, idx = site
            raise SubcriticalLoss(*where[idx[int(np.flatnonzero(dry)[0]) % np.shape(dry)[-1]]])
        return 2.0 * (np.sqrt(g * arg) - np.sqrt(g * H)), np.sqrt(g / arg)

    def source(self, sim, h, v):
        V = sim.Vc + v
        return -sim.g * sim.friction * (V * V / (sim.Hc + h) ** sim.p - sim.src0)

    def admit(self, sim, y):
        H, V = sim.Hc + y[: sim.N], sim.Vc + y[sim.N :]
        bad = (H <= 0.0) | (sim.g * H - V * V <= 0.0)
        if bad.any():
            raise SubcriticalLoss(*sim._where_cell[int(np.argmax(bad))])


_PHYSICS = {"linear": _Linear(), "nonlinear": _Nonlinear()}


def _newton(residual, start, scale, fail):
    """Newton iteration per face, each stopping at |G| <= NEWTON_TOL * scale.

    start None takes the one step from zero that solves linear relations
    exactly. fail(k) builds the typed error of face k.
    """
    if start is None:
        G, dG = residual(0.0)
        return -G / dG
    h = start
    for _ in range(NEWTON_MAX_ITER):
        G, dG = residual(h)
        live = ~(np.abs(G) <= NEWTON_TOL * scale)
        if not live.any():
            return h
        # a non-finite iterate shows up here as a non-finite slope
        bad = live & ~(np.isfinite(dG) & (np.abs(dG) >= 1e-14))
        if bad.any():
            raise fail(int(np.flatnonzero(bad)[0]))
        h = h.copy()
        h[live] -= G[live] / dG[live]
    over = ~(np.abs(residual(h)[0]) <= 10.0 * NEWTON_TOL * scale)
    if over.any():
        raise fail(int(np.flatnonzero(over)[0]))
    return h


def _trapezoid_weights(x):
    """Weights w with w @ f = np.trapezoid(f, x)."""
    dx = np.diff(x)
    return np.concatenate(([dx[0]], dx[:-1] + dx[1:], [dx[-1]])) / 2.0


def _gradient_matrix(x):
    """Sparse matrix of np.gradient(., x, edge_order=1)."""
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
        self.final_state: SimState | None = None
        self._layout()
        self._face_relations()
        self._instrumentation()
        self.A = self.F = None
        if mode == "linear":
            self._frozen_bound = self.cfl_dt(SimState(0.0, np.zeros(2 * self.N), None, self))
            self.A, self.F, self._influx = self._linear_operator()

    # -- flat layout ---------------------------------------------------------

    def _layout(self):
        """Concatenate every channel's samples at its offset in the flat state."""
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
        # interior faces: left and right cell, frozen coefficients, and |A| of the
        # steady Jacobian in the (h, v) basis: diagonal c, off-diagonal H V/c, g V/c
        self._il = np.flatnonzero(loc < np.repeat(n, n) - 1)
        self._ir = self._il + 1
        Hf, Vf = [pr.H_faces for pr in ps], [pr.V_faces for pr in ps]
        self._Hi = np.concatenate([H[1:-1] for H in Hf])
        self._Vi = np.concatenate([V[1:-1] for V in Vf])
        self._gi = g[self._il]
        self._absAd = np.sqrt(self._gi * self._Hi)
        self._absA12 = self._Hi * self._Vi / self._absAd
        self._absA21 = self._gi * self._Vi / self._absAd
        # boundary faces, m inlets then m outlets, follow the interior ones in the flux array
        self._Hb = np.array([H[0] for H in Hf] + [H[-1] for H in Hf])
        self._Vb = np.array([V[0] for V in Vf] + [V[-1] for V in Vf])
        self._gb = np.concatenate((g[self._first], g[self._last]))
        self._sign = np.repeat([-1.0, 1.0], m)
        self._left = np.empty(N, dtype=int)
        self._left[self._first] = N - m + np.arange(m)
        self._left[self._ir] = np.arange(N - m)
        self._right = np.empty(N, dtype=int)
        self._right[self._last] = N + np.arange(m)
        self._right[self._il] = np.arange(N - m)
        # sites (table, index) name the channel and cell[, face] of a dry entry
        cell = self._where_cell = [(i, int(k)) for i, k in zip(np.repeat(ids, n), loc)]
        face = [(i, 0, "inlet") for i in ids] + [(i, int(k) - 1, "outlet") for i, k in zip(ids, n)]
        self._site_cells, self._site_faces = (cell, np.arange(N)), (face, np.arange(2 * m))
        self._site_first, self._site_last = (cell, self._first), (cell, self._last)

    def _face_relations(self):
        """Unknowns and coefficients of the face relations (see _solve_faces)."""
        m = self.m
        ordinal = {i: k for k, i in enumerate(self.ids)}
        # one unknown depth per relation: the root inlet, every terminal outlet,
        # and every junction, at the outlet of its incoming channel
        terminals, internal = list(self.topo.terminal_channels), list(self.topo.internal_channels)
        children = [self.topo.junctions[i] for i in internal]
        nt = len(terminals)
        self._kr = ordinal[self.topo.root_channel]
        self._kt = np.array([ordinal[j] for j in terminals], dtype=int)
        self._kj = np.array([ordinal[i] for i in internal], dtype=int)
        self._ku = np.concatenate(([self._kr], m + self._kt, m + self._kj))
        self._site_unknown = (self._site_faces[0], self._ku)
        self._kc = np.array([ordinal[c] for ch in children for c in ch], dtype=int)
        self._uc = np.array([1 + nt + j for j, ch in enumerate(children) for _ in ch], dtype=int)
        self._incidence = np.zeros((m, len(internal)))
        self._incidence[self._kc, self._uc - 1 - nt] = 1.0
        self._k = np.array([self.gains[j] for j in terminals])
        self._Hu, self._gu = self._Hb[self._ku], self._gb[self._ku]
        # steady velocity mismatch of the stored baselines, a few ulp at most
        pr = self.profiles
        dust = [pr[i].flux / pr[i].outlet_depth - sum(pr[c].flux / pr[i].outlet_depth for c in ch)
                for i, ch in zip(internal, children)]
        ones, zeros = np.ones(self._ku.size), np.zeros(self._ku.size)
        self._e_root = np.concatenate(([1.0], zeros[1:]))
        self._a1 = np.concatenate(([self._Vb[self._kr]], self._k, zeros[1 + nt :]))
        self._a2 = np.r_[self._Hu[0], ones[1 : 1 + nt], [-1.0 - len(c) for c in children]]
        self._b = self.phys.quadratic * self._e_root
        self._c = np.concatenate((zeros[: 1 + nt], dust))
        c_u = np.sqrt(self._gu * self._Hu)
        self._scale = np.concatenate(([self._Hu[0] * c_u[0]], c_u[1:]))
        root = self.topo.root_channel
        message = "channel {}: terminal feedback solve diverged"
        self._fail = [lambda: RootSolveFailure(f"channel {root}: inlet flux solve diverged")]
        self._fail += [lambda j=j: TerminalSolveFailure(message.format(j)) for j in terminals]
        self._fail += [lambda i=i: JunctionDivergence(i) for i in internal]

    def _instrumentation(self):
        """Trapezoid and Lyapunov weights, boundary-form terms, and the
        linearized characteristic system dt (y1, y2) = L (y1, y2) with
        centered spatial differences."""
        w, f, f_in, f_out, coupling, D = [], [], [], [], [], []
        for i in self.ids:
            pr, cw, spec = self.profiles[i], self.weights.channels[i], self.profiles[i].spec
            w.append(_trapezoid_weights(pr.x_centers))
            f.append(cw.f_at(pr.x_centers))
            f_in.append(cw.f_at(0.0))
            f_out.append(cw.f_at(pr.length))
            args = (pr.H_centers, pr.flux, spec.friction, spec.friction_exponent, spec.gravity)
            coupling.append(coupling_coefficients(*args, check=False))
            D.append(_gradient_matrix(pr.x_centers))
        self._w = np.concatenate(w)
        f1, f2 = np.concatenate(f, axis=1)
        self._wf = np.concatenate((self._w * f1, self._w * f2))
        f_ends = np.array(f_in + f_out, dtype=float)
        lam1, lam2 = eigenvalues(self._Hb, self._Vb, self._gb)
        self._f1lam1, self._f2lam2 = f_ends[:, 0] * lam1, f_ends[:, 1] * lam2
        lam1, lam2 = eigenvalues(self.Hc, self.Vc, self.g)
        g1, d1, g2, d2 = np.concatenate(coupling, axis=1)
        D = sparse.block_diag(D)
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
        N, loc = self.N, self._loc
        groups = [(part, r) for part in (0, 1) for r in range(3)]
        bnd = np.flatnonzero(~self._interior)
        bcols = np.concatenate((bnd, N + bnd))
        Y = np.zeros((len(groups) + bcols.size, 2 * N))
        for g, (part, r) in enumerate(groups):
            Y[g, part * N + np.flatnonzero(self._interior & (loc % 3 == r))] = 1.0
        Y[len(groups) + np.arange(bcols.size), bcols] = 1.0
        face = self._solve_faces(Y, None)
        dY, _, influx = self._tendency(Y, face)
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
        self.phys.admit(self, y)
        return SimState(0.0, y, np.zeros((2, 2 * self.m)), self)

    def cfl_dt(self, state: SimState) -> float:
        """Largest stable step, CFL safety times min over cells of dx / speed;
        the linear operator path freezes the speeds at the steady state."""
        if self.A is not None:
            return self._frozen_bound
        h, v = state.y[: self.N], state.y[self.N :]
        speed = np.abs(self.Vc + v) + np.sqrt(self.g * np.maximum(self.Hc + h, 1e-12))
        return self.cfl * float(np.min(self.dx / speed))

    def _solve_faces(self, y, start):
        """Face depths and velocities, shape (..., 2, 2m), of the flat state(s) y.

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
        N, m, q, shift = self.N, self.m, self.phys.quadratic, self.phys.shift
        h, v = y[..., :N], y[..., N:]
        f0, fl, kr, kt, kj = self._first, self._last, self._kr, self._kt, self._kj
        y2 = v[..., f0] - shift(h[..., f0], self.Hc[f0], self.g[f0], self._site_first)[0]
        y1 = v[..., fl] + shift(h[..., fl], self.Hc[fl], self.g[fl], self._site_last)[0]
        y2r = y2[..., kr : kr + 1]
        total = y1[..., kj] - y2 @ self._incidence
        a0 = np.concatenate((self._Hu[:1] * y2r, -y1[..., kt], total), axis=-1)
        a1 = self._a1 + self._e_root * (q * y2r)
        H, g, a2, b, c = self._Hu, self._gu, self._a2, self._b, self._c

        def residual(hf):
            s, ds = shift(hf, H, g, self._site_unknown)
            hh = H + q * hf
            return (
                a0 + a1 * hf + a2 * s + b * (hf * s) + c * hf / hh,
                a1 + a2 * ds + b * (s + hf * ds) + c * H / (hh * hh),
            )

        # the root's tolerance scales with its steady flux, the others' with
        # the wave speed or the invariant, whichever is larger
        scale = np.maximum(self._scale, (1.0 - self._e_root) * np.abs(a0))
        start = None if start is None else start[0, self._ku]
        hu = _newton(residual, start, scale, lambda k: self._fail[k]())
        s = shift(hu, H, g, self._site_unknown)[0]
        nt = kt.size
        f = np.empty(y.shape[:-1] + (2, 2 * m))
        f[..., 0, self._ku] = hu
        f[..., 1, kr] = y2r[..., 0] + s[..., 0]
        f[..., 1, m + kt] = self._k * hu[..., 1 : 1 + nt]
        f[..., 1, m + kj] = y1[..., kj] - s[..., 1 + nt :]
        kc, uc = self._kc, self._uc
        f[..., 0, kc] = hu[..., uc]
        f[..., 1, kc] = y2[..., kc] + s[..., uc]
        return f

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
        """(dy, face, net boundary mass influx) of flat state(s) y and their faces."""
        N, M, q = self.N, self.N - self.m, self.phys.quadratic
        u = y.reshape(y.shape[:-1] + (2, N))
        ul, ur = u[..., self._il], u[..., self._ir]
        F1_l, F2_l = _flux(ul[..., 0, :], ul[..., 1, :], self._Hi, self._Vi, self._gi, q)
        F1_r, F2_r = _flux(ur[..., 0, :], ur[..., 1, :], self._Hi, self._Vi, self._gi, q)
        du = ur - ul
        dh, dv = du[..., 0, :], du[..., 1, :]
        flux = np.empty(y.shape[:-1] + (2, N + self.m))
        flux[..., 0, :M] = 0.5 * (F1_l + F1_r) - 0.5 * (self._absAd * dh + self._absA12 * dv)
        flux[..., 1, :M] = 0.5 * (F2_l + F2_r) - 0.5 * (self._absA21 * dh + self._absAd * dv)
        B1, B2 = _flux(face[..., 0, :], face[..., 1, :], self._Hb, self._Vb, self._gb, q)
        flux[..., 0, M:] = B1
        flux[..., 1, M:] = B2
        dy = (flux[..., self._left] - flux[..., self._right]) / self.dx
        dy[..., 1, :] += self.phys.source(self, u[..., 0, :], u[..., 1, :])
        return dy.reshape(y.shape), face, -(B1 @ self._sign)

    def rhs(self, state: SimState):
        """Flat tendencies, solved faces, and the net boundary mass influx."""
        self.phys.admit(self, state.y)
        return self._tendency(state.y, self.face_states(state, flat=True))

    def _linear_stage(self, state: SimState):
        return self.A @ state.y, None, float(self._influx @ state.y)

    def step(self, state: SimState, dt: float):
        """One Heun (two-stage Runge-Kutta) step: (new state, flux integral).

        The flux integral applies the scheme's own quadrature to the net
        boundary mass influx, so stored mass and ledger agree to round-off."""
        bound = self.cfl_dt(state)
        if dt > bound * (1.0 + 1e-12):
            raise CflViolation(f"dt = {dt:.6e} exceeds the stability bound {bound:.6e} "
                               f"at t = {state.time:.6e}")
        stage = self._linear_stage if self.A is not None else self.rhs
        k1, face1, influx1 = stage(state)
        mid = SimState(state.time + dt, state.y + dt * k1, face1, self)
        k2, face2, influx2 = stage(mid)
        new = SimState(state.time + dt, state.y + 0.5 * dt * (k1 + k2), face2, self)
        return new, 0.5 * dt * (influx1 + influx2)

    # -- instrumentation -----------------------------------------------------

    def _char_fields(self, y):
        s = self.phys.shift(y[: self.N], self.Hc, self.g, self._site_cells)[0]
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
        s = self.phys.shift(f[0], self._Hb, self._gb, self._site_faces)[0]
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
            max_samples: int = DEFAULT_SAMPLES, sample_stride: int | None = None,
            fit_fraction: float = 0.2) -> LyapunovTrace:
        """Advance the perturbed steady state to time T and sample the decay.

        The time step is fixed from the initial CFL bound (re-checked every
        step). Samples land every sample_stride steps when given, otherwise
        about max_samples times over the run. The decay rate is fitted on
        ln V over [fit_fraction * T, T].
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

        self.final_state = state
        t, flux_integrals, V, V_ext, B, mass, *norms = np.array(rows).T
        zero = bool(np.all(V == 0.0))
        window = (fit_fraction * T, T)
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
