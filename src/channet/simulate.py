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
nearest cell with the imposed flux or outlet law leaves one scalar equation
in the face depth. Every outlet face, a terminal's or a junction's, obeys
one feedback law k h + s(h) = Y, solved in closed form: a junction is the
law at gain zero on the combined invariant of its faces. The root's imposed
flux is one exact step in a linear run and, in a nonlinear one, a cubic in
d = e - c, the face celerity's deviation, solved by Newton's method with a
monotone stop; no face solve starts from an earlier one, so the faces are a
function of the state alone.
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
stacked observation operator built on the same [L; L^2]. Each operator is one
conversion of (row, column, value) arrays (_csr), or one scipy sum (A, M).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# scipy.sparse is imported where the operators are built, so that only a
# simulation loads it: importing channet loads no scipy.
from .errors import CflViolation, MissingGain, NonPositiveV
from .errors import SimulationError, SubcriticalLoss, TerminalSolveFailure
from .steady import FINE_REFINEMENT
# certify_network is not called here: perfbench's span test looks it up in
# this module by name, so the import goes when that test does
from .weights import WeightSet, certify_network  # noqa: F401

CFL_SAFETY = 0.9
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
    nu_hat: float
    r2: float
    zero_trace: bool


class _Linear:
    """Linearized deviation physics. admit checks the cells of a flat state
    and returns the (H, V, g H, V^2) whose speeds bound a step from it and
    from which the source is taken. march yields the states a run reaches
    (step count, state, flux integral since the last one) and sample reads
    one for the trace. The depth shift and the face laws are shared
    (_shift, _outlet_depths, _solve_relation): quadratic weighs them too."""

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

    def prepare(self, sim):
        """The operators A, F and the influx row, and the stacked observation."""
        sim.A, sim.F, sim._influx = sim._linear_operator()
        sim._O, sim._W = sim._observation()

    def march(self, sim, y, dt, nsteps, stride):
        return sim._propagate(y, dt, nsteps, stride)

    def sample(self, sim, y):
        return sim._observe(y)


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
        """Raise SubcriticalLoss at the first cell where g H > V^2 fails,
        which takes in every cell with H <= 0 as g > 0, and every cell
        with a NaN."""
        HV = sim.HVc + y
        H, V = HV[: sim.N], HV[sim.N :]
        gH, VV = sim.g * H, V * V
        ok = gH > VV
        if not ok.all():
            raise SubcriticalLoss(*sim._where_cell[int(np.argmin(ok))])
        return H, V, gH, VV

    def prepare(self, sim):
        """A nonlinear run steps the shared physics: it has no operators."""
        sim.A = sim.F = None

    def march(self, sim, y, dt, nsteps, stride):
        for n in range(1, nsteps + 1):
            y, dflux = sim.step(y, dt)
            yield n, y, dflux

    def sample(self, sim, y):
        return sim._sample(y)


_PHYSICS = {"linear": _Linear(), "nonlinear": _Nonlinear()}


def _count(x):
    """Whether x is a whole number of at least 1; a bool is not."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    return x >= 1 and (isinstance(x, numbers.Integral) or float(x).is_integer())


# each run option's test and the text of its refusal
_RUN_OPTIONS = {"mode": (lambda x: x in _PHYSICS, "'linear' or 'nonlinear'"),
                "cfl": (lambda x: 0.0 < x <= 0.95, "in (0, 0.95]"),
                "T": (lambda x: 0.0 < x < math.inf, "positive and finite"),
                "sample_stride": (lambda x: x is None or _count(x), "a whole number, at least 1")}


def check_run_options(**options) -> None:
    """Raise ValueError for the first named run option (mode, cfl, T or
    sample_stride) that the simulator does not accept."""
    for name, value in options.items():
        accepts, text = _RUN_OPTIONS[name]
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


def _outlet_depths(q, inv, outlets):
    """(face depth h, Y) of each outlet law k h + s(h) = Y.

    A terminal's Y is its outlet cell's invariant y1 and k its gain. A
    junction fed by an outlet with invariant y1 and n children with inlet
    invariants y2_c shares one face depth, so its velocity balance
    v_in = sum v_c, with v_in = y1 - s and v_c = y2_c + s, is the law at
    k = 0 with Y = (y1 - sum y2_c) / (n + 1); Y is then the shift of all its
    faces. With d = e - c (_shift), q s = 2 d and q h = d (2 c + d) / g, so
    q times the law reads (k / g) d^2 + B d - q Y = 0 with B = 2 (1 + k c /
    g). The root that tends to q Y / B as k -> 0 is taken in the form that
    does not cancel, and h = 2 Y (2 c + d) / (g (B + R)), R = +-sqrt(B^2 +
    4 (k / g) q Y) of the sign of B; at q = 0 that is Y / (k + g / c),
    exactly linear in Y. No real root, or |B| <= 1e-12 (the reflection pole
    k = -g / c, to within the rounding of either way of writing it), raises
    TerminalSolveFailure; at k = 0, B = 2 and both are out of reach. A root
    with c + d <= 0, or H + q h <= 0 in rounding, has no wet face depth.
    """
    out = []
    for f, children, k, (H, g, c, site) in outlets:
        Y = (inv[f] - sum([inv[i] for i in children])) / (1 + len(children))
        B = 2.0 * (1.0 + k * c / g)
        disc = B * B + 4.0 * (k / g) * q * Y
        if disc < 0.0 or abs(B) <= 1e-12:
            raise TerminalSolveFailure(f"channel {site[0]}: terminal feedback has no face depth")
        BR = B + math.copysign(math.sqrt(disc), B)
        d = 2.0 * q * Y / BR
        h = 2.0 * Y * (2.0 * c + d) / (g * BR)
        if c + d <= 0.0 or H + q * h <= 0.0:
            raise SubcriticalLoss(*site)
        out.append((h, Y))
    return out


def _solve_relation(q, y2, V, face):
    """(h, s(h)) of the root's mass flux (H + q h) (y2 + s(h)) + V h = 0 in
    Python floats, y2 the outgoing invariant of the root's inlet cell, V the
    steady inlet velocity and face the root face's (H, g, c, site).

    At q = 0 the flux is linear in h, solved in one exact step. At q = 1,
    with d = e - c, e = sqrt(g (H + h)) and c = sqrt(g H), it is the cubic
    p(d) = 2 d^3 + (4 c + a) d^2 + 2 c (c + a) d + y2 c^2 = 0, a = V + y2,
    with h = d (2 c + d) / g and s = 2 d; its constant term vanishes with
    y2, so nothing cancels. Newton's method on p ends with its first step
    after the first that does not fall, and needs no tolerance: in e, p is
    e^2 (2 e + a - 2 c) - V c^2 and V > 0 (solve_network_steady refuses a
    flux <= 0), so p < 0 at e = 0 and p has one positive root. p increases
    and is convex for e > max(0, (2 c - a) / 3), where the root lies, so a
    step from there lands at or right of the root and every later step
    falls to it. The start lies there: d = max(c - a, 0) is right of the
    root, p there being at least c^3 - V c^2 > 0 as the steady inlet is
    subcritical (V < c), and where c + a > 0 the exact linear step
    -y2 c / (2 (c + a)), right of -c and of -(c + a) / 3 as 2 (c + a)^2 >
    3 y2 c, is taken if smaller. A root with c + d <= 0, or H + h <= 0 in
    rounding, has no wet face depth.
    """
    H, g, c, site = face
    if not q:
        slope = g / c  # of s(h)
        h = -(H * y2) / (V + H * slope)
        return h, h * slope
    a = V + y2
    A, B, C = 4.0 * c + a, 2.0 * c * (c + a), y2 * (c * c)
    d = max(c - a, 0.0)
    if c + a > 0.0:
        d = min(d, -C / B)
    first = True
    while True:
        d, last = d - (((2.0 * d + A) * d + B) * d + C) / ((6.0 * d + 2.0 * A) * d + B), d
        if not (first or d < last):
            break
        first = False
    h = d * (2.0 * c + d) / g
    if c + d <= 0.0 or H + h <= 0.0:
        raise SubcriticalLoss(*site)
    return h, 2.0 * d


def _split(n, size):
    """n as parts of size and a smaller remainder: _split(13, 8) == [8, 5]."""
    return [size] * (n // size) + ([n % size] if n % size else [])


def _trapezoid_weights(x):
    """Weights w with w @ f = np.trapezoid(f, x)."""
    dx = np.diff(x)
    return np.concatenate(([dx[0]], dx[:-1] + dx[1:], [dx[-1]])) / 2.0


def _gradient(x, start):
    """(rows, columns, values) of np.gradient(., x, edge_order=1), x at start, start + 1, ..."""
    dx = np.diff(x)
    d1, d2 = dx[:-1], dx[1:]
    lower = np.concatenate((-d2 / (d1 * (d1 + d2)), [-1.0 / dx[-1]]))
    main = np.concatenate(([-1.0 / dx[0]], (d2 - d1) / (d1 * d2), [1.0 / dx[-1]]))
    upper = np.concatenate(([1.0 / dx[0]], d1 / (d2 * (d1 + d2))))
    k = start + np.arange(x.size)
    return (np.concatenate((k[1:], k, k[:-1])), np.concatenate((k[:-1], k, k[1:])),
            np.concatenate((lower, main, upper)))


def _triples(M, row=0):
    """(rows shifted by row, columns, values) of the CSR matrix M."""
    return row + np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)), M.indices, M.data


def _csr(shape, parts):
    """The CSR matrix of parts, (rows, columns, values) arrays, in one conversion:
    columns ascending in each row, entries that sum to zero dropped. No operator
    puts over two values at one position, so scipy's order of adding them is moot."""
    from scipy import sparse

    r, c, v = (np.concatenate(a) for a in zip(*parts))
    M = sparse.csr_matrix((v, (r, c)), shape=shape)
    M.eliminate_zeros()
    return M


class NetworkSimulator:
    """Upwind finite-volume integrator for one network configuration.

    mode selects the evolved system: "linear" advances the linearized
    deviation equations (the setting of the decay certificates), "nonlinear"
    the full equations written in deviation form. ``weights`` is a
    certificate's weight set: the network, its steady profiles and the
    Lyapunov weights are those it was built on. Every public method
    runs the same code in both modes. Only a linear run reads A, the sparse
    operator of y' = A y, and F, the sparse face map (faces = F y); both are
    None in nonlinear mode. A state is the flat deviation vector y (the h of
    every channel, then the v); final_state is the last run's, None before one.
    """

    def __init__(self, weights: WeightSet, gains: dict[int, float],
                 mode: str = "linear", cfl: float = CFL_SAFETY):
        check_run_options(mode=mode, cfl=cfl)
        self.cfl = cfl
        topo = weights.topo
        for j in topo.terminal_channels:
            if j not in gains:
                raise MissingGain(j)
        self.topo = topo
        self.profiles = {i: cw.profile for i, cw in weights.channels.items()}
        self.gains = {j: float(k) for j, k in gains.items()}
        self.mode = mode
        self.phys = _PHYSICS[mode]
        self.weights = weights
        self.final_state: np.ndarray | None = None  # set by run
        self._layout()
        self._face_relations()
        self._instrumentation()
        self.phys.prepare(self)

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
        self.Hc, self.Vc, self.g, self.p, self.dx = Hc, Vc, g, p, dx
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
        # into the right cell, out of the left
        parts = [(k * N + to, col + cell, sign * 0.5 * (a + side * d) / dx[to])
                 for cell, side in ((il, 1.0), (il + 1, -1.0)) for k, col, a, d in terms
                 for to, sign in ((il + 1, 1.0), (il, -1.0))]
        bnd = np.concatenate((self._first, self._last))
        self._ends = np.concatenate((bnd, N + bnd))  # h, then v, of the inlet then outlet cells
        B = (self._ends, 4 * N + np.arange(4 * m), np.tile(-self._sign / dx[bnd], 2))
        self._K = _csr((2 * N, 4 * N + 4 * m), parts + [B])  # B1 into h, B2 into v
        # the vector [h, v, q h v, q v^2 / 2, B1, B2] that K acts on, which each
        # stage fills in place through views of its four parts
        self._u = u = np.zeros(4 * N + 4 * m)
        self._u_parts = (u[: 2 * N], u[2 * N : 3 * N], u[3 * N : 4 * N], u[4 * N :])
        # the channel and cell[, face] of each cell and boundary face, named when it runs dry
        self._where_cell = list(zip(np.repeat(ids, n).tolist(), loc.tolist()))
        self._where_face = ([(i, 0, "inlet") for i in ids]
                            + [(i, int(k) - 1, "outlet") for i, k in zip(ids, n)])

    def _face_relations(self):
        """Each face relation's constants in Python floats and the faces it sets (_faces)."""
        m, topo = self.m, self.topo
        ordinal = {i: k for k, i in enumerate(self.ids)}
        # one unknown depth per relation: the root inlet, then the outlet of each
        # outlet law, terminals at their gains and junctions at gain zero (with
        # their children's inlets); a face f is also the index of its cell's invariant
        laws = [(j, (), self.gains[j]) for j in topo.terminal_channels]
        laws += [(i, tuple(ordinal[c] for c in topo.junctions[i]), 0.0)
                 for i in topo.internal_channels]
        kr = ordinal[topo.root_channel]
        ku = [kr] + [m + ordinal[i] for i, _, _ in laws]

        def at(H, g, sites):  # (H, g, sqrt(g H), site) of each face or cell
            return list(zip(H.tolist(), g.tolist(), np.sqrt(g * H).tolist(), sites))

        ends = self._ends[: 2 * m]
        cells = at(self.Hc[ends], self.g[ends], [self._where_cell[k] for k in ends])
        self._end_cells = [(*cell, sign) for cell, sign in zip(cells, self._sign.tolist())]
        faces = at(self._Hb[ku], self._gb[ku], [self._where_face[k] for k in ku])
        # the root's mass flux, a cubic in the face celerity at q = 1
        self._root = (kr, float(self._Vb[kr]), faces[0])
        self._outlets = [(f, ch, k, face) for f, (_, ch, k), face in zip(ku[1:], laws, faces[1:])]

    def _instrumentation(self):
        """Trapezoid and Lyapunov weights, boundary-form terms, and the
        linearized characteristic system dt (y1, y2) = L (y1, y2) with
        centered spatial differences. The weights, speeds and couplings are
        the certificate's fine-grid arrays: at the centers their slice
        [R/2::R], R = FINE_REFINEMENT, at the inlet and outlet faces their
        first and last elements. L is one pass over the gradient and coupling
        entries; [L; L^2] is one vstack, L's CSR arrays then those of L @ L."""
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
        N, k = self.N, np.arange(self.N)
        r, c, D = (np.concatenate(a) for a in zip(*map(_gradient, x, self._starts)))
        L = _csr((2 * N, 2 * N), [(r, c, -lam1[r] * D), (k, k, -g1), (k, N + k, -d1),
                                  (N + k, k, -g2), (N + r, N + c, lam2[r] * D),
                                  (N + k, N + k, -d2)])
        self._LL = sparse.vstack((L, L @ L), format="csr")  # [L; L^2], one product for V_ext

    def fields(self, y: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per-channel views of the flat state y: id -> (h, v)."""
        return {i: (y[sh], y[sv]) for i, sh, sv in self._slices}

    def _face_dict(self, faces):
        """id -> (h0, v0, hL, vL) of the lists (fh, fv) of _faces."""
        (fh, fv), m = faces, self.m
        return {i: (fh[k], fv[k], fh[m + k], fv[m + k]) for k, i in enumerate(self.ids)}

    def _linear_operator(self):
        """(A, F, influx row) of the linear right-hand side, by the chain rule.

        The faces are linear in the 4m end entries y[self._ends], F holding
        the faces (_faces) of each unit list of them, and the tendency is
        linear in the state and the faces: A is the state's part of the flux
        matrix plus the source's diagonals plus T F, T being K's boundary
        columns times J, the Jacobian of the face fluxes (B1, B2). Each
        face's fluxes read only its own (h, v), so two _boundary_fluxes calls
        give J: every face at unit depth, then at unit velocity. The influx
        row is J's B1 rows, inlets in and outlets out, times F. F, J, T and
        K_y + S, K_y the state's columns of K, are one pass each; scipy adds
        T @ F, in the entry order that A @ A then follows.
        """
        N, m2, m4 = self.N, 2 * self.m, 4 * self.m
        face = np.array([self._faces([0.0] * b + [1.0] + [0.0] * (m4 - 1 - b))
                         for b in range(m4)]).reshape(m4, m4)
        b, k = np.nonzero(face)
        F = _csr((2 * m2, 2 * N), [(k, self._ends[b], face[b, k])])
        one, none = [1.0] * m2, [0.0] * m2
        (h1, h2, _), (v1, v2, _) = (self._boundary_fluxes(*f) for f in ((one, none), (none, one)))
        k, f = np.arange(2 * m2), np.tile(np.arange(m2), 2)  # J's rows, B1 then B2
        J = _csr((2 * m2, 2 * m2), [(k, f, h1 + h2), (k, m2 + f, v1 + v2)])
        T = _csr((2 * N, 2 * m2), [_triples(self._K[:, 4 * N :] @ J)])
        one, none, k = np.ones(N), np.zeros(N), np.arange(N)
        # the linear source reads no admission
        Sh, Sv = (self.phys.source(self, *e, None) for e in ((one, none), (none, one)))
        Ky = tuple(a[self._K.indices < 2 * N] for a in _triples(self._K))  # the state's columns
        A = _csr((2 * N, 2 * N), [Ky, (N + k, k, Sh), (N + k, N + k, Sv)]) + T @ F
        return A, F, F.T @ (np.tile(-self._sign, 2) * np.array(h1 + v1))

    def initial_state(self, perturbation: dict[int, Bump] | None = None) -> np.ndarray:
        """The steady state plus each channel's bump; ValueError if a key of
        perturbation names no channel."""
        stray = sorted(set(perturbation or ()) - set(self.ids))
        if stray:
            raise ValueError(f"perturbation of channel(s) {', '.join(map(str, stray))}, "
                             "which are not in the network")
        y = np.zeros(2 * self.N)
        for i, (h, v) in self.fields(y).items():
            pr = self.profiles[i]
            bump = (perturbation or {}).get(i)
            if bump is not None:
                r = (pr.x_centers - bump.center * pr.length) / (0.5 * bump.width * pr.length)
                shape = (1.0 - np.minimum(r * r, 1.0)) ** 4
                cells = np.arange(h.size, dtype=float)
                edge = np.minimum(cells, h.size - 1 - cells)
                ramp = np.clip((edge - 1.0) / 2.0, 0.0, 1.0)
                shape *= ramp * ramp * (3.0 - 2.0 * ramp)
                h += bump.amplitude_h * shape
                v += bump.amplitude_v * shape
        self.phys.admit(self, y)
        return y

    def _observation(self):
        """(O, W) of the linear samples: O stacks [C; L C; L^2 C; C_b F; I]
        and W turns the squares of O y into V, V_ext, B and the squared
        channel L2 norms. C maps the flat state to the linear characteristic
        fields (v + s h, v - s h), s = g / sqrt(g H), C_b does so at the faces.
        O and W are one pass each over their blocks' entries."""
        def char(s):  # the blocks [[S, I], [-S, I]], S = diag(s)
            k, n, one = np.arange(s.size), s.size, np.ones(s.size)
            return [(k, k, s), (k, n + k, one), (n + k, k, -s), (n + k, n + k, one)]

        N, m4, y = self.N, 4 * self.m, np.arange(2 * self.N)
        C = char(self.g / np.sqrt(self.g * self.Hc))
        Cb = _csr((m4, m4), char(self._gb / np.sqrt(self._gb * self._Hb))) @ self.F
        LC = self._LL @ _csr((2 * N, 2 * N), C)
        O = _csr((8 * N + m4, 2 * N), C + [_triples(LC, 2 * N), _triples(Cb, 6 * N),
                                           (6 * N + m4 + y, y, np.ones(2 * N))])
        bw = np.concatenate((self._sign * self._f1lam1, -self._sign * self._f2lam2))
        VB = (np.repeat([0, 1, 2], [2 * N, 6 * N, m4]), np.append(y, np.arange(6 * N + m4)),
              np.append(np.tile(self._wf, 4), bw))  # the rows of V, V_ext and B, then the norms
        sq = np.tile(3 + np.repeat(np.arange(self.m), np.diff(np.append(self._starts, N))), 2)
        W = _csr((3 + self.m, 8 * N + m4), [VB, (sq, 6 * N + m4 + y, np.tile(self._w, 2))])
        return O, W

    def cfl_dt(self, y: np.ndarray) -> float:
        """Largest stable step, CFL safety times min over cells of dx / speed,
        with the speeds of y's admission; in linear mode the steady ones."""
        return self._bound(self.phys.admit(self, y))

    def _bound(self, admitted):
        _, V, gH, _ = admitted
        speed = np.sqrt(gH)
        speed += np.abs(V)
        return self.cfl * float((self.dx / speed).min())

    def _solve_faces(self, y):
        """((fh, fv), B1, B2, net boundary mass influx) of the flat state y:
        its faces (_faces), then their boundary fluxes."""
        faces = self._faces(y[self._ends].tolist())
        return (faces, *self._boundary_fluxes(*faces))

    def _faces(self, end):
        """(fh, fv), the lists of face depths and velocities of the m inlet
        then the m outlet faces, from the list ``end`` of the 4m end entries
        y[self._ends] of a flat state y, which are all that a face reads.

        The root's relation is its mass flux H v + V h + q h v with v = y2 +
        s(h), s the depth shift and y2 the outgoing invariant of its inlet
        cell: at q = 1 a cubic in the face celerity, solved by Newton's
        method with a monotone stop (_solve_relation). Every outlet face obeys
        the feedback law k h + s(h) = Y in closed form (_outlet_depths): a
        terminal at its gain with Y its cell's incoming invariant y1, a
        junction at gain zero with its combined invariant, whose faces share
        the depth and the shift Y. One pass on Python floats: one loop gives
        the end cells' invariants with _shift's formula, and each face is set
        where its relation is solved: the root face at velocity y2 + s, an
        outlet face at k h (terminal) or y1 - Y (junction), and each child's
        inlet face at y2_c + Y.
        """
        m, q = self.m, self.phys.quadratic
        # y2 of the m inlet cells, then y1 of the m outlet cells
        inv = []
        for h, v, (H, g, c, site, sign) in zip(end[: 2 * m], end[2 * m :], self._end_cells):
            arg = H + q * h
            if arg <= 0.0:
                raise SubcriticalLoss(*site)
            inv.append(v + sign * (h * (2.0 * g / (math.sqrt(g * arg) + c))))
        fh, fv = [0.0] * (2 * m), [0.0] * (2 * m)
        f, V, face = self._root
        h, s = _solve_relation(q, inv[f], V, face)
        fh[f], fv[f] = h, inv[f] + s
        for (f, ch, k, _), (h, Y) in zip(self._outlets, _outlet_depths(q, inv, self._outlets)):
            fh[f], fv[f] = h, inv[f] - Y if ch else k * h
            for c in ch:
                fh[c], fv[c] = h, inv[c] + Y
        return fh, fv

    def _boundary_fluxes(self, fh, fv):
        """(B1, B2, net boundary mass influx) of the lists fh, fv of face
        depths and velocities, inlets then outlets; B1 and B2 as lists."""
        q, m, B1, B2 = self.phys.quadratic, self.m, [], []
        for (H, V, g), h, v in zip(self._bfaces, fh, fv):
            B1.append(H * v + V * h + q * (h * v))
            B2.append(V * v + q * (0.5 * v * v) + g * h)
        return B1, B2, sum(B1[:m]) - sum(B1[m:])

    def face_states(self, y: np.ndarray, flat: bool = False):
        """Every boundary and junction face: channel id -> (h0, v0, hL, vL), or
        the (2, 2m) array if flat, solved from the flat state y alone."""
        f = self._faces(y[self._ends].tolist())
        return np.array(f) if flat else self._face_dict(f)

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

    def rhs(self, y: np.ndarray, dt: float | None = None):
        """Flat tendencies, solved faces, and the net boundary mass influx of
        the flat state y, which one pass admits. Given dt, a step dt above
        y's stability bound raises CflViolation first."""
        admitted = self.phys.admit(self, y)
        if dt is not None:
            self._check_step(dt, self._bound(admitted))
        return self._tendency(y, self._solve_faces(y), admitted)

    def _check_step(self, dt: float, bound: float):
        """Refuse a step dt above the stability bound, and any step where the
        bound is NaN; run stamps the time on the error."""
        if not dt <= bound * (1.0 + 1e-12):
            raise CflViolation(f"dt = {dt:.6e} exceeds the stability bound {bound:.6e}")

    def step(self, y: np.ndarray, dt: float):
        """One Heun (two-stage Runge-Kutta) step of y: (new y, flux integral).

        Each stage admits its state once; the first stage's admission also
        bounds dt. The flux integral applies the scheme's own quadrature to
        the net boundary mass influx, so stored mass and ledger agree to
        round-off."""
        k1, _, influx1 = self.rhs(y, dt)
        k2, _, influx2 = self.rhs(y + dt * k1)
        return y + 0.5 * dt * (k1 + k2), 0.5 * dt * (influx1 + influx2)

    # -- instrumentation -----------------------------------------------------

    def _char_fields(self, y):
        s = _shift(y[: self.N], self.Hc, self.g, self.phys.quadratic, self._where_cell)
        v = y[self.N :]
        return np.concatenate((v + s, v - s))

    def _weighted(self, z):
        return float(self._wf @ (z * z))

    def lyapunov_value_state(self, y: np.ndarray) -> float:
        """Weighted characteristic norm of the deviation fields y."""
        return self._weighted(self._char_fields(y))

    def lyapunov_extended(self, y: np.ndarray) -> tuple[float, float]:
        """(V, V_ext): the weighted norm and its two-derivative extension, with
        the time derivatives of the characteristic fields taken from the
        linearized system dt y1 = -lam1 dx y1 - gamma1 y1 - delta1 y2,
        dt y2 = lam2 dx y2 - gamma2 y1 - delta2 y2 (the operator L), twice."""
        z = self._char_fields(y)
        V = self._weighted(z)
        u = self._LL @ z
        return V, V + self._weighted(u[: z.size]) + self._weighted(u[z.size :])

    def boundary_form(self, y: np.ndarray) -> float:
        """B(t), the sum over channels of [f1 lam1 y1^2 - f2 lam2 y2^2]_0^L."""
        f = self.face_states(y, flat=True)
        s = _shift(f[0], self._Hb, self._gb, self.phys.quadratic, self._where_face)
        y1, y2 = f[1] + s, f[1] - s
        return float(self._sign @ (self._f1lam1 * y1**2 - self._f2lam2 * y2**2))

    def _sample(self, y):
        """V, V_ext, B, stored mass and per-channel L2 norms of the flat state y."""
        h, v = y[: self.N], y[self.N :]
        norms = np.sqrt(np.add.reduceat(self._w * (h * h + v * v), self._starts))
        V, V_ext = self.lyapunov_extended(y)
        return (V, V_ext, self.boundary_form(y), float(self.dx @ h), *norms)

    def _observe(self, y):
        """_sample of the flat state y on the linear operator path, through
        the stacked observation operator. A state that overflows samples
        as inf or nan, which run refuses."""
        u = self._O @ y
        with np.errstate(over="ignore", invalid="ignore"):
            V, V_ext, B, *squares = (self._W @ (u * u)).tolist()
        return (V, V_ext, B, float(self.dx @ y[: self.N]), *map(math.sqrt, squares))

    # -- marching ------------------------------------------------------------

    def _propagate(self, y, dt: float, nsteps: int, stride: int):
        """The sampled states of a linear run from the flat state y: (step
        count, y, flux integral since the last sample).

        A Heun step of y' = A y is the fixed matrix M = I + dt A + dt^2 A^2 / 2,
        and its ledger increment the fixed row r = dt q + dt^2 A^T q / 2, q the
        influx row. The run advances by the cached powers M^b and rows
        R_b = sum_{j<b} r M^j of the blocks of at most _BLOCK steps that make
        up each stride and the final partial stride. The speeds are frozen,
        so one stability check covers every step.
        """
        self._check_step(dt, self.cfl_dt(y))
        M, r = self._heun(dt)
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
        n = 0
        for gap in gaps:
            dflux = 0.0
            for b in plans[gap]:
                P, R = powers[b]
                dflux += float(R @ y)
                y = P @ y
            n += gap
            yield n, y, dflux

    def _heun(self, dt):
        """(M, r) of a Heun step dt; scipy's sums fix M's entry order, which its powers follow."""
        from scipy import sparse

        A, q, h = self.A, self._influx, 0.5 * dt * dt
        M = dt * A + sparse.identity(2 * self.N, format="csr") + h * (A @ A)
        return M, dt * q + h * (A.T @ q)

    # -- driver --------------------------------------------------------------

    def run(self, perturbation: dict[int, Bump] | None, T: float,
            sample_stride: int | None = None) -> LyapunovTrace:
        """Advance the perturbed steady state to time T and sample the decay.

        The time step is fixed from the initial CFL bound, re-checked every
        step, or once where the speeds are frozen. Samples land every
        sample_stride steps when given, otherwise about DEFAULT_SAMPLES times
        over the run; a sample whose V is not finite, as when a linear run
        with an unstable gain overflows, raises SimulationError. The decay
        rate and its R^2 are fitted on ln V over [0.2 T, T], and are NaN
        where V is zero or under two samples fall in it.
        """
        check_run_options(T=T, sample_stride=sample_stride)
        now = 0.0  # time of the last state reached, stamped on a SimulationError
        try:
            y = self.initial_state(perturbation)
            bound = self.cfl_dt(y)
            nsteps = max(1, math.ceil(T / (bound * self.phys.headroom)))
            dt = T / nsteps
            stride = int(sample_stride or max(1, nsteps // DEFAULT_SAMPLES))
            flux_integral, rows = 0.0, []
            reached = self.phys.march(self, y, dt, nsteps, stride)
            for n, y, dflux in itertools.chain([(0, y, 0.0)], reached):
                now = n * dt
                flux_integral += dflux
                if n % stride == 0 or n == nsteps:
                    rows.append((now, flux_integral, *self.phys.sample(self, y)))
                    if not math.isfinite(rows[-1][2]):
                        raise SimulationError(f"the Lyapunov value V = {rows[-1][2]} "
                                              "is not finite")
        except SimulationError as exc:
            exc.sim_time = now
            raise

        self.final_state = y
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
            mass_flux_integral=flux_integrals, nu_hat=nu_hat, r2=r2, zero_trace=zero,
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

