"""Span recorder for the traced run, and the wrappers that feed it.

The traced run wraps channet's layer entry points from outside: each wrapper
records a span (name, start, end, parent span, operation id) in memory. The
per-layer metrics are derived from the spans when the run ends. The untraced
run installs none of this.
"""

import contextlib
import functools
import sys
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, end, parent, op, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self, index):
        return {
            "id": index, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "attrs": self.attrs or {},
        }


class Recorder:
    """Spans of one process, kept in memory; ``op`` tags every new span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = None

    def call(self, name, fn, args, kwargs, on_result=None):
        span = Span(name, self.clock(), 0.0, self.stack[-1] if self.stack else None, self.op)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span.end = self.clock()
        if on_result is not None:
            span.attrs = on_result(result, args, kwargs)
        return result

    def self_times(self):
        """Each span's duration minus the part of it its children cover."""
        children = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children.setdefault(s.parent, []).append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(i, ()), key=lambda c: self.spans[c].start):
                lo = max(self.spans[c].start, reach)
                hi = min(self.spans[c].end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def under(self, index, name):
        """Whether span ``index`` has an ancestor called ``name``."""
        p = self.spans[index].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


def _ode_attrs(result, args, kwargs):
    t_span = args[1] if len(args) > 1 else kwargs["t_span"]
    return {"nfev": int(result.nfev), "part": "main" if t_span[0] == 0.0 else "tail"}


def _certified(result, args, kwargs):
    return {"certified": bool(result.certified)}


def targets():
    """(span name, owner, attribute, result hook) for every wrapped boundary.

    The ``solve_ivp`` entries are the references that channet.steady and
    channet.weights import, so every ODE solve of those two modules is seen.
    ``run`` is wrapped so that the CLI's self time excludes the simulation.
    """
    import channet.characteristics as characteristics
    import channet.cli as cli
    import channet.gains as gains
    import channet.simulate as simulate
    import channet.steady as steady
    import channet.weights as weights

    sim = simulate.NetworkSimulator
    return [
        ("steady", steady, "integrate_channel_steady", None),
        ("steady.ode", steady, "solve_ivp", _ode_attrs),
        ("characteristics", characteristics.CharCoeffs, "from_profile", None),
        ("gains", gains, "is_admissible", None),
        ("weights.certify", weights, "certify_network", _certified),
        ("weights.attempt", weights, "network_weights", None),
        ("weights.phi", weights, "phi_profiles", None),
        ("weights.eta", weights, "eta_eps", None),
        ("weights.check", weights, "interior_matrix", None),
        ("weights.check", weights, "junction_matrix", None),
        ("weights.check", weights, "trunk_inlet_coefficient", None),
        ("weights.ode", weights, "solve_ivp", _ode_attrs),
        ("simulate.init", sim, "__init__", None),
        ("simulate.run", sim, "run", None),
        ("simulate.step", sim, "step", None),
        ("simulate.rhs", sim, "rhs", None),
        ("simulate.face", sim, "face_states", None),
        ("simulate.cfl", sim, "cfl_dt", None),
        ("simulate.instrument", sim, "lyapunov_value_state", None),
        ("simulate.instrument", sim, "lyapunov_extended", None),
        ("simulate.instrument", sim, "boundary_form", None),
        ("cli", cli, "main", None),
    ]


def _wrapper(recorder, name, fn, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, on_result)

    return wrapper


@contextlib.contextmanager
def instrument(recorder):
    """Wrap every target while the block runs; a ``None`` recorder wraps nothing.

    A channet function is replaced in every channet module that holds it by
    name, so calls through ``from .x import f`` references are recorded too.
    A foreign function (``solve_ivp``) is replaced only in its owner module.
    """
    if recorder is None:
        yield
        return
    saved = []
    try:
        for name, owner, attr, on_result in targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrapper(recorder, name, raw.__func__, on_result))
                else:
                    new = _wrapper(recorder, name, raw, on_result)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            new = _wrapper(recorder, name, orig, on_result)
            holders = [owner]
            if orig.__module__.startswith("channet."):
                holders = [m for n, m in list(sys.modules.items())
                           if (n == "channet" or n.startswith("channet.")) and m.__dict__.get(attr) is orig]
            for mod in holders:
                saved.append((mod, attr, orig))
                setattr(mod, attr, new)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(recorder, units, bytes_written):
    """Per-layer metrics per workload unit from the recorded spans.

    ``units`` is the number of traced workload units (five CLI certify calls
    and one simulate on the stars, one pass over the 70 networks on the suite).
    Weights metrics count only work done inside certify_network, so the
    gain screen's own phi_profiles solve stays in the gains layer.
    """
    spans = recorder.spans
    self_t = recorder.self_times()
    total = {}
    count = {}
    certified = 0
    for i, s in enumerate(spans):
        key = s.name
        if key.startswith("weights.") and key != "weights.certify" and not recorder.under(i, "weights.certify"):
            continue
        if key.endswith(".ode"):
            key = f"{key}.{s.attrs['part']}"
            count[key + ".nfev"] = count.get(key + ".nfev", 0) + s.attrs["nfev"]
        total[key] = total.get(key, 0.0) + s.duration
        count[key] = count.get(key, 0) + 1
        if s.name in ("weights.attempt", "simulate.rhs", "cli"):
            total[key + ".self"] = total.get(key + ".self", 0.0) + self_t[i]
        if s.name == "weights.certify" and s.attrs["certified"]:
            certified += 1

    def t(key):
        return total.get(key, 0.0) / units

    def n(key):
        return count.get(key, 0) / units

    attempts = count.get("weights.attempt", 0)
    steps = count.get("simulate.step", 0)
    return {
        "steady.busy_s": (t("steady"), "s"),
        "steady.main_s": (t("steady.ode.main"), "s"),
        "steady.tail_s": (t("steady.ode.tail"), "s"),
        "steady.rhs_evals": (n("steady.ode.main.nfev") + n("steady.ode.tail.nfev"), "count"),
        "characteristics.busy_s": (t("characteristics"), "s"),
        "gains.busy_s": (t("gains"), "s"),
        "weights.certify_s": (t("weights.certify"), "s"),
        "weights.attempts": (n("weights.attempt"), "count"),
        "weights.useful_attempt_ratio": (certified / attempts if attempts else 0.0, "ratio"),
        "weights.phi_s": (t("weights.phi"), "s"),
        "weights.eta_s": (t("weights.eta"), "s"),
        "weights.eta_calls": (n("weights.eta"), "count"),
        "weights.rhs_evals": (n("weights.ode.main.nfev") + n("weights.ode.tail.nfev"), "count"),
        "weights.checks_s": (t("weights.check"), "s"),
        "weights.assemble_s": (t("weights.attempt.self"), "s"),
        "simulate.steps": (n("simulate.step"), "count"),
        "simulate.step_us": (1e6 * total.get("simulate.step", 0.0) / steps if steps else 0.0, "us"),
        "simulate.face_s": (t("simulate.face"), "s"),
        "simulate.flux_s": (t("simulate.rhs.self"), "s"),
        "simulate.cfl_s": (t("simulate.cfl"), "s"),
        "simulate.instrument_s": (t("simulate.instrument"), "s"),
        "simulate.init_s": (t("simulate.init"), "s"),
        "cli.busy_s": (t("cli"), "s"),
        "cli.io_s": (t("cli.self"), "s"),
        "cli.bytes_written": (bytes_written / units, "count"),
    }
