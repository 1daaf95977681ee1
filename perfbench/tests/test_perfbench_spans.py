"""Checks of the benchmark's span recorder and of its wrapper installation."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from hostspeed import NOMINAL_S, REPEATS, HostSpeed  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, Span, instrument  # noqa: E402


def _current(targets):
    out = []
    for _, owner, attr, _ in targets:
        out.append(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
    return out


def test_self_time_subtracts_nested_children():
    rec = Recorder()
    rec.spans = [
        Span("a", 0.0, 10.0, None, "op"),
        Span("b", 1.0, 4.0, 0, "op"),
        Span("c", 2.0, 3.0, 1, "op"),
        Span("d", 5.0, 9.0, 0, "op"),
    ]
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert rec.under(2, "a") and rec.under(2, "b") and not rec.under(3, "b")


def test_self_time_counts_overlapping_children_once():
    rec = Recorder()
    rec.spans = [
        Span("a", 0.0, 10.0, None, "op"),
        Span("b", 1.0, 4.0, 0, "op"),
        Span("c", 3.0, 6.0, 0, "op"),
        Span("d", 8.0, 12.0, 0, "op"),
    ]
    assert rec.self_times()[0] == 10.0 - 5.0 - 2.0


def test_call_records_parent_and_op_from_the_clock():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
    rec = Recorder(clock=lambda: next(ticks))
    rec.op = "n1"

    def inner():
        return 7

    def outer():
        return rec.call("inner", inner, (), {}) + rec.call("inner", inner, (), {})

    assert rec.call("outer", outer, (), {}) == 14
    assert [(s.name, s.start, s.end, s.parent, s.op) for s in rec.spans] == [
        ("outer", 0.0, 7.0, None, "n1"),
        ("inner", 1.0, 2.0, 0, "n1"),
        ("inner", 5.0, 6.0, 0, "n1"),
    ]
    assert rec.self_times() == [5.0, 1.0, 1.0]


class _Probe:
    """A one-operation workload that notes whether channet is wrapped."""

    def __init__(self, originals, targets):
        self.originals = originals
        self.targets = targets
        self.wrapped = []

    def ops(self):
        return ["probe"]

    def run(self, op):
        now = _current(self.targets)
        self.wrapped.append([a is not b for a, b in zip(now, self.originals)])
        return 0.0, {"probe": 0.0}, True, 0


def test_untraced_run_installs_no_wrappers():
    targets = spans.targets()
    originals = _current(targets)

    probe = _Probe(originals, targets)
    tally, _, _, _ = run.measure(probe, 0.0, None)
    assert tally["attempted"] == run.MIN_UNITS and tally["failed"] == 0
    assert probe.wrapped == [[False] * len(targets)] * run.MIN_UNITS

    probe = _Probe(originals, targets)
    run.measure(probe, 0.0, Recorder())
    assert probe.wrapped == [[False] * len(targets), [True] * len(targets)] * run.MIN_UNITS
    assert _current(targets) == originals


def test_wrappers_reach_names_imported_elsewhere():
    import channet
    import channet.cli
    import channet.simulate
    import channet.weights

    holders = (channet, channet.cli, channet.simulate, channet.weights)
    original = channet.weights.certify_network
    with instrument(Recorder()):
        assert len({id(m.certify_network) for m in holders}) == 1
        assert channet.cli.certify_network.__wrapped__ is original
    assert all(m.certify_network is original for m in holders)


def test_host_speed_factor_uses_both_brackets():
    before = [[1.0, 3.0], [2.0], [0.5]]
    after = [[2.0], [2.0], [0.5]]
    assert HostSpeed.factor(before, after) == NOMINAL_S / (2.0 + 2.0 + 0.5)


def test_bracket_times_every_kernel_from_the_clock():
    ticks = iter(range(100))
    times = HostSpeed(clock=lambda: float(next(ticks))).bracket()
    assert [len(t) for t in times] == [REPEATS] * 3
    assert all(x == 1.0 for t in times for x in t)
