"""Network description and validation."""

import dataclasses
import math

import numpy as np
import pytest

from channet.errors import (
    BadSplitSum,
    CycleDetected,
    DisconnectedChannel,
    MultipleParents,
    TopologyError,
)
from channet.steady import integrate_channel_steady
from channet.topology import (
    ChannelSpec,
    NetworkTopology,
    network_from_dict,
    network_to_dict,
    traversal_order,
)

from conftest import small_star


def chain(n):
    chans = {i: ChannelSpec(id=i, length=10.0) for i in range(1, n + 1)}
    junctions = {i: (i + 1,) for i in range(1, n)}
    splits = {i: (1.0,) for i in range(1, n)}
    return NetworkTopology(
        channels=chans, root_channel=1, junctions=junctions, split_fractions=splits
    )


def test_star_classification():
    topo = small_star()
    assert topo.internal_channels == (1,)
    assert topo.terminal_channels == (2, 3, 4)
    assert topo.parent_of(3) == 1
    assert topo.parent_of(1) is None
    assert topo.split_of(1, 4) == pytest.approx(0.2)


def test_traversal_parents_first():
    topo = small_star()
    order = traversal_order(topo)
    assert order[0] == topo.root_channel
    seen = set()
    for i in order:
        parent = topo.parent_of(i)
        assert parent is None or parent in seen
        seen.add(i)
    assert seen == set(topo.channels)


def test_chain_traversal():
    topo = chain(4)
    assert traversal_order(topo) == [1, 2, 3, 4]
    assert topo.terminal_channels == (4,)
    assert topo.internal_channels == (1, 2, 3)


def test_dict_round_trip():
    topo = small_star()
    again = network_from_dict(network_to_dict(topo))
    assert again == topo


def test_single_channel_network():
    topo = NetworkTopology(
        channels={7: ChannelSpec(id=7, length=5.0)},
        root_channel=7,
        junctions={},
        split_fractions={},
    )
    assert topo.terminal_channels == (7,)
    assert topo.internal_channels == ()


def test_zero_split_fraction_allowed():
    topo = small_star()
    dataclasses.replace(topo, split_fractions={1: (0.5, 0.5, 0.0)})


def test_cycle_detected():
    chans = {i: ChannelSpec(id=i, length=10.0) for i in (1, 2)}
    with pytest.raises(CycleDetected):
        NetworkTopology(
            channels=chans,
            root_channel=1,
            junctions={1: (2,), 2: (1,)},
            split_fractions={1: (1.0,), 2: (1.0,)},
        )


def test_multiple_parents():
    chans = {i: ChannelSpec(id=i, length=10.0) for i in (1, 2, 3)}
    with pytest.raises(MultipleParents):
        NetworkTopology(
            channels=chans,
            root_channel=1,
            junctions={1: (2, 3), 3: (2,)},
            split_fractions={1: (0.5, 0.5), 3: (1.0,)},
        )


def test_disconnected_channel():
    chans = {i: ChannelSpec(id=i, length=10.0) for i in (1, 2, 9)}
    with pytest.raises(DisconnectedChannel):
        NetworkTopology(
            channels=chans,
            root_channel=1,
            junctions={1: (2,)},
            split_fractions={1: (1.0,)},
        )


def test_bad_split_sum():
    topo = small_star()
    with pytest.raises(BadSplitSum):
        dataclasses.replace(topo, split_fractions={1: (0.5, 0.3, 0.1)})


def test_negative_split_fraction():
    topo = small_star()
    with pytest.raises(BadSplitSum):
        dataclasses.replace(topo, split_fractions={1: (1.2, -0.1, -0.1)})


def test_unknown_junction_child():
    chans = {1: ChannelSpec(id=1, length=10.0)}
    with pytest.raises(TopologyError):
        NetworkTopology(
            channels=chans,
            root_channel=1,
            junctions={1: (2,)},
            split_fractions={1: (1.0,)},
        )


def test_missing_root():
    chans = {2: ChannelSpec(id=2, length=10.0)}
    with pytest.raises(TopologyError):
        NetworkTopology(
            channels=chans, root_channel=1, junctions={}, split_fractions={}
        )


def test_mixed_gravity_refused():
    # a junction solves its faces with one gravity, so a tree holds only one
    topo = small_star()
    channels = dict(topo.channels)
    channels[2] = dataclasses.replace(channels[2], gravity=5.0)
    with pytest.raises(TopologyError, match=r"channel 2: gravity 5\.0 differs from 9\.81"):
        NetworkTopology(channels, topo.root_channel, topo.junctions, topo.split_fractions)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"length": 0.0},
        {"length": -3.0},
        {"length": 10.0, "friction": -1e-3},
        {"length": 10.0, "friction_exponent": -0.5},
        {"length": 10.0, "friction_exponent": 4.6},
        {"length": 10.0, "friction_exponent": math.inf},
        {"length": 10.0, "gravity": 0.0},
        {"length": 10.0, "cells": 4},
        {"length": math.nan},
        {"length": math.inf},
        {"length": 10.0, "friction": math.nan},
        {"length": 10.0, "friction": math.inf},
        {"length": 10.0, "friction_exponent": math.nan},
        {"length": 10.0, "gravity": math.nan},
        {"length": 10.0, "cells": math.nan},
    ],
)
def test_channel_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ChannelSpec(id=1, **kwargs)


def test_channel_spec_refuses_a_friction_exponent_above_nine_halves():
    # gamma2 >= 0 at every subcritical Froude number exactly when p <= 9/2
    assert ChannelSpec(id=1, length=10.0, friction_exponent=4.5).friction_exponent == 4.5
    with pytest.raises(ValueError, match=r"channel 1: friction exponent must be in \[0, 9/2\], "
                                         r"not 4\.6: above 9/2 the coupling gamma2 turns negative"):
        ChannelSpec(id=1, length=10.0, friction_exponent=4.6)


@pytest.mark.parametrize("cells", [9.7, True, "24"])
def test_non_whole_cells_rejected_before_truncation(cells):
    data = network_to_dict(small_star(cells=24))
    data["channels"][1]["cells"] = cells
    with pytest.raises(ValueError, match="cells"):
        network_from_dict(data)


@pytest.mark.parametrize("cells", [8.5, 10.0, np.float64(24.0), True])
def test_channel_spec_refuses_cells_that_are_not_integers(cells):
    # 8.5 and 10.0 pass cells >= 8, and the steady grid then fails on them
    with pytest.raises(ValueError, match=r"channel 1: cells must be an integer"):
        ChannelSpec(id=1, length=10.0, cells=cells)


def test_channel_spec_takes_any_integer_cells():
    spec = ChannelSpec(id=1, length=10.0, friction=1e-3, cells=np.int64(8))
    assert integrate_channel_steady(spec, 2.0, 1.0).x_centers.size == 8


def test_two_channel_entries_with_one_id_rejected():
    # read into a dict by id, the second entry would replace the first
    data = network_to_dict(small_star(cells=24))
    data["channels"][1]["id"] = 3
    with pytest.raises(ValueError, match="two channel entries share an id"):
        network_from_dict(data)
