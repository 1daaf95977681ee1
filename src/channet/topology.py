"""Channel network description and validation.

A network is a rooted tree of rectangular channels of unit width. The root
channel (the trunk) receives an imposed inflow; every junction has exactly one
incoming channel and one or more outgoing channels; channels that do not feed a
junction end at a controlled outlet.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .errors import (
    BadSplitSum,
    CycleDetected,
    DisconnectedChannel,
    MultipleParents,
    TopologyError,
)

SPLIT_SUM_TOL = 1e-12


def _count(x):
    """Whether x is a whole number of at least 1; a bool is not."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    return x >= 1 and (isinstance(x, numbers.Integral) or float(x).is_integer())


@dataclass(frozen=True)
class ChannelSpec:
    """Physical description of a single prismatic channel.

    Unit width is assumed throughout, so the volumetric flux per unit width is
    simply depth times velocity.
    """

    id: int
    length: float
    friction: float = 0.0
    friction_exponent: float = 1.0
    gravity: float = 9.81
    cells: int = 100

    def __post_init__(self):
        # each check in a form that NaN fails
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"channel {self.id}: length must be positive and finite")
        if not 0.0 <= self.friction < math.inf:
            raise ValueError(f"channel {self.id}: friction must be >= 0 and finite")
        if not 0.0 <= self.friction_exponent < math.inf:
            raise ValueError(f"channel {self.id}: friction exponent must be >= 0 and finite")
        if not 0.0 < self.gravity < math.inf:
            raise ValueError(f"channel {self.id}: gravity must be positive and finite")
        if not self.cells >= 8:
            raise ValueError(f"channel {self.id}: at least 8 cells required")


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable rooted tree of channels.

    ``junctions`` maps the incoming channel id to the ordered tuple of outgoing
    channel ids. ``split_fractions`` maps the same incoming channel id to the
    flux fraction assigned to each outgoing channel, in the same order. The
    fractions are prescribed data, not derived from any resistance model; they
    must be in [0, 1] and sum to 1, so a junction with one outgoing channel
    passes the fraction 1.0. A zero fraction is allowed and produces a
    zero-flux branch (standing water held by its outlet).
    """

    channels: dict[int, ChannelSpec]
    root_channel: int
    junctions: dict[int, tuple[int, ...]] = field(default_factory=dict)
    split_fractions: dict[int, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "channels", dict(self.channels))
        object.__setattr__(
            self, "junctions", {i: tuple(out) for i, out in self.junctions.items()}
        )
        object.__setattr__(
            self, "split_fractions", {i: tuple(s) for i, s in self.split_fractions.items()}
        )

    @property
    def internal_channels(self) -> tuple[int, ...]:
        """Channels that end at a junction."""
        return tuple(sorted(self.junctions))

    @property
    def terminal_channels(self) -> tuple[int, ...]:
        """Channels that end at a controlled outlet."""
        return tuple(sorted(i for i in self.channels if i not in self.junctions))

    def parent_of(self, channel: int) -> int | None:
        for i, out in self.junctions.items():
            if channel in out:
                return i
        return None

    def split_of(self, parent: int, child: int) -> float:
        out = self.junctions[parent]
        return self.split_fractions[parent][out.index(child)]


def validate_topology(topo: NetworkTopology) -> None:
    """Check tree-ness and split-fraction consistency.

    Raises CycleDetected, MultipleParents, DisconnectedChannel or BadSplitSum.
    The internal/terminal partition is ``NetworkTopology.internal_channels``
    and ``terminal_channels``.
    """
    ids = set(topo.channels)
    if topo.root_channel not in ids:
        raise TopologyError(f"root channel {topo.root_channel} is not in the network")
    for i, spec in topo.channels.items():
        if spec.id != i:
            raise TopologyError(f"channel key {i} holds a spec with id {spec.id}")

    parent: dict[int, int] = {}
    for i, out in topo.junctions.items():
        if i not in ids:
            raise TopologyError(f"junction incoming channel {i} is not in the network")
        if len(out) < 1:
            raise TopologyError(f"junction fed by channel {i} has no outgoing channels")
        if len(set(out)) != len(out):
            raise MultipleParents(next(c for c in out if out.count(c) > 1))
        for c in out:
            if c not in ids:
                raise TopologyError(f"junction fed by channel {i}: unknown channel {c}")
            if c in parent:
                raise MultipleParents(c)
            parent[c] = i

    if topo.root_channel in parent:
        raise CycleDetected(topo.root_channel)

    # Reachability from the root; unreachable channels with a parent sit on a
    # cycle (their ancestry never terminates), parentless ones are orphans.
    reached = {topo.root_channel}
    frontier = [topo.root_channel]
    while frontier:
        i = frontier.pop()
        for c in topo.junctions.get(i, ()):
            reached.add(c)
            frontier.append(c)
    for i in sorted(ids - reached):
        if i in parent:
            raise CycleDetected(i)
        raise DisconnectedChannel(i)

    for i, out in topo.junctions.items():
        fracs = topo.split_fractions.get(i)
        if fracs is None:
            raise BadSplitSum(i, "no split fractions supplied")
        if len(fracs) != len(out):
            raise BadSplitSum(i, f"{len(fracs)} fractions for {len(out)} outgoing channels")
        for s in fracs:
            if not (0.0 <= s <= 1.0):
                raise BadSplitSum(i, f"fraction {s!r} outside [0, 1]")
        total = sum(fracs)
        if abs(total - 1.0) > SPLIT_SUM_TOL:
            raise BadSplitSum(i, f"fractions sum to {total!r}, expected 1")


def traversal_order(topo: NetworkTopology) -> list[int]:
    """Channel ids in root-first order: every channel after its parent."""
    order = [topo.root_channel]
    queue = [topo.root_channel]
    while queue:
        i = queue.pop(0)
        for c in topo.junctions.get(i, ()):
            order.append(c)
            queue.append(c)
    return order


def json_object(value, name: str) -> dict:
    """``value`` if it is a JSON object; ValueError, naming it, if not."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, not {value!r}")
    return value


def network_from_dict(data: dict) -> NetworkTopology:
    """Build a topology from parsed JSON (channel ids may arrive as strings).
    A network, channel entry, junctions or split_fractions that is not an
    object raises ValueError."""
    data = json_object(data, "network")
    channels = {}
    for entry in data["channels"]:
        entry = json_object(entry, "channel entry")
        cells = entry.get("cells", 100)
        if not _count(cells):  # before int() could truncate it
            raise ValueError(f"channel {entry.get('id')}: cells must be a whole number, not {cells!r}")
        spec = ChannelSpec(
            id=int(entry["id"]),
            length=float(entry["length"]),
            friction=float(entry.get("friction", 0.0)),
            friction_exponent=float(entry.get("friction_exponent", 1.0)),
            gravity=float(entry.get("gravity", 9.81)),
            cells=int(cells),
        )
        channels[spec.id] = spec
    junctions = json_object(data.get("junctions", {}), "junctions")
    splits = json_object(data.get("split_fractions", {}), "split_fractions")
    junctions = {int(i): tuple(int(c) for c in out) for i, out in junctions.items()}
    splits = {int(i): tuple(float(s) for s in fr) for i, fr in splits.items()}
    return NetworkTopology(
        channels=channels,
        root_channel=int(data["root_channel"]),
        junctions=junctions,
        split_fractions=splits,
    )


def network_to_dict(topo: NetworkTopology) -> dict:
    return {
        "channels": [
            {
                "id": s.id,
                "length": s.length,
                "friction": s.friction,
                "friction_exponent": s.friction_exponent,
                "gravity": s.gravity,
                "cells": s.cells,
            }
            for _, s in sorted(topo.channels.items())
        ],
        "root_channel": topo.root_channel,
        "junctions": {str(i): list(out) for i, out in sorted(topo.junctions.items())},
        "split_fractions": {str(i): list(fr) for i, fr in sorted(topo.split_fractions.items())},
    }
