"""Channel network description and validation.

A network is a rooted tree of rectangular channels of unit width. The root
channel (the trunk) receives an imposed inflow; every junction has exactly one
incoming channel and one or more outgoing channels; channels that do not feed a
junction end at a controlled outlet.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

from .errors import (
    BadSplitSum,
    CycleDetected,
    DisconnectedChannel,
    MultipleParents,
    TopologyError,
)

SPLIT_SUM_TOL = 1e-12


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
        if isinstance(self.cells, bool) or not isinstance(self.cells, numbers.Integral):
            raise ValueError(f"channel {self.id}: cells must be an integer, not {self.cells!r}")
        if not self.cells >= 8:
            raise ValueError(f"channel {self.id}: at least 8 cells required")


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable rooted tree of channels, checked when it is built.

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
    # set by _check: each channel's parent, and the channel ids root first
    _parent: dict[int, int] = field(init=False, repr=False, compare=False)
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "channels", dict(self.channels))
        object.__setattr__(self, "junctions", {i: tuple(out) for i, out in self.junctions.items()})
        object.__setattr__(
            self, "split_fractions", {i: tuple(s) for i, s in self.split_fractions.items()}
        )
        self._check()

    def _check(self) -> None:
        """Raise a TopologyError (CycleDetected, MultipleParents,
        DisconnectedChannel or BadSplitSum where one fits) for a malformed tree,
        mixed gravity or bad split fractions; else keep _parent and _order."""
        if self.root_channel not in self.channels:
            raise TopologyError(f"root channel {self.root_channel} is not in the network")
        g = self.channels[self.root_channel].gravity
        for i, spec in self.channels.items():
            if spec.id != i:
                raise TopologyError(f"channel key {i} holds a spec with id {spec.id}")
            if spec.gravity != g:  # the junctions solve every face with one gravity
                raise TopologyError(f"channel {i}: gravity {spec.gravity!r} differs from "
                                    f"{g!r}, that of root channel {self.root_channel}")

        parent: dict[int, int] = {}
        for i, out in self.junctions.items():
            if i not in self.channels:
                raise TopologyError(f"junction incoming channel {i} is not in the network")
            if len(out) < 1:
                raise TopologyError(f"junction fed by channel {i} has no outgoing channels")
            if len(set(out)) != len(out):
                raise MultipleParents(next(c for c in out if out.count(c) > 1))
            for c in out:
                if c not in self.channels:
                    raise TopologyError(f"junction fed by channel {i}: unknown channel {c}")
                if c in parent:
                    raise MultipleParents(c)
                parent[c] = i

        if self.root_channel in parent:
            raise CycleDetected(self.root_channel)

        # Reachability from the root, which ends: no channel has two parents and
        # the root has none. Unreachable channels with a parent sit on a cycle
        # (their ancestry never terminates), parentless ones are orphans.
        order = [self.root_channel]
        for i in order:  # a breadth-first queue: each channel appends its children
            order.extend(self.junctions.get(i, ()))
        for i in sorted(self.channels.keys() - order):
            if i in parent:
                raise CycleDetected(i)
            raise DisconnectedChannel(i)

        for i, out in self.junctions.items():
            fracs = self.split_fractions.get(i)
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
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_order", tuple(order))

    @property
    def internal_channels(self) -> tuple[int, ...]:
        """Channels that end at a junction."""
        return tuple(sorted(self.junctions))

    @property
    def terminal_channels(self) -> tuple[int, ...]:
        """Channels that end at a controlled outlet."""
        return tuple(sorted(i for i in self.channels if i not in self.junctions))

    def parent_of(self, channel: int) -> int | None:
        return self._parent.get(channel)

    def split_of(self, parent: int, child: int) -> float:
        out = self.junctions[parent]
        return self.split_fractions[parent][out.index(child)]


def traversal_order(topo: NetworkTopology) -> list[int]:
    """Channel ids in root-first order: every channel after its parent."""
    return list(topo._order)


# -- configuration schema -----------------------------------------------------
# Each JSON object of a configuration is read through one table: key -> (kind,
# default). A kind is float (a finite number), int (a whole number), str, a
# nested _Table, or an _Each of a list or of an object keyed by channel ids.
# The default is the JSON value a missing key stands for, or _REQUIRED; null
# is read only where the default is null. A table's build is the guard of its
# values, such as ChannelSpec; a noun names the entries in messages. _walk
# refuses the first value it cannot read, naming its path:
# "network.channels[1].frction: unknown key".

_REQUIRED = object()


class _Table:
    """A JSON object, read to build(*its values in row order) or their tuple."""

    def __init__(self, rows: dict, build=None, noun: str = ""):
        self.rows, self.build, self.noun = rows, build, noun


class _Each:
    """A JSON list of kind or, keyed, an object of kind keyed by channel ids."""

    def __init__(self, kind, noun: str, keyed: bool = False):
        self.kind, self.noun, self.keyed = kind, noun, keyed


class _Refusal(ValueError):
    """A value refused at path, relative to the value being read."""

    def __str__(self):
        path, text = self.args
        return f"{path.lstrip('.')}: {text}" if path else text


def _walk(kind, x, name: str):
    """x read through kind: a ValueError refuses x, a _Refusal a value below."""
    keyed = type(kind) is _Table or type(kind) is _Each and kind.keyed
    if not (keyed or type(kind) is _Each):  # a scalar that is not of its kind as it stands
        if kind is str:
            raise ValueError(f"{name} must be a string, not {x!r}")
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{name} must be a number, not {x!r}")
        if not (math.isfinite(x) and (kind is float or float(x).is_integer())):
            text = "finite" if kind is float else "a whole number"
            raise ValueError(f"{name} must be {text}, not {x!r}")
        return kind(x)
    if not isinstance(x, dict if keyed else (list, tuple)):
        raise ValueError(f"{name} must be {'an object' if keyed else 'a list'}, not {x!r}")
    key = None  # the entry being read; None while x itself is
    try:
        if type(kind) is _Each:
            sub, out = kind.kind, []
            for key, v in x.items() if keyed else enumerate(x):
                try:
                    i = int(key)
                except ValueError:
                    raise ValueError(f"{json.dumps(key)} is not a channel id") from None
                if keyed and str(i) != str(key):  # "02" or " 2" would pass as 2
                    raise ValueError(f"write this channel id as {i}")
                if not (type(v) is sub and (sub is not float or v - v == 0.0)):
                    v = _walk(sub, v, f"{kind.noun} {key}" if keyed else kind.noun)
                out.append((i, v) if keyed else v)
            return dict(out) if keyed else tuple(out)
        parsed, missing = [], 0
        for key, (sub, default) in kind.rows.items():
            v = x.get(key, _REQUIRED)
            if v is _REQUIRED:
                if default is _REQUIRED:
                    raise ValueError("missing")
                v, missing = default, missing + 1
            # a number of its kind that is finite (v - v is 0.0) is read as it is
            if not (type(v) is sub and (sub is not float or v - v == 0.0) or v is None is default):
                v = _walk(sub, v, kind.noun + key)
            parsed.append(v)
        if len(x) + missing > len(kind.rows):  # x has a key that is no row
            key = min(map(str, x.keys() - kind.rows.keys()))
            raise ValueError("unknown key")
        key = None
        return tuple(parsed) if kind.build is None else kind.build(*parsed)
    except (ValueError, OverflowError) as exc:
        at, text = exc.args if type(exc) is _Refusal else ("", str(exc))
        step = "" if key is None else f".{key}" if keyed else f"[{key}]"
        raise _Refusal(step + at, text) from None


def _network(channels, root_channel, junctions, split_fractions):
    specs = {spec.id: spec for spec in channels}
    if len(specs) < len(channels):
        raise ValueError("two channel entries share an id")
    return NetworkTopology(specs, root_channel, junctions, split_fractions)


_CHANNEL = _Table({
    "id": (int, _REQUIRED),
    "length": (float, _REQUIRED),
    "friction": (float, ChannelSpec.friction),
    "friction_exponent": (float, ChannelSpec.friction_exponent),
    "gravity": (float, ChannelSpec.gravity),
    "cells": (int, ChannelSpec.cells),
}, build=ChannelSpec)

_NETWORK = _Table({
    "channels": (_Each(_CHANNEL, "channel entry"), _REQUIRED),
    "root_channel": (int, _REQUIRED),
    "junctions": (_Each(_Each(int, "channel id"), "junction of channel", keyed=True), {}),
    "split_fractions": (_Each(_Each(float, "split fraction"), "split fractions of channel",
                              keyed=True), {}),
}, build=_network)


def network_from_dict(data: dict) -> NetworkTopology:
    """Build a topology from parsed JSON through the schema (ids may be decimal
    strings): ValueError names a refused value's path, TopologyError a bad network."""
    return _walk(_NETWORK, data, "network")


def network_to_dict(topo: NetworkTopology) -> dict:
    return {
        "channels": [asdict(s) for _, s in sorted(topo.channels.items())],
        "root_channel": topo.root_channel,
        "junctions": {str(i): list(out) for i, out in sorted(topo.junctions.items())},
        "split_fractions": {str(i): list(fr) for i, fr in sorted(topo.split_fractions.items())},
    }
