"""Exception types raised by the channel-network toolkit."""


class ChannetError(Exception):
    """Base class for all library errors."""


# --- topology ---------------------------------------------------------------

class TopologyError(ChannetError):
    pass


class CycleDetected(TopologyError):
    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"channel {channel} lies on a cycle or feeds back into the tree")


class MultipleParents(TopologyError):
    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"channel {channel} is claimed as outgoing by more than one junction")


class DisconnectedChannel(TopologyError):
    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"channel {channel} is not reachable from the root channel")


class BadSplitSum(TopologyError):
    def __init__(self, channel: int, detail: str):
        self.channel = channel
        super().__init__(f"junction fed by channel {channel}: {detail}")


# --- steady state -----------------------------------------------------------

class SteadyStateError(ChannetError):
    pass


class NegativeFlux(SteadyStateError):
    pass


class SupercriticalStart(SteadyStateError):
    """Inlet state already at or below the subcritical margin."""


class SteadyStateBlowup(SteadyStateError):
    """The steady profile loses subcriticality before the end of the channel.

    ``x_reached`` is the blow-up bound: the abscissa, closed form in the
    depth potential, where the margin g H - V^2 falls to its tolerance.
    """

    def __init__(self, channel: int, x_reached: float):
        self.channel = channel
        self.x_reached = x_reached
        super().__init__(
            f"channel {channel}: steady profile reaches the subcritical margin at "
            f"x = {x_reached:.6g} before the channel end"
        )


# --- Lyapunov weights -------------------------------------------------------

class WeightError(ChannetError):
    pass


class DegenerateFlux(WeightError):
    """Quantity undefined for a zero-flux channel."""


class EpsilonTooLarge(WeightError):
    """The comparison function eta_bar + epsilon u / (1 - epsilon J) does not
    exist on [0, L] at this epsilon: 1 - epsilon J(L) <= 0."""


class MissingGain(WeightError):
    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"no feedback gain supplied for terminal channel {channel}")


# --- simulator --------------------------------------------------------------

class SimulationError(ChannetError):
    pass


class CflViolation(SimulationError):
    pass


class SubcriticalLoss(SimulationError):
    """A cell left the subcritical regime (g H > V^2 fails there, as it
    does for a NaN), or a face (next to ``cell``) ran dry."""

    def __init__(self, channel: int, cell: int, face: str | None = None):
        self.channel = channel
        self.cell = cell
        self.face = face
        where = f"{face} face" if face else f"cell {cell}"
        super().__init__(f"channel {channel}, {where}: flow left the subcritical regime")


class TerminalSolveFailure(SimulationError):
    pass


class NonPositiveV(SimulationError):
    """Lyapunov trace contains non-positive values; a decay rate cannot be fitted."""
