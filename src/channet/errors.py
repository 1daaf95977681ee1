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


class SupercriticalState(SteadyStateError):
    """Depth at or below the critical depth: the subcritical ODE is not defined."""


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


# --- characteristic coefficients -------------------------------------------

class FormMismatch(ChannetError):
    """The two algebraic forms of the coupling coefficients disagree."""


# --- Lyapunov weights -------------------------------------------------------

class WeightError(ChannetError):
    pass


class DegenerateFlux(WeightError):
    """Quantity undefined for a zero-flux channel."""


class EpsilonTooLarge(WeightError):
    """The perturbed weight ODE ceases to exist on [0, L] for this epsilon."""


class ZeroW(WeightError):
    """Cannot rescale weights across a junction: W vanishes."""


class MissingGain(WeightError):
    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"no feedback gain supplied for terminal channel {channel}")


# --- gains ------------------------------------------------------------------

class ReflectionPole(ChannetError):
    """The feedback gain sits at the reflection-coefficient pole sqrt(g/H*(L))."""


# --- simulator --------------------------------------------------------------

class SimulationError(ChannetError):
    pass


class CflViolation(SimulationError):
    pass


class SubcriticalLoss(SimulationError):
    """A cell left the subcritical regime, or a face (next to ``cell``) ran dry."""

    def __init__(self, channel: int, cell: int, face: str | None = None):
        self.channel = channel
        self.cell = cell
        self.face = face
        where = f"{face} face" if face else f"cell {cell}"
        super().__init__(f"channel {channel}, {where}: flow left the subcritical regime")


class JunctionDivergence(SimulationError):
    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"junction fed by channel {channel}: Newton iteration did not converge")


class BoundarySolveFailure(SimulationError):
    pass


class RootSolveFailure(BoundarySolveFailure):
    pass


class TerminalSolveFailure(BoundarySolveFailure):
    pass


class NonPositiveV(SimulationError):
    """Lyapunov trace contains non-positive values; a decay rate cannot be fitted."""
