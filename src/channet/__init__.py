"""Boundary feedback stabilization of subcritical flows on channel networks.

The package computes non-uniform steady states on tree-shaped networks of
frictional channels, builds explicit Lyapunov weights with positivity
certificates for the linearized dynamics, screens terminal feedback gains
against their forbidden intervals, and simulates the closed-loop system to
measure exponential decay.
"""

from .characteristics import (
    CharCoeffs,
    eigenvalues,
    reflection_coefficient,
)
from .errors import (
    BadSplitSum,
    CflViolation,
    ChannetError,
    CycleDetected,
    DegenerateFlux,
    DisconnectedChannel,
    EpsilonTooLarge,
    MissingGain,
    MultipleParents,
    NegativeFlux,
    NonPositiveV,
    SimulationError,
    SteadyStateBlowup,
    SteadyStateError,
    SubcriticalLoss,
    SupercriticalStart,
    TerminalSolveFailure,
    TopologyError,
    WeightError,
)
from .gains import (
    GainRecord,
    boundary_constants,
    forbidden_interval,
    is_admissible,
)
from .simulate import (
    Bump,
    LyapunovTrace,
    NetworkSimulator,
    decay_fit,
    mass_balance,
)
from .steady import (
    SteadyProfile,
    critical_depth,
    integrate_channel_steady,
    solve_network_steady,
)
from .topology import (
    ChannelSpec,
    NetworkTopology,
    network_from_dict,
    network_to_dict,
    traversal_order,
)
from .weights import (
    ChannelWeights,
    NetworkCertificate,
    WeightSet,
    certify_network,
    eta_eps,
    interior_matrix,
    junction_matrix,
    m_value,
    trunk_inlet_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "BadSplitSum",
    "Bump",
    "CflViolation",
    "ChannelSpec",
    "ChannelWeights",
    "ChannetError",
    "CharCoeffs",
    "CycleDetected",
    "DegenerateFlux",
    "DisconnectedChannel",
    "EpsilonTooLarge",
    "GainRecord",
    "LyapunovTrace",
    "MissingGain",
    "MultipleParents",
    "NegativeFlux",
    "NetworkCertificate",
    "NetworkSimulator",
    "NetworkTopology",
    "NonPositiveV",
    "SimulationError",
    "SteadyProfile",
    "SteadyStateBlowup",
    "SteadyStateError",
    "SubcriticalLoss",
    "SupercriticalStart",
    "TerminalSolveFailure",
    "TopologyError",
    "WeightError",
    "WeightSet",
    "boundary_constants",
    "certify_network",
    "critical_depth",
    "decay_fit",
    "eigenvalues",
    "eta_eps",
    "forbidden_interval",
    "integrate_channel_steady",
    "interior_matrix",
    "is_admissible",
    "junction_matrix",
    "m_value",
    "mass_balance",
    "network_from_dict",
    "network_to_dict",
    "reflection_coefficient",
    "solve_network_steady",
    "traversal_order",
    "trunk_inlet_coefficient",
]
