"""Exact integer min-cost flow by interior point path following.

The solver keeps every quantity an arbitrary-precision integer: scaling
by instance-derived powers makes the central path integral enough to
follow with exact arithmetic, randomized electrical cycle updates
recenter after each parameter step, arcs leave the working graph as
minors once their primal or dual value has collapsed, and a
combinatorial crossover rounds the final interior point to a certified
integral optimum.
"""

from .dimacs import (
    format_infeasible,
    format_instance,
    format_solution,
    parse_instance,
    parse_solution,
)
from .errors import (
    BoundViolationError,
    CenteringStallError,
    FormatError,
    InvariantError,
    IterationCeilingError,
    LatticeFlowError,
    RoundingRefusedError,
    UnsupportedFeatureError,
)
from .graph_core import MultiGraph
from .instance_pipeline import RawInstance
from .reference_oracle import (
    random_instance,
    ssp_solve,
    verify_certificate,
    verify_cut,
)
from .solver import SolveConfig, SolveResult, solve

__version__ = "0.1.0"

__all__ = [
    "BoundViolationError",
    "CenteringStallError",
    "FormatError",
    "InvariantError",
    "IterationCeilingError",
    "LatticeFlowError",
    "MultiGraph",
    "RawInstance",
    "RoundingRefusedError",
    "SolveConfig",
    "SolveResult",
    "UnsupportedFeatureError",
    "__version__",
    "format_infeasible",
    "format_instance",
    "format_solution",
    "parse_instance",
    "parse_solution",
    "random_instance",
    "solve",
    "ssp_solve",
    "verify_certificate",
    "verify_cut",
]
