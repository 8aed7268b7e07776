"""Exception taxonomy for the solver.

Errors fall into two families: input problems (format violations,
unsupported features) and internal guard failures (magnitude bound
violations, stalled centering, iteration ceilings, broken invariants).
The second family signals a defect or an instance outside the scaling
preconditions; it never silently degrades a result.
"""

from __future__ import annotations


class LatticeFlowError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(LatticeFlowError):
    """Malformed instance or solution text."""


class UnsupportedFeatureError(FormatError):
    """Well-formed input using a feature this solver does not model."""


class BoundViolationError(LatticeFlowError):
    """A recorded integer exceeded the instance's magnitude limit."""


class CenteringStallError(LatticeFlowError):
    """A centering step exceeded its cycle-update safety ceiling."""


class IterationCeilingError(LatticeFlowError):
    """The outer loop exceeded its iteration safety ceiling."""


class InvariantError(LatticeFlowError):
    """An exact internal invariant failed; indicates a bug, not bad input."""


class RoundingRefusedError(InvariantError):
    """The crossover's admissible arcs cannot route the demands, so the
    point it rounded is not yet close enough to the optimal face. Above
    the proxy exit this is expected and the path goes on; at the exit,
    where the crossover is proven to certify, it is a defect like any
    other InvariantError."""
