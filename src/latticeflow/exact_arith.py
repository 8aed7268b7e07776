"""Exact integer arithmetic primitives and the magnitude monitor.

Every number in this package is a plain Python ``int``; there is no
floating-point fallback anywhere. The helpers here state the rounding
conventions the solver depends on (round-to-nearest with ties toward
+infinity, ceiling division), and a monitor tracks the largest absolute
value stored by a solve so the advertised magnitude bound can be checked
rather than assumed.

``round_nearest`` has no caller in the package: ``centering`` writes
its form ``(2p + q) // (2q)`` inline in ``_linearize``, ``_predict``
and ``sample_update``, and ``CenteringRun._linearize`` and
``TreeForest.reweight`` write ceiling division inline as
``-(-p // q)``. ``round_nearest`` is the tests' reference for those
inline forms; ``ceil_div`` serves the auxiliary build.
"""

from __future__ import annotations

from typing import Iterable

from .errors import BoundViolationError

__all__ = [
    "round_nearest",
    "ceil_div",
    "next_pow2",
    "BoundMonitor",
]


def round_nearest(p: int, q: int) -> int:
    """Return the integer nearest to p/q for q > 0.

    Ties (fractional part exactly 1/2) round toward +infinity, so
    ``round_nearest(7, 2) == 4`` and ``round_nearest(-3, 2) == -1``.
    Computed as floor((2p + q) / (2q)), which is exact for any signed p.
    """
    if q <= 0:
        raise ValueError(f"round_nearest requires q > 0, got {q}")
    return (2 * p + q) // (2 * q)


def ceil_div(p: int, q: int) -> int:
    """Ceiling of p/q for q > 0."""
    if q <= 0:
        raise ValueError(f"ceil_div requires q > 0, got {q}")
    return -(-p // q)


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise ValueError(f"next_pow2 requires n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


class BoundMonitor:
    """Running maximum of |value| over everything a solve stores.

    ``limit`` is instance-derived. Any recorded value with absolute
    value above the limit raises :class:`BoundViolationError`. The
    maximum is updated before the check so a violating value is still
    visible in ``max_seen``.
    """

    __slots__ = ("limit", "max_seen")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.max_seen = 0

    def record(self, value: int) -> None:
        a = -value if value < 0 else value
        if a > self.max_seen:
            self.max_seen = a
            if a > self.limit:
                raise BoundViolationError(
                    f"integer magnitude {a} exceeds monitor limit {self.limit}"
                )

    def record_many(self, values: Iterable[int]) -> None:
        """Check a stored batch at once: fold it to its largest
        magnitude and compare that once. A batch holding a violator
        raises with the batch's largest magnitude, which is also left
        in ``max_seen``; an empty batch is a no-op. A cycle update
        folds its stored values as it computes them and passes the
        largest magnitude to ``record`` instead."""
        self.record(max(map(abs, values), default=0))
