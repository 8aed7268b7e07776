"""The magnitude monitor.

Every number in this package is a plain Python ``int``; there is no
floating-point code anywhere in the solver. A monitor tracks the
largest absolute value stored by a solve so the advertised magnitude
bound can be checked rather than assumed.

Rounding to nearest, ties up, is written inline as
``(2p + q) // (2q)`` in ``centering``'s ``_linearize``, ``_predict``
and ``sample_update``, and ceiling division as ``-(-p // q)`` wherever
it is used.
"""

from __future__ import annotations

from typing import Iterable

from .errors import BoundViolationError

__all__ = ["BoundMonitor"]


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
        magnitude and compare that once. Each step that stores values
        passes all of them as one batch, chained together. A batch
        holding a violator raises with the batch's largest magnitude,
        which is also left in ``max_seen``; an empty batch is a no-op. A
        cycle update folds its stored values as it computes them and
        passes the largest magnitude to ``record`` instead."""
        self.record(max(map(abs, values), default=0))
