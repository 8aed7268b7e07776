from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow.errors import BoundViolationError
from latticeflow.exact_arith import BoundMonitor

from helpers import round_nearest


class TestRoundNearest:
    def test_tie_rounds_up(self):
        assert round_nearest(7, 2) == 4

    def test_exact_division(self):
        assert round_nearest(10, 5) == 2

    def test_negative_tie_rounds_up(self):
        assert round_nearest(-3, 2) == -1

    def test_plain_cases(self):
        assert round_nearest(13, 4) == 3
        assert round_nearest(-13, 4) == -3
        assert round_nearest(0, 7) == 0

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            round_nearest(1, 0)
        with pytest.raises(ValueError):
            round_nearest(1, -2)

    @given(
        p=st.integers(min_value=-(2**256), max_value=2**256),
        q=st.integers(min_value=1, max_value=2**256),
    )
    @settings(max_examples=200)
    def test_error_at_most_half(self, p, q):
        r = round_nearest(p, q)
        # |r*q - p| <= q/2, i.e. 2|r*q - p| <= q
        assert 2 * abs(r * q - p) <= q

    @given(
        p=st.integers(min_value=-(2**64), max_value=2**64),
        q=st.integers(min_value=1, max_value=2**64),
    )
    @settings(max_examples=200)
    def test_tie_direction(self, p, q):
        # when p/q sits exactly on a half-integer the result is the larger one
        if (2 * p) % (2 * q) == q:
            # result overshoots p/q by exactly half of q
            assert 2 * (round_nearest(p, q) * q - p) == q


class TestBoundMonitor:
    def test_records_max(self):
        mon = BoundMonitor(limit=10)
        mon.record(5)
        assert mon.max_seen == 5
        mon.record(-3)
        assert mon.max_seen == 5

    def test_strict_violation(self):
        mon = BoundMonitor(limit=10)
        with pytest.raises(BoundViolationError):
            mon.record(-12)
        # the violating magnitude is still visible
        assert mon.max_seen == 12

    def test_record_many(self):
        mon = BoundMonitor(limit=100)
        mon.record_many([3, -7, 2])
        assert mon.max_seen == 7

    def test_record_many_empty_is_a_noop(self):
        mon = BoundMonitor(limit=10)
        mon.record_many([])
        assert mon.max_seen == 0
        mon.record(4)
        mon.record_many(iter(()))
        assert mon.max_seen == 4

    def test_record_many_accepts_generators_and_dict_views(self):
        mon = BoundMonitor(limit=100)
        mon.record_many(v for v in (1, -9, 4))
        assert mon.max_seen == 9
        mon.record_many({0: 12, 1: -30}.values())
        assert mon.max_seen == 30
        mon.record_many({-41: 0}.keys())
        assert mon.max_seen == 41

    def test_record_many_below_max_seen_leaves_it(self):
        mon = BoundMonitor(limit=100)
        mon.record(-50)
        mon.record_many([3, -49, 50])
        assert mon.max_seen == 50

    def test_record_many_violation_reports_the_batch_maximum(self):
        mon = BoundMonitor(limit=10)
        mon.record_many([2, -5])
        # the first violator is 11, but the whole batch is checked at once
        with pytest.raises(BoundViolationError, match="magnitude 40 exceeds"):
            mon.record_many([1, 11, -40, 12])
        assert mon.max_seen == 40
