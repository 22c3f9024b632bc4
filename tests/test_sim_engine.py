"""Unit tests for the resource-timeline simulation engine."""

import pytest

from repro.sim.engine import Resource, Timeline


class TestResource:
    def test_acquire_when_free_starts_immediately(self):
        r = Resource("bus")
        start, end = r.acquire(at=1.0, duration=2.0)
        assert start == 1.0
        assert end == 3.0

    def test_acquire_queues_behind_previous_work(self):
        r = Resource("bus")
        r.acquire(at=0.0, duration=5.0)
        start, end = r.acquire(at=1.0, duration=1.0)
        assert start == 5.0
        assert end == 6.0

    def test_busy_time_accumulates(self):
        r = Resource("bus")
        r.acquire(0.0, 2.0)
        r.acquire(0.0, 3.0)
        assert r.busy_time == 5.0
        assert r.operations == 2

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Resource("bus").acquire(0.0, -1.0)

    def test_zero_duration_is_allowed(self):
        start, end = Resource("bus").acquire(2.0, 0.0)
        assert start == end == 2.0

    def test_peek_does_not_book(self):
        r = Resource("bus")
        r.acquire(0.0, 4.0)
        assert r.peek(1.0) == 4.0
        assert r.operations == 1

    def test_utilization(self):
        r = Resource("bus")
        r.acquire(0.0, 2.0)
        assert r.utilization(4.0) == pytest.approx(0.5)
        assert r.utilization(0.0) == 0.0

    def test_utilization_caps_at_one(self):
        r = Resource("bus")
        r.acquire(0.0, 10.0)
        assert r.utilization(5.0) == 1.0

    def test_reset(self):
        r = Resource("bus")
        r.acquire(0.0, 2.0)
        r.reset()
        assert r.busy_time == 0.0
        assert r.next_free == 0.0


class TestTimeline:
    def test_lazy_resource_creation(self):
        tl = Timeline()
        r = tl.resource("channel0")
        assert tl.resource("channel0") is r

    def test_advance_is_monotonic(self):
        tl = Timeline()
        tl.advance(5.0)
        tl.advance(3.0)
        assert tl.now == 5.0

    def test_busy_times_snapshot(self):
        tl = Timeline()
        tl.resource("a").acquire(0.0, 1.0)
        tl.resource("b").acquire(0.0, 2.0)
        assert tl.busy_times() == {"a": 1.0, "b": 2.0}

    def test_reset_clears_everything(self):
        tl = Timeline()
        tl.resource("a").acquire(0.0, 1.0)
        tl.advance(9.0)
        tl.reset()
        assert tl.now == 0.0
        assert tl.resource("a").busy_time == 0.0
