"""Event queue: ordering, determinism, cancellation, time validation."""

import math

import numpy as np
import pytest

from repro.sim.events import EventQueue, EventType


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(5.0, EventType.DISK_FAILURE, "b")
        q.push(1.0, EventType.DISK_FAILURE, "a")
        q.push(3.0, EventType.DISK_FAILURE, "c")
        order = [q.pop().payload for _ in range(3)]
        assert order == ["a", "c", "b"]

    def test_fifo_at_equal_time(self):
        q = EventQueue()
        for name in "abc":
            q.push(2.0, EventType.DISK_FAILURE, name)
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_clock_advances(self):
        q = EventQueue()
        q.push(4.0, EventType.DISK_FAILURE)
        assert q.now == 0.0
        q.pop()
        assert q.now == 4.0

    def test_no_scheduling_into_the_past(self):
        q = EventQueue()
        q.push(4.0, EventType.DISK_FAILURE)
        q.pop()
        with pytest.raises(ValueError):
            q.push(1.0, EventType.DISK_FAILURE)

    def test_cancellation(self):
        q = EventQueue()
        keep = q.push(1.0, EventType.DISK_FAILURE, "keep")
        kill = q.push(2.0, EventType.DISK_FAILURE, "kill")
        q.cancel(kill)
        assert len(q) == 1
        assert q.pop().payload == "keep"
        assert q.pop() is None

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        h = q.push(1.0, EventType.DISK_FAILURE)
        q.cancel(h)
        q.cancel(h)
        assert q.pop() is None

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        h = q.push(1.0, EventType.DISK_FAILURE)
        q.push(2.0, EventType.REPAIR_COMPLETE)
        q.cancel(h)
        assert q.peek_time() == 2.0

    def test_equal_times_never_compare_payloads(self):
        """Ties break on insertion order alone: payloads that cannot be
        ordered (a dict, an array) pop in the order they were pushed."""
        q = EventQueue()
        first, second, third = {"a": 1}, np.arange(3), {"b": 2}
        for payload in (first, second, third):
            q.push(2.0, EventType.DISK_FAILURE, payload)
        assert [q.pop().payload for _ in range(3)] == [first, second, third]
        assert q.pop() is None

    def test_len_across_cancel_pop_and_peek(self):
        q = EventQueue()
        head = q.push(1.0, EventType.DISK_FAILURE, "head")
        q.push(1.0, EventType.REPAIR_COMPLETE, "tie")
        tail = q.push(3.0, EventType.SCRUB, "tail")
        assert len(q) == 3
        q.cancel(head)
        assert len(q) == 2
        assert q.peek_time() == 1.0  # the tie behind the cancelled head
        assert len(q) == 2
        assert q.pop().payload == "tie"
        assert len(q) == 1
        q.cancel(head)  # already gone: a no-op
        assert len(q) == 1
        assert q.peek_time() == 3.0
        assert q.pop().payload == "tail"
        q.cancel(tail)  # popped: a no-op
        assert len(q) == 0
        assert q.peek_time() is None
        assert q.pop() is None

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert len(q) == 0


class TestTimeValidation:
    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError, match="NaN"):
            q.push(math.nan, EventType.DISK_FAILURE)

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError, match="non-negative"):
            q.push(-1.0, EventType.DISK_FAILURE)

    def test_infinite_time_rejected_for_ordinary_events(self):
        q = EventQueue()
        with pytest.raises(ValueError, match="END_OF_MISSION"):
            q.push(math.inf, EventType.REPAIR_COMPLETE)

    def test_infinite_end_of_mission_sentinel_allowed(self):
        q = EventQueue()
        q.push(math.inf, EventType.END_OF_MISSION)
        assert q.pop().kind is EventType.END_OF_MISSION

    def test_rejected_events_leave_queue_untouched(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(math.nan, EventType.DISK_FAILURE)
        assert len(q) == 0
