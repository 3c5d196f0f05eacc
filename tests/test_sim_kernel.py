"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, fired.append, name)
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_args_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(0.0, lambda a, b: got.append((a, b)), 1, 2)
        sim.run_until_idle()
        assert got == [(1, 2)]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        times = []
        sim.schedule_at(4.0, lambda: times.append(sim.now))
        sim.run_until_idle()
        assert times == [4.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run_until_idle()
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run_until_idle()
        assert fired == []

    def test_cancel_none_is_noop(self):
        Simulator().cancel(None)

    def test_double_cancel_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run_until_idle()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        assert sim.pending == 1


class TestFastPaths:
    """The O(1) pending counter, lazy compaction, and zero-delay batch."""

    def test_pending_counter_tracks_mixed_schedule_and_cancel(self):
        sim = Simulator()
        events = [sim.schedule(float(i % 3), lambda: None) for i in range(20)]
        assert sim.pending == 20
        for event in events[::2]:
            sim.cancel(event)
        assert sim.pending == 10
        # Double-cancel and cancel-after-run must not double-decrement.
        sim.cancel(events[0])
        assert sim.pending == 10
        sim.run_until_idle()
        assert sim.pending == 0
        for event in events:
            sim.cancel(event)
        assert sim.pending == 0

    def test_compaction_preserves_order_and_pending(self):
        sim = Simulator()
        fired = []
        keep = []
        cancelled = []
        for i in range(300):
            event = sim.schedule(float(i), fired.append, i)
            (keep if i % 4 == 0 else cancelled).append((i, event))
        # Cancelling >64 events where most of the queue is dead triggers
        # the lazy heap compaction.
        for _, event in cancelled:
            sim.cancel(event)
        assert sim.pending == len(keep)
        sim.run_until_idle()
        assert fired == [i for i, _ in keep]
        assert sim.pending == 0

    def test_zero_delay_batch_runs_in_schedule_order(self):
        sim = Simulator()
        fired = []

        def cascade(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(0.0, cascade, depth + 1)

        sim.schedule(0.0, fired.append, "a")
        sim.schedule(0.0, cascade, 0)
        sim.schedule(0.0, fired.append, "b")
        sim.run_until_idle()
        assert fired == ["a", 0, "b", 1, 2, 3]

    def test_zero_delay_batch_interleaves_with_heap_ties(self):
        """schedule(0.0, ...) and schedule_at(now, ...) at the same instant
        still fire in overall schedule (seq) order."""
        sim = Simulator()
        fired = []

        def at_one():
            sim.schedule(0.0, fired.append, "batch1")
            sim.schedule_at(1.0, fired.append, "heap1")
            sim.schedule(0.0, fired.append, "batch2")
            sim.schedule_at(1.0, fired.append, "heap2")

        sim.schedule(1.0, at_one)
        sim.run_until_idle()
        assert fired == ["batch1", "heap1", "batch2", "heap2"]

    def test_cancel_zero_delay_event(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(0.0, fired.append, 1)
        sim.schedule(0.0, fired.append, 2)
        sim.cancel(event)
        assert sim.pending == 1
        sim.run_until_idle()
        assert fired == [2]

    def test_run_until_respects_pending_zero_delay_work(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: sim.schedule(0.0, fired.append, "late"))
        sim.run(until=1.0)
        assert fired == []
        sim.run_until_idle()
        assert fired == ["late"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_can_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        sim.run_until_idle()
        assert fired == [1, 2]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0.0, lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 5

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def inner():
            try:
                sim.run_until_idle()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(0.0, inner)
        sim.run_until_idle()
        assert len(errors) == 1


class TestGlobalOrder:
    """Whatever mix of heap, zero-delay batch, cancellation and compaction a
    run goes through, callbacks fire in exactly sorted ``(time, seq)`` order."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_interleavings_fire_in_time_seq_order(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        fired = []
        pending = {}
        compactions = []
        compact = sim._compact
        sim._compact = lambda: (compactions.append(sim.now), compact())

        def add(delay):
            event = sim.schedule(delay, fire)
            event[3] = (event,)  # the entry is [time, seq, callback, args]
            pending[event[1]] = event

        def fire(event):
            fired.append((event[0], event[1]))
            del pending[event[1]]
            assert event[0] == sim.now
            for _ in range(rng.randrange(5) if len(fired) < 3000 else 0):
                # Zero delays feed the batch, repeated delays make heap ties.
                add(rng.choice([0.0, 0.0, 0.25, 0.5, rng.uniform(0.0, 2.0)]))
            # Now and then most of the queue is cancelled at once: the
            # cancelled share passes one half, which triggers a compaction.
            doomed = len(pending) * 2 // 3 if rng.random() < 0.01 else rng.choice([0, 0, 0, 1])
            for seq in rng.sample(sorted(pending), min(doomed, len(pending))):
                sim.cancel(pending.pop(seq))

        for _ in range(150):
            add(rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)]))
        horizon = 0.0
        while pending:
            horizon += rng.uniform(0.0, 0.7)
            sim.run(until=horizon)
            assert all(event[0] > horizon for event in pending.values())
        assert len(fired) > 1000 and compactions
        assert fired == sorted(fired)
        assert sim.pending == len(pending)
