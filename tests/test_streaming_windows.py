"""Unit tests for the sliding window operator."""

import pytest

from repro.errors import StreamRuntimeError
from repro.streaming.windows import SlidingWindow


class TestSliding:
    def test_item_lands_in_overlapping_windows(self):
        w = SlidingWindow(size=10.0, slide=5.0)
        w.add(7.0, "a")  # windows [0,10) and [5,15)
        panes = w.add(20.0, "b")  # closes both
        assert len(panes) == 2
        assert all("a" in p.items for p in panes)

    def test_pane_closes_past_end(self):
        w = SlidingWindow(size=10.0, slide=5.0)
        w.add(2.0, "a")
        closed = w.add(12.0, "b")
        assert any(p.end <= 12.0 and "a" in p.items for p in closed)

    def test_slide_larger_than_size_rejected(self):
        with pytest.raises(StreamRuntimeError):
            SlidingWindow(size=5.0, slide=10.0)

    def test_invalid_params(self):
        with pytest.raises(StreamRuntimeError):
            SlidingWindow(0, 1)

    def test_tumbling_equivalence_when_slide_equals_size(self):
        sliding = SlidingWindow(size=10.0, slide=10.0)
        sliding.add(1.0, "a")
        closed = sliding.add(11.0, "b")
        assert len(closed) == 1
        assert closed[0].items == ["a"]

    def test_reopened_panes_close_like_the_originals(self):
        original = SlidingWindow(size=10.0, slide=5.0)
        original.add(3.0, "a")
        original.add(7.0, "b")
        panes = original.open_panes()
        assert panes == ((0, ("a", "b")), (1, ("b",)))
        reopened = SlidingWindow(size=10.0, slide=5.0).reopen(panes)
        assert reopened.open_panes() == panes
        closed = [(p.start, p.end, p.items) for p in original.add(16.0, "c")]
        assert [(p.start, p.end, p.items) for p in reopened.add(16.0, "c")] == closed
