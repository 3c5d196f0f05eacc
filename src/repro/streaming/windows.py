"""The sliding event-time window the workloads aggregate over.

The paper's benchmark applications "contain ... various window operators
(e.g., sliding window, tumbling window and session window)" (Sec. 5.1);
the sliding window is the one an application here opens. Each incoming
tuple carries a timestamp, panes close when a later timestamp proves them
complete, and closed panes are handed to the caller for aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import StreamRuntimeError


@dataclass
class WindowPane:
    """One closed window: its bounds and collected items."""

    start: float
    end: float
    items: List[Any] = field(default_factory=list)


class SlidingWindow:
    """Overlapping windows of ``size``, advancing every ``slide`` units."""

    def __init__(self, size: float, slide: float) -> None:
        if size <= 0 or slide <= 0:
            raise StreamRuntimeError("size and slide must be positive")
        if slide > size:
            raise StreamRuntimeError("slide must not exceed size (gaps would drop data)")
        self.size = size
        self.slide = slide
        self._panes: Dict[int, WindowPane] = {}

    def _indexes_for(self, timestamp: float) -> List[int]:
        last = int(timestamp // self.slide)
        first = int((timestamp - self.size) // self.slide) + 1
        return [i for i in range(max(0, first), last + 1)]

    def add(self, timestamp: float, item: Any) -> List[WindowPane]:
        """Insert into every window covering ``timestamp``; close old panes."""
        for index in self._indexes_for(timestamp):
            start = index * self.slide
            pane = self._panes.setdefault(index, WindowPane(start, start + self.size))
            pane.items.append(item)
        closed = [
            self._panes.pop(i)
            for i in sorted(self._panes)
            if self._panes[i].end <= timestamp
        ]
        return closed

    def open_panes(self) -> Tuple[Tuple[int, Tuple[Any, ...]], ...]:
        """The panes not yet closed, as plain ``(index, items)`` tuples."""
        return tuple((i, tuple(self._panes[i].items)) for i in sorted(self._panes))

    def reopen(self, panes: Iterable[Tuple[int, Tuple[Any, ...]]]) -> "SlidingWindow":
        """Replace the open panes with ones :meth:`open_panes` exported."""
        self._panes = {
            i: WindowPane(i * self.slide, i * self.slide + self.size, list(items))
            for i, items in panes
        }
        return self
