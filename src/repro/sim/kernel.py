"""Discrete-event simulation kernel.

A minimal, deterministic event loop: events are (time, sequence) ordered,
callbacks run with the virtual clock already advanced to their firing time.
Everything in the reproduction that needs time — network transfers, merge
CPU costs, DHT maintenance pings, failure injection — is scheduled here, so
experiment latencies are exact simulated seconds rather than noisy wall
time.

Scale fast paths (all exactly order-preserving):

* The queue entry is the event: one ``[time, seq, callback, args]`` list,
  handed back by ``schedule`` as the handle ``cancel`` takes. ``seq`` is
  unique, so heap sifts and head comparisons are decided in C on the first
  two fields and never reach the callback, which cancelling and
  dispatching clear: an entry without one is no longer live.
* Zero-delay events (the network's coalesced "settle" events, completion
  ticks of unconstrained flows) go to a FIFO batch instead of the heap.
  Because the clock is monotonic and sequence numbers only grow, the batch
  is always (time, seq)-sorted, so merging it with the heap head preserves
  the exact global event order while skipping two O(log n) heap moves per
  event.
* Cancelled events (the network cancels its completion timer on every
  reallocation) are compacted out lazily once they outnumber live ones,
  keeping heap pops O(log live) instead of O(log lifetime).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.obs.recorder import new_registry, new_tracer
from repro.obs.registry import MetricsRegistry

# Compact the queues once cancelled events outnumber live ones and there is
# enough garbage for the O(n) sweep to pay for itself.
_COMPACT_MIN_CANCELLED = 64


#: A scheduled callback, ``[time, seq, callback, args]``: what ``schedule``
#: returns and ``cancel`` takes. Only the kernel writes to it.
Event = list
_CALLBACK = 2


class Simulator:
    """The virtual clock and event queue.

    Determinism: ties in firing time break by scheduling order, and the
    kernel itself never consults wall-clock time or global randomness.
    """

    def __init__(self, tracer=None, metrics: Optional[MetricsRegistry] = None) -> None:
        # Read by everyone, written by the kernel alone: the virtual time in
        # seconds, the callbacks executed so far and the live (scheduled, not
        # cancelled) events still queued, kept as a count on schedule/cancel/pop.
        self.now = 0.0
        self.events_processed = 0
        self.pending = 0
        self._queue: List[Event] = []  # heap
        self._batch: deque = deque()  # zero-delay entries, (time, seq)-sorted
        self._seq = itertools.count()
        self._running = False
        self._cancelled_queued = 0  # cancelled events not yet swept out
        # Observability: the tracer defaults to the recorder's (a no-op
        # unless spans are recorded), the metrics registry is always real —
        # counters are cheap and every layer shares this one.
        self.attach_tracer(tracer if tracer is not None else new_tracer())
        self.metrics = metrics if metrics is not None else new_registry()
        self.metrics.bind_clock(lambda: self.now)

    def attach_tracer(self, tracer) -> None:
        """Make ``tracer`` the one every layer reads from here on, on this clock."""
        self.tracer = tracer
        tracer.bind_clock(lambda: self.now)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = [self.now + delay, next(self._seq), callback, args]
        self.pending += 1
        if delay == 0.0:
            # Same-instant events land behind every queued event at this
            # time (their seq is the largest so far), so a FIFO preserves
            # the (time, seq) order without heap churn.
            self._batch.append(event)
        else:
            heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event; cancelling None or twice is harmless."""
        if event is None or event[_CALLBACK] is None:
            return
        event[_CALLBACK] = None
        self.pending -= 1
        self._cancelled_queued += 1
        if (
            self._cancelled_queued > _COMPACT_MIN_CANCELLED
            and self._cancelled_queued * 2 > len(self._queue) + len(self._batch)
        ):
            self._compact()

    def _compact(self) -> None:
        """Sweep cancelled events out of both queues (order-preserving)."""
        self._queue = [event for event in self._queue if event[_CALLBACK] is not None]
        heapq.heapify(self._queue)
        self._batch = deque(event for event in self._batch if event[_CALLBACK] is not None)
        self._cancelled_queued = 0

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run events in order until the queue drains or ``until`` is reached.

        Returns the virtual time at which the loop stopped. ``max_events``
        guards against accidental infinite self-rescheduling loops.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heappop = heapq.heappop
        try:
            executed = 0
            while True:
                # _compact (reached through a callback's cancel) rebinds both.
                queue = self._queue
                batch = self._batch
                # The batch is FIFO and the heap (time, seq)-ordered, so the
                # smaller of the two heads is the globally earliest entry.
                if batch and (not queue or batch[0] < queue[0]):
                    event = batch[0]
                    from_batch = True
                elif queue:
                    event = queue[0]
                    from_batch = False
                else:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                time, _, callback, args = event
                if until is not None and time > until and callback is not None:
                    self.now = until
                    break
                if from_batch:
                    batch.popleft()
                else:
                    heappop(queue)
                if callback is None:
                    self._cancelled_queued -= 1
                    continue
                if time < self.now - 1e-9:
                    raise SimulationError(
                        f"event queue corrupted: event at {time} < now {self.now}"
                    )
                event[_CALLBACK] = None  # a cancel from here on changes nothing
                self.pending -= 1
                if time > self.now:
                    self.now = time
                callback(*args)
                self.events_processed += 1
                executed += 1
                if executed >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}; likely a loop")
        finally:
            self._running = False
            self.metrics.gauge("sim.events_processed").set(self.events_processed)
            self.metrics.gauge("sim.pending_events").set(self.pending)
        return self.now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Drain every pending event; returns final virtual time."""
        return self.run(until=None, max_events=max_events)
