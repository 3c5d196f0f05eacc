"""Discrete-event simulation kernel.

A minimal, deterministic event loop: events are (time, sequence) ordered,
callbacks run with the virtual clock already advanced to their firing time.
Everything in the reproduction that needs time — network transfers, merge
CPU costs, DHT maintenance pings, failure injection — is scheduled here, so
experiment latencies are exact simulated seconds rather than noisy wall
time.

Scale fast paths (all exactly order-preserving):

* ``pending`` is a live counter maintained on schedule/cancel/pop instead
  of an O(queue) scan — it sits on the ``run()`` epilogue and telemetry.
* Both queues hold ``(time, seq, event)`` tuples: ``seq`` is unique, so
  heap sifts and head comparisons are decided in C on the first two fields
  and never reach the event object.
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
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry, default_registry
from repro.obs.tracer import default_tracer

# Compact the queues once cancelled events outnumber live ones and there is
# enough garbage for the O(n) sweep to pay for itself.
_COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback. Cancel via :meth:`Simulator.cancel`."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "done")

    def __init__(self, time: float, seq: int, callback: Callable[..., None], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Set once the event leaves the queue (executed or swept); a cancel
        # arriving after that must not touch the live-event counter.
        self.done = False

    def __repr__(self) -> str:
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, cancelled={self.cancelled})"


class Simulator:
    """The virtual clock and event queue.

    Determinism: ties in firing time break by scheduling order, and the
    kernel itself never consults wall-clock time or global randomness.
    """

    def __init__(self, tracer=None, metrics: Optional[MetricsRegistry] = None) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []  # heap
        self._batch: deque = deque()  # zero-delay entries, (time, seq)-sorted
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        self._live = 0  # non-cancelled events still queued (O(1) `pending`)
        self._cancelled_queued = 0  # cancelled events not yet swept out
        # Observability: the tracer defaults to the process-wide setting
        # (a no-op unless tracing was enabled), the metrics registry is
        # always real — counters are cheap and every layer shares this one.
        self.attach_tracer(tracer if tracer is not None else default_tracer())
        self.metrics = metrics if metrics is not None else default_registry("sim")
        self.metrics.bind_clock(lambda: self._now)

    def attach_tracer(self, tracer) -> None:
        """Make ``tracer`` the one every layer reads from here on, on this clock."""
        self.tracer = tracer
        tracer.bind_clock(lambda: self._now)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (for overhead accounting)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        self._live += 1
        if delay == 0.0:
            # Same-instant events land behind every queued event at this
            # time (their seq is the largest so far), so a FIFO preserves
            # the (time, seq) order without heap churn.
            self._batch.append((time, seq, event))
        else:
            heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event; cancelling None or twice is harmless."""
        if event is None or event.cancelled or event.done:
            return
        event.cancelled = True
        self._live -= 1
        self._cancelled_queued += 1
        if (
            self._cancelled_queued > _COMPACT_MIN_CANCELLED
            and self._cancelled_queued * 2 > len(self._queue) + len(self._batch)
        ):
            self._compact()

    def _compact(self) -> None:
        """Sweep cancelled events out of both queues (order-preserving)."""
        live_queue = []
        live_batch = deque()
        for entries, live in ((self._queue, live_queue), (self._batch, live_batch)):
            for entry in entries:
                if entry[2].cancelled:
                    entry[2].done = True
                else:
                    live.append(entry)
        heapq.heapify(live_queue)
        self._queue = live_queue
        self._batch = live_batch
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
                    time, _, event = batch[0]
                    from_batch = True
                elif queue:
                    time, _, event = queue[0]
                    from_batch = False
                else:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                if until is not None and time > until and not event.cancelled:
                    self._now = until
                    break
                if from_batch:
                    batch.popleft()
                else:
                    heappop(queue)
                event.done = True
                if event.cancelled:
                    self._cancelled_queued -= 1
                    continue
                if time < self._now - 1e-9:
                    raise SimulationError(
                        f"event queue corrupted: event at {time} < now {self._now}"
                    )
                self._live -= 1
                if time > self._now:
                    self._now = time
                event.callback(*event.args)
                self._processed += 1
                executed += 1
                if executed >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}; likely a loop")
        finally:
            self._running = False
            self.metrics.gauge("sim.events_processed").set(self._processed)
            self.metrics.gauge("sim.pending_events").set(self.pending)
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Drain every pending event; returns final virtual time."""
        return self.run(until=None, max_events=max_events)
