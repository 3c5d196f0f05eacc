"""Deterministic, sim-clock-driven span tracing.

Every latency claim in the paper comes down to *where recovery time goes*:
transfer versus merge versus routing hops, per mechanism (Figs. 8-9). The
tracer records that breakdown as a tree of spans whose timestamps are
virtual-clock seconds read from the owning :class:`~repro.sim.kernel.Simulator`
— never wall clock — so two runs with the same seed produce byte-identical
traces.

Design rules:

- **No-op by default.** A simulation without tracing gets the
  :data:`NULL_TRACER` singleton whose ``start``/``instant`` calls return the
  shared :data:`NULL_SPAN` and do nothing else; the instrumentation threaded
  through the kernel, network, overlay, and recovery mechanisms costs one
  attribute lookup and one no-op call per site.
- **Explicit parents.** The simulation is an event cascade, not a call
  stack, so spans are parented explicitly (``root.child(...)`` or
  ``tracer.start(..., parent=span)``) instead of through an ambient
  context-manager stack that interleaved events would corrupt.
- **Closed or open.** A span without an ``end`` is still open; exports
  clamp open spans to the tracer's current clock so aborted experiments
  still render.

A tracer is handed in (``SR3.create(tracer=Tracer())``) or comes from
:mod:`repro.obs.recorder`, which records one per simulation while the
bench CLI's span flags are on.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
]


class Span:
    """One timed operation: name, category, parent link, and attributes.

    ``start``/``end`` are virtual-clock seconds. ``attrs`` carries scalar
    payload facts (byte counts, node names, knob values) that end up in the
    exported trace's ``args``.
    """

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "category", "kind", "start", "end", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        kind: str,
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    # --------------------------------------------------------------- lifecycle

    def child(self, name: str, category: str = "", **attrs: Any) -> "Span":
        """Open a child span starting at the tracer's current clock."""
        return self._tracer.start(name, category=category, parent=self, **attrs)

    def annotate(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)
        return self

    def finish(self, at: Optional[float] = None, **attrs: Any) -> "Span":
        """Close the span at ``at`` (default: the tracer's clock now).

        Finishing twice keeps the first end time (abort paths may race a
        completion) but still merges the new attributes.
        """
        if attrs:
            self.attrs.update(attrs)
        if self.end is None:
            self.end = self._tracer.now if at is None else at
        return self

    # ----------------------------------------------------------------- queries

    @property
    def done(self) -> bool:
        return self.end is not None

    @property
    def effective_end(self) -> float:
        """The span's end; open spans clamp to the tracer's current clock.

        The public way to read "where does this span stop right now" —
        exports, the critical-path profiler, and anything else that needs
        an end time for a possibly-open span should use this instead of
        reaching into the owning tracer.
        """
        return self.end if self.end is not None else self._tracer.now

    @property
    def duration(self) -> float:
        """Seconds covered; open spans extend to the tracer's clock."""
        return self.effective_end - self.start

    def __repr__(self) -> str:
        state = f"{self.start:.4f}..{self.end:.4f}" if self.done else f"{self.start:.4f}.."
        return f"Span(#{self.span_id} {self.name!r} [{self.category}] {state})"


class _NullSpan:
    """The do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    span_id = -1
    parent_id = None
    name = ""
    category = ""
    kind = "span"
    start = 0.0
    end = 0.0
    effective_end = 0.0
    done = True
    duration = 0.0
    attrs: Dict[str, Any] = {}

    def child(self, name: str, category: str = "", **attrs: Any) -> "_NullSpan":
        return self

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self, at: Optional[float] = None, **attrs: Any) -> "_NullSpan":
        return self

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans against one simulation's virtual clock."""

    enabled = True

    def __init__(self, name: str = "sr3") -> None:
        self.name = name
        self.spans: List[Span] = []
        self._next_id = 1
        self._clock: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------- clock

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a virtual clock (the simulator's ``now``)."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # ----------------------------------------------------------------- records

    def start(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        at: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at the current clock (or an explicit ``at`` time)."""
        parent_id = parent.span_id if parent is not None and parent.span_id >= 0 else None
        span = Span(
            self,
            self._next_id,
            parent_id,
            name,
            category,
            "span",
            self.now if at is None else at,
            attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def record(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "",
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record a span whose extent is already known (e.g. a scheduled
        CPU phase: merge, install, partition)."""
        span = self.start(name, category=category, parent=parent, at=start, **attrs)
        span.end = end
        return span

    def instant(
        self,
        name: str,
        category: str = "",
        at: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Record a point event (a route, a failure detection, a join)."""
        when = self.now if at is None else at
        span = Span(
            self,
            self._next_id,
            None,
            name,
            category,
            "instant",
            when,
            attrs,
        )
        span.end = when
        self._next_id += 1
        self.spans.append(span)
        return span

    # ----------------------------------------------------------------- queries

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, fragment: str, category: Optional[str] = None) -> List[Span]:
        """Spans whose name contains ``fragment`` (and category, if given)."""
        return [
            s
            for s in self.spans
            if fragment in s.name and (category is None or s.category == category)
        ]

    def duration_by_category(self) -> Dict[str, float]:
        """Total seconds covered per category (instants contribute zero).

        Overlapping spans in one category double-count deliberately: the
        result answers "how much span-time was spent doing X", the same way
        per-node CPU accounting sums across nodes.
        """
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.kind == "instant":
                continue
            totals[span.category] = totals.get(span.category, 0.0) + span.duration
        return totals

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"Tracer({self.name!r}, spans={len(self.spans)})"


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    All record methods return :data:`NULL_SPAN`, so instrumentation sites
    never need to branch on whether tracing is active.
    """

    enabled = False
    name = "null"
    spans: List[Span] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    @property
    def now(self) -> float:
        return 0.0

    def start(self, name: str, category: str = "", parent: Any = None, at: Any = None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def record(self, name: str, start: float, end: float, category: str = "", parent: Any = None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def instant(self, name: str, category: str = "", at: Any = None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def roots(self) -> List[Span]:
        return []

    def children_of(self, span: Any) -> List[Span]:
        return []

    def find(self, fragment: str, category: Optional[str] = None) -> List[Span]:
        return []

    def duration_by_category(self) -> Dict[str, float]:
        return {}

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()
