"""Critical-path extraction and blame attribution over span forests.

The question every recovery experiment ultimately asks — *where does the
recovery time go?* — is not answered by summing span durations: concurrent
fetches overlap, merges hide behind transfers, and a mechanism's makespan
is governed by whichever chain of operations could not be overlapped. The
critical path is that chain: a gap-free tiling of ``[root.start,
root.end]`` where each segment is owned by the deepest span active at that
instant.

The walk is the standard trace-analysis recursion: starting from the root's
end, repeatedly step to the child span that finished last before the
current instant, recurse into it over the interval it covers, and attribute
any uncovered remainder to the parent itself (self-time: scheduling gaps,
retry backoffs, queueing behind a fetch window). Determinism: ties in end
time break by start time and then span id, so identical traces yield
identical paths.

Each segment carries a *blame* category — the paper's recovery-time
taxonomy (detection / transfer / merge / replay / control / queueing) —
derived from the owning span's category via :data:`BLAME_BY_CATEGORY`. Self-time
on grouping spans (the recovery root, a tree aggregation) is queueing by
construction: it is time when the mechanism was waiting on nothing
measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.tracer import Span, Tracer

__all__ = [
    "BLAME_BY_CATEGORY",
    "BLAME_CATEGORIES",
    "CriticalSegment",
    "blame_breakdown",
    "blame_of",
    "children_index",
    "critical_path",
    "recovery_roots",
]

#: Numerical slack when tiling segments (virtual-clock floats).
_EPS = 1e-12

#: The blame taxonomy every critical-path second falls into. ``replay``
#: separates delta-chain replay from the base hash-table merge, so a
#: chain-aware recovery's profile shows where incremental saves shifted
#: the cost.
BLAME_CATEGORIES = ("detection", "transfer", "merge", "replay", "control", "queueing")

#: Span category -> blame category. Categories not listed here (including
#: the bare ``recovery`` root and ``recovery.aggregate`` grouping spans)
#: attribute their *self*-time to ``queueing``: it is time on the critical
#: path where no measured work was running — fetch-window queueing, retry
#: backoff, waiting for the replacement's CPU to free up.
BLAME_BY_CATEGORY: Dict[str, str] = {
    "recovery.detect": "detection",
    "overlay.detection": "detection",
    "recovery.transfer": "transfer",
    "recovery.write": "transfer",
    "recovery.request": "transfer",
    "net.flow": "transfer",
    "recovery.merge": "merge",
    "recovery.install": "merge",
    "recovery.partition": "merge",
    "recovery.replay": "replay",
    "recovery.tree_build": "control",
    "recovery.retry": "control",
    "overlay.route": "control",
    "overlay.join": "control",
    "multicast.subscribe": "control",
    "multicast.publish": "control",
    "control.loop": "control",
    "control.action": "control",
    "control.verify": "control",
}


def blame_of(category: str) -> str:
    """The blame bucket a span category's critical-path time falls into."""
    return BLAME_BY_CATEGORY.get(category, "queueing")


@dataclass(frozen=True)
class CriticalSegment:
    """One interval of the critical path, owned by exactly one span."""

    span_id: int
    name: str
    category: str
    blame: str
    start: float
    end: float
    #: Fraction of the owning span's ``bytes`` attribute proportional to
    #: the slice of the span this segment covers — summed over transfer
    #: segments this is "bytes on the critical path".
    bytes_attributed: float = 0.0
    #: Depth of the owning span below the recovery root (root = 0).
    depth: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
            "blame": self.blame,
            "start": self.start,
            "end": self.end,
            "bytes": self.bytes_attributed,
            "depth": self.depth,
        }


def recovery_roots(tracer: Tracer) -> List[Span]:
    """The root spans worth profiling: one per recovery recorded by the
    tracer. Save rounds share the category, but their "blame" answers a
    different question."""
    return [
        span
        for span in tracer.roots()
        if span.category == "recovery"
        and span.kind != "instant"
        and span.name != "recovery/save"
    ]


def children_index(tracer: Tracer) -> Dict[int, List[Span]]:
    """``parent span id -> children`` over the whole trace.

    One pass over the trace serves every recovery root in it: callers
    profiling many recoveries from one tracer (the scale cells profile
    thousands) build this once and pass it to :func:`critical_path`
    instead of paying an O(spans) rebuild per root. Instant spans are
    indexed (subtree counts want them) but never own critical-path time:
    their end equals their start, so the walk's coverage test already
    rejects them.
    """
    index: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        if span.parent_id is not None:
            index.setdefault(span.parent_id, []).append(span)
    return index


def _segment(span: Span, start: float, end: float, depth: int) -> CriticalSegment:
    nbytes = 0.0
    span_bytes = span.attrs.get("bytes")
    if isinstance(span_bytes, (int, float)) and span.duration > 0:
        nbytes = float(span_bytes) * (end - start) / span.duration
    return CriticalSegment(
        span_id=span.span_id,
        name=span.name,
        category=span.category,
        blame=blame_of(span.category),
        start=start,
        end=end,
        bytes_attributed=nbytes,
        depth=depth,
    )


def critical_path(
    tracer: Tracer,
    root: Span,
    children: Optional[Dict[int, List[Span]]] = None,
) -> List[CriticalSegment]:
    """The critical path through ``root``'s subtree.

    Returns segments sorted by start time that tile ``[root.start,
    root.effective_end]`` exactly — their durations sum to the root's
    makespan, which is what lets per-recovery blame fractions sum to 1.
    ``children`` is an optional precomputed :func:`children_index`.
    """
    if children is None:
        children = children_index(tracer)
    segments: List[CriticalSegment] = []

    def walk(span: Span, lo: float, hi: float, depth: int) -> None:
        kids = children.get(span.span_id, ())
        t = hi
        while t > lo + _EPS:
            best: Optional[Span] = None
            best_key = None
            for kid in kids:
                if kid.start >= t - _EPS:
                    continue
                kid_end = min(kid.effective_end, t)
                if kid_end <= lo + _EPS or kid_end <= kid.start:
                    continue
                key = (kid_end, kid.start, kid.span_id)
                if best is None or key > best_key:
                    best, best_key = kid, key
            if best is None:
                segments.append(_segment(span, lo, t, depth))
                return
            covered_end = min(best.effective_end, t)
            if covered_end < t - _EPS:
                # Nothing measured ran in (covered_end, t): parent self-time.
                segments.append(_segment(span, covered_end, t, depth))
            walk(best, max(lo, best.start), covered_end, depth + 1)
            t = max(lo, best.start)

    end = root.effective_end
    if end > root.start:
        walk(root, root.start, end, 0)
    segments.sort(key=lambda s: (s.start, s.end, s.span_id))
    return segments


def blame_breakdown(segments: List[CriticalSegment]) -> Dict[str, float]:
    """Seconds of critical-path time per blame category (all keys present)."""
    totals = {blame: 0.0 for blame in BLAME_CATEGORIES}
    for segment in segments:
        totals[segment.blame] += segment.duration
    return totals
