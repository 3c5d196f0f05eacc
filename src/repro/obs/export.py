"""Trace export: plain dicts and Chrome ``trace_event`` JSON.

Two formats per tracer:

- :func:`trace_dict` — the full span list as a nested-friendly flat dict
  (ids + parent links), the stable format tests and tooling consume;
- :func:`chrome_trace` — the Trace Event Format understood by
  ``chrome://tracing`` and Perfetto: spans become complete ``"X"`` events,
  instants become ``"i"``, and each root span's subtree gets its own
  ``tid`` so concurrent recoveries render as parallel tracks.

Serialization is pinned (sorted keys, fixed separators, no wall-clock
fields) so identical seeds produce byte-identical artifacts — the property
the determinism tests assert.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.tracer import Span, TracerLike, as_tracers

__all__ = ["trace_dict", "chrome_trace", "dumps_trace", "write_trace"]

def _span_row(span: Span) -> Dict[str, object]:
    return {
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "category": span.category,
        "kind": span.kind,
        "start": span.start,
        "end": span.effective_end,
        "attrs": dict(sorted(span.attrs.items())),
    }


def trace_dict(tracers: Optional[TracerLike] = None) -> Dict[str, object]:
    """The plain-dict dump: one entry per tracer, spans in creation order."""
    return {
        "format": "sr3-trace-1",
        "traces": [
            {
                "name": tracer.name,
                "spans": [_span_row(span) for span in tracer.spans],
            }
            for tracer in as_tracers(tracers)
        ],
    }


def _root_track(span: Span, by_id: Dict[int, Span]) -> int:
    """The span's root ancestor id — used as the Chrome thread id so each
    top-level operation (a recovery, a save round) is its own track."""
    current = span
    seen = set()
    while current.parent_id is not None and current.parent_id in by_id:
        if current.span_id in seen:  # defensive: never loop on a bad link
            break
        seen.add(current.span_id)
        current = by_id[current.parent_id]
    return current.span_id


def chrome_trace(tracers: Optional[TracerLike] = None) -> Dict[str, object]:
    """Chrome ``trace_event`` JSON (load via chrome://tracing or Perfetto).

    Timestamps are virtual-clock microseconds; ``pid`` distinguishes
    simulations when several tracers are merged into one artifact.
    """
    events: List[Dict[str, object]] = []
    for pid, tracer in enumerate(as_tracers(tracers), start=1):
        by_id = {span.span_id: span for span in tracer.spans}
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": tracer.name},
            }
        )
        for span in tracer.spans:
            end = span.effective_end
            args = dict(sorted(span.attrs.items()))
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            base = {
                "name": span.name,
                "cat": span.category or "general",
                "pid": pid,
                "tid": _root_track(span, by_id),
                "ts": span.start * 1e6,
                "args": args,
            }
            if span.kind == "instant":
                base["ph"] = "i"
                base["s"] = "t"
            else:
                base["ph"] = "X"
                base["dur"] = (end - span.start) * 1e6
            events.append(base)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dumps_trace(tracers: Optional[TracerLike] = None, chrome: bool = True) -> str:
    """Serialize deterministically: sorted keys, fixed separators."""
    payload = chrome_trace(tracers) if chrome else trace_dict(tracers)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_trace(
    path: str,
    tracers: Optional[TracerLike] = None,
    chrome: bool = True,
) -> str:
    """Write the trace artifact to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_trace(tracers, chrome=chrome))
        fh.write("\n")
    return path
