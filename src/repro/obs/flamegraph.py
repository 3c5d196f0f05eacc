"""Flamegraph export: collapsed stacks and speedscope documents.

Two interchange formats for the span forests:

- **Collapsed stacks** (``frame;frame;frame value`` lines) — the input
  format of Brendan Gregg's ``flamegraph.pl`` and of speedscope's
  drag-and-drop importer. One line per unique span-name stack; the value
  is the stack's *self-time* in integer microseconds of virtual clock.
- **Speedscope JSON** — the `speedscope file format
  <https://www.speedscope.app/file-format-schema.json>`_, emitted as one
  ``sampled`` profile per tracer (each unique stack becomes one weighted
  sample). Sampled profiles tolerate the overlapping sibling spans that a
  parallel recovery produces, which the nested ``evented`` form does not.

Self-time is a span's duration minus the union of its children's
intervals clipped to the span — concurrent children never double-subtract.
Serialization is pinned (sorted stacks, sorted keys) so same-seed runs
write byte-identical artifacts.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import Span, Tracer, TracerLike, as_tracers

__all__ = [
    "collapsed_stacks",
    "flamegraph_text",
    "speedscope_document",
    "write_flamegraph",
    "write_speedscope",
]

def _interval_union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping intervals."""
    total = 0.0
    last_end = float("-inf")
    for start, end in sorted(intervals):
        if end <= last_end:
            continue
        total += end - max(start, last_end)
        last_end = end
    return total


def _self_time(span: Span, children: List[Span]) -> float:
    clipped = [
        (max(child.start, span.start), min(child.effective_end, span.effective_end))
        for child in children
        if child.effective_end > span.start and child.start < span.effective_end
    ]
    covered = _interval_union([(s, e) for s, e in clipped if e > s])
    return max(0.0, span.duration - covered)


def collapsed_stacks(tracer: Tracer) -> Dict[str, float]:
    """Map ``frame;frame;...`` stacks to self-time seconds for one tracer.

    Only subtrees whose root span is in the ``recovery`` category are kept,
    which drops DHT maintenance noise from the graph.
    """
    children: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        if span.parent_id is not None and span.kind != "instant":
            children.setdefault(span.parent_id, []).append(span)
    stacks: Dict[str, float] = {}

    def walk(span: Span, prefix: str) -> None:
        stack = f"{prefix};{span.name}" if prefix else span.name
        kids = children.get(span.span_id, [])
        self_time = _self_time(span, kids)
        if self_time > 0:
            stacks[stack] = stacks.get(stack, 0.0) + self_time
        for kid in kids:
            walk(kid, stack)

    for root in tracer.roots():
        if root.kind != "instant" and root.category == "recovery":
            walk(root, "")
    return stacks


def flamegraph_text(tracers: Optional[TracerLike] = None) -> str:
    """Collapsed-stack lines for ``flamegraph.pl`` (or speedscope import).

    Values are integer virtual-clock microseconds; stacks from several
    tracers are prefixed with the tracer name so merged artifacts keep
    simulations distinguishable. Lines are sorted for determinism.
    """
    lines: List[str] = []
    tracer_list = as_tracers(tracers)
    for tracer in tracer_list:
        prefix = f"{tracer.name};" if len(tracer_list) > 1 else ""
        for stack, seconds in collapsed_stacks(tracer).items():
            micros = int(round(seconds * 1e6))
            if micros > 0:
                lines.append(f"{prefix}{stack} {micros}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def speedscope_document(tracers: Optional[TracerLike] = None) -> Dict[str, object]:
    """A speedscope file: one ``sampled`` profile per tracer.

    Loadable at https://www.speedscope.app (or ``speedscope file.json``).
    """
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def frame_of(frame_name: str) -> int:
        if frame_name not in frame_index:
            frame_index[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return frame_index[frame_name]

    profiles: List[Dict[str, object]] = []
    for tracer in as_tracers(tracers):
        samples: List[List[int]] = []
        weights: List[float] = []
        for stack, seconds in sorted(collapsed_stacks(tracer).items()):
            if seconds <= 0:
                continue
            samples.append([frame_of(part) for part in stack.split(";")])
            weights.append(seconds)
        profiles.append(
            {
                "type": "sampled",
                "name": tracer.name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }
        )
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": profiles,
        "name": "sr3-recovery",
        "exporter": "sr3-profiler",
        "activeProfileIndex": 0,
    }


def write_flamegraph(path: str, tracers: Optional[TracerLike] = None) -> str:
    """Write collapsed stacks to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(flamegraph_text(tracers))
    return path


def write_speedscope(path: str, tracers: Optional[TracerLike] = None) -> str:
    """Write a speedscope JSON document to ``path``; returns the path."""
    payload = speedscope_document(tracers)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    return path
