"""Post-hoc recovery profiles: blame fractions, bytes, and model error.

Consumes the span forests recorded by :class:`~repro.obs.tracer.Tracer`
and distills each recovery into a :class:`RecoveryProfile`:

- the **critical path** through the recovery's span DAG (a gap-free tiling
  of the makespan — see :mod:`repro.obs.critical_path`);
- **blame attribution**: seconds and fractions of the makespan per
  category (detection / transfer / merge / replay / control / queueing),
  with the fractions summing to 1.0 by construction;
- **bytes on the critical path**: how much of the moved state actually
  gated completion (bytes moved off the path were free);
- optionally a :class:`~repro.recovery.selection.SelectionExplanation`
  comparing the heuristic's predicted cost per mechanism against the
  measured makespan, so the selection model's error is itself observable.

Everything serializes deterministically (sorted keys, pinned separators):
two same-seed runs produce byte-identical profile reports, which is what
lets ``BENCH_sr3.json`` act as a perf-regression baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.critical_path import (
    BLAME_CATEGORIES,
    CriticalSegment,
    blame_breakdown,
    children_index,
    critical_path,
    recovery_roots,
)
from repro.obs.recorder import TracerLike, as_tracers
from repro.obs.tracer import Span, Tracer

__all__ = [
    "RecoveryProfile",
    "ProfileReport",
    "profile_recovery",
    "profile_tracers",
    "build_report",
]

@dataclass
class RecoveryProfile:
    """Where one recovery's time went, distilled from its span subtree."""

    trace: str  # owning tracer's name
    mechanism: str  # "star", "line", "tree", "star+speculation", ...
    state: str
    root_span_id: int
    started_at: float
    finished_at: float
    makespan: float
    blame_seconds: Dict[str, float]
    blame_fractions: Dict[str, float]
    bytes_on_critical_path: float
    state_bytes: float
    span_count: int
    chain_len: int = 1  # version-chain links the recovery fetched
    delta_bytes: float = 0.0  # delta payload replayed after the base merge
    segments: List[CriticalSegment] = field(default_factory=list)
    error: Optional[str] = None  # set when the recovery failed
    explanation: Optional[object] = None  # SelectionExplanation, if attached

    @property
    def dominant_blame(self) -> str:
        """The category charged with the largest share of the makespan."""
        return max(
            BLAME_CATEGORIES, key=lambda b: (self.blame_seconds.get(b, 0.0), b)
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "trace": self.trace,
            "mechanism": self.mechanism,
            "state": self.state,
            "root_span_id": self.root_span_id,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "makespan_s": self.makespan,
            "blame_seconds": {k: self.blame_seconds[k] for k in sorted(self.blame_seconds)},
            "blame_fractions": {
                k: self.blame_fractions[k] for k in sorted(self.blame_fractions)
            },
            "dominant_blame": self.dominant_blame,
            "bytes_on_critical_path": self.bytes_on_critical_path,
            "state_bytes": self.state_bytes,
            "span_count": self.span_count,
            "chain_len": self.chain_len,
            "delta_bytes": self.delta_bytes,
            "critical_path": [segment.to_dict() for segment in self.segments],
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.explanation is not None:
            payload["selection"] = self.explanation.to_dict()
        return payload


def _mechanism_of(root: Span) -> str:
    name = root.name
    if name.startswith("recovery/"):
        return name[len("recovery/"):]
    return name


def profile_recovery(
    tracer: Tracer,
    root: Span,
    children: Optional[Dict[int, List[Span]]] = None,
) -> RecoveryProfile:
    """Profile one recovery root span into a :class:`RecoveryProfile`.

    ``children`` is an optional precomputed
    :func:`~repro.obs.critical_path.children_index` for the tracer —
    callers profiling many roots from one trace share it so the per-root
    cost stays proportional to the subtree, not the whole trace.
    """
    if children is None:
        children = children_index(tracer)
    segments = critical_path(tracer, root, children)
    seconds = blame_breakdown(segments)
    makespan = root.effective_end - root.start
    if makespan > 0:
        fractions = {k: v / makespan for k, v in seconds.items()}
    else:
        fractions = {k: 0.0 for k in seconds}
    descendant_count = _count_subtree(root, children)
    state_bytes = float(root.attrs.get("state_bytes", root.attrs.get("bytes", 0.0)))
    return RecoveryProfile(
        trace=tracer.name,
        mechanism=_mechanism_of(root),
        state=str(root.attrs.get("state", "")),
        root_span_id=root.span_id,
        started_at=root.start,
        finished_at=root.effective_end,
        makespan=makespan,
        blame_seconds=seconds,
        blame_fractions=fractions,
        bytes_on_critical_path=sum(
            s.bytes_attributed for s in segments if s.blame == "transfer"
        ),
        state_bytes=state_bytes,
        span_count=descendant_count,
        chain_len=int(root.attrs.get("chain_len", 1)),
        delta_bytes=float(root.attrs.get("delta_bytes", 0.0)),
        segments=segments,
        error=root.attrs.get("error"),
    )


def _count_subtree(root: Span, children: Dict[int, List[Span]]) -> int:
    count = 0
    stack = [root]
    while stack:
        span = stack.pop()
        count += 1
        stack.extend(children.get(span.span_id, ()))
    return count


def profile_tracers(tracers: Optional[TracerLike] = None) -> List[RecoveryProfile]:
    """One profile per recovery root across the given tracers.

    Defaults to every recorded tracer (the bench CLI's
    ``--trace``/``--profile`` path).
    """
    profiles: List[RecoveryProfile] = []
    for tracer in as_tracers(tracers):
        children = children_index(tracer)
        for root in recovery_roots(tracer):
            profiles.append(profile_recovery(tracer, root, children))
    return profiles


def _attach_explanations(profiles: List[RecoveryProfile]) -> None:
    """Feed measured makespans back into the selection model's predictions.

    Imported lazily: ``repro.recovery`` imports the observability layer at
    module load, so the reverse import must happen at call time.
    """
    from repro.recovery.selection import SelectionInputs, explain_selection

    for profile in profiles:
        if profile.state_bytes <= 0:
            continue
        base = profile.mechanism.split("+", 1)[0]
        if base not in ("star", "line", "tree"):
            continue
        explanation = explain_selection(
            SelectionInputs(
                state_bytes=profile.state_bytes,
                chain_links=profile.chain_len,
                delta_bytes=min(profile.delta_bytes, profile.state_bytes),
            )
        )
        explanation.observe(base, profile.makespan)
        profile.explanation = explanation


@dataclass
class ProfileReport:
    """Every recovery profile of a run plus per-mechanism aggregates."""

    profiles: List[RecoveryProfile] = field(default_factory=list)

    def by_mechanism(self) -> Dict[str, List[RecoveryProfile]]:
        grouped: Dict[str, List[RecoveryProfile]] = {}
        for profile in self.profiles:
            grouped.setdefault(profile.mechanism, []).append(profile)
        return grouped

    def aggregates(self) -> Dict[str, Dict[str, object]]:
        """Per-mechanism mean makespan and blame-fraction means."""
        summary: Dict[str, Dict[str, object]] = {}
        for mechanism, group in sorted(self.by_mechanism().items()):
            count = len(group)
            mean_blame = {
                blame: sum(p.blame_fractions.get(blame, 0.0) for p in group) / count
                for blame in BLAME_CATEGORIES
            }
            summary[mechanism] = {
                "recoveries": count,
                "mean_makespan_s": sum(p.makespan for p in group) / count,
                "max_makespan_s": max(p.makespan for p in group),
                "mean_blame_fractions": mean_blame,
                "bytes_on_critical_path": sum(
                    p.bytes_on_critical_path for p in group
                ),
            }
        return summary

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": "sr3-profile-1",
            "recoveries": len(self.profiles),
            "aggregates": self.aggregates(),
            "profiles": [profile.to_dict() for profile in self.profiles],
        }

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, pinned separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def format_table(self) -> str:
        """A terminal-friendly blame table, one row per recovery."""
        header = (
            f"{'mechanism':<18} {'state':<14} {'makespan':>9}  "
            + "  ".join(f"{blame:>9}" for blame in BLAME_CATEGORIES)
        )
        lines = [header, "-" * len(header)]
        for profile in self.profiles:
            fractions = "  ".join(
                f"{profile.blame_fractions.get(blame, 0.0):>8.1%}"
                for blame in BLAME_CATEGORIES
            )
            lines.append(
                f"{profile.mechanism:<18} {profile.state:<14} "
                f"{profile.makespan:>8.3f}s  {fractions}"
            )
        return "\n".join(lines)


def build_report(tracers: Optional[TracerLike] = None) -> ProfileReport:
    """Profile every recovery in the tracers into one report.

    Each star/line/tree profile whose root span carries a ``state_bytes``
    attribute gets a :class:`SelectionExplanation` (predicted vs observed
    cost).
    """
    profiles = profile_tracers(tracers)
    _attach_explanations(profiles)
    return ProfileReport(profiles=profiles)
