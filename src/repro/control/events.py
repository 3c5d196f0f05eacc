"""Control-plane events: the raw signals the controller observes.

The control loop (see :mod:`repro.control.controller`) is event-driven at
its edge: the heartbeat failure detector pushes ``node-failed`` events the
moment a member is declared dead, the controller's periodic world scan
adds ``node-degraded`` events for hosts running far below their nominal
link capacity, and the telemetry layer (:mod:`repro.obs.slo`,
:mod:`repro.obs.anomaly`) emits ``slo-burning`` / ``metric-anomaly``
alerts over continuous series. Detector and scan events are *signals*,
not conclusions — the diagnosis layer (:mod:`repro.control.diagnose`)
correlates them with the actual world state before anything acts;
telemetry alerts *are* the observation (no world scan can reproduce a
burn rate), so they become diagnoses directly.

Events carry the simulated timestamp at which the underlying condition was
*detected*; remediation MTTR is measured from that instant to the moment
verification passes, so detection latency is part of the bill the control
loop pays — exactly how the paper charges ``detection_delay`` to every
recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: The event kinds the controller understands. ``node-failed`` comes from
#: the heartbeat detector, ``node-degraded`` from the controller's world
#: scan; ``slo-burning`` and ``metric-anomaly`` are telemetry alerts
#: (:mod:`repro.obs.slo` / :mod:`repro.obs.anomaly`) — unlike the first
#: two, they carry conditions the world scan cannot see, so the diagnosis
#: layer turns them into diagnoses directly.
EVENT_KINDS = ("node-failed", "node-degraded", "slo-burning", "metric-anomaly")


@dataclass(frozen=True)
class ControlEvent:
    """One observed signal, pinned to the simulated clock."""

    kind: str
    at: float
    node: Optional[str] = None
    state: Optional[str] = None
    attrs: Tuple[Tuple[str, object], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "at": round(self.at, 6),
            "node": self.node,
            "state": self.state,
            "attrs": {k: v for k, v in self.attrs},
        }


@dataclass
class EventLog:
    """An append-only event buffer with drain semantics.

    Producers (detector callbacks, world scans) :meth:`emit`; the
    controller :meth:`drain`\\ s unseen events once per loop iteration.
    Everything ever emitted stays readable via :meth:`history` for the
    report.
    """

    _events: List[ControlEvent] = field(default_factory=list)
    _cursor: int = 0

    def emit(self, event: ControlEvent) -> None:
        self._events.append(event)

    def drain(self) -> List[ControlEvent]:
        """Events emitted since the last drain."""
        fresh = self._events[self._cursor :]
        self._cursor = len(self._events)
        return fresh

    def history(self) -> List[ControlEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


def slo_event(alert) -> ControlEvent:
    """An :class:`~repro.obs.slo.SLOAlert` as a ``slo-burning`` event."""
    return ControlEvent(
        kind="slo-burning",
        at=alert.at,
        state=alert.state,
        attrs=(
            ("slo", alert.slo),
            ("series", alert.series),
            ("severity", alert.severity),
            ("burn_long", round(alert.burn_long, 6)),
            ("burn_short", round(alert.burn_short, 6)),
            ("long_s", alert.long_s),
            ("short_s", alert.short_s),
        ),
    )


def anomaly_event(anomaly) -> ControlEvent:
    """An :class:`~repro.obs.anomaly.Anomaly` as a ``metric-anomaly`` event."""
    return ControlEvent(
        kind="metric-anomaly",
        at=anomaly.at,
        attrs=(
            ("series", anomaly.series),
            ("anomaly", anomaly.kind),
            ("value", round(anomaly.value, 6)),
            ("score", round(anomaly.score, 6)),
            ("baseline", round(anomaly.baseline, 6)),
        ),
    )


def watch_detector(detector, log: EventLog) -> None:
    """Wire a :class:`~repro.dht.failure_detector.FailureDetector` into a log.

    Chains on any existing ``on_failure`` callback rather than replacing
    it, so a deployment that already reacts to detections keeps working.
    Duplicate declarations of the same member (every watcher fires once)
    collapse to a single event.
    """
    previous = detector.on_failure
    seen = set()

    def relay(watcher, member, at: float) -> None:
        if previous is not None:
            previous(watcher, member, at)
        if member.name not in seen:
            seen.add(member.name)
            log.emit(
                ControlEvent(
                    kind="node-failed",
                    at=at,
                    node=member.name,
                    attrs=(("watcher", watcher.name),),
                )
            )

    detector.on_failure = relay


__all__ = [
    "EVENT_KINDS",
    "ControlEvent",
    "EventLog",
    "anomaly_event",
    "slo_event",
    "watch_detector",
]
