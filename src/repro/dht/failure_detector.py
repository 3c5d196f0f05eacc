"""Heartbeat-based failure detection over the leaf set.

The recovery cost model charges a constant ``detection_delay`` before any
mechanism moves data; this module is the protocol behind that constant.
Every node periodically pings its leaf-set members ("each node pings to a
limited set of nodes in the leaf set", Sec. 5.4); a member that misses
``suspicion_threshold`` consecutive heartbeats is declared failed, and the
detector fires its callback — which is where a deployment would kick off
SR3 recovery.

Expected detection latency is therefore about
``period * (suspicion_threshold + 0.5)``, and the detector produces no
false positives while a member keeps answering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.dht.node import DhtNode
from repro.dht.overlay import Overlay
from repro.errors import OverlayError

HEARTBEAT_BYTES = 48


@dataclass(frozen=True)
class DetectorConfig:
    """Heartbeat parameters."""

    period: float = 1.0
    suspicion_threshold: int = 3

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.suspicion_threshold < 1:
            raise ValueError("suspicion_threshold must be at least 1")


@dataclass
class FailureDetector:
    """Runs the heartbeat protocol for every alive node of an overlay."""

    overlay: Overlay
    config: DetectorConfig = field(default_factory=DetectorConfig)
    on_failure: Optional[Callable[[DhtNode, DhtNode, float], None]] = None

    def __post_init__(self) -> None:
        self._missed: Dict[Tuple[str, str], int] = {}
        self._declared: Set[Tuple[str, str]] = set()
        self.detections: List[Tuple[str, str, float]] = []
        self._running = False

    def start(self) -> None:
        """Begin the periodic heartbeat rounds."""
        if self._running:
            raise OverlayError("failure detector already running")
        self._running = True
        self.overlay.sim.schedule(self.config.period, self._round)

    def stop(self) -> None:
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def _round(self) -> None:
        if not self._running:
            return
        sim = self.overlay.sim
        pings = 0
        peak_suspicion = 0
        for watcher in self.overlay.alive_nodes():
            for member in watcher.leaf_set.members():
                key = (watcher.name, member.name)
                if key in self._declared:
                    continue
                # Ping...
                pings += 1
                self.overlay.network.send_control(
                    watcher.host, member.host, HEARTBEAT_BYTES
                )
                if member.alive:
                    # ...pong: reset suspicion.
                    self.overlay.network.send_control(
                        member.host, watcher.host, HEARTBEAT_BYTES
                    )
                    self._missed[key] = 0
                else:
                    missed = self._missed.get(key, 0) + 1
                    self._missed[key] = missed
                    peak_suspicion = max(peak_suspicion, missed)
                    if missed >= self.config.suspicion_threshold:
                        self._declared.add(key)
                        self.detections.append((watcher.name, member.name, sim.now))
                        sim.tracer.instant(
                            f"detected failure of {member.name}",
                            category="overlay.detection",
                            watcher=watcher.name,
                            member=member.name,
                            missed=missed,
                        )
                        sim.metrics.counter("detector.detections").add(1)
                        if self.on_failure is not None:
                            self.on_failure(watcher, member, sim.now)
        # Telemetry: ping volume and the round's deepest suspicion level
        # (how close the protocol is to its next declaration).
        if pings:
            sim.metrics.counter("detector.heartbeats").add(pings)
        sim.metrics.series("detector.suspicion").record(sim.now, float(peak_suspicion))
        sim.schedule(self.config.period, self._round)

    def detected_by_anyone(self, node: DhtNode) -> Optional[float]:
        """The earliest time any watcher declared ``node`` failed."""
        times = [t for _, name, t in self.detections if name == node.name]
        return min(times) if times else None
