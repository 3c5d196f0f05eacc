"""Exception hierarchy for the SR3 reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish subsystem failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid internal state."""


class NetworkError(SimulationError):
    """A simulated network operation could not be carried out."""


class OverlayError(ReproError):
    """A DHT overlay operation failed (routing, join, repair)."""


class RoutingError(OverlayError):
    """A message could not be routed to its destination id."""


class MulticastError(OverlayError):
    """A Scribe multicast operation failed (unknown topic, broken tree)."""


class StateError(ReproError):
    """State-layer failure: bad shard, version conflict, checksum mismatch."""


class ShardError(StateError):
    """A shard is malformed or incompatible with its parent partitioning."""


class VersionConflictError(StateError):
    """Two state versions conflict during save or recovery."""


class IntegrityError(StateError):
    """A checksum or reconstruction-integrity check failed."""


class RecoveryError(ReproError):
    """A recovery mechanism could not reconstruct the requested state."""


class InsufficientShardsError(RecoveryError):
    """Not enough surviving shard replicas remain to rebuild the state."""


class ReplacementDiedError(RecoveryError):
    """The replacement node died while the state was being recovered onto it;
    the recovery can be restarted onto a new replacement."""


class SaveAbortedError(RecoveryError):
    """A save round lost a replica write: an endpoint died or was cut off."""


class SelectionError(RecoveryError):
    """The mechanism-selection heuristic received unusable inputs."""


class TopologyError(ReproError):
    """A streaming topology is malformed (cycles, unknown components)."""


class StreamRuntimeError(ReproError):
    """The streaming engine failed while executing a topology."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""


class BenchmarkError(ReproError):
    """An experiment harness was misconfigured or produced no data."""


class LiveHarnessError(ReproError):
    """The live-traffic driver was misconfigured or its run went wrong."""
