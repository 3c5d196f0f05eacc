"""State version control.

The SR3 prototype "implemented state version control by adding timestamps
and sequence numbers to the messages, thereby avoiding state inconsistency
during the state saving and recovery process" (Sec. 4). A version is a
(timestamp, sequence) pair, totally ordered; every save round stamps all
of its shards with the same version so recovery can reject mixed-round
reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from repro.errors import VersionConflictError


@total_ordering
@dataclass(frozen=True)
class StateVersion:
    """A totally ordered (timestamp, sequence) version stamp."""

    timestamp: float
    sequence: int

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")

    def __lt__(self, other: "StateVersion") -> bool:
        return (self.timestamp, self.sequence) < (other.timestamp, other.sequence)

    def __repr__(self) -> str:
        return f"v{self.sequence}@{self.timestamp:.3f}"


StateVersion.ZERO = StateVersion(0.0, 0)


class VersionClock:
    """Issues monotonically increasing versions for one operator's state.

    The timestamp comes from the simulation clock (or any monotonic time
    source the caller provides); the sequence number breaks ties between
    save rounds that happen at the same instant.
    """

    def __init__(self) -> None:
        self._last = StateVersion.ZERO

    def next(self, timestamp: float) -> StateVersion:
        """Issue the next version at ``timestamp``.

        Raises :class:`VersionConflictError` when time runs backwards,
        which would make version order disagree with real order.
        """
        if timestamp < self._last.timestamp:
            raise VersionConflictError(
                f"timestamp {timestamp} precedes last version {self._last!r}"
            )
        version = StateVersion(timestamp, self._last.sequence + 1)
        self._last = version
        return version

    def observe(self, version: StateVersion) -> None:
        """Advance past an externally observed version (recovery handoff)."""
        if version > self._last:
            self._last = version
