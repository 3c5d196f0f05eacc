"""The audit trail of injected failures.

The faults themselves — crash waves, rack outages, churn, partitions,
stragglers — are scheduled by :mod:`repro.chaos.injectors`; this module
keeps what they did, for the post-run report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class FailureRecord:
    """One injected failure, kept for post-run auditing."""

    time: float
    kind: str
    target: str
    detail: str = ""


@dataclass
class FailureLog:
    """Every failure injected into one simulation, in injection order."""

    records: List[FailureRecord] = field(default_factory=list)

    def crashes(self) -> List[FailureRecord]:
        return [r for r in self.records if r.kind == "crash"]
