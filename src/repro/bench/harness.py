"""Shared scaffolding for the experiments: scenarios and result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import BenchmarkError
from repro.recovery.baselines.checkpointing import (
    CheckpointingBaseline,
    checkpointing_to_remote_storage,
)
from repro.recovery.deployment import Deployment, build_deployment
from repro.sim.network import RemoteStorage


@dataclass
class ExperimentResult:
    """One regenerated table/figure: id, column names, and data rows."""

    experiment_id: str
    description: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise BenchmarkError(f"{self.experiment_id}: row missing columns {missing}")
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        if name not in self.columns:
            raise BenchmarkError(f"{self.experiment_id}: unknown column {name!r}")
        return [row[name] for row in self.rows]

    def series(self, filter_col: str, filter_value: object, value_col: str) -> List[object]:
        """Values of one column restricted to rows matching a filter."""
        return [row[value_col] for row in self.rows if row[filter_col] == filter_value]


@dataclass
class Scenario(Deployment):
    """A deployment plus the bench's own: the checkpointing baseline's
    remote store, and whether the links count as bandwidth-constrained."""

    storage: RemoteStorage
    checkpointing: CheckpointingBaseline
    constrained: bool


def build_scenario(**deployment_args) -> Scenario:
    """:func:`~repro.recovery.deployment.build_deployment` (every keyword
    it takes) plus the checkpointing baseline on its remote store.

    Links under 1 Gb/s mark the scenario ``constrained``, which the
    manager's Fig. 7 selection reads as a bandwidth-constrained network.
    """
    deployment = build_deployment(**deployment_args)
    uplink_mbit = deployment_args.get("uplink_mbit")
    constrained = uplink_mbit is not None and uplink_mbit < 1000
    deployment.manager.bandwidth_constrained = constrained
    checkpointing = checkpointing_to_remote_storage(deployment.ctx)
    return Scenario(
        **vars(deployment),
        storage=checkpointing.storage,
        checkpointing=checkpointing,
        constrained=constrained,
    )
