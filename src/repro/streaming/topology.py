"""Topologies: the DAGs applications are deployed as.

"A stream processing application's query is a directed acyclic graph (DAG)
that specifies the dataflow, Q = (V, E)" (Sec. 3.1). The builder mirrors
Storm's ``TopologyBuilder``: add spouts, add bolts with groupings on their
upstream components, then build — which validates acyclicity and computes
a topological order for deterministic execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import TopologyError
from repro.streaming.component import Bolt, Component, Spout
from repro.streaming.groupings import Grouping, ShuffleGrouping


@dataclass(frozen=True)
class Edge:
    """One dataflow edge: upstream component -> downstream bolt."""

    source: str
    target: str
    grouping: Grouping


@dataclass
class ComponentSpec:
    """A declared component with its parallelism."""

    component_id: str
    component: Component
    parallelism: int


@dataclass
class Topology:
    """A validated, immutable application DAG."""

    name: str
    spouts: Dict[str, ComponentSpec]
    bolts: Dict[str, ComponentSpec]
    edges: List[Edge]
    order: List[str] = field(default_factory=list)

    def spec(self, component_id: str) -> ComponentSpec:
        if component_id in self.spouts:
            return self.spouts[component_id]
        if component_id in self.bolts:
            return self.bolts[component_id]
        raise TopologyError(f"unknown component {component_id!r}")

    def downstream_of(self, component_id: str) -> List[Edge]:
        return [e for e in self.edges if e.source == component_id]

    def component_ids(self) -> List[str]:
        return list(self.spouts) + list(self.bolts)


class TopologyBuilder:
    """Assemble and validate a topology."""

    def __init__(self, name: str) -> None:
        if not name:
            raise TopologyError("topology needs a non-empty name")
        self.name = name
        self._spouts: Dict[str, ComponentSpec] = {}
        self._bolts: Dict[str, ComponentSpec] = {}
        self._edges: List[Edge] = []

    def set_spout(self, component_id: str, spout: Spout, parallelism: int = 1) -> "TopologyBuilder":
        self._check_fresh(component_id)
        if not isinstance(spout, Spout):
            raise TopologyError(f"{component_id!r} is not a Spout")
        self._check_parallelism(parallelism)
        self._spouts[component_id] = ComponentSpec(component_id, spout, parallelism)
        return self

    def set_bolt(
        self,
        component_id: str,
        bolt: Bolt,
        upstream: Sequence[Tuple[str, Grouping]],
        parallelism: int = 1,
    ) -> "TopologyBuilder":
        """Add a bolt subscribed to one or more upstream components.

        ``upstream`` is a list of (component_id, grouping) pairs; pass a
        bare component id to get a shuffle grouping. Each edge needs its own
        grouping object: a shared shuffle would advance per list, not per tuple.
        """
        self._check_fresh(component_id)
        if not isinstance(bolt, Bolt):
            raise TopologyError(f"{component_id!r} is not a Bolt")
        self._check_parallelism(parallelism)
        if not upstream:
            raise TopologyError(f"bolt {component_id!r} has no upstream components")
        edges = []
        for item in upstream:
            source, grouping = (item, ShuffleGrouping()) if isinstance(item, str) else item
            edges.append(Edge(source, component_id, grouping))
        groupings = [edge.grouping for edge in self._edges + edges]
        if len({id(grouping) for grouping in groupings}) < len(groupings):
            raise TopologyError(f"bolt {component_id!r} shares a grouping object with another edge")
        self._bolts[component_id] = ComponentSpec(component_id, bolt, parallelism)
        self._edges.extend(edges)
        return self

    def build(self) -> Topology:
        """Validate and freeze the topology."""
        known = set(self._spouts) | set(self._bolts)
        for edge in self._edges:
            if edge.source not in known:
                raise TopologyError(f"edge references unknown component {edge.source!r}")
            if edge.source in self._bolts and edge.source == edge.target:
                raise TopologyError(f"self-loop on {edge.source!r}")
        if not self._spouts:
            raise TopologyError(f"topology {self.name!r} has no spouts")
        order = self._topological_order(known)
        return Topology(
            name=self.name,
            spouts=dict(self._spouts),
            bolts=dict(self._bolts),
            edges=list(self._edges),
            order=order,
        )

    def _topological_order(self, known: set) -> List[str]:
        indegree = {cid: 0 for cid in known}
        for edge in self._edges:
            indegree[edge.target] += 1
        ready = sorted(cid for cid, deg in indegree.items() if deg == 0)
        for spout_id in self._spouts:
            if indegree[spout_id] != 0:
                raise TopologyError(f"spout {spout_id!r} cannot have upstream edges")
        order: List[str] = []
        queue = list(ready)
        while queue:
            current = queue.pop(0)
            order.append(current)
            for edge in self._edges:
                if edge.source == current:
                    indegree[edge.target] -= 1
                    if indegree[edge.target] == 0:
                        queue.append(edge.target)
        if len(order) != len(known):
            cyclic = sorted(known - set(order))
            raise TopologyError(f"topology {self.name!r} has a cycle through {cyclic}")
        return order

    def _check_fresh(self, component_id: str) -> None:
        if not component_id:
            raise TopologyError("component id must be non-empty")
        if component_id in self._spouts or component_id in self._bolts:
            raise TopologyError(f"duplicate component id {component_id!r}")

    @staticmethod
    def _check_parallelism(parallelism: int) -> None:
        if parallelism < 1:
            raise TopologyError("parallelism must be at least 1")
