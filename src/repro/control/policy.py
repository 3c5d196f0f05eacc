"""The declarative remediation policy table.

SR3's premise is that recovery is *customizable*; the control plane keeps
that promise by making remediation policy data, not code. A
:class:`PolicyTable` is an ordered list of :class:`PolicyRule`\\ s; the
first rule whose condition, severity filter, and subject glob match a
diagnosis wins and names the action to run and its retry budget. A rule
naming an unknown condition or action is rejected when it is built, not
partway through a remediation.

:func:`default_policy` encodes the paper-faithful defaults:

=================  =================  ===========
condition          action             max retries
=================  =================  ===========
owner-lost         recover            2
replica-thin       re-replicate       1
flaky-node         rebalance          1
hot-shard          rebalance          1
slo-burning        recover-degraded   1
metric-anomaly     rebalance          1
=================  =================  ===========

The telemetry rows make alerts actionable out of the box: a burning SLO
proactively recovers every registered state stranded on a dead owner
(the alert names the symptom, not the corpse), and a node-scoped metric
anomaly drains the implicated node. Both are inert in deployments that
never attach a telemetry pipeline — the conditions simply never arise.
A condition that survives its retries is parked, so the loop always
terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import List, Optional, Tuple

from repro.control.actions import ACTIONS
from repro.control.diagnose import CONDITIONS, Diagnosis
from repro.errors import ConfigError


@dataclass(frozen=True)
class PolicyRule:
    """One row of the table: match filters plus the planned response.

    ``match`` is an ``fnmatch`` glob over the diagnosis subject (state
    name for state-scoped conditions, node name otherwise); ``severity``
    of ``None`` matches any. ``params`` are keyword arguments forwarded to
    the action's constructor (e.g. pinning ``mechanism="tree"`` on a
    ``recover`` rule).
    """

    condition: str
    action: str
    severity: Optional[str] = None
    match: str = "*"
    max_retries: int = 1
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.condition not in CONDITIONS:
            raise ConfigError(
                f"unknown condition {self.condition!r}; known: {CONDITIONS}"
            )
        if self.action not in ACTIONS:
            raise ConfigError(
                f"unknown action {self.action!r}; known: {sorted(ACTIONS)}"
            )
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if isinstance(self.params, dict):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))
        else:
            object.__setattr__(self, "params", tuple(self.params))

    def matches(self, diagnosis: Diagnosis) -> bool:
        if diagnosis.condition != self.condition:
            return False
        if self.severity is not None and diagnosis.severity != self.severity:
            return False
        return fnmatchcase(diagnosis.subject, self.match)


@dataclass
class PolicyTable:
    """An ordered rule list; first match wins."""

    rules: List[PolicyRule] = field(default_factory=list)

    def lookup(self, diagnosis: Diagnosis) -> Optional[PolicyRule]:
        for rule in self.rules:
            if rule.matches(diagnosis):
                return rule
        return None


def default_policy(mechanism: Optional[str] = None) -> PolicyTable:
    """The shipped policy (see the module docstring's table).

    ``mechanism`` pins proactive recovery to one mechanism name instead of
    the Fig. 7 selection heuristic — campaign mode uses this so the
    resilience matrix still compares mechanisms cell by cell.
    """
    recover_params: Tuple[Tuple[str, object], ...] = ()
    if mechanism is not None:
        recover_params = (("mechanism", mechanism),)
    return PolicyTable(
        rules=[
            PolicyRule(
                condition="owner-lost",
                action="recover",
                max_retries=2,
                params=recover_params,
            ),
            PolicyRule(condition="replica-thin", action="re-replicate"),
            PolicyRule(condition="flaky-node", action="rebalance"),
            PolicyRule(condition="hot-shard", action="rebalance"),
            PolicyRule(
                condition="slo-burning",
                action="recover-degraded",
                params=recover_params,
            ),
            PolicyRule(condition="metric-anomaly", action="rebalance"),
        ]
    )


__all__ = ["PolicyRule", "PolicyTable", "default_policy"]
