"""Closed-loop auto-remediation for SR3 deployments.

The control plane watches a running deployment (failure-detector events,
placement plans, version chains, per-host bandwidth), diagnoses named
conditions, plans actions from a declarative policy table, executes them
through the recovery manager, and verifies the result against the chaos
invariant checkers — retrying and escalating until the world is clean or
the policy's budget is spent.

Typical use through the public façade::

    app = SR3.create(...)
    controller = app.attach_controller()
    ...  # faults happen
    records = controller.run()

or standalone over a bench deployment::

    world = ControlPlane(deployment, detector=detector)
    controller = Controller(world, policy=default_policy())
    controller.run()
"""

from repro.control.actions import (
    ACTIONS,
    Action,
    ActionOutcome,
    build_action,
    register_action,
)
from repro.control.controller import (
    ControlConfig,
    Controller,
    ControlPlane,
    RemediationRecord,
)
from repro.control.diagnose import CONDITIONS, TELEMETRY_KINDS, Diagnosis, diagnose
from repro.control.events import EVENT_KINDS, ControlEvent, EventLog, watch_detector
from repro.control.policy import (
    PolicyRule,
    PolicyTable,
    default_policy,
    shard_granular_policy,
)

__all__ = [
    "ACTIONS",
    "Action",
    "ActionOutcome",
    "build_action",
    "register_action",
    "ControlConfig",
    "ControlPlane",
    "Controller",
    "RemediationRecord",
    "CONDITIONS",
    "TELEMETRY_KINDS",
    "Diagnosis",
    "diagnose",
    "EVENT_KINDS",
    "ControlEvent",
    "EventLog",
    "watch_detector",
    "PolicyRule",
    "PolicyTable",
    "default_policy",
    "shard_granular_policy",
]
