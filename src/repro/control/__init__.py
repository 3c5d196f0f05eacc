"""Closed-loop auto-remediation for SR3 deployments.

The control plane watches a running deployment (failure-detector
declarations, placement plans, version chains, per-host bandwidth) and
takes in SLO and anomaly alerts, diagnoses named conditions, plans
actions from a declarative policy table, executes them through the
recovery manager, and verifies the result against the chaos invariant
checkers — retrying until the world is clean or the policy's
budget is spent.

Typical use over a façade's (or a bench scenario's) deployment::

    app = SR3.create(...)
    controller = Controller(ControlPlane(app.deployment))
    ...  # faults happen
    records = controller.run()
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.control.actions": (
        "ACTIONS", "Action", "ActionOutcome", "build_action", "register_action",
    ),
    "repro.control.controller": (
        "Controller", "ControlPlane", "RemediationRecord",
    ),
    "repro.control.diagnose": ("CONDITIONS", "Diagnosis", "diagnose"),
    "repro.control.policy": ("PolicyRule", "PolicyTable", "default_policy"),
})
