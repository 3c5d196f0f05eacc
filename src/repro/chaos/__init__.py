"""Chaos engineering for SR3: scenario-driven fault campaigns.

Three layers:

- :mod:`repro.chaos.injectors` — composable, seed-deterministic fault
  generators (crash waves, rack failures, Poisson churn, partitions,
  bandwidth flapping, stragglers, mid-recovery re-crashes);
- :mod:`repro.chaos.scenario` — the declarative :class:`Scenario` DSL and
  the shipped catalog/campaigns;
- :mod:`repro.chaos.campaign` — the :class:`ChaosEngine` and campaign
  runner that sweep scenarios across recovery mechanisms, audit every run
  with :mod:`invariant checkers <repro.chaos.invariants>`, and emit a
  deterministic resilience report.
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.chaos.campaign": (
        "ChaosEngine", "ResilienceReport", "RunContext", "ScenarioOutcome", "make_mechanism",
        "run_campaign", "run_scenario",
    ),
    "repro.chaos.injectors": (
        "INJECTOR_KINDS", "BandwidthFlap", "CrashWave", "Injector", "MidRecoveryCrash",
        "NetworkPartition", "PoissonChurn", "RackFailure", "Straggler",
    ),
    "repro.chaos.invariants": (
        "DEFAULT_CHECKERS", "FlowAccounting", "ChainChecksumConsistent", "InvariantChecker",
        "InvariantReport", "NoOrphanedReplicas", "RecoveryLatency", "RingConsistency",
        "StateIntegrity", "check_invariants",
    ),
    "repro.chaos.scenario": (
        "CAMPAIGNS", "KNOWN_MECHANISMS", "SCENARIOS", "SR3_MECHANISMS", "Scenario",
        "campaign_scenarios",
    ),
})
