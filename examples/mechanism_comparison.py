"""Compare all recovery approaches on one failure (a miniature Fig. 8).

Recovers the same 64 MB state through SR3's three mechanisms and all four
baselines, in both the unconstrained-GbE and 100 Mb/s-constrained network
regimes, and prints the resulting latency table.

Usage: python examples/mechanism_comparison.py
"""

from repro.bench.experiments import baseline_matrix
from repro.bench.harness import build_scenario
from repro.recovery.deployment import saved_state, timed_recovery
from repro.bench.reporting import format_result
from repro.recovery.line import LineRecovery
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.util.sizes import MB

STATE_MB = 64


def sr3_times(link_mbit):
    times = {}
    for name, mechanism in (
        ("star", StarRecovery(fanout_bits=2)),
        ("line", LineRecovery(path_length=8)),
        ("tree", TreeRecovery(fanout_bits=1, sub_shards=8)),
    ):
        scenario = build_scenario(
            num_nodes=64, seed=1, uplink_mbit=link_mbit, downlink_mbit=link_mbit
        )
        saved_state(scenario, "app/state", STATE_MB * MB)
        times[name] = timed_recovery(scenario, mechanism, "app/state").duration
    return times


def main() -> None:
    print(f"recovering a {STATE_MB} MB state:\n")
    for label, link in (("unconstrained GbE", None), ("100 Mb/s constrained", 100)):
        times = sr3_times(link)
        ranked = sorted(times.items(), key=lambda kv: kv[1])
        print(f"[{label}]")
        for name, seconds in ranked:
            print(f"  SR3 {name:<5} {seconds:6.2f}s")
        print(f"  -> fastest: {ranked[0][0]}\n")

    print("all approaches side by side (unconstrained):")
    print(format_result(baseline_matrix(state_mb=STATE_MB)))


if __name__ == "__main__":
    main()
