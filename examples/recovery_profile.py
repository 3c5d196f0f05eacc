"""Profile a recovery and find out where the time went.

Runs the same 64 MB recovery through SR3's star and line mechanisms with
tracing on, then builds a RecoveryReport: per-recovery critical path,
blame attribution (detection / transfer / merge / control / queueing),
and the selection model's predicted-vs-observed error. Also drops
flamegraph artifacts next to this script for flamegraph.pl / speedscope.

Usage: python examples/recovery_profile.py
"""

import os

from repro.bench.harness import build_scenario
from repro.recovery.deployment import saved_state, timed_recovery
from repro.obs import Tracer, build_report, write_flamegraph, write_speedscope
from repro.recovery.line import LineRecovery
from repro.recovery.star import StarRecovery
from repro.util.sizes import MB

STATE_MB = 64


def traced_recovery(name, mechanism):
    tracer = Tracer(name)
    scenario = build_scenario(num_nodes=64, seed=1, tracer=tracer)
    saved_state(scenario, "app/state", STATE_MB * MB)
    timed_recovery(scenario, mechanism, "app/state")
    return tracer


def main() -> None:
    tracers = [
        traced_recovery("star", StarRecovery(fanout_bits=2)),
        traced_recovery("line", LineRecovery(path_length=8)),
    ]

    report = build_report(tracers)
    print(f"profiling a {STATE_MB} MB recovery:\n")
    print(report.format_table())

    for profile in report.profiles:
        print(f"\n[{profile.mechanism}] makespan {profile.makespan:.2f}s, "
              f"dominant blame: {profile.dominant_blame}")
        for category in sorted(profile.blame_fractions):
            fraction = profile.blame_fractions[category]
            if fraction > 0:
                print(f"  {category:<10} {fraction:6.1%}")
        if profile.explanation is not None:
            error = profile.explanation.model_error(profile.mechanism)
            if error is not None:
                print(f"  selection model error: {error:+.1%}")

    # Artifacts land under out/ (ignored by git) so they never drift at
    # the repo root.
    out_dir = os.path.join(os.getcwd(), "out")
    os.makedirs(out_dir, exist_ok=True)
    flame = os.path.join(out_dir, "recovery_profile.folded")
    scope = os.path.join(out_dir, "recovery_profile.speedscope.json")
    write_flamegraph(flame, tracers)
    write_speedscope(scope, tracers)
    print(f"\nwrote {flame}")
    print(f"wrote {scope}  (open at https://www.speedscope.app)")


if __name__ == "__main__":
    main()
