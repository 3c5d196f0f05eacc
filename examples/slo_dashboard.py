"""SLO-triggered recovery with a telemetry dashboard.

Builds a live word-count cell instrumented with the continuous telemetry
pipeline, an SLO burn-rate engine (the backlog must stay under 200
queued tuples), and an anomaly detector watching throughput. A flash
crowd ramps the ingest rate, the count[0] owner is killed at t=10s, and
— crucially — the driver does *not* recover on its own: the only policy
rule maps ``slo-burning`` to ``recover-degraded``, so recovery starts
when the burn-rate alert fires, not when any component reads ground
truth. The run ends by printing the alert timeline and writing a fully
self-contained ``dashboard.html`` (inline SVG sparklines, SLO status,
alert timeline, remediation table).

Usage: python examples/slo_dashboard.py
"""

from repro.control import Controller, ControlPlane, PolicyRule, PolicyTable
from repro.live import FlashCrowd, LoadDriver, build_live_cell
from repro.obs import (
    SLO,
    AnomalyDetector,
    BurnWindow,
    SLOEngine,
    TelemetryPipeline,
    write_dashboard,
)

OUT = "dashboard.html"


def main() -> None:
    cell = build_live_cell(num_nodes=16, seed=7)
    pipeline = TelemetryPipeline(cell.sim)
    engine = SLOEngine(pipeline)
    engine.add(
        SLO(
            name="backlog-drains",
            series="live.backlog",
            objective="le",
            threshold=200.0,
            budget=0.1,
            windows=(BurnWindow(long_s=3.0, short_s=1.0, burn_rate=4.0),),
            description="queued tuples stay below 200",
        )
    )
    anomalies = AnomalyDetector(
        pipeline, series=("live.throughput",), z_threshold=6.0
    )
    world = ControlPlane(cell)
    policy = PolicyTable(
        rules=[
            PolicyRule(
                condition="slo-burning",
                action="recover-degraded",
                params=(("mechanism", "star"),),
            )
        ]
    )
    controller = Controller(
        world,
        policy=policy,
        verify_invariants=False,
        slo_engine=engine,
        anomalies=anomalies,
    )
    rate = FlashCrowd(base=300.0, peak=1_200.0, at=8.0, ramp=2.0, hold=8.0, decay=5.0)
    driver = LoadDriver(
        cell,
        rate,
        duration=30.0,
        service_rate=3_000.0,
        checkpoint_at=(5.0,),
        kill_at=10.0,
        telemetry=pipeline,
        controller=controller,
    )
    print("flash crowd + kill at t=10s; only an SLO alert can start recovery ...")
    report = driver.run()
    controller.sweep()
    print()
    print("alert timeline:")
    timeline = [
        (a.at, f"slo-burning  {a.slo} ({a.severity}, burn {a.burn_long:.2f})")
        for a in engine.alerts
    ] + [
        (a.at, f"anomaly      {a.kind} on {a.series} (score {a.score:.1f})")
        for a in anomalies.anomalies
    ]
    for at, line in sorted(timeline):
        print(f"  t={at:6.2f}s  {line}")
    print()
    if report.killed_at is not None and report.recovered_at is not None:
        print(
            f"killed at t={report.killed_at:.2f}s, alert-triggered recovery "
            f"landed {report.recovered_at - report.killed_at:.2f}s later"
        )
    for record in controller.records:
        if record.verified and record.mttr_s is not None:
            print(
                f"remediation {record.action!r} verified, "
                f"MTTR {record.mttr_s:.3f}s from the alert"
            )
    write_dashboard(
        OUT,
        pipeline,
        slo_engine=engine,
        anomalies=anomalies,
        controller=controller,
        title="SR3 telemetry — SLO-triggered recovery",
    )
    print(f"dashboard written to {OUT}")


if __name__ == "__main__":
    main()
