"""Pinned live runs: six ``LoadDriver`` scenarios, traced end to end.

Each case plays a small word-count cell through a kill and its
rollback/replay and hashes three things: the span dump plus the metrics
registry, the fields of the :class:`~repro.live.metrics.LiveReport` a
reader acts on (the recovery window and the three phase summaries
included), and every count task's final store. Two more pins hash the
``burn`` and ``detector`` SLO cells' rendered dashboard together with the
telemetry pipeline's series. A digest that moves means live behaviour,
or what a reader of the run sees, moved.

To regenerate after a deliberate behaviour change::

    PYTHONPATH=src python tests/test_live_pins.py
"""

import hashlib
import json

import pytest

from repro.bench.experiments import run_slo_cell
from repro.live import ConstantRate, LoadDriver, build_live_cell
from repro.obs.dashboard import render_dashboard
from repro.obs.export import dumps_trace
from repro.recovery.star import StarRecovery


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(cell, report):
    sim = cell.sim
    trace = dumps_trace(sim.tracer, chrome=False) + json.dumps(
        sim.metrics.dump(), sort_keys=True, separators=(",", ":")
    )
    fields = {
        name: getattr(report, name)
        for name in (
            "arrived", "served", "replayed", "killed_at", "recovered_at",
            "recovery_s", "recovery_window", "drain_s", "replay_lag_peak",
            "replay_lag_at_recovery",
        )
    }
    fields["phases"] = {
        name: None if summary is None else {
            "count": float(summary.count),
            "p50_s": summary.p50,
            "p95_s": summary.p95,
            "p99_s": summary.p99,
            "p999_s": summary.p999,
            "mean_s": summary.mean,
            "max_s": summary.maximum,
        }
        for name, summary in report.phases.items()
    }
    stores = {
        f"{cid}[{index}]": sorted(bolt.state.items())
        for (cid, index), bolt in sorted(cell.cluster.stateful_tasks().items())
    }
    return (
        _sha(trace),
        _sha(json.dumps(fields, sort_keys=True)),
        _sha(json.dumps(stores, sort_keys=True)),
    )


def _driver_case(**overrides):
    cell = build_live_cell(num_nodes=12, seed=3)
    kwargs = dict(
        duration=20.0,
        service_rate=2_500.0,
        checkpoint_at=(4.0,),
        kill_at=8.0,
        mechanism=StarRecovery(fanout_bits=2),
        bulk_state_mb=8.0,
    )
    kwargs.update(overrides)
    report = LoadDriver(cell, ConstantRate(300.0), **kwargs).run()
    return _digests(cell, report)


def _slo_cell(mode):
    return run_slo_cell(mode, seed=1, duration_s=20.0, num_nodes=12)


def _detector_case():
    outcome = _slo_cell("detector")
    return _digests(outcome["cell"], outcome["report"])


def _dashboard_digest(mode):
    """The rendered dashboard of one SLO cell plus every series it drew."""
    outcome = _slo_cell(mode)
    html = render_dashboard(
        outcome["pipeline"],
        slo_engine=outcome["engine"],
        anomalies=outcome["anomalies"],
        controller=outcome["controller"],
        title=f"SR3 telemetry — {mode} cell",
    )
    pipeline = outcome["pipeline"]
    series = {
        "format": "sr3-telemetry-1",
        "samples": pipeline.samples,
        "series": {
            name: {
                "name": name,
                "kind": pipeline.series(name).kind,
                "points": [[t, v] for t, v in pipeline.series(name).points],
            }
            for name in pipeline.names()
        },
    }
    return _sha(html + json.dumps(series, sort_keys=True))


CASES = {
    "star-one-barrier": lambda: _driver_case(),
    "two-barriers": lambda: _driver_case(checkpoint_at=(3.0, 6.0)),
    "kill-during-save": lambda: _driver_case(checkpoint_at=(4.0, 7.9)),
    "standby": lambda: _driver_case(standby=True),
    "controller-detector": _detector_case,
    "no-app-load": lambda: _driver_case(app_load=False),
}

PINS = {
    "controller-detector": (
        "5c9eda46625defc6f49e44747c0ff87a5e9b55dc4252c6bb81041116db592065",
        "5bee303cd95a9cbb6a7df1c53ae342cb126d920ecd3b499182f8580600777425",
        "fe9bdf7a7ed35feb8eb35e1b90e1872c7234831a0efd0ec495dd6268bce65539",
    ),
    "kill-during-save": (
        "c75d489c18a579d2e6a88d60d4105001f69e606b1dc8887193ad1a8394aa3667",
        "6bbc8d6fb2cbe21a0a60fa4af28674222febde5701269978b08bf59c06adb902",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
    "no-app-load": (
        "1ff92bfb3ee633d74c2a8eefb468160fa6ce6ab9d2c7019f1529edf93d0414c8",
        "2121a7c8e70afc68e0d3bd016d2b3fcab344c77a570d0dba54b1ce602945f91f",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
    "standby": (
        "9bcb53704cfaea51b61effce4f14ce04754eb8a220c988118e0543e83a6f6473",
        "49b0083ad171a5b2d4efc11057001bec503d93bce3532f76627671cd0a397c8f",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
    "star-one-barrier": (
        "f6d4321a6bc0c668e70c376e71adf345962809180c48e79f711280ab86e4cba4",
        "49b0083ad171a5b2d4efc11057001bec503d93bce3532f76627671cd0a397c8f",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
    "two-barriers": (
        "51b474f66a4089d37ee92fc6c95da8dc0d8e0730fd4b6ce2067febb88fec1acb",
        "9b613371b95fdea4ce39980946430c2dba07a1c251c7901cbc9dbbc83866da6b",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
}

DASHBOARD_PINS = {
    "burn": "084c4b2bfedf55d58c3788ba85275c804e5940aa5676562082a855cdd7054452",
    "detector": "d047ce27e91ec1cb5764fe51637ea55608b3bff5eb785c8c8a4e9e96f8c20e90",
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_live_run_is_pinned(key):
    assert CASES[key]() == PINS[key]


@pytest.mark.parametrize("mode", sorted(DASHBOARD_PINS))
def test_dashboard_is_pinned(mode):
    assert _dashboard_digest(mode) == DASHBOARD_PINS[mode]


if __name__ == "__main__":
    print("PINS = {")
    for key in sorted(CASES):
        print(f'    "{key}": (')
        for digest in CASES[key]():
            print(f'        "{digest}",')
        print("    ),")
    print("}")
    print("\nDASHBOARD_PINS = {")
    for mode in sorted(DASHBOARD_PINS):
        print(f'    "{mode}": "{_dashboard_digest(mode)}",')
    print("}")
