"""Pinned live runs: six ``LoadDriver`` scenarios, traced end to end.

Each case plays a small word-count cell through a kill and its
rollback/replay and hashes three things: the span dump plus the metrics
registry, the fields of the :class:`~repro.live.metrics.LiveReport` a
reader acts on, and every count task's final store. The digests were
taken while the global-rollback protocol (barrier image, survivor
rollback, source rewind) still lived inside the driver; they pin that
moving it into ``LocalCluster`` changed no span, metric, report field or
stored count. A digest that moves means live behaviour moved.

To regenerate after a deliberate behaviour change::

    PYTHONPATH=src python tests/test_live_pins.py
"""

import hashlib
import json

import pytest

from repro.bench.experiments import run_slo_cell
from repro.live import ConstantRate, LoadDriver, build_live_cell
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
            "recovery_s", "drain_s", "replay_lag_peak", "replay_lag_at_recovery",
        )
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


def _detector_case():
    outcome = run_slo_cell("detector", seed=1, duration_s=20.0, num_nodes=12)
    return _digests(outcome["cell"], outcome["report"])


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
        "41a29e198be5b7469df1a7325adf667f2202d0735651481862b779c0039df81a",
        "6e282c5edcb456ec522d3ce36fa79b3ee8e0f774129dd51ee8996577cdc3c264",
        "fe9bdf7a7ed35feb8eb35e1b90e1872c7234831a0efd0ec495dd6268bce65539",
    ),
    "kill-during-save": (
        "c75d489c18a579d2e6a88d60d4105001f69e606b1dc8887193ad1a8394aa3667",
        "e9daa8257f9a239a71b4dcfb3e24d6e7be07b3aa86a0ae864c2eb259ef780342",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
    "no-app-load": (
        "1ff92bfb3ee633d74c2a8eefb468160fa6ce6ab9d2c7019f1529edf93d0414c8",
        "4c53ad233c63d01f2e0d17d7231cf3727ffedef11d07b1553c865067c479e4a9",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
    "standby": (
        "9bcb53704cfaea51b61effce4f14ce04754eb8a220c988118e0543e83a6f6473",
        "39c7f858e7e68ec212798bf2ebd64f9bfa96a1de499690b0d7e3717265601490",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
    "star-one-barrier": (
        "f6d4321a6bc0c668e70c376e71adf345962809180c48e79f711280ab86e4cba4",
        "39c7f858e7e68ec212798bf2ebd64f9bfa96a1de499690b0d7e3717265601490",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
    "two-barriers": (
        "51b474f66a4089d37ee92fc6c95da8dc0d8e0730fd4b6ce2067febb88fec1acb",
        "05f783176b8fae8683f40e61b253b4b6b1ff15d62728fbe740dbc533c6bd3ea0",
        "8b8f5fc149a8ec5ed5341a63ad442ba47743d8c33aa08fde470b75ac8555c58c",
    ),
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_live_run_is_pinned(key):
    assert CASES[key]() == PINS[key]


if __name__ == "__main__":
    print("PINS = {")
    for key in sorted(CASES):
        print(f'    "{key}": (')
        for digest in CASES[key]():
            print(f'        "{digest}",')
        print("    ),")
    print("}")
