"""The five benchmark workloads, built from the packages' public names only.

A workload object is made once per run: its constructor generates the
inputs from the seed (that cost is what ``setup_s`` measures, together with
the imports above). ``cell(lap)`` is the timed region and returns whatever
``verify()`` needs; ``verify()`` runs outside the timed region and turns it
into an `Outcome`, including every correctness check.

``lap()`` marks the end of a phase of the cell. The phases change nothing
the cell computes; they let the harness time the same slice of every cell
and keep the fastest, because on this shared 2-vCPU box whole seconds run a
third slower whenever a neighbour is busy (see README.md, "Steadiness").

Sizes: ``smoke=True`` shrinks each workload for the smoke test; the
benchmark itself always runs the full size.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List

from repro.chaos import campaign_scenarios, run_campaign
from repro.dht import Overlay
from repro.live import FlashCrowd, LoadDriver, build_live_cell
from repro.recovery import (
    RecoveryContext,
    RecoveryManager,
    StarRecovery,
    TreeRecovery,
)
from repro.recovery.model import run_handles
from repro.sim import Network, Simulator
from repro.state import HashPlacement, StateVersion, partition_synthetic
from repro.streaming import LocalCluster, SR3StateBackend
from repro.util.sizes import MB, mbit_per_s
from repro.workloads import SentenceGenerator, build_wordcount_topology

Lap = Callable[[], None]


@dataclass
class Outcome:
    """What one cell did, after checking it."""

    ops: int  # operations attempted (cells; chaos: scenario x mechanism cells)
    failed: int  # operations that failed, raised, or broke a check
    work: int  # units behind work_per_s, fixed by the input
    # Exact simulated values: must repeat in every cell of a run.
    sim: Dict[str, Any] = field(default_factory=dict)
    # Values that BENCH_sr3.json gates, under its key names.
    gated: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def _word_counts(cluster: LocalCluster) -> Counter:
    """The application's answer: every count task's store, merged."""
    totals: Counter = Counter()
    for bolt in cluster.stateful_tasks().values():
        totals.update(dict(bolt.state.items()))
    return totals


def _run_in_slices(sim: Simulator, lap: Lap, slices: int, step: float) -> None:
    """Drain the simulator, with a lap after every ``step`` simulated seconds."""
    start = sim.now
    for i in range(1, slices + 1):
        sim.run(until=start + i * step)
        lap()
    sim.run_until_idle()


def _survivable_wave(manager: RecoveryManager, owners: List[Any]) -> List[Any]:
    """``(app index, owner)`` for every owner the failure wave takes out.

    The wave is every owner at one instant. With replication 3 on a 5,000
    node ring, about three seeds in ten would then lose all copies of some
    shard (seed 0, the gated cell, loses none); wherever that would happen
    the first holder of the shard is spared, so no recovery can fail.
    """
    doomed = {owner.node_id for owner in owners}
    for registered in manager.states.values():
        holders: Dict[int, List[Any]] = {}
        for placed in registered.plan.placements:
            holders.setdefault(placed.replica.shard.index, []).append(placed.node.node_id)
        for shard_holders in holders.values():
            if doomed.issuperset(shard_holders):
                doomed.discard(shard_holders[0])
    return [(i, owner) for i, owner in enumerate(owners) if owner.node_id in doomed]


def _store_bytes(cluster: LocalCluster) -> int:
    return sum(bolt.state.size_bytes for bolt in cluster.stateful_tasks().values())


class ScaleCell:
    """Paper-scale recovery: build a ring, save, fail every owner, recover."""

    work_unit = "states recovered"

    def __init__(self, mechanism: Callable[[], Any], gated_key: str,
                 seed: int, smoke: bool = False) -> None:
        self.mechanism = mechanism
        self.gated_key = gated_key
        self.seed = seed
        self.nodes = 256 if smoke else 5000
        self.apps = max(4, self.nodes // 16)

    def cell(self, lap: Lap) -> Dict[str, Any]:
        sim = Simulator()
        network = Network(sim)
        bandwidth = mbit_per_s(1000.0)

        def add_host(name: str) -> Any:
            if len(network.hosts) % 1000 == 999:
                lap()
            return network.add_host(name, up_bw=bandwidth, down_bw=bandwidth)

        overlay = Overlay(sim, network, leaf_set_size=24, rng=random.Random(self.seed))
        overlay.build(self.nodes, host_factory=add_host)
        lap()
        ctx = RecoveryContext(sim, network, overlay)
        manager = RecoveryManager(ctx, placement=HashPlacement())
        owners = overlay.nodes[: self.apps]
        for i, owner in enumerate(owners):
            shards = partition_synthetic(
                f"app-{i}/state", 16 * MB, 4, StateVersion(0.0, 1)
            )
            manager.register(owner, shards, 3)
        saves = manager.save_all()
        lap()
        _run_in_slices(sim, lap, slices=12, step=0.5)
        saved_at = sim.now
        wave = _survivable_wave(manager, owners)
        for i, owner in wave:
            overlay.fail_node(owner)
            if i % 40 == 39:
                lap()
        lap()
        mechanism = self.mechanism()
        handles = [
            mechanism.start(
                ctx,
                manager.states[f"app-{i}/state"].plan,
                overlay.replacement_for(owner),
                f"app-{i}/state",
            )
            for i, owner in wave
        ]
        lap()
        _run_in_slices(sim, lap, slices=90, step=0.05)
        results = run_handles(sim, handles)
        return {"saves": saves, "saved_at": saved_at, "results": results}

    def verify(self, raw: Dict[str, Any]) -> Outcome:
        errors = [
            f"save of {handle.state_name} never completed"
            for handle in raw["saves"]
            if not handle.done
        ]
        makespan = max(r.finished_at for r in raw["results"]) - raw["saved_at"]
        return Outcome(
            ops=1,
            failed=1 if errors else 0,
            work=len(raw["results"]),
            sim={
                "makespan_s": makespan,
                "save_s": max((h.result.finished_at for h in raw["saves"] if h.done), default=0.0),
                "recovered": len(raw["results"]),
            },
            gated={self.gated_key: makespan},
            errors=errors,
        )


class LiveFlash:
    """Flash crowd against word count, with a mid-stream owner kill."""

    work_unit = "tuples executed"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        scale = 0.1 if smoke else 1.0
        self.rate = FlashCrowd(
            base=300.0 * scale, peak=1500.0 * scale,
            at=8.0, ramp=2.0, hold=10.0, decay=5.0,
        )
        self.service_rate = 3000.0 * scale
        self.duration = 30.0
        # The arrivals the curve offers, tick by tick as the driver sums them.
        ticks = [i / 10.0 for i in range(int(self.duration * 10) + 1)]
        offered = sum(self.rate.events_between(a, b) for a, b in zip(ticks, ticks[1:]))
        # The same stream build_live_cell hands the driver (its seed + 1).
        self.sentences = list(
            SentenceGenerator(int(offered) + 1, vocabulary_size=2_000, zipf_s=1.1,
                              seed=seed + 1)
        )
        self._expected: Dict[int, Counter] = {}

    def cell(self, lap: Lap) -> Dict[str, Any]:
        cell = build_live_cell(num_nodes=16, seed=self.seed, link_mbit=200.0)
        driver = LoadDriver(
            cell,
            self.rate,
            duration=self.duration,
            service_rate=self.service_rate,
            checkpoint_at=(5.0,),
            kill_at=10.0,
            mechanism=StarRecovery(fanout_bits=2),
            bulk_state_mb=32.0,
            app_load=True,
        )
        # The driver owns the event loop, so the laps ride on it as events.
        for quarter_second in range(1, int(self.duration * 4)):
            cell.sim.schedule_at(quarter_second / 4, lap)
        return {"cell": cell, "report": driver.run()}

    def verify(self, raw: Dict[str, Any]) -> Outcome:
        report = raw["report"]
        cluster = raw["cell"].cluster
        errors = []
        if report.recovery_s is None or report.drain_s is None:
            errors.append("the run never recovered or never drained")
        served = report.served
        if served > len(self.sentences):
            errors.append(f"served {served} sentences, generated {len(self.sentences)}")
        if served not in self._expected:
            self._expected[served] = Counter(
                word for s in self.sentences[:served] for word in s.split()
            )
        if _word_counts(cluster) != self._expected[served]:
            errors.append("word counts at drain differ from an exactly-once count")
        recovery_s = round(report.recovery_s or 0.0, 6)
        drain_s = round(report.drain_s or 0.0, 6)
        lag_peak = float(report.replay_lag_peak)
        return Outcome(
            ops=1,
            failed=1 if errors else 0,
            work=sum(cluster.executed_counts.values()),
            sim={
                "recovery_s": report.recovery_s,
                "drain_s": report.drain_s,
                "replay_lag_peak": lag_peak,
                "served": served,
                "replayed": report.replayed,
                "store_bytes": _store_bytes(cluster),
            },
            gated={
                "live/star/recovery_s": recovery_s,
                "live/star/drain_s": drain_s,
                "live/star/replay_lag_peak": lag_peak,
            },
            errors=errors,
        )


class StreamCkpt:
    """Pull-path word count with a save round every 100 sentences."""

    work_unit = "tuples executed"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.num_sentences = 2_000 if smoke else 20_000
        self.lap_sentences = 100 if smoke else 500  # whole save rounds per lap
        sentences = SentenceGenerator(self.num_sentences, seed=seed)
        self.expected = Counter(word for s in sentences for word in s.split())

    def cell(self, lap: Lap) -> Dict[str, Any]:
        sim = Simulator()
        network = Network(sim)
        overlay = Overlay(sim, network, rng=random.Random(self.seed))
        overlay.build(32)
        manager = RecoveryManager(RecoveryContext(sim, network, overlay))
        backend = SR3StateBackend(manager, num_shards=4, num_replicas=2)
        topology = build_wordcount_topology(
            num_sentences=self.num_sentences, seed=self.seed, count_parallelism=4
        )
        cluster = LocalCluster(topology, backend=backend, capture_outputs=False)
        cluster.protect_stateful_tasks()
        emitted = 0
        for _lap in range(self.num_sentences // self.lap_sentences):  # one stream, in laps
            emitted += cluster.run(max_emissions=self.lap_sentences, checkpoint_every=100)
            lap()
        before = cluster.state_checksums()
        killed_at = sim.now
        cluster.kill_task("count", 0)
        cluster.recover_task("count", 0)
        return {
            "cluster": cluster,
            "emitted": emitted,
            "before": before,
            "after": cluster.state_checksums(),
            "rounds": backend.protected_tasks()["count[0]"].save_rounds,
            "recovery_s": sim.now - killed_at,
            "sim_end": sim.now,
        }

    def verify(self, raw: Dict[str, Any]) -> Outcome:
        cluster = raw["cluster"]
        errors = []
        if raw["emitted"] != self.num_sentences:
            errors.append(f"spout emitted {raw['emitted']} of {self.num_sentences}")
        if raw["before"] != raw["after"]:
            errors.append("recovered store differs from the store before the kill")
        if _word_counts(cluster) != self.expected:
            errors.append("word counts differ from a count over the generated sentences")
        return Outcome(
            ops=1,
            failed=1 if errors else 0,
            work=sum(cluster.executed_counts.values()),
            sim={
                "makespan_s": raw["recovery_s"],
                "save_s": raw["sim_end"] - raw["recovery_s"],
                "save_rounds": raw["rounds"],
                "store_bytes": _store_bytes(cluster),
                "checksums": raw["after"],
            },
            errors=errors,
        )


class ChaosSweep:
    """The ``full`` chaos campaign under eight consecutive seeds.

    Two kinds of cell are left out because they fail on some seeds for
    reasons that are not performance: the ``churn`` scenario can lose every
    replica of a shard (seeds 3, 31, 74, ...), and ``crash-wave`` under the
    ``checkpointing`` baseline raises ``NetworkError`` (seeds 34, 52, ...).
    The remaining 7 scenarios x 4 mechanisms ran clean on seeds 0-1500.
    """

    work_unit = "chaos cells"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        base = [
            replace(s, mechanisms=tuple(m for m in s.mechanisms if m != "checkpointing"))
            for s in campaign_scenarios("full")
            if s.name != "churn"
        ]
        self.scenarios = [
            scenario.with_seed(s)
            for s in range(seed, seed + (1 if smoke else 8))
            for scenario in base
        ]

    def cell(self, lap: Lap) -> List[Any]:
        reports = []
        for scenario in self.scenarios:  # one lap per scenario: four mechanism cells
            reports.append(run_campaign("full", scenarios=[scenario]))
            lap()
        return reports

    def verify(self, raw: List[Any]) -> Outcome:
        outcomes = [o for report in raw for o in report.outcomes]
        failed = [o for o in outcomes if o.status == "failed"]
        errors = [
            f"{o.scenario}/{o.mechanism}: {o.errors or o.hard_violations}" for o in failed
        ]
        recoveries = [o.max_recovery_s for o in outcomes]
        return Outcome(
            ops=len(outcomes),
            failed=len(failed),
            work=len(outcomes),
            sim={
                "makespan_s": max(recoveries),
                "degraded_cells": sum(o.status == "degraded" for o in outcomes),
                "failed_cells": len(failed),
                "reports": [
                    hashlib.sha256(report.to_json().encode()).hexdigest() for report in raw
                ],
            },
            errors=errors,
        )


WORKLOADS: Dict[str, Callable[..., Any]] = {
    "scale_tree": lambda seed, smoke=False: ScaleCell(
        lambda: TreeRecovery(fanout_bits=1, sub_shards=8), "scale/5000/tree", seed, smoke
    ),
    "scale_star": lambda seed, smoke=False: ScaleCell(
        lambda: StarRecovery(fanout_bits=2), "scale/5000/star", seed, smoke
    ),
    "live_flash": LiveFlash,
    "stream_ckpt": StreamCkpt,
    "chaos_sweep": ChaosSweep,
}
