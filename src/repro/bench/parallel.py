"""Multiprocess sweep runner: fan independent bench/chaos cells across cores.

Both sweep surfaces of the bench CLI are embarrassingly parallel. A chaos
campaign is scenario × mechanism cells, and the scale experiment is
node-count × mechanism cells; every cell builds its own deployment from its
key and a seed alone, so a worker process reproduces it exactly. ``--jobs N``
on ``bench run`` / ``bench campaign`` routes the sweep through this module.

Determinism contract (see also DESIGN.md):

* **Cell keys.** A cell is ``(scenario, mechanism)`` for campaigns and
  ``(node_count, mechanism)`` for the scale experiment. Workers re-derive
  every random stream from the key — scenario seeds travel by value, and
  the chaos engine already seeds ``Random(f"{scenario}/{mechanism}/{seed}")``
  via SHA-512 of the string, which is process-independent.
* **Merge order.** Results and observability artifacts are merged in the
  serial sweep's submission order (cell-key order), never completion order.
  Collected tracers and metric registries are renumbered with the parent's
  collection indices on adoption, so ``--trace`` / ``--metrics-out`` /
  report artifacts come out byte-identical to the in-process sweep.
* **Spawn isolation.** Workers use the ``spawn`` start method: each is a
  fresh interpreter, so no collector state or module caches leak from the
  parent or between cells, and behaviour matches across platforms.

``--jobs 1`` (the default) never enters this module — the CLI keeps the
plain in-process loops, which the byte-identity tests compare against.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.chaos.campaign import ResilienceReport, run_scenario
from repro.chaos.scenario import SCENARIOS, campaign_scenarios
from repro.obs import registry as _registry
from repro.obs import tracer as _tracer

#: One scale cell's key + inputs: (num_nodes, mechanism, state_mb, seed).
ScaleCell = Tuple[int, str, int, int]


# ------------------------------------------------------------- worker plumbing


def _observability_flags() -> Tuple[bool, bool]:
    """The parent's collection switches, shipped to workers by value."""
    return _tracer.tracing_enabled(), _registry.metrics_collection_enabled()


def _run_cell(
    fn: Callable[[], Any], tracing: bool, metrics: bool
) -> Tuple[Any, List[Dict[str, Any]], List[Dict[str, object]]]:
    """Run one cell with observability collection scoped to it.

    Enables the collection switches the parent had on, runs the cell, and
    exports (then forgets) exactly the tracers/registries the cell
    collected — so the same code is correct in a spawn-fresh worker (where
    the collectors start empty) and when run inline in the parent.
    """
    if tracing:
        _tracer.enable_tracing(True)
    if metrics:
        _registry.enable_metrics_collection(True)
    start_tracers = len(_tracer.collected_tracers()) if tracing else 0
    start_registries = len(_registry.collected_registries()) if metrics else 0
    value = fn()
    traces: List[Dict[str, Any]] = []
    registries: List[Dict[str, object]] = []
    if tracing:
        traces = _tracer.export_collected(start_tracers)
        _tracer.drop_collected(start_tracers)
    if metrics:
        registries = _registry.export_collected_registries(start_registries)
        _registry.drop_collected_registries(start_registries)
    return value, traces, registries


def _adopt_observability(
    traces: Sequence[Dict[str, Any]], registries: Sequence[Dict[str, object]]
) -> None:
    """Adopt one cell's exported artifacts into this process's collectors."""
    for payload in traces:
        _tracer.inject_collected(payload)
    for payload in registries:
        _registry.inject_registry_dump(payload)


def _map_cells(
    worker: Callable[[tuple], Any], payloads: Sequence[tuple], jobs: int
) -> List[Any]:
    """Run every payload through ``worker``, results in submission order.

    ``jobs > 1`` fans across a spawn-context :class:`ProcessPoolExecutor`;
    ``pool.map`` already yields results in submission order regardless of
    completion order, which is what the determinism contract needs.
    """
    jobs = max(1, int(jobs))
    if jobs == 1:
        return [worker(payload) for payload in payloads]
    context = multiprocessing.get_context("spawn")
    workers = min(jobs, max(1, len(payloads)))
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(worker, payloads))


# ------------------------------------------------------------- campaign cells


def _campaign_cell_worker(payload: tuple):
    """One campaign cell, importable at top level for spawn workers."""
    scenario_name, mechanism, controller, tracing, metrics = payload

    def cell():
        return run_scenario(SCENARIOS[scenario_name], mechanism, controller=controller)

    return _run_cell(cell, tracing, metrics)


def run_campaign_parallel(campaign: str, jobs: int, controller: bool = False):
    """Sweep a chaos campaign across worker processes.

    Byte-identical to :func:`repro.chaos.run_campaign` for the same
    inputs: cells are fanned out in the serial loop's scenario × mechanism
    order and their outcomes (plus any collected observability artifacts)
    merged back in that order.
    """
    scenarios = campaign_scenarios(campaign)
    tracing, metrics = _observability_flags()
    payloads = [
        (scenario.name, mechanism, controller, tracing, metrics)
        for scenario in scenarios
        for mechanism in scenario.mechanisms
    ]
    report = ResilienceReport(campaign=campaign)
    for outcome, traces, registries in _map_cells(
        _campaign_cell_worker, payloads, jobs
    ):
        _adopt_observability(traces, registries)
        report.outcomes.append(outcome)
    return report


# ---------------------------------------------------------------- scale cells


def _scale_cell_worker(payload: tuple):
    """One scale-experiment cell, importable at top level for spawn workers."""
    num_nodes, mech_name, state_mb, seed, tracing, metrics = payload
    from repro.bench.experiments import _scale_cell

    def cell():
        return _scale_cell(num_nodes, mech_name, state_mb, seed)

    return _run_cell(cell, tracing, metrics)


def run_scale_cells(
    cells: Sequence[ScaleCell], jobs: int
) -> List[Tuple[Dict[str, object], Dict[str, float]]]:
    """Run scale cells across workers; (row, extras) pairs in sweep order."""
    tracing, metrics = _observability_flags()
    payloads = [tuple(cell) + (tracing, metrics) for cell in cells]
    results = []
    for value, traces, registries in _map_cells(_scale_cell_worker, payloads, jobs):
        _adopt_observability(traces, registries)
        results.append(value)
    return results


__all__ = [
    "run_campaign_parallel",
    "run_scale_cells",
]
