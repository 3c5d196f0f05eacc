"""The local topology executor.

Runs a topology deterministically in-process: each component is
instantiated once per task (its declared parallelism), spout emissions are
routed through the DAG breadth-first, and groupings choose destination
tasks exactly as Storm would. Terminal components' outputs are captured
for inspection.

Everything the topology fixes is resolved once, at build, into a route
table: component -> ``(target, grouping, parallelism, tasks, collectors)``
rows that hold the live task lists, so delivering a tuple is one loop.

Failure injection for integration tests: :meth:`kill_task` discards a
task's live instance (losing its in-memory state, like a crashed worker);
with an :class:`~repro.streaming.backend.SR3StateBackend` attached, the
cluster recovers the lost store through SR3 and resumes processing.
"""

from __future__ import annotations

import copy
import hashlib
from collections import Counter, deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import StreamRuntimeError, TopologyError
from repro.obs.tracer import NULL_TRACER
from repro.state.store import StateStore
from repro.streaming.backend import SR3StateBackend
from repro.streaming.component import DiscardCollector, OutputCollector, Spout, TaskContext
from repro.streaming.stateful import StatefulBolt
from repro.streaming.topology import Topology
from repro.streaming.tuples import StreamTuple

TaskKey = Tuple[str, int]


class LocalCluster:
    """Deterministic single-process topology runtime."""

    #: Tuples a captured ``outputs`` list keeps; later ones are dropped.
    output_cap = 100_000

    def __init__(
        self,
        topology: Topology,
        backend: Optional[SR3StateBackend] = None,
        capture_outputs: bool = True,
    ) -> None:
        self.topology = topology
        self.backend = backend
        self.capture_outputs = capture_outputs
        # Per component, one slot per task; a killed task's slot is None.
        self._tasks: Dict[str, List[Any]] = {}
        self._collectors: Dict[str, List[OutputCollector]] = {}
        self._spout_done: Dict[TaskKey, bool] = {}
        self.outputs: Dict[str, List[StreamTuple]] = {}
        #: Per captured component, the terminal tuples ``output_cap`` turned away.
        self.dropped_outputs: Dict[str, int] = Counter()
        self.executed_counts: Dict[str, int] = {}
        self._routes: Dict[str, List[tuple]] = {}
        self._instantiate()

    # ----------------------------------------------------------------- setup

    def _instantiate(self) -> None:
        topology = self.topology
        downstream = {cid: topology.downstream_of(cid) for cid in topology.component_ids()}
        for component_id, edges in downstream.items():
            spec = topology.spec(component_id)
            fields = tuple(spec.component.declare_output_fields())
            collector_cls = OutputCollector
            if not edges and self.capture_outputs:
                self.outputs[component_id] = []
            elif not edges and component_id in topology.bolts:
                collector_cls = DiscardCollector  # a terminal bolt nobody listens to
            tasks = self._tasks[component_id] = []
            for index in range(spec.parallelism):
                instance = self._new_instance(spec)
                instance.prepare(TaskContext(component_id, index, spec.parallelism))
                tasks.append(instance)
                if isinstance(instance, Spout):
                    self._spout_done[(component_id, index)] = False
            self._collectors[component_id] = [
                collector_cls(component_id, fields) for _ in range(spec.parallelism)
            ]
            self.executed_counts[component_id] = 0
        for component_id, edges in downstream.items():
            self._routes[component_id] = [
                (e.target, e.grouping, len(self._tasks[e.target]),
                 self._tasks[e.target], self._collectors[e.target])
                for e in edges
            ]

    @staticmethod
    def _new_instance(spec):
        """A single-task component runs as the declared instance; parallel
        components need independent (deep-copied) tasks."""
        return spec.component if spec.parallelism == 1 else copy.deepcopy(spec.component)

    @property
    def _tracer(self):
        """The backend simulation's tracer, or a no-op without a backend."""
        return self.backend.sim.tracer if self.backend is not None else NULL_TRACER

    def task(self, component_id: str, index: int = 0):
        """The live instance of one task (for state inspection in tests)."""
        return self._task_slots(component_id, index)[index]

    def _task_slots(self, component_id: str, index: int) -> List[Any]:
        """The task list of ``component_id``, once ``index`` is known to be in it."""
        tasks = self._tasks.get(component_id)
        if tasks is None or not 0 <= index < len(tasks):
            raise TopologyError(f"unknown task {component_id}[{index}]")
        return tasks

    def stateful_tasks(self) -> Dict[TaskKey, StatefulBolt]:
        return {
            (component_id, index): inst
            for component_id, tasks in self._tasks.items()
            for index, inst in enumerate(tasks)
            if isinstance(inst, StatefulBolt)
        }

    def state_checksums(self) -> Dict[str, str]:
        """Content digest of every stateful task's live store.

        Ground truth for chaos probes: capture before a failure, compare
        after recovery — equal digests mean the recovered stores hold
        byte-identical key/value contents.
        """
        digests: Dict[str, str] = {}
        for (component_id, index), bolt in sorted(self.stateful_tasks().items()):
            hasher = hashlib.sha256()
            for key in sorted(bolt.state.keys()):
                hasher.update(repr(key).encode())
                hasher.update(b"=")
                hasher.update(repr(bolt.state.get(key)).encode())
                hasher.update(b";")
            digests[f"{component_id}[{index}]"] = hasher.hexdigest()
        return digests

    # ------------------------------------------------------------- execution

    def run(
        self,
        max_emissions: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
    ) -> int:
        """Pump spouts round-robin until exhausted (or the emission cap).

        ``checkpoint_every`` enables SR3's periodic state saving
        ("SR3 periodically saves state into the DHT-based ring overlay for
        all stateful operators", Sec. 4): every that-many producing spout
        invocations, all protected task states are saved into the overlay.
        Returns the number of spout invocations that produced tuples.
        """
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise StreamRuntimeError("checkpoint_every must be positive")
            if self.backend is None:
                raise StreamRuntimeError(
                    "periodic checkpointing needs an SR3 backend"
                )
        emissions = 0
        spout_keys = sorted(self._spout_done)
        while True:
            if max_emissions is not None and emissions >= max_emissions:
                break
            active = [k for k in spout_keys if not self._spout_done[k]]
            if not active:
                break
            for key in active:
                if max_emissions is not None and emissions >= max_emissions:
                    break
                if self._pump_spout(key):
                    emissions += 1
                    if checkpoint_every is not None and emissions % checkpoint_every == 0:
                        self.checkpoint()
        return emissions

    def _pump_spout(self, key: TaskKey) -> bool:
        component_id, index = key
        collector = self._collectors[component_id][index]
        alive = self._tasks[component_id][index].next_tuple(collector)
        if not alive:
            self._spout_done[key] = True
        produced = collector.drain()
        self.executed_counts[component_id] += 1
        for tuple_ in produced:
            self._route(tuple_)
        return bool(produced)

    def inject(
        self,
        source_id: str,
        values: Sequence[Any],
        timestamp: Optional[float] = None,
    ) -> None:
        """Push one synthetic emission from ``source_id`` through the DAG.

        The live-traffic driver's entry point: it owns the event stream
        (arrival times, replay position) and feeds records one at a time
        instead of letting the spout pull them, so a post-failure source
        rewind is just re-injecting the same records. ``values`` must
        match the component's declared output fields.
        """
        collectors = self._collectors.get(source_id)
        if collectors is None:
            raise TopologyError(f"unknown component {source_id!r}")
        tuple_ = StreamTuple(values, collectors[0].fields, source_id, timestamp)
        self.executed_counts[source_id] += 1
        self._route(tuple_)

    def _route(self, root_tuple: StreamTuple) -> None:
        """Push one emission through the DAG breadth-first.

        A queued tuple follows the routes of its ``source``; emissions join
        the queue in the order they were made, so delivery (and each
        captured ``outputs`` list) is level by level from the root.
        """
        routes = self._routes
        sinks = self.outputs
        executed = self.executed_counts
        queue = deque((root_tuple,))
        next_tuple = queue.popleft
        while queue:
            tuple_ = next_tuple()
            component_id = tuple_.source
            sink = sinks.get(component_id)
            if sink is not None:
                if len(sink) < self.output_cap:
                    sink.append(tuple_)
                else:
                    self.dropped_outputs[component_id] += 1
            for target, grouping, parallelism, tasks, collectors in routes[component_id]:
                for index in grouping.choose(tuple_, parallelism):
                    bolt = tasks[index]
                    if bolt is None:
                        raise StreamRuntimeError(
                            f"tuple routed to dead task {target}[{index}]; recover it first"
                        )
                    collector = collectors[index]
                    bolt.execute(tuple_, collector)
                    executed[target] += 1
                    if collector.pending:
                        queue.extend(collector.drain())

    # ------------------------------------------------------ failure handling

    def kill_task(self, component_id: str, index: int = 0) -> None:
        """Crash one task: its instance and in-memory state are lost."""
        self._task_slots(component_id, index)[index] = None
        self._tracer.instant(
            f"task killed {component_id}[{index}]",
            category="streaming.failure",
            task=f"{component_id}[{index}]",
        )
        if self.backend is not None:
            self.backend.sim.metrics.counter("streaming.tasks_killed").add(1)

    def revive_task(self, component_id: str, index: int = 0, store=None):
        """Re-instantiate a killed task without driving a recovery.

        The replacement instance restarts from an empty state store — or
        from ``store`` when the caller already rebuilt one (the live
        driver recovers asynchronously through the manager, rebuilds the
        store from the landed snapshot, and only then revives). Returns
        the new instance.
        """
        tasks = self._task_slots(component_id, index)
        if tasks[index] is not None:
            raise StreamRuntimeError(f"task {component_id}[{index}] is alive")
        spec = self.topology.spec(component_id)
        instance = self._new_instance(spec)
        context = TaskContext(component_id, index, spec.parallelism)
        if isinstance(instance, StatefulBolt):
            # The crash lost the in-memory hashtable: restart from an empty
            # store, then overwrite it with the restored image if any.
            instance.attach_state(StateStore(f"{component_id}[{index}]/state"))
        instance.prepare(context)
        if store is not None:
            if not isinstance(instance, StatefulBolt):
                raise StreamRuntimeError(
                    f"task {component_id}[{index}] is stateless; "
                    f"it has no store to attach"
                )
            instance.attach_state(store)
        tasks[index] = instance
        return instance

    def recover_task(
        self, component_id: str, index: int = 0, mechanism=None
    ) -> None:
        """Re-create a killed task, restoring state through SR3 if protected.

        ``mechanism`` optionally overrides the selection heuristic (e.g. a
        :class:`~repro.recovery.speculation.SpeculativeStarRecovery`).
        Without a backend (or for stateless bolts) the task restarts
        empty — exactly the "simply start a new operator instance"
        behaviour of stateless recovery (Sec. 3.1).
        """
        instance = self.revive_task(component_id, index)
        if isinstance(instance, StatefulBolt) and self.backend is not None:
            task_id = f"{component_id}[{index}]"
            if task_id in self.backend.protected_tasks():
                span = self._tracer.start(
                    f"streaming/recover_task {task_id}",
                    category="streaming.recovery",
                    task=task_id,
                )
                store, _result = self.backend.recover_task(
                    task_id, mechanism=mechanism
                )
                span.finish()
                self.backend.sim.metrics.counter("streaming.tasks_recovered").add(1)
                instance.attach_state(store)

    # ---------------------------------------------------------- SR3 plumbing

    def protect_stateful_tasks(self) -> List[str]:
        """Register every stateful task with the SR3 backend.

        Each task is associated with a distinct DHT node, mirroring
        Layer 1's operator-to-node mapping. Returns the protected ids.
        """
        if self.backend is None:
            raise StreamRuntimeError("no SR3 backend attached to this cluster")
        overlay = self.backend.manager.ctx.overlay
        protected = []
        used = []
        for (component_id, index), bolt in sorted(self.stateful_tasks().items()):
            task_id = f"{component_id}[{index}]"
            node = overlay.sample_nodes(1, exclude=used)[0]
            used.append(node)
            self.backend.protect(task_id, bolt.state, node)
            protected.append(task_id)
        return protected

    def checkpoint(self, incremental: bool = True) -> None:
        """Save all protected task states and run the sim to completion.

        ``incremental`` lets rounds after the first ship only dirtied keys
        as delta shards (pass False to force full base rewrites).
        """
        if self.backend is None:
            raise StreamRuntimeError("no SR3 backend attached to this cluster")
        span = self._tracer.start("streaming/checkpoint", category="streaming.save")
        handles = self.backend.save_all(incremental=incremental)
        self.backend.sim.run_until_idle()
        span.finish(states=len(handles))
        self.backend.sim.metrics.counter("streaming.checkpoints").add(1)
        unresolved = [h.state_name for h in handles if not h.done]
        if unresolved:
            raise StreamRuntimeError(f"saves never completed: {unresolved}")
        for handle in handles:
            handle.result  # a failed round raises its error here
