"""The local topology executor.

Runs a topology deterministically in-process: each component is
instantiated once per task (its declared parallelism), spout emissions are
routed through the DAG breadth-first, and groupings choose destination
tasks exactly as Storm would. Terminal components' outputs are captured
for inspection.

Everything the topology fixes is resolved once, at build, into a route
table: component -> ``(target, grouping, parallelism, tasks, collectors,
runner)`` rows that hold the live task lists, so delivering an emission
list is one grouping call and one ``run_route`` call per row.

Failure injection: :meth:`kill_task` discards a task's live instance
(losing its in-memory state, like a crashed worker). With an
:class:`~repro.streaming.backend.SR3StateBackend` attached, a checkpoint
is a :class:`Barrier`, and :meth:`restore` brings the whole topology back
to the last one that landed.
"""

from __future__ import annotations

import copy
import hashlib
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import StreamRuntimeError, TopologyError
from repro.obs.tracer import NULL_TRACER
from repro.state.store import StateSnapshot, StateStore
from repro.streaming.backend import SR3StateBackend
from repro.streaming.component import DiscardCollector, OutputCollector, Spout, TaskContext
from repro.streaming.groupings import ShuffleGrouping
from repro.streaming.stateful import StatefulBolt
from repro.streaming.topology import Topology
from repro.streaming.tuples import StreamTuple

TaskKey = Tuple[str, int]


@dataclass
class Barrier:
    """A consistent cut: source offsets and shuffle positions as a checkpoint
    begins; once its ``left`` save handles land, ``images`` (task id -> the
    ``last_snapshot`` its round left) and a call to ``on_landed``."""

    pulled: Dict[TaskKey, int]  # next_tuple calls per spout task
    injected: Dict[str, int]  # inject calls per source
    positions: List[Tuple[ShuffleGrouping, int]]
    on_landed: Optional[Callable[[], None]] = None
    left: int = field(init=False, default=0)
    images: Dict[str, StateSnapshot] = field(init=False, default_factory=dict)


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
        # Source offsets: next_tuple calls per spout task, injects per source.
        self._pulled: Dict[TaskKey, int] = {}
        self._injected: Dict[str, int] = {}
        #: The last checkpoint barrier that landed, and the one in flight.
        self.barrier: Optional[Barrier] = None
        self.barrier_in_flight: Optional[Barrier] = None
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
                    self._pulled[(component_id, index)] = 0
            self._collectors[component_id] = [
                collector_cls(component_id, fields) for _ in range(spec.parallelism)
            ]
            self.executed_counts[component_id] = self._injected[component_id] = 0
        for component_id, edges in downstream.items():
            self._routes[component_id] = [
                (e.target, e.grouping, len(self._tasks[e.target]), self._tasks[e.target],
                 self._collectors[e.target], type(self._tasks[e.target][0]).run_route)
                for e in edges
            ]
        groupings = [e.grouping for edges in downstream.values() for e in edges]  # one per edge
        self._shuffles = [g for g in groupings if isinstance(g, ShuffleGrouping)]

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
        self._pulled[key] += 1
        for tuple_ in produced:
            self._route([tuple_])  # one root each: an emission's subtree before the next
        return bool(produced)

    def inject(
        self,
        source_id: str,
        values: Sequence[Any],
        timestamp: Optional[float] = None,
    ) -> None:
        """Push one synthetic emission from ``source_id`` through the DAG.

        For a client that owns the event stream (arrival times, replay
        position) instead of letting the spout pull it. Injects count as the
        source's offset: :meth:`restore` returns the count at the barrier to
        re-inject from. ``values`` must match the declared output fields.
        """
        collectors = self._collectors.get(source_id)
        if collectors is None:
            raise TopologyError(f"unknown component {source_id!r}")
        tuple_ = StreamTuple(values, collectors[0].fields, source_id, timestamp)
        self.executed_counts[source_id] += 1
        self._injected[source_id] += 1
        self._route([tuple_])

    def _route(self, root: List[StreamTuple]) -> None:
        """Push one emission list through the DAG breadth-first.

        A queued list (one collector's ``drain``) follows its ``source``'s
        routes, each grouping choosing for the whole list in one call; its
        tuples execute in order, each on every route, and each drain is queued
        as one list, so delivery is level by level, in emission order.
        """
        routes = self._routes
        sinks = self.outputs
        executed = self.executed_counts
        queue = deque((root,))
        next_list = queue.popleft
        while queue:
            tuples = next_list()
            component_id = tuples[0].source
            sink = sinks.get(component_id)
            if sink is not None:
                kept = tuples[:max(self.output_cap - len(sink), 0)]
                sink.extend(kept)
                if len(kept) < len(tuples):
                    self.dropped_outputs[component_id] += len(tuples) - len(kept)
            picks = []  # per route: (target, tasks, collectors, runner, (tuple, task index) pairs)
            for target, grouping, parallelism, tasks, collectors, run in routes[component_id]:
                executed[target] += len(tuples)
                picks.append((target, tasks, collectors, run,
                              zip(tuples, grouping.choose(tuples, parallelism))))
            if len(picks) > 1:  # tuple by tuple, each tuple over every route in turn
                picks = [(target, tasks, collectors, run, (next(pairs),))
                         for _ in tuples for target, tasks, collectors, run, pairs in picks]
            for target, tasks, collectors, run, pairs in picks:
                run(target, pairs, tasks, collectors, queue)

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

    def revive_task(self, component_id: str, index: int = 0):
        """Re-instantiate a killed task with an empty store; returns it.

        :meth:`restore` revives a protected task this way, then attaches
        the image SR3 recovered.
        """
        tasks = self._task_slots(component_id, index)
        if tasks[index] is not None:
            raise StreamRuntimeError(f"task {component_id}[{index}] is alive")
        spec = self.topology.spec(component_id)
        instance = self._new_instance(spec)
        if isinstance(instance, StatefulBolt):
            # The crash lost the in-memory hashtable.
            instance.attach_state(StateStore(f"{component_id}[{index}]/state"))
        instance.prepare(TaskContext(component_id, index, spec.parallelism))
        tasks[index] = instance
        return instance

    def recover_task(
        self, component_id: str, index: int = 0, mechanism=None
    ) -> None:
        """Re-create a killed task; a protected one through SR3 and :meth:`restore`.

        ``mechanism`` optionally overrides the selection heuristic (e.g. a
        :class:`~repro.recovery.speculation.SpeculativeStarRecovery`).
        Without a backend (or for an unprotected task) the task restarts
        empty — the "simply start a new operator instance" of stateless
        recovery (Sec. 3.1). A protected task needs a landed barrier the
        spouts can rewind to, checked before SR3 recovers anything; the next
        :meth:`run` replays what the spouts emitted since.
        """
        task_id = f"{component_id}[{index}]"
        if self.backend is None or task_id not in self.backend.protected_tasks():
            self.revive_task(component_id, index)
            return
        if self._task_slots(component_id, index)[index] is not None:
            raise StreamRuntimeError(f"task {task_id} is alive")
        self._restorable()
        span = self._tracer.start(
            f"streaming/recover_task {task_id}", category="streaming.recovery", task=task_id
        )
        self.backend.recover_task(task_id, mechanism=mechanism)
        span.finish()
        self.backend.sim.metrics.counter("streaming.tasks_recovered").add(1)
        self.restore(component_id, index)

    def restore(self, component_id: str, index: int = 0) -> Dict[str, int]:
        """Bring the topology back to the last landed :attr:`barrier`.

        The dead protected task, whose SR3 recovery has landed, restarts
        from the recovered image; every surviving stateful task rolls back
        to the barrier's image, every shuffle grouping to its position, and
        every spout that moved past it is re-prepared and skips to its
        offset. Returns the ``inject`` count per source at the barrier:
        where an inject-driven client resumes.
        """
        barrier = self._restorable()
        dead = f"{component_id}[{index}]"
        store = self.backend.rebuild_store(dead)
        self.revive_task(component_id, index).attach_state(store)
        for (cid, i), bolt in sorted(self.stateful_tasks().items()):
            task_id = f"{cid}[{i}]"
            if task_id != dead:
                bolt.attach_state(self.backend.rollback_task(task_id, barrier.images[task_id]))
        for grouping, position in barrier.positions:
            grouping.position = position
        for key, offset in sorted(barrier.pulled.items()):
            if self._pulled[key] != offset:
                self._rewind(key, offset)
        self._injected = dict(barrier.injected)
        return dict(barrier.injected)

    def _restorable(self) -> Barrier:
        """The landed barrier; raises, before anything is recovered or rolled
        back, if there is none or a spout past its offset cannot rewind."""
        barrier = self.barrier
        if barrier is None:
            raise StreamRuntimeError("no checkpoint barrier has landed to restore to")
        for (cid, i), offset in sorted(barrier.pulled.items()):
            if self._pulled[(cid, i)] != offset and not self._tasks[cid][i].rewindable:
                raise StreamRuntimeError(f"{cid}[{i}] cannot rewind a one-shot iterator")
        return barrier

    def _rewind(self, key: TaskKey, offset: int) -> None:
        """Re-read one spout from the start, skipping its first ``offset`` calls."""
        component_id, index = key
        spout = self._tasks[component_id][index]
        spout.prepare(TaskContext(component_id, index, len(self._tasks[component_id])))
        collector = self._collectors[component_id][index]
        alive = True
        for _ in range(offset):
            alive = alive and spout.next_tuple(collector)
            collector.drain()
        self._spout_done[key] = not alive
        self._pulled[key] = offset

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

    def begin_checkpoint(
        self, incremental: bool = True, on_landed: Optional[Callable[[], None]] = None
    ) -> list:
        """Start a save round per protected task and a :class:`Barrier`; returns the handles.

        The caller runs the simulation. The barrier becomes :attr:`barrier`
        when every save joined to it lands. ``incremental`` lets rounds
        after the first ship only dirtied keys as delta shards.
        """
        if self.backend is None:
            raise StreamRuntimeError("no SR3 backend attached to this cluster")
        handles = self.backend.save_all(incremental=incremental)
        positions = [(grouping, grouping.position) for grouping in self._shuffles]
        self.barrier_in_flight = Barrier(
            dict(self._pulled), dict(self._injected), positions, on_landed
        )
        for handle in handles:
            self.join_checkpoint(handle)
        return handles

    def join_checkpoint(self, handle) -> None:
        """Hold the barrier in flight until ``handle`` (another save) lands too."""
        barrier = self.barrier_in_flight
        barrier.left += 1
        handle.on_done(lambda _result: self._save_landed(barrier))

    def _save_landed(self, barrier: Barrier) -> None:
        barrier.left -= 1
        if barrier.left == 0 and self.barrier_in_flight is barrier:
            tasks = self.backend.protected_tasks()
            barrier.images = {tid: task.last_snapshot for tid, task in tasks.items()}
            self.barrier, self.barrier_in_flight = barrier, None
            if barrier.on_landed is not None:
                barrier.on_landed()

    def checkpoint(self, incremental: bool = True) -> None:
        """:meth:`begin_checkpoint`, then run the simulation until it lands."""
        span = self._tracer.start("streaming/checkpoint", category="streaming.save")
        handles = self.begin_checkpoint(incremental)
        self.backend.sim.run_until_idle()
        span.finish(states=len(handles))
        self.backend.sim.metrics.counter("streaming.checkpoints").add(1)
        for handle in handles:
            handle.result  # a failed or unfinished round raises here
