"""The SR3 state backend: wires stateful tasks to the recovery framework.

This is the integration point of Sec. 4: "SR3 interacts with the IRichBolt
interface in Storm. If SR3 is enabled, SR3 periodically saves state into
the DHT-based ring overlay for all stateful operators (bolts)." Every
protected task maps to a DHT node (Layer 1's operator-node association);
save rounds snapshot the task's store, partition it into shards, and write
replicas into the overlay; after a failure the backend recovers the
snapshot through the selected mechanism and rebuilds the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dht.node import DhtNode
from repro.errors import RecoveryError, StateError
from repro.recovery.manager import MechanismImpl, RecoveryManager
from repro.recovery.model import RecoveryResult
from repro.state.chain import partition_delta
from repro.state.partitioner import partition_snapshot
from repro.state.store import StateSnapshot, StateStore


@dataclass
class ProtectedTask:
    """One stateful task under SR3 protection."""

    task_id: str
    store: StateStore
    node: DhtNode
    num_shards: int
    num_replicas: int
    save_rounds: int = 0
    # The image the last landed save round captured — the parent every
    # incremental round diffs against, and the store image of a barrier.
    last_snapshot: Optional[StateSnapshot] = None


class SR3StateBackend:
    """Snapshot/save/recover glue between tasks and the recovery manager."""

    def __init__(self, manager: RecoveryManager, num_shards: int = 4, num_replicas: int = 2) -> None:
        if num_shards < 1 or num_replicas < 1:
            raise StateError("num_shards and num_replicas must be positive")
        self.manager = manager
        self.num_shards = num_shards
        self.num_replicas = num_replicas
        self._tasks: Dict[str, ProtectedTask] = {}

    @property
    def sim(self):
        return self.manager.ctx.sim

    def protect(self, task_id: str, store: StateStore, node: DhtNode) -> ProtectedTask:
        """Associate a task's state store with a DHT node."""
        if task_id in self._tasks:
            raise StateError(f"task {task_id!r} is already protected")
        task = ProtectedTask(
            task_id=task_id,
            store=store,
            node=node,
            num_shards=self.num_shards,
            num_replicas=self.num_replicas,
        )
        self._tasks[task_id] = task
        return task

    def protected_tasks(self) -> Dict[str, ProtectedTask]:
        return dict(self._tasks)

    # ----------------------------------------------------------------- save

    def save_task(self, task_id: str, incremental: bool = True):
        """Run one save round for a task; returns the SaveHandle.

        When ``incremental`` and a previous round has landed, only the
        keys the store dirtied since that round are shipped, as a
        :class:`~repro.state.shard.DeltaShard` round appended to the
        state's version chain. The manager falls back to a full save on
        its own when the chain needs compaction or lost replicas, so the
        full partition is always registered first.
        """
        task = self._get(task_id)
        store = task.store
        dirty = store.dirty_keys()
        deleted = store.deleted_keys()
        snapshot = store.snapshot(self.sim.now)
        # Changes after this snapshot belong to the next round.
        store.mark_clean()
        shards = partition_snapshot(snapshot, task.num_shards)
        if store.name not in self.manager.states:
            self.manager.register(task.node, shards, task.num_replicas)
        else:
            self.manager.refresh_shards(store.name, shards)
        task.save_rounds += 1

        chain = self.manager.states[store.name].plan
        parent = task.last_snapshot
        if (
            incremental
            and parent is not None
            and chain is not None
            and chain.tip_version == parent.version
        ):
            changed = {key: snapshot.get(key) for key in dirty if key in snapshot}
            deletions = [key for key in deleted if key in parent]
            delta_shards = partition_delta(
                store.name,
                changed,
                deletions,
                task.num_shards,
                version=snapshot.version,
                parent_version=parent.version,
                chain_link=chain.length,
            )
            handle = self.manager.save_delta(store.name, delta_shards)
        else:
            handle = self.manager.save(store.name)

        def landed(_result) -> None:
            task.last_snapshot = snapshot

        handle.on_done(landed)
        return handle

    def save_all(self, incremental: bool = True):
        """Save every protected task; returns the handles."""
        return [
            self.save_task(task_id, incremental=incremental)
            for task_id in sorted(self._tasks)
        ]

    # -------------------------------------------------------------- recovery

    def recover_task(
        self, task_id: str, mechanism: Optional[MechanismImpl] = None
    ) -> RecoveryResult:
        """Recover a task's last-saved state; returns the timed result.

        Runs the recovery through the manager and leaves the store alone:
        :meth:`rebuild_store` materializes it from the surviving replicas.
        """
        task = self._get(task_id)
        if task.store.name not in self.manager.states:
            raise RecoveryError(f"task {task_id!r} was never saved")
        # Worker process died but the machine survived: the state is
        # recovered back onto the same node. A dead node's state goes to
        # the node that takes over its key range.
        replacement = task.node if task.node.alive else None
        handle = self.manager.recover(task.store.name, replacement, mechanism)
        return self.manager.run([handle])[0]

    def rebuild_store(self, task_id: str) -> StateStore:
        """Materialize a protected task's store from the recovered image.

        Once a recovery of its state has landed (run by :meth:`recover_task`
        or through the manager), rebuilds the store from the surviving
        replicas, rebinds it and moves the task to the node the state was
        recovered onto. ``LocalCluster.restore`` revives a dead task with it.
        """
        task = self._get(task_id)
        task.node = self.manager.states[task.store.name].owner
        store = StateStore(task.store.name)
        store.restore(self.manager.recovered_snapshot(task.store.name))
        task.store = store
        return store

    def rollback_task(self, task_id: str, snapshot: StateSnapshot) -> StateStore:
        """Reset a *live* task's store to a checkpoint image.

        Global-rollback recovery: when one task of an operator dies, the
        surviving tasks rewind to the same consistent checkpoint barrier
        before the source replays — otherwise the replay double-counts
        on the survivors. Purely local (no network traffic): the snapshot
        is already in the worker's memory. The rolled-back image becomes
        the parent of the next incremental save round.
        """
        task = self._get(task_id)
        store = StateStore(task.store.name)
        store.restore(snapshot)
        task.store = store
        task.last_snapshot = snapshot
        return store

    def _get(self, task_id: str) -> ProtectedTask:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise StateError(f"task {task_id!r} is not protected") from None
