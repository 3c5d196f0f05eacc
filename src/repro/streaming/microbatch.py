"""A synchronous micro-batch engine (the Spark-Streaming execution model).

Sec. 3.1 names the execution models SR3 must serve: Storm's asynchronous
record-at-a-time dataflow (``repro.streaming.cluster``) and the
"synchronous mini-batch processing" of Spark Streaming. This module is the
latter: a source is chopped into fixed-size batches; each batch flows
through a chain of deterministic transformations; ``update_state_by_key``
(Spark's ``mapWithState``, the paper's flagship stateful operator) folds
every batch into a keyed :class:`~repro.state.store.StateStore`.

Because the transformations are deterministic and batches are numbered,
the engine also exposes DStream-style *lineage recomputation*: the state
at batch ``k`` can be rebuilt by replaying batches ``0..k`` — which is
exactly what the lineage-recovery baseline models, and what SR3's shard
recovery avoids.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import StreamRuntimeError
from repro.state.store import StateStore


class Transformation:
    """One deterministic per-batch operator in the chain."""

    def apply(self, batch: List[Any], engine: "MicroBatchEngine") -> List[Any]:
        raise NotImplementedError


class _Map(Transformation):
    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def apply(self, batch, engine):
        return [self.fn(item) for item in batch]


class _FlatMap(Transformation):
    def __init__(self, fn: Callable[[Any], Iterable[Any]]) -> None:
        self.fn = fn

    def apply(self, batch, engine):
        out: List[Any] = []
        for item in batch:
            out.extend(self.fn(item))
        return out


def _unpack(item) -> Tuple[Any, Any]:
    if not isinstance(item, tuple) or len(item) != 2:
        raise StreamRuntimeError(
            f"update_state_by_key expects (key, value) pairs, got {item!r}"
        )
    return item


class _UpdateStateByKey(Transformation):
    """Spark's ``mapWithState``: fold batch values into persistent state."""

    def __init__(self, state_name: str, fn: Callable[[Any, List[Any]], Any]) -> None:
        self.state_name = state_name
        self.fn = fn

    def apply(self, batch, engine):
        store = engine.state_store(self.state_name)
        grouped: Dict[Any, List[Any]] = {}
        for item in batch:
            key, value = _unpack(item)
            grouped.setdefault(key, []).append(value)
        out = []
        for key, values in grouped.items():
            new_value = self.fn(store.get(key), values)
            store.put(key, new_value)
            out.append((key, new_value))
        return out


class DStream:
    """A transformation chain endpoint (builder-style)."""

    def __init__(self, job: "MicroBatchJob", chain: Tuple[Transformation, ...]) -> None:
        self._job = job
        self._chain = chain

    def _extend(self, transformation: Transformation) -> "DStream":
        stream = DStream(self._job, self._chain + (transformation,))
        self._job._register(stream)
        return stream

    def map(self, fn: Callable[[Any], Any]) -> "DStream":
        return self._extend(_Map(fn))

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "DStream":
        return self._extend(_FlatMap(fn))

    def update_state_by_key(
        self, state_name: str, fn: Callable[[Any, List[Any]], Any]
    ) -> "DStream":
        """Stateful fold across batches; state lives in ``state_name``."""
        self._job._declare_state(state_name)
        return self._extend(_UpdateStateByKey(state_name, fn))

    @property
    def chain(self) -> Tuple[Transformation, ...]:
        return self._chain


class MicroBatchJob:
    """The declared computation: a source plus transformation chains."""

    def __init__(self, name: str, batch_size: int) -> None:
        if batch_size < 1:
            raise StreamRuntimeError("batch_size must be positive")
        self.name = name
        self.batch_size = batch_size
        self._records: Optional[List[Any]] = None
        self._streams: List[DStream] = []
        self._state_names: List[str] = []

    def source(self, records: Iterable[Any]) -> DStream:
        """Declare the input; records are materialized for replayability
        (Spark keeps batch inputs reliable for lineage recomputation)."""
        if self._records is not None:
            raise StreamRuntimeError("a job has exactly one source")
        self._records = list(records)
        root = DStream(self, ())
        self._streams.append(root)
        return root

    def _register(self, stream: DStream) -> None:
        self._streams.append(stream)

    def _declare_state(self, name: str) -> None:
        if name in self._state_names:
            raise StreamRuntimeError(f"duplicate state name {name!r}")
        self._state_names.append(name)

    @property
    def records(self) -> List[Any]:
        if self._records is None:
            raise StreamRuntimeError("job has no source")
        return self._records

    def num_batches(self) -> int:
        return -(-len(self.records) // self.batch_size)

    def batch(self, index: int) -> List[Any]:
        if not 0 <= index < self.num_batches():
            raise StreamRuntimeError(f"batch index {index} out of range")
        start = index * self.batch_size
        return self.records[start : start + self.batch_size]

    def sink(self) -> DStream:
        """The longest declared chain (the job's output stream)."""
        if not self._streams:
            raise StreamRuntimeError("job has no source")
        return max(self._streams, key=lambda s: len(s.chain))


class MicroBatchEngine:
    """Runs a job batch-by-batch and owns its keyed state stores."""

    def __init__(self, job: MicroBatchJob) -> None:
        self.job = job
        self._stores: Dict[str, StateStore] = {}
        self.batches_processed = 0
        self.outputs: List[List[Any]] = []

    def state_store(self, name: str) -> StateStore:
        if name not in self._stores:
            if name not in self.job._state_names:
                raise StreamRuntimeError(f"unknown state {name!r}")
            self._stores[name] = StateStore(f"{self.job.name}/{name}")
        return self._stores[name]

    def attach_state(self, name: str, store: StateStore) -> None:
        """Bind a recovered store (the SR3 recovery path)."""
        if name not in self.job._state_names:
            raise StreamRuntimeError(f"unknown state {name!r}")
        self._stores[name] = store

    def run_batch(self) -> List[Any]:
        """Process the next pending batch synchronously."""
        if self.batches_processed >= self.job.num_batches():
            raise StreamRuntimeError("all batches already processed")
        batch = self.job.batch(self.batches_processed)
        for transformation in self.job.sink().chain:
            batch = transformation.apply(batch, self)
        self.batches_processed += 1
        self.outputs.append(batch)
        return batch

    def run(self, max_batches: Optional[int] = None) -> int:
        """Process pending batches; returns how many ran."""
        ran = 0
        while self.batches_processed < self.job.num_batches():
            if max_batches is not None and ran >= max_batches:
                break
            self.run_batch()
            ran += 1
        return ran

    def recompute_from_lineage(self) -> "MicroBatchEngine":
        """DStream lineage recovery: rebuild state by replaying batches.

        Returns a fresh engine whose stores were reconstructed by
        re-running every batch this engine has processed. This is the slow
        path SR3 replaces — cost grows with the lineage length — but it is
        exact.
        """
        replica = MicroBatchEngine(self.job)
        for _ in range(self.batches_processed):
            replica.run_batch()
        return replica
