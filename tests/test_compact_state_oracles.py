"""The compact world state against the structures it replaced.

``ReferenceTimeSeries`` (a list of tuples), ``ReferenceResourceProfile``
(a list of ``_Interval`` objects) and ``ReferenceLeafSet`` (member lists
plus an ``_ids`` set) are the classes of the commit before the float64
arrays and the single-copy leaf-set relation, moved here verbatim apart
from their names. Random operation sequences must give ``==`` results on
both, float for float and observer call for observer call; and after
random crash / join / protocol-join / revive sequences with a second
``build`` in the middle the overlay's reverse index must equal a
brute-force scan of every leaf set.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.join import protocol_join
from repro.dht.leafset import LeafSet
from repro.dht.overlay import Overlay
from repro.obs.registry import MetricsRegistry, TimeSeries
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.resources import ResourceProfile
from repro.util.ids import ID_SPACE, NodeId

# ------------------------------------------------- the parent's structures


class ReferenceTimeSeries:
    """Append-only (time, value) series; points must arrive in time order."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._points: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        if self._points and time < self._points[-1][0]:
            raise ValueError("time series points must be appended in order")
        self._points.append((time, value))

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    def values(self) -> List[float]:
        return [v for _, v in self._points]

    def times(self) -> List[float]:
        return [t for t, _ in self._points]

    def last(self) -> Tuple[float, float]:
        if not self._points:
            raise ValueError(f"time series {self.name} is empty")
        return self._points[-1]

    def value_at(self, time: float) -> float:
        """Step-function lookup: last value at or before ``time``."""
        best = None
        for t, v in self._points:
            if t <= time:
                best = v
            else:
                break
        if best is None:
            raise ValueError(f"no point at or before t={time} in {self.name}")
        return best


@dataclass(frozen=True)
class _Interval:
    start: float
    end: float
    amount: float

    def overlaps(self, t: float) -> bool:
        return self.start <= t < self.end


class ReferenceResourceProfile:
    """Accumulates piecewise-constant CPU and memory usage for one node.

    CPU is recorded as a utilization fraction in [0, 1] over an interval;
    overlapping intervals add up (and are clamped at 1.0 when sampled, as a
    core cannot be more than fully busy). Memory is recorded in bytes over
    an interval; overlapping intervals add up on top of ``baseline_memory``.
    """

    def __init__(self, name: str, baseline_cpu: float = 0.0, baseline_memory: float = 0.0) -> None:
        if not 0.0 <= baseline_cpu <= 1.0:
            raise ValueError("baseline_cpu must be within [0, 1]")
        if baseline_memory < 0:
            raise ValueError("baseline_memory must be non-negative")
        self.name = name
        self.baseline_cpu = baseline_cpu
        self.baseline_memory = baseline_memory
        self._cpu: List[_Interval] = []
        self._memory: List[_Interval] = []

    def add_cpu(self, start: float, end: float, utilization: float) -> None:
        """Record CPU busy time: ``utilization`` of one core over [start, end)."""
        self._check_interval(start, end)
        if utilization < 0:
            raise ValueError("utilization must be non-negative")
        self._cpu.append(_Interval(start, end, utilization))

    def add_memory(self, start: float, end: float, nbytes: float) -> None:
        """Record ``nbytes`` of extra resident memory over [start, end)."""
        self._check_interval(start, end)
        if nbytes < 0:
            raise ValueError("memory must be non-negative")
        self._memory.append(_Interval(start, end, nbytes))

    @staticmethod
    def _check_interval(start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: [{start}, {end})")

    def cpu_at(self, t: float) -> float:
        """Total CPU utilization fraction at instant ``t``, clamped to 1.0."""
        total = self.baseline_cpu + sum(i.amount for i in self._cpu if i.overlaps(t))
        return min(1.0, total)

    def memory_at(self, t: float) -> float:
        """Resident memory in bytes at instant ``t``."""
        return self.baseline_memory + sum(i.amount for i in self._memory if i.overlaps(t))

    def cpu_series(self, times: Sequence[float]) -> List[float]:
        """CPU utilization sampled at each time point (fractions in [0, 1])."""
        return [self.cpu_at(t) for t in times]

    def memory_series(self, times: Sequence[float]) -> List[float]:
        """Memory in bytes sampled at each time point."""
        return [self.memory_at(t) for t in times]

    def cpu_seconds(self) -> float:
        """Integral of recorded (non-baseline) CPU usage — total core-seconds."""
        return sum(i.amount * (i.end - i.start) for i in self._cpu)

    def peak_memory(self, times: Sequence[float]) -> float:
        """Peak sampled memory over the given grid."""
        series = self.memory_series(times)
        return max(series) if series else self.baseline_memory


class ReferenceLeafSet:
    """The leaf set owned by a single DHT node."""

    def __init__(self, owner_id: NodeId, size: int = 24) -> None:
        if size < 2 or size % 2:
            raise ValueError("leaf set size must be even and >= 2")
        self.owner_id = owner_id
        self.size = size
        self._clockwise: List["DhtNode"] = []
        self._counter: List["DhtNode"] = []
        # Member id values for O(1) `contains` — the overlay's repair scan
        # asks every node whether it held the failed one.
        self._ids: set = set()
        # Observer called with (added_id_values, removed_id_values) on any
        # membership change. The overlay uses it to maintain a reverse
        # index (id -> holding nodes) so a crash repairs only the actual
        # holders instead of scanning all N nodes.
        self.on_membership_change: Optional[Callable[[Iterable[int], Iterable[int]], None]] = None

    @property
    def half(self) -> int:
        return self.size // 2

    def members(self) -> List["DhtNode"]:
        """All current members, counter-clockwise side first."""
        return list(self._counter) + list(self._clockwise)

    def clockwise(self) -> List["DhtNode"]:
        """Members clockwise of the owner, nearest first."""
        return list(self._clockwise)

    def counter_clockwise(self) -> List["DhtNode"]:
        """Members counter-clockwise of the owner, nearest first."""
        return list(self._counter)

    def rebuild(self, nodes: Iterable["DhtNode"]) -> None:
        """Recompute both halves from a pool of alive candidate nodes."""
        own = self.owner_id.value
        alive = [n for n in nodes if n.alive and n.node_id.value != own]
        by_cw = sorted(alive, key=lambda n: self.owner_id.clockwise_distance(n.node_id))
        by_ccw = sorted(alive, key=lambda n: n.node_id.clockwise_distance(self.owner_id))
        self._set_members(by_cw[: self.half], by_ccw[: self.half])

    def seed(self, clockwise: List["DhtNode"], counter: List["DhtNode"]) -> None:
        """Install both halves directly, nearest-first.

        Omniscient wiring: the overlay already walked the sorted ring, so
        the per-node distance re-sorts of :meth:`rebuild` are redundant.
        Callers guarantee the lists are what ``rebuild`` would select.
        """
        self._set_members(list(clockwise), list(counter))

    def _set_members(self, clockwise: List["DhtNode"], counter: List["DhtNode"]) -> None:
        new_ids = {n.node_id.value for n in clockwise}
        new_ids.update(n.node_id.value for n in counter)
        old_ids = self._ids
        self._clockwise = clockwise
        self._counter = counter
        self._ids = new_ids
        if self.on_membership_change is not None and new_ids != old_ids:
            self.on_membership_change(new_ids - old_ids, old_ids - new_ids)

    def remove(self, node_id: NodeId) -> bool:
        """Drop a failed member; returns True if it was present."""
        value = node_id.value
        if value not in self._ids:
            return False
        self._clockwise = [n for n in self._clockwise if n.node_id.value != value]
        self._counter = [n for n in self._counter if n.node_id.value != value]
        self._ids.discard(value)
        if self.on_membership_change is not None:
            self.on_membership_change((), (value,))
        return True

    def last_member(self) -> Optional["DhtNode"]:
        """The final entry of :meth:`members` without building the copy."""
        if self._clockwise:
            return self._clockwise[-1]
        if self._counter:
            return self._counter[-1]
        return None

    def contains(self, node_id: NodeId) -> bool:
        return node_id.value in self._ids

    def covers(self, key: NodeId) -> bool:
        """True when ``key`` falls inside the span of the leaf set.

        Pastry's routing rule: if the key is within the leaf-set range, the
        message is delivered directly to the numerically closest leaf.
        """
        if not self._clockwise or not self._counter:
            return False
        low = self._counter[-1].node_id
        high = self._clockwise[-1].node_id
        return low.clockwise_distance(key) <= low.clockwise_distance(high)

    def closest(self, key: NodeId) -> Optional["DhtNode"]:
        """The alive member (or owner-side candidate) nearest to ``key``."""
        alive = [n for n in self.members() if n.alive]
        if not alive:
            return None
        return min(alive, key=lambda n: (key.distance(n.node_id), n.node_id.value))

    def is_full(self) -> bool:
        return len(self._clockwise) == self.half and len(self._counter) == self.half


# --------------------------------------------------------------- TimeSeries

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
times = st.floats(allow_nan=False, min_value=0.0, max_value=1e6)
steps = st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1e4, allow_nan=False))


def _outcome(call: Callable):
    """What a call returns, or the exception type and message it raises."""
    try:
        return ("ok", call())
    except ValueError as error:
        return ("ValueError", str(error))


class TestTimeSeriesOracle:
    @given(
        st.lists(st.tuples(steps, finite), max_size=40),
        st.lists(times | st.just(float("nan")), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_record_sequences_read_back_equal(self, records, queries):
        new, old = TimeSeries("s"), ReferenceTimeSeries("s")
        for step, value in records:  # a step back in time must raise and record nothing
            time = (old.last()[0] if len(old) else 0.0) + step
            assert _outcome(lambda: new.record(time, value)) == _outcome(
                lambda: old.record(time, value)
            )
            assert len(new) == len(old)
        assert new.points == old.points
        assert new.values() == old.values() and new.times() == old.times()
        # An empty series has no last point: the old structure raised.
        assert new.last() == (old.last() if len(old) else None)
        for query in queries + new.times()[:3]:
            assert _outcome(lambda: new.value_at(query)) == _outcome(lambda: old.value_at(query))
        registries = []
        for series in (new, old):
            registry = MetricsRegistry("r")
            registry._series["s"] = series
            registry.series("empty")
            registries.append(json.dumps(registry.dump()))
        assert registries[0] == registries[1]

    def test_a_series_is_float64(self):
        """An int a caller records compares equal on read, as a float."""
        series = TimeSeries("s")
        series.record(1, 3)
        series.record(2.5, 2**53 + 1)
        assert series.points == [(1, 3), (2.5, float(2**53 + 1))]
        assert series.last() == (2.5, 2**53) and series.value_at(2) == 3
        assert all(type(x) is float for point in series.points for x in point)
        assert json.dumps(series.points) == "[[1.0, 3.0], [2.5, 9007199254740992.0]]"

    def test_a_value_that_is_no_number_leaves_the_series_unchanged(self):
        series = TimeSeries("s")
        series.record(1.0, 2.0)
        for bad in ((2.0, "x"), ("x", 2.0), (2.0, None)):
            with pytest.raises(TypeError):
                series.record(*bad)
        assert series.points == [(1.0, 2.0)] and len(series) == 1


# ---------------------------------------------------------- ResourceProfile

amounts = st.floats(allow_nan=False, allow_infinity=False, min_value=-1.0, max_value=1e10)
intervals = st.tuples(st.sampled_from(["cpu", "memory"]), times, times, amounts)


class TestResourceProfileOracle:
    @given(st.lists(intervals, max_size=30), st.lists(times, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_interval_sequences_sample_to_the_same_floats(self, adds, grid):
        new = ResourceProfile("n", baseline_cpu=0.18, baseline_memory=500.0)
        old = ReferenceResourceProfile("n", baseline_cpu=0.18, baseline_memory=500.0)
        for kind, start, end, amount in adds:  # negative amounts, reversed intervals: both raise
            results = [
                _outcome(lambda: getattr(profile, f"add_{kind}")(start, end, amount))
                for profile in (new, old)
            ]
            assert results[0] == results[1]
        grid = grid + [start for _kind, start, _end, _amount in adds[:4]]
        for t in grid:  # exact: the same amounts summed in the same order
            assert new.cpu_at(t) == old.cpu_at(t)
            assert new.memory_at(t) == old.memory_at(t)
        assert new.cpu_series(grid) == old.cpu_series(grid)
        assert new.memory_series(grid) == old.memory_series(grid)
        assert new.cpu_seconds() == old.cpu_seconds()
        assert new.peak_memory(grid) == old.peak_memory(grid)


# ------------------------------------------------------------------ LeafSet


class Peer:
    """As much of a ``DhtNode`` as a leaf set looks at."""

    def __init__(self, value: int) -> None:
        self.node_id = NodeId(value)
        self.alive = True

    def __repr__(self) -> str:
        return f"Peer({self.node_id.value})"


def _observed(leaf_set, calls: list, takes_owner: bool) -> None:
    if takes_owner:
        leaf_set.on_membership_change = lambda owner, added, removed: calls.append(
            (owner, set(added), set(removed))
        )
    else:
        owner = leaf_set.owner_id
        leaf_set.on_membership_change = lambda added, removed: calls.append(
            (owner, set(added), set(removed))
        )


def _view(leaf_set, peers: List[Peer], keys: List[NodeId]) -> tuple:
    return (
        leaf_set.members(), leaf_set.clockwise(), leaf_set.counter_clockwise(),
        leaf_set.last_member(), leaf_set.is_full(),
        [leaf_set.contains(p.node_id) for p in peers],
        [(leaf_set.covers(k), leaf_set.closest(k)) for k in keys],
    )


# Few distinct ids on a small stretch of the ring, so tiny pools, overlapping
# halves and ids that are not members all turn up.
ring_values = st.integers(min_value=0, max_value=63).map(lambda v: v * (ID_SPACE // 64) + v)
subsets = st.lists(st.integers(min_value=0, max_value=39), max_size=16)
operations = st.one_of(
    st.tuples(st.just("rebuild"), subsets, subsets),  # candidates, which of them are dead
    st.tuples(st.just("seed"), subsets, subsets),  # clockwise half, counter half
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=39), st.none()),
)


class TestLeafSetOracle:
    @given(
        st.lists(ring_values, min_size=2, max_size=40, unique=True),
        st.sampled_from([2, 4, 8, 24]),
        st.lists(operations, max_size=25),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sequences_give_the_same_members_and_observer_calls(
        self, values, size, ops, observe
    ):
        peers = [Peer(v) for v in values[1:]]
        keys = [p.node_id for p in peers[:5]] + [NodeId(values[0] + 1)]
        new, old = LeafSet(NodeId(values[0]), size), ReferenceLeafSet(NodeId(values[0]), size)
        new_calls, old_calls = [], []
        if observe:
            _observed(new, new_calls, takes_owner=True)
            _observed(old, old_calls, takes_owner=False)
        pick = lambda indexes: [peers[i % len(peers)] for i in indexes]  # noqa: E731
        for name, first, second in ops:
            if name == "rebuild":
                for peer in peers:
                    peer.alive = True
                for peer in pick(second):
                    peer.alive = False
                new.rebuild(pick(first))
                old.rebuild(pick(first))
            elif name == "seed":
                half = size // 2
                new.seed(pick(first)[:half], pick(second)[:half])
                old.seed(pick(first)[:half], pick(second)[:half])
            else:  # the member dropped by a re-seed without it; one report, or none
                target = peers[first % len(peers)]
                old.remove(target.node_id)
                new.seed(
                    [p for p in new.clockwise() if p is not target],
                    [p for p in new.counter_clockwise() if p is not target],
                )
            assert _view(new, peers, keys) == _view(old, peers, keys)
            assert new_calls == old_calls
        assert not hasattr(new, "_ids")


# --------------------------------------------------- the reverse holder index


@pytest.mark.parametrize("nodes,seed", [(64, 0), (64, 1), (64, 2), (700, 0), (700, 1)])
def test_holder_index_equals_a_scan_of_every_leaf_set(nodes, seed):
    sim = Simulator()
    network = Network(sim)
    overlay = Overlay(sim, network, rng=random.Random(seed))
    overlay.build(nodes)
    rng = random.Random(seed + 1000)
    touched = []

    def check() -> None:
        sample = touched[-12:] + rng.sample(overlay.nodes, 12)
        for target in sample:
            scan = [
                n for n in overlay.nodes if n.alive and n.leaf_set.contains(target.node_id)
            ]
            assert overlay._leafset_holders(target.node_id) == scan

    check()
    for step in range(60):
        draw = rng.random()
        dead = [n for n in overlay.nodes if not n.alive]
        if draw < 0.55 and overlay.alive_count() > 2:
            node = rng.choice(overlay.alive_nodes())
            overlay.fail_node(node, repair=rng.random() < 0.8)
        elif draw < 0.7:
            node = overlay.add_node()
        elif draw < 0.8 or not dead:
            node = protocol_join(overlay).node
        else:
            node = rng.choice(dead)
            node.revive()
            network.recover_host(node.host)
        touched.append(node)
        if step == 30:  # a second build, over the dead and their stale leaf sets
            touched += overlay.build(
                9, host_factory=lambda name: network.add_host(f"again-{name}")
            )
        if step % 6 == 5:
            check()
    sim.run_until_idle()
    check()
    for bucket in overlay._holders.values():
        assert type(bucket) is list and len(bucket) == len(set(map(id, bucket)))
