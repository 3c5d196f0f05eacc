"""The per-tuple fast paths and the emission-list path against what they replaced.

``reference_emit``, ``reference_choose``, ``reference_process`` and
``reference_put`` are ``OutputCollector.emit``, ``FieldsGrouping.choose``,
``CountingBolt.process`` and ``StateStore.put`` of the commit before the
frames were taken out, verbatim apart from their names. The router asks a
grouping once per emission list, the split bolt emits a sentence with
``emit_all`` and ``CountingBolt`` counts a route's words in its own runner,
so adapters put the per-tuple calls back under those names: ``choose`` asks
``reference_choose`` once per tuple, ``emit_all`` calls ``emit`` once per
row, and a counting route runs the default per-tuple runner, whose
``execute`` calls ``reference_process`` once a word. Every shipped
application runs once as it is and once with the references patched in:
what it emitted (in order), what it executed and what it stored must be
equal, and every error the old path raised must be raised with the same
text.
"""

import sys
from collections import Counter, namedtuple

import pytest

from repro.errors import StreamRuntimeError, TopologyError
from repro.state.store import StateStore, _estimate, estimate_entry_bytes
from repro.streaming.cluster import LocalCluster
from repro.streaming.component import Bolt, DiscardCollector, OutputCollector, TaskContext
from repro.streaming.groupings import _MEMO_LIMIT, _MEMO_TYPES, FieldsGrouping, _hash_prefix
from repro.streaming.stateful import CountingBolt, StatefulBolt
from repro.streaming.tuples import StreamTuple
from repro.workloads.clicks import (
    build_fraud_detection_topology,
    build_micro_promotion_topology,
    build_product_bundling_topology,
)
from repro.workloads.finance import build_bargain_index_topology
from repro.workloads.traffic import build_traffic_topology
from repro.workloads.wordcount import SentenceGenerator, build_wordcount_topology

# ---------------------------------------------------- the parent's methods


def reference_emit(self, values, timestamp=None):
    """Emit one tuple with this component's declared fields."""
    out = StreamTuple(values, self.fields, self.source, timestamp)
    self.pending.append(out)
    return out


def reference_choose(self, tuple_, num_tasks):
    fields, row = tuple_.fields, tuple_.values
    # 1, 1.0 and True compare equal but repr differently: the memo key is
    # (type, value, type, value, ...), built in one list (this is per tuple).
    typed = []
    for name in self.fields:
        try:
            value = row[fields.index(name)]
        except ValueError:
            value = tuple_[name]  # raises the KeyError that names the field
        typed.append(type(value))
        typed.append(value)
    memo_key = tuple(typed)
    try:
        prefix = self._memo.get(memo_key)
    except TypeError:  # an unhashable field value
        return [_hash_prefix(typed[1::2]) % num_tasks]
    if prefix is None:
        prefix = _hash_prefix(typed[1::2])
        if _MEMO_TYPES.issuperset(typed[::2]):
            if len(self._memo) >= _MEMO_LIMIT:
                self._memo.clear()
            self._memo[memo_key] = prefix
    return [prefix % num_tasks]


def reference_process(self, tuple_, collector):
    key = tuple_[self.key_field]
    state = self.state
    count = (state.get(key) or 0) + 1
    state.put(key, count)
    collector.emit((key, count), tuple_.timestamp)


def reference_put(self, key, value):
    """Insert or replace one entry; ``size_bytes`` moves by the difference."""
    entries = self._entries
    if key in entries:
        self._size_bytes += _estimate(value) - _estimate(entries[key])
    else:
        self._size_bytes += _estimate(key) + _estimate(value)
    entries[key] = value
    self._dirty.add(key)
    self._deleted.discard(key)


def choose_per_tuple(self, tuples, num_tasks):
    """The list ``choose`` as one ``reference_choose`` call a tuple."""
    return [reference_choose(self, tuple_, num_tasks)[0] for tuple_ in tuples]


def emit_per_row(self, rows, timestamp):
    """``emit_all`` as one ``emit`` call a row."""
    for values in rows:
        self.emit(values, timestamp)


REFERENCES = (
    (OutputCollector, "emit", reference_emit),
    (OutputCollector, "emit_all", emit_per_row),
    (FieldsGrouping, "choose", choose_per_tuple),
    (CountingBolt, "process", reference_process),
    (StateStore, "put", reference_put),
)


#: A counting route back on the per-tuple runner and ``execute``, which
#: forwards to ``process``: the parent's path to ``reference_process``.
PER_TUPLE_COUNTING = (
    (CountingBolt, "run_route", Bolt.run_route),
    (CountingBolt, "execute", StatefulBolt.execute),
)


def install_references(patch, entered=None):
    """Patch the references in; ``entered`` counts the calls each receives."""
    for cls, name, fn in PER_TUPLE_COUNTING:
        patch.setattr(cls, name, fn)
    for cls, name, fn in REFERENCES:
        if entered is not None:
            fn = counted(fn, entered)
        patch.setattr(cls, name, fn, raising=cls is not CountingBolt)  # it has no process


def counted(fn, entered):
    def wrapper(*args, **kwargs):
        entered[fn.__name__] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture(params=["fast", "reference"])
def path(request, monkeypatch):
    """Runs the test body on the shipped path and on the parent's."""
    if request.param == "reference":
        install_references(monkeypatch)
    return request.param


def on_both_paths(body):
    """``body()`` on the shipped path, then with the parent's four methods."""
    fast = body()
    with pytest.MonkeyPatch.context() as patch:
        install_references(patch)
        reference = body()
    return fast, reference


# ------------------------------------------------ applications, end to end

APPLICATIONS = {
    "wordcount": lambda seed: build_wordcount_topology(num_sentences=250, seed=seed),
    "micro-promotion": lambda seed: build_micro_promotion_topology(num_events=600, seed=seed),
    "product-bundling": lambda seed: build_product_bundling_topology(num_events=600, seed=seed),
    "fraud-detection": lambda seed: build_fraud_detection_topology(num_events=600, seed=seed),
    "bargain-index": lambda seed: build_bargain_index_topology(num_ticks=600, seed=seed),
    "traffic": lambda seed: build_traffic_topology(num_events=600, seed=seed),
}


def flat(tuple_):
    return (type(tuple_.values), tuple_.values, tuple_.fields, tuple_.source, tuple_.timestamp)


def observe(cluster):
    """Everything a run leaves behind that the fast paths could have moved."""
    stores = {f"{cid}[{index}]": bolt.state for (cid, index), bolt in
              cluster.stateful_tasks().items()}
    for store in stores.values():
        assert store.size_bytes == sum(estimate_entry_bytes(k, v) for k, v in store.items())
    return {
        "outputs": {cid: [flat(t) for t in sink] for cid, sink in cluster.outputs.items()},
        "dropped": cluster.dropped_outputs,
        "executed": cluster.executed_counts,
        "checksums": cluster.state_checksums(),
        "size_bytes": {task: store.size_bytes for task, store in stores.items()},
        "dirty": {task: sorted(store.dirty_keys(), key=repr) for task, store in stores.items()},
    }


def run_application(name, seed, capture):
    cluster = LocalCluster(APPLICATIONS[name](seed), capture_outputs=capture)
    emissions = cluster.run()
    return emissions, observe(cluster)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_application_outputs_equal_the_parent_path(name, seed):
    (emissions, fast), (ref_emissions, reference) = on_both_paths(
        lambda: run_application(name, seed, capture=True)
    )
    assert emissions == ref_emissions > 0
    assert fast["dropped"] == reference["dropped"] == {}  # nothing compared was truncated
    assert sum(len(sink) for sink in fast["outputs"].values()) > 0
    assert fast["outputs"] == reference["outputs"]  # lists: equal in order
    for key in ("executed", "checksums", "size_bytes", "dirty"):
        assert fast[key] == reference[key], key


def test_the_reference_run_enters_the_per_tuple_methods():
    """The references are reached, once a tuple, not just installed."""
    entered = Counter()
    with pytest.MonkeyPatch.context() as patch:
        install_references(patch, entered)
        patch.setattr(sys.modules[__name__], "reference_choose", counted(reference_choose, entered))
        _, seen = run_application("wordcount", 0, capture=True)
    words, sentences = seen["executed"]["count"], seen["executed"]["split"]
    assert words > sentences == 250
    assert entered == {
        "emit_per_row": sentences, "choose_per_tuple": sentences,
        "reference_choose": words, "reference_process": words, "reference_put": words,
        "reference_emit": sentences + 2 * words,  # the spout's, split's rows, count's
    }


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_uncaptured_run_leaves_the_parent_state(name):
    (_, fast), (_, reference) = on_both_paths(lambda: run_application(name, 3, capture=False))
    assert fast == reference
    assert fast["outputs"] == {}


@pytest.mark.parametrize("seed", [0, 7])
def test_wordcount_inject_equals_pull(path, seed):
    _, pulled = run_application("wordcount", seed, capture=True)
    cluster = LocalCluster(build_wordcount_topology(num_sentences=0, seed=seed))
    for sequence, sentence in enumerate(SentenceGenerator(250, seed=seed)):
        cluster.inject("sentences", (sentence,), timestamp=float(sequence))
    injected = observe(cluster)
    injected["executed"]["sentences"] += 1  # the pull that found the spout exhausted
    assert injected == pulled


# ------------------------------------------------------- a truncating sink


def test_a_captured_sink_counts_what_it_drops(path):
    def run(seed):
        cluster = LocalCluster(build_wordcount_topology(num_sentences=20, seed=seed))
        cluster.output_cap = 5
        cluster.run()
        return cluster

    first, second = run(1), run(2)
    assert len(first.outputs["count"]) == len(second.outputs["count"]) == 5
    assert first.dropped_outputs == second.dropped_outputs == {"count": 20 * 8 - 5}
    roomy = LocalCluster(build_wordcount_topology(num_sentences=20, seed=1))
    roomy.run()
    assert roomy.dropped_outputs == {} and len(roomy.outputs["count"]) == 160
    assert LocalCluster(
        build_wordcount_topology(num_sentences=20), capture_outputs=False
    ).dropped_outputs == {}


# ------------------------------------------------------------- error paths

Pair = namedtuple("Pair", "word n")


def prepared_counter(key_field="word"):
    bolt = CountingBolt(key_field)
    bolt.prepare(TaskContext("count", 0, 1))
    return bolt


def outcome(call):
    """What a call did, as comparable data: its error, or what it returned."""
    try:
        result = call()
    except Exception as error:  # noqa: BLE001 - the error is the observation
        return type(error), str(error), error.args
    return flat(result) if isinstance(result, StreamTuple) else result


ERROR_PATHS = {
    "grouping field missing": (
        lambda: FieldsGrouping(["k"]).choose([StreamTuple((1,), ("a",), source="up")], 2),
        (KeyError, "no field 'k'"),
    ),
    "second grouping field missing": (
        lambda: FieldsGrouping(["a", "k"]).choose([StreamTuple((1,), ("a",), source="up")], 2),
        (KeyError, "no field 'k'"),
    ),
    "both grouping fields missing names the first": (
        lambda: FieldsGrouping(["j", "k"]).choose([StreamTuple((1,), ("a",), source="up")], 2),
        (KeyError, "no field 'j'"),
    ),
    "key_field missing": (
        lambda: CountingBolt.run_route(
            "count", [(StreamTuple((1,), ("a",), source="up"), 0)], [prepared_counter()],
            [OutputCollector("count", ("word", "count"))], [],
        ),
        (KeyError, "tuple from 'up' has no field 'word'; has ('a',)"),
    ),
    "key_field missing on an unprepared bolt": (
        lambda: CountingBolt.run_route(
            "count", [(StreamTuple((1,), ("a",)), 0)], [CountingBolt("word")],
            [OutputCollector("count", ("word", "count"))], [],
        ),
        (KeyError, "no field 'word'"),
    ),
    "state before prepare": (
        lambda: CountingBolt.run_route(
            "count", [(StreamTuple(("x",), ("word",)), 0)], [CountingBolt("word")],
            [OutputCollector("count", ("word", "count"))], [],
        ),
        (StreamRuntimeError, "state accessed before prepare()"),
    ),
    "dead task in the middle of a list": (
        lambda: CountingBolt.run_route(
            "count", [(StreamTuple((w,), ("word",)), i) for w, i in (("x", 0), ("y", 1), ("z", 0))],
            [prepared_counter(), None], [DiscardCollector("count", ("word", "count"))] * 2, [],
        ),
        (StreamRuntimeError, "tuple routed to dead task count[1]; recover it first"),
    ),
    "emit with too few values": (
        lambda: OutputCollector("c", ("a", "b")).emit((1,)),
        (TopologyError, "tuple has 1 values but 2 declared fields"),
    ),
    "emit with too many values": (
        lambda: OutputCollector("c", ("a",)).emit([1, 2, 3], timestamp=2.0),
        (TopologyError, "tuple has 3 values but 1 declared fields"),
    ),
    "discarded emit with the wrong arity": (
        lambda: DiscardCollector("c", ("a", "b")).emit((1, 2, 3)),
        (TopologyError, "tuple has 3 values but 2 declared fields"),
    ),
    "emit of something without a length": (
        lambda: OutputCollector("c", ("a",)).emit(v for v in (1,)),
        (TypeError, "has no len()"),
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_text_is_the_parent_path_s(case):
    call, (kind, text) = ERROR_PATHS[case]
    fast, reference = on_both_paths(lambda: outcome(call))
    assert fast == reference
    assert fast[0] is kind and text in fast[1]


def test_emit_tuples_any_sequence_once(path):
    collector = OutputCollector("c", ("word", "n"))
    exact = ("x", 1)
    emitted = [
        collector.emit(exact), collector.emit(["x", 1], timestamp=4.0), collector.emit(Pair("x", 1)),
    ]
    assert [flat(t) for t in emitted] == [
        (tuple, ("x", 1), ("word", "n"), "c", None),
        (tuple, ("x", 1), ("word", "n"), "c", 4.0),
        (tuple, ("x", 1), ("word", "n"), "c", None),
    ]
    assert emitted[0].values is exact  # tuple() of an exact tuple is that tuple
    assert collector.fields is emitted[0].fields and collector.drain() == emitted
    assert DiscardCollector("c", ("word", "n")).emit(["x", 1]) is None


def test_a_hand_built_tuple_with_list_fields_routes_and_counts(path):
    tuple_ = StreamTuple(["x"], ["word"], "by-hand", 1.5)
    assert (tuple_.values, tuple_.fields) == (("x",), ("word",))
    assert FieldsGrouping(["word"]).choose([tuple_], 4) == FieldsGrouping(["word"]).choose(
        [StreamTuple(("x",), ("word",))], 4
    )
    bolt, collector, queue = prepared_counter(), OutputCollector("count", ("word", "count")), []
    CountingBolt.run_route("count", [(tuple_, 0)], [bolt], [collector], queue)
    bolt.execute(tuple_, collector)
    assert len(queue) == 1 and [flat(t) for t in queue[0] + collector.drain()] == [
        (tuple, ("x", 1), ("word", "count"), "count", 1.5),
        (tuple, ("x", 2), ("word", "count"), "count", 1.5),
    ]
    assert bolt.state.get("x") == 2 and bolt.state.size_bytes == 9 + 16
