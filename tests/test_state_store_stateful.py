"""Model-based (stateful) property test: StateStore behaves like a dict.

Hypothesis drives random sequences of put/get/update/delete/
snapshot/restore/mark_clean operations against both the store and a
plain-dict model; any divergence in contents, length, size accounting
(kept by difference in ``put``) or dirty/deleted tracking is a bug.
"""

import hypothesis.strategies as st
import pytest
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.state.store import StateStore

# 1, 1.0 and True are one dict key: a replace through any of them must
# move the size by the value estimates only.
keys = st.one_of(
    st.text(min_size=1, max_size=6),
    st.integers(min_value=-2, max_value=2),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.tuples(st.integers(min_value=0, max_value=2), st.text(max_size=2)),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=12), st.binary(max_size=8),
)
values = st.one_of(
    scalars,
    st.tuples(st.integers()),
    st.lists(scalars, max_size=3),
    st.dictionaries(st.text(max_size=3), scalars, max_size=3),
)

# Both sides of ``put``'s replace branch: a value of exact type ``int`` or
# ``float`` over one of the same exact type moves the size by 16 - 16 and is
# not measured; every other pair is, by its two estimates.
REPLACEMENTS = {
    "int->int": (1, 10**30),
    "float->float": (0.5, -2.5),
    "int->float": (1, 2.5),
    "float->int": (2.5, 1),
    "bool->int": (True, 2),
    "int->bool": (2, True),
    "bool->bool": (True, False),
    "int->str": (1, "one"),
    "str->int": ("one", 1),
    "int->None": (1, None),
    "None->int": (None, 1),
    "int->list": (1, [1, 2.0]),
}


class StateStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = StateStore("model/test")
        self.model = {}
        self.dirty = set()
        self.deleted = set()
        self.snapshots = []
        self.time = 0.0

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.store.put(key, value)
        self._model_put(key, value)

    def _model_put(self, key, value):
        self.model[key] = value
        self.dirty.add(key)
        self.deleted.discard(key)

    @rule(key=keys, name=st.sampled_from(sorted(REPLACEMENTS)))
    def replace(self, key, name):
        for value in REPLACEMENTS[name]:
            self.put(key, value)
            self.size_accounting_consistent()

    @rule(key=keys)
    def delete(self, key):
        assert self.store.delete(key) == (key in self.model)
        if key in self.model:
            del self.model[key]
            self.deleted.add(key)
            self.dirty.discard(key)

    @rule()
    def mark_clean(self):
        self.store.mark_clean()
        self.dirty.clear()
        self.deleted.clear()

    @rule(key=keys, default=values)
    def get(self, key, default):
        assert self.store.get(key, default) == self.model.get(key, default)

    @rule(key=keys)
    def update_counter(self, key):
        expected = (self.model.get(key) or 0) if isinstance(self.model.get(key), int) else 0
        result = self.store.update(key, lambda v: (v if isinstance(v, int) else 0) + 1)
        assert result == (expected if isinstance(self.model.get(key), int) else 0) + 1
        self._model_put(key, result)

    @rule()
    def snapshot(self):
        self.time += 1.0
        snap = self.store.snapshot(self.time)
        self.snapshots.append((snap, dict(self.model)))

    @precondition(lambda self: self.snapshots)
    @rule()
    def restore_latest(self):
        snap, contents = self.snapshots[-1]
        self.store.restore(snap)
        self.model = dict(contents)
        self.dirty.clear()
        self.deleted.clear()

    @invariant()
    def contents_match(self):
        assert dict(self.store.items()) == self.model
        assert len(self.store) == len(self.model)

    @invariant()
    def size_accounting_consistent(self):
        # Size is exactly the sum of per-entry estimates — no drift from
        # overwrites or deletes.
        from repro.state.store import estimate_entry_bytes

        expected = sum(estimate_entry_bytes(k, v) for k, v in self.model.items())
        assert self.store.size_bytes == expected

    @invariant()
    def change_tracking_matches(self):
        assert self.store.dirty_keys() == self.dirty
        assert self.store.deleted_keys() == self.deleted

    @invariant()
    def snapshots_frozen(self):
        # Earlier snapshots never change, no matter what the store does.
        for snap, contents in self.snapshots:
            assert snap.as_dict() == contents


TestStateStoreModel = StateStoreMachine.TestCase


@pytest.mark.parametrize("name", sorted(REPLACEMENTS))
def test_put_replacement_keeps_size_the_sum_of_estimates(name):
    machine = StateStoreMachine()
    machine.put("k", "unrelated")
    machine.replace("k", name)
    machine.replace(1, name)  # 1, 1.0 and True are this key too
    machine.replace(True, name)
    machine.contents_match()
    machine.change_tracking_matches()
    assert type(machine.store.get("k")) is type(REPLACEMENTS[name][1])
