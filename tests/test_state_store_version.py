"""Unit tests for state stores, snapshots, and version control."""

import pytest

from repro.errors import StateError, VersionConflictError
from repro.state.store import StateSnapshot, StateStore, estimate_entry_bytes
from repro.state.version import StateVersion, VersionClock


class TestVersion:
    def test_total_order(self):
        assert StateVersion(1.0, 1) < StateVersion(1.0, 2)
        assert StateVersion(1.0, 5) < StateVersion(2.0, 1)

    def test_zero(self):
        assert StateVersion.ZERO == StateVersion(0.0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StateVersion(-1.0, 0)
        with pytest.raises(ValueError):
            StateVersion(0.0, -1)

    def test_clock_monotonic(self):
        clock = VersionClock()
        v1 = clock.next(1.0)
        v2 = clock.next(1.0)
        v3 = clock.next(2.0)
        assert v1 < v2 < v3
        assert clock.next(2.0) == StateVersion(2.0, v3.sequence + 1)  # issued after v3

    def test_clock_rejects_time_travel(self):
        clock = VersionClock()
        clock.next(5.0)
        with pytest.raises(VersionConflictError):
            clock.next(4.0)

    def test_observe_advances(self):
        clock = VersionClock()
        clock.observe(StateVersion(9.0, 3))
        clock.observe(StateVersion(1.0, 1))  # older: ignored
        assert clock.next(9.0) == StateVersion(9.0, 4)
        with pytest.raises(VersionConflictError):
            clock.next(8.0)  # the observed version's time is the floor


class TestStore:
    def test_put_get_delete(self):
        store = StateStore("s")
        store.put("k", 1)
        assert store.get("k") == 1
        assert list(store.keys()) == ["k"]
        assert store.delete("k")
        assert not store.delete("k")
        assert store.get("k", "default") == "default"

    def test_name_required(self):
        with pytest.raises(StateError):
            StateStore("")

    def test_size_accounting_grows_and_shrinks(self):
        store = StateStore("s")
        assert store.size_bytes == 0
        store.put("key", "value")
        first = store.size_bytes
        assert first > 0
        store.put("key2", "value2")
        assert store.size_bytes > first
        store.delete("key2")
        assert store.size_bytes == first

    def test_overwrite_replaces_size(self):
        store = StateStore("s")
        store.put("k", "short")
        small = store.size_bytes
        store.put("k", "a much longer value" * 10)
        assert store.size_bytes > small
        store.put("k", "short")
        assert store.size_bytes == small

    def test_update_read_modify_write(self):
        store = StateStore("s")
        assert store.update("count", lambda c: (c or 0) + 1) == 1
        assert store.update("count", lambda c: (c or 0) + 1) == 2

    def test_len_and_iteration(self):
        store = StateStore("s")
        for i in range(5):
            store.put(i, i * i)
        assert len(store) == 5
        assert dict(store.items()) == {i: i * i for i in range(5)}
        assert sorted(store.keys()) == list(range(5))


class TestSnapshotRestore:
    def test_snapshot_is_immutable_copy(self):
        store = StateStore("s")
        store.put("k", 1)
        snap = store.snapshot(1.0)
        store.put("k", 2)
        assert snap.get("k") == 1
        assert len(snap) == 1

    def test_snapshot_versions_increase(self):
        store = StateStore("s")
        a = store.snapshot(1.0)
        b = store.snapshot(2.0)
        assert a.version < b.version

    def test_restore_replaces_contents(self):
        store = StateStore("s")
        store.put("a", 1)
        snap = store.snapshot(1.0)
        store.put("b", 2)
        store.restore(snap)
        assert dict(store.items()) == {"a": 1}

    def test_restore_wrong_name_rejected(self):
        store = StateStore("s")
        other = StateStore("other")
        snap = other.snapshot(1.0)
        with pytest.raises(StateError):
            store.restore(snap)

    def test_restore_advances_clock(self):
        store = StateStore("s")
        snap = StateSnapshot("s", {"x": 1}, StateVersion(9.0, 9))
        store.restore(snap)
        assert store.snapshot(9.0).version == StateVersion(9.0, 10)

    def test_snapshot_size_matches_entries(self):
        store = StateStore("s")
        store.put("k", "v")
        snap = store.snapshot(0.0)
        assert snap.size_bytes == estimate_entry_bytes("k", "v")


class TestSizeEstimation:
    @pytest.mark.parametrize(
        "value", ["text", b"bytes", 42, 3.14, [1, 2], {"a": 1}, (1, 2), {1, 2}]
    )
    def test_positive_estimates(self, value):
        assert estimate_entry_bytes("key", value) > 0

    def test_string_scales_with_length(self):
        assert estimate_entry_bytes("k", "x" * 1000) > estimate_entry_bytes("k", "x")
