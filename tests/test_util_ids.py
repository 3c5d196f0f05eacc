"""Unit tests for the 128-bit id space helpers."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.util.ids import (
    ID_BITS,
    ID_SPACE,
    NodeId,
    node_id_from_bytes,
    node_id_from_name,
    random_node_id,
)

ids = st.integers(min_value=0, max_value=ID_SPACE - 1).map(NodeId)


class TestNodeIdBasics:
    def test_value_roundtrip(self):
        assert NodeId(42).value == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NodeId(-1)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            NodeId(ID_SPACE)

    def test_hashable_and_equal(self):
        assert NodeId(7) == NodeId(7)
        assert len({NodeId(7), NodeId(7), NodeId(8)}) == 2

    def test_equality_and_hash_go_by_value_only(self):
        five = NodeId(5)
        assert five == NodeId(5) and not five != NodeId(5)
        assert five != NodeId(6) and five != 5 and five != "5"
        assert hash(five) == hash(NodeId(5))
        five.digits()  # an id stores its value only; nothing digits() does touches its identity
        assert five == NodeId(5) and hash(five) == hash(NodeId(5))
        assert NodeId(5) in {five} and {five: "x"}[NodeId(5)] == "x"

    def test_slotted_frozen_id_still_copies_and_pickles(self):
        import copy
        import pickle

        five = NodeId(5)
        assert not hasattr(five, "__dict__")
        for clone in (copy.copy(five), copy.deepcopy(five), pickle.loads(pickle.dumps(five))):
            assert clone == five and clone.digits() == five.digits()
        with pytest.raises(AttributeError):  # FrozenInstanceError is one
            five.value = 6


class TestDigits:
    def test_digit_count_default(self):
        assert len(NodeId(0).digits()) == ID_BITS // 4

    def test_digits_msb_first(self):
        # Highest hex digit of a value with only the top nibble set.
        top = NodeId(0xF << (ID_BITS - 4))
        assert top.digits()[0] == 0xF
        assert all(d == 0 for d in top.digits()[1:])

    def test_digits_base_2(self):
        assert len(NodeId(0).digits(1)) == ID_BITS

    def test_invalid_digit_width(self):
        with pytest.raises(ValueError):
            NodeId(0).digits(5)

    @given(ids)
    def test_digits_reassemble(self, node_id):
        digits = node_id.digits(4)
        value = 0
        for d in digits:
            value = (value << 4) | d
        assert value == node_id.value

    @given(ids, st.sampled_from([1, 2, 4, 8]))
    def test_digits_match_shift_reference(self, node_id, bits):
        count = ID_BITS // bits
        mask = (1 << bits) - 1
        reference = tuple(
            (node_id.value >> (ID_BITS - bits * (i + 1))) & mask
            for i in range(count)
        )
        assert node_id.digits(bits) == reference
        # Memoized second call returns the identical tuple.
        assert node_id.digits(bits) == reference

    @given(ids, st.sampled_from([1, 2, 4, 8]))
    def test_single_digit_matches_digits_tuple(self, node_id, bits):
        digits = node_id.digits(bits)
        assert all(
            node_id.digit(i, bits) == digits[i] for i in range(len(digits))
        )


class TestPrefixAndDistance:
    def test_shared_prefix_full(self):
        a = NodeId(12345)
        assert a.shared_prefix_length(a) == ID_BITS // 4

    def test_shared_prefix_zero(self):
        a = NodeId(0)
        b = NodeId(0xF << (ID_BITS - 4))
        assert a.shared_prefix_length(b) == 0

    @given(ids, ids, st.sampled_from([1, 2, 4, 8]))
    def test_shared_prefix_matches_digit_comparison(self, a, b, bits):
        a_digits = a.digits(bits)
        b_digits = b.digits(bits)
        expected = 0
        for x, y in zip(a_digits, b_digits):
            if x != y:
                break
            expected += 1
        assert a.shared_prefix_length(b, bits) == expected

    def test_shared_prefix_last_bit_differs(self):
        a = NodeId(0)
        assert a.shared_prefix_length(NodeId(1), 4) == ID_BITS // 4 - 1
        assert a.shared_prefix_length(NodeId(1), 1) == ID_BITS - 1

    @given(ids, ids)
    def test_distance_symmetry(self, a, b):
        assert a.distance(b) == b.distance(a)

    @given(ids)
    def test_distance_to_self_zero(self, a):
        assert a.distance(a) == 0

    @given(ids, ids)
    def test_distance_at_most_half_ring(self, a, b):
        assert a.distance(b) <= ID_SPACE // 2

    @given(ids, ids)
    def test_clockwise_distances_sum_to_ring(self, a, b):
        if a != b:
            assert a.clockwise_distance(b) + b.clockwise_distance(a) == ID_SPACE

    def test_wraparound_distance(self):
        a = NodeId(0)
        b = NodeId(ID_SPACE - 1)
        assert a.distance(b) == 1


class TestDerivedIds:
    def test_from_name_deterministic(self):
        assert node_id_from_name("x") == node_id_from_name("x")

    def test_from_name_distinct(self):
        assert node_id_from_name("x") != node_id_from_name("y")

    def test_from_bytes_matches_name(self):
        assert node_id_from_bytes(b"abc") == node_id_from_name("abc")

    def test_random_is_seed_deterministic(self):
        assert random_node_id(random.Random(5)) == random_node_id(random.Random(5))
