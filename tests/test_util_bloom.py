"""Unit and property tests for the Bloom filter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.bloom import BloomFilter


def member(bloom, item):
    """Whether every bit of ``item`` is set, without inserting it."""
    return all(bloom._get_bit(pos) for pos in bloom._positions(item))


class TestConstruction:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BloomFilter(0)

    def test_rejects_bad_error_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(10, error_rate=0.0)
        with pytest.raises(ValueError):
            BloomFilter(10, error_rate=1.0)

    def test_geometry_scales_with_capacity(self):
        small = BloomFilter(100)
        large = BloomFilter(10_000)
        assert large.num_bits > small.num_bits


class TestMembership:
    def test_added_items_are_members(self):
        bloom = BloomFilter(1000)
        bloom.add("hello")
        assert member(bloom, "hello")

    def test_fresh_filter_is_empty(self):
        bloom = BloomFilter(1000)
        assert not member(bloom, "anything")
        assert len(bloom) == 0

    def test_add_reports_duplicates(self):
        bloom = BloomFilter(1000)
        assert bloom.add("x") is False
        assert bloom.add("x") is True
        assert len(bloom) == 1

    @given(st.lists(st.text(min_size=1), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_no_false_negatives(self, items):
        bloom = BloomFilter(1000)
        for item in items:
            bloom.add(item)
        assert all(bloom.add(item) for item in items)  # each reads as already present

    def test_false_positive_rate_near_design(self):
        bloom = BloomFilter(5000, error_rate=0.01)
        for i in range(5000):
            bloom.add(f"member-{i}")
        false_hits = sum(1 for i in range(10_000) if member(bloom, f"other-{i}"))
        assert false_hits / 10_000 < 0.05  # generous bound over the 1% design


class TestSerialization:
    def test_roundtrip(self):
        bloom = BloomFilter(500, error_rate=0.02)
        for i in range(100):
            bloom.add(f"k{i}")
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        assert len(clone) == 100
        assert all(member(clone, f"k{i}") for i in range(100))
        assert clone.num_bits == bloom.num_bits

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"short")

    def test_corrupt_length_rejected(self):
        data = BloomFilter(100).to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(data[:-3])


class TestMerge:
    def test_fill_ratio_monotonic(self):
        bloom = BloomFilter(1000)
        empty_fill = bloom.fill_ratio
        for i in range(500):
            bloom.add(f"x{i}")
        assert bloom.fill_ratio > empty_fill
