"""A space-efficient Bloom filter.

The paper's click-fraud-detection example (Fig. 1, bottom) keeps its
operator state in a Bloom filter memorizing previously seen IPs/cookies.
This implementation is deterministic (double hashing over SHA-256) and
serializable, so it can be sharded, replicated, and recovered through SR3
like any other state.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Tuple


class BloomFilter:
    """Classic Bloom filter with double hashing.

    Parameters
    ----------
    capacity:
        Expected number of distinct items.
    error_rate:
        Target false-positive probability at ``capacity`` items.
    """

    def __init__(self, capacity: int, error_rate: float = 0.01) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        self.capacity = capacity
        self.error_rate = error_rate
        self.num_bits = max(8, int(-capacity * math.log(error_rate) / (math.log(2) ** 2)))
        self.num_hashes = max(1, round(self.num_bits / capacity * math.log(2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _positions(self, item: str) -> Iterable[int]:
        h1, h2 = self._hash_pair(item)
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    @staticmethod
    def _hash_pair(item: str) -> Tuple[int, int]:
        digest = hashlib.sha256(item.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big") | 1

    def _get_bit(self, pos: int) -> bool:
        return bool(self._bits[pos // 8] & (1 << (pos % 8)))

    def _set_bit(self, pos: int) -> None:
        self._bits[pos // 8] |= 1 << (pos % 8)

    def add(self, item: str) -> bool:
        """Insert ``item``; returns True if it was (probably) already present."""
        present = True
        for pos in self._positions(item):
            if not self._get_bit(pos):
                present = False
                self._set_bit(pos)
        if not present:
            self._count += 1
        return present

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set; ~0.5 at design capacity."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.num_bits

    def to_bytes(self) -> bytes:
        """Serialize to bytes (header + bit array) for SR3 state handling."""
        header = (
            self.capacity.to_bytes(8, "big")
            + int(self.error_rate * 1e9).to_bytes(8, "big")
            + self._count.to_bytes(8, "big")
        )
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Inverse of :meth:`to_bytes`."""
        if len(data) < 24:
            raise ValueError("truncated bloom filter payload")
        capacity = int.from_bytes(data[:8], "big")
        error_rate = int.from_bytes(data[8:16], "big") / 1e9
        count = int.from_bytes(data[16:24], "big")
        bloom = cls(capacity, error_rate)
        body = data[24:]
        if len(body) != len(bloom._bits):
            raise ValueError("bloom filter bit-array length mismatch")
        bloom._bits = bytearray(body)
        bloom._count = count
        return bloom
