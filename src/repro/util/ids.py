"""Node and object identifiers in the Pastry-style 128-bit circular id space.

A :class:`NodeId` wraps an integer in ``[0, 2**128)``. Ids are compared and
routed by digits in base ``2**b`` (Pastry's configuration parameter ``b``,
default 4, i.e. hexadecimal digits). The helpers here are pure functions so
the DHT layer stays deterministic given a seeded ``random.Random``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

ID_BITS = 128
ID_SPACE = 1 << ID_BITS


@dataclass(frozen=True)
class NodeId:
    """An identifier on the 128-bit ring.

    Instances are immutable and hashable, and carry helpers for ring
    distance and prefix comparison used by Pastry routing; order them by
    ``value``.
    """

    __slots__ = ("value",)

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < ID_SPACE:
            raise ValueError(f"NodeId out of range: {self.value!r}")

    def __reduce__(self) -> tuple:
        # Frozen and slotted: the default slot-state restore calls setattr.
        return NodeId, (self.value,)

    # Written out: the dataclass-generated pair builds a 1-tuple per call,
    # and ids are compared and hashed on every leaf-set and placement step.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is NodeId:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"NodeId({self.value >> (ID_BITS - 32):08x}..)"

    def digits(self, bits_per_digit: int = 4, count: Optional[int] = None) -> tuple:
        """The id split into base-``2**bits_per_digit`` digits, MSB first:
        all of them, or the leading ``count``."""
        if ID_BITS % bits_per_digit:
            raise ValueError("bits_per_digit must divide 128")
        total = ID_BITS // bits_per_digit
        count = total if count is None else min(count, total)
        mask = (1 << bits_per_digit) - 1
        lead = self.value >> (bits_per_digit * (total - count))
        shifts = range(bits_per_digit * (count - 1), -1, -bits_per_digit)
        return tuple([(lead >> shift) & mask for shift in shifts])

    def digit(self, index: int, bits_per_digit: int = 4) -> int:
        """The ``index``-th (MSB-first) base-``2**b`` digit, without
        materializing the whole tuple."""
        if ID_BITS % bits_per_digit:
            raise ValueError("bits_per_digit must divide 128")
        count = ID_BITS // bits_per_digit
        shift = bits_per_digit * (count - 1 - index)
        return (self.value >> shift) & ((1 << bits_per_digit) - 1)

    def shared_prefix_length(self, other: "NodeId", bits_per_digit: int = 4) -> int:
        """Number of leading base-``2**b`` digits shared with ``other``.

        Computed from the xor's bit length: the leading equal *bits* are
        ``ID_BITS - (a ^ b).bit_length()``, and whole shared digits are
        that divided by the digit width.
        """
        if ID_BITS % bits_per_digit:
            raise ValueError("bits_per_digit must divide 128")
        diff = self.value ^ other.value
        if diff == 0:
            return ID_BITS // bits_per_digit
        return (ID_BITS - diff.bit_length()) // bits_per_digit

    def distance(self, other: "NodeId") -> int:
        """Shortest distance around the ring between the two ids."""
        diff = abs(self.value - other.value)
        return min(diff, ID_SPACE - diff)

    def clockwise_distance(self, other: "NodeId") -> int:
        """Distance from ``self`` to ``other`` travelling clockwise."""
        return (other.value - self.value) % ID_SPACE


def node_id_from_bytes(data: bytes) -> NodeId:
    """Derive a NodeId by hashing arbitrary bytes (SHA-1 widened to 128 bits)."""
    digest = hashlib.sha256(data).digest()
    return NodeId(int.from_bytes(digest[:16], "big"))


def node_id_from_name(name: str) -> NodeId:
    """Derive a stable NodeId from a human-readable name."""
    return node_id_from_bytes(name.encode("utf-8"))


def random_node_id(rng: random.Random) -> NodeId:
    """Draw a uniformly random NodeId from a seeded generator."""
    return NodeId(rng.getrandbits(ID_BITS))
