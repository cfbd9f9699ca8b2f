"""Bloom filters, the substrate of MindTheGap [6].

"MtG has a low network consumption because it uses Bloom filters to
represent a list of process IDs" (Sec. V-A) — and precisely because a
Bloom filter is an unauthenticated bit set, a Byzantine node "can send
filters full of 1 values to lead correct nodes to conclude that the
system is connected" (Sec. V-D).  Both properties matter here, so the
filter supports union, saturation and membership counting.

A filter is one Python int whose bit p is position p, carried on the
wire as bit p % 8 of byte p // 8 (the int in little-endian byte order).
Each item's positions form one cached mask per geometry, so every set
operation is a single int operation.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache


def optimal_parameters(expected_items: int, false_positive_rate: float) -> tuple[int, int]:
    """Classic (m, k) sizing for a Bloom filter.

    Args:
        expected_items: number of elements the filter should hold.
        false_positive_rate: target false-positive probability.

    Returns:
        ``(bit_count, hash_count)`` with bit_count rounded up to a
        multiple of 8 so filters pack evenly into bytes.
    """
    if expected_items < 1:
        raise ValueError("expected_items must be positive")
    if not 0.0 < false_positive_rate < 1.0:
        raise ValueError("false_positive_rate must lie strictly in (0, 1)")
    ln2 = math.log(2.0)
    bits = math.ceil(-expected_items * math.log(false_positive_rate) / (ln2 * ln2))
    bits = ((bits + 7) // 8) * 8
    hashes = max(1, round(bits / expected_items * ln2))
    return bits, hashes


@lru_cache(maxsize=16384)
def _item_mask(bit_count: int, hash_count: int, item: int) -> int:
    """The filter bits of ``item`` for one geometry, as an int.

    A pure function of the geometry and the item, and every node of an
    MtG deployment shares one geometry, so it is memoised.
    """
    encoded = item.to_bytes(8, "big", signed=True)
    mask = 0
    for index in range(hash_count):
        digest = hashlib.sha256(index.to_bytes(2, "big") + encoded).digest()
        mask |= 1 << (int.from_bytes(digest[:8], "big") % bit_count)
    return mask


@lru_cache(maxsize=256)
def _ids_mask(bit_count: int, hash_count: int, count: int) -> int:
    """The OR of the item masks of ids 0..count-1."""
    mask = 0
    for item in range(count):
        mask |= _item_mask(bit_count, hash_count, item)
    return mask


class BloomFilter:
    """A fixed-size Bloom filter over integer items.

    Args:
        bit_count: number of bits (multiple of 8).
        hash_count: number of hash functions.
    """

    def __init__(self, bit_count: int, hash_count: int) -> None:
        if bit_count < 8 or bit_count % 8 != 0:
            raise ValueError("bit_count must be a positive multiple of 8")
        if hash_count < 1:
            raise ValueError("hash_count must be positive")
        self.bit_count = bit_count
        self.hash_count = hash_count
        self._value = 0

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def add(self, item: int) -> None:
        """Insert an item."""
        self._value |= _item_mask(self.bit_count, self.hash_count, item)

    def __contains__(self, item: int) -> bool:
        mask = _item_mask(self.bit_count, self.hash_count, item)
        return self._value & mask == mask

    def contains_ids(self, count: int) -> bool:
        """``all(i in self for i in range(count))``, as one AND with the
        union of the ids' masks."""
        mask = _ids_mask(self.bit_count, self.hash_count, count)
        return self._value & mask == mask

    def union_with(self, other: "BloomFilter") -> bool:
        """Merge ``other`` into this filter; True if any bit changed.

        Raises:
            ValueError: on mismatched parameters (a receiver cannot
                meaningfully merge a filter of another geometry; MtG
                fixes the geometry system-wide).
        """
        if (other.bit_count, other.hash_count) != (self.bit_count, self.hash_count):
            raise ValueError("cannot union Bloom filters of different geometry")
        before, self._value = self._value, self._value | other._value
        return self._value != before

    def saturate(self) -> None:
        """Set every bit — the MtG attack of Sec. V-D."""
        self._value = (1 << self.bit_count) - 1

    def ones(self) -> int:
        """Number of set bits."""
        return self._value.bit_count()

    def is_saturated(self) -> bool:
        """Whether every bit is set."""
        return self._value == (1 << self.bit_count) - 1

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The raw bit array (position p is bit p % 8 of byte p // 8)."""
        return self._value.to_bytes(self.bit_count // 8, "little")

    @classmethod
    def from_bytes(cls, bit_count: int, hash_count: int, data: bytes) -> "BloomFilter":
        """Rebuild a filter from its raw bit array.

        Raises:
            ValueError: when the data length does not match bit_count.
        """
        instance = cls(bit_count, hash_count)
        if len(data) != bit_count // 8:
            raise ValueError("bit array length does not match bit_count")
        instance._value = int.from_bytes(data, "little")
        return instance

    def copy(self) -> "BloomFilter":
        """An independent copy."""
        return BloomFilter.from_bytes(self.bit_count, self.hash_count, self.to_bytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.bit_count == other.bit_count
            and self.hash_count == other.hash_count
            and self._value == other._value
        )
