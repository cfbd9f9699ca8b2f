"""Tests for the Bloom filter substrate."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bloom import BloomFilter, optimal_parameters


class TestOptimalParameters:
    def test_reasonable_sizing(self):
        bits, hashes = optimal_parameters(20, 0.01)
        assert bits % 8 == 0
        assert 160 <= bits <= 256  # ~9.6 bits/element for 1%
        assert 5 <= hashes <= 9

    def test_lower_fp_needs_more_bits(self):
        loose, _ = optimal_parameters(50, 0.1)
        tight, _ = optimal_parameters(50, 0.001)
        assert tight > loose

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValueError):
            optimal_parameters(10, 0.0)
        with pytest.raises(ValueError):
            optimal_parameters(10, 1.0)


class TestBloomFilter:
    def test_membership(self):
        bloom = BloomFilter(128, 4)
        bloom.add(42)
        assert 42 in bloom

    def test_fresh_filter_is_empty(self):
        bloom = BloomFilter(128, 4)
        assert all(item not in bloom for item in range(20))
        assert bloom.ones() == 0

    def test_false_positive_rate_is_low(self):
        bits, hashes = optimal_parameters(30, 0.01)
        bloom = BloomFilter(bits, hashes)
        for item in range(30):
            bloom.add(item)
        false_positives = sum(1 for item in range(1000, 3000) if item in bloom)
        assert false_positives < 2000 * 0.05  # generous margin over 1%

    def test_union(self):
        a = BloomFilter(64, 3)
        b = BloomFilter(64, 3)
        a.add(1)
        b.add(2)
        changed = a.union_with(b)
        assert changed
        assert 1 in a and 2 in a

    def test_union_no_change(self):
        a = BloomFilter(64, 3)
        a.add(1)
        b = a.copy()
        assert not a.union_with(b)

    def test_union_geometry_mismatch(self):
        with pytest.raises(ValueError):
            BloomFilter(64, 3).union_with(BloomFilter(128, 3))

    def test_saturation_attack(self):
        bloom = BloomFilter(64, 3)
        bloom.saturate()
        assert bloom.is_saturated()
        assert all(item in bloom for item in range(1000))

    def test_serialisation_roundtrip(self):
        bloom = BloomFilter(64, 3)
        bloom.add(7)
        rebuilt = BloomFilter.from_bytes(64, 3, bloom.to_bytes())
        assert rebuilt == bloom
        assert 7 in rebuilt

    def test_from_bytes_length_check(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(64, 3, b"wrong-size")

    def test_copy_is_independent(self):
        bloom = BloomFilter(64, 3)
        twin = bloom.copy()
        twin.add(5)
        assert 5 not in bloom

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 3)
        with pytest.raises(ValueError):
            BloomFilter(63, 3)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)

    def test_ones_counts_bits(self):
        bloom = BloomFilter(64, 1)
        bloom.add(9)
        assert bloom.ones() == 1


class TestWireFormat:
    """Exact bytes: position p travels as bit p % 8 of byte p // 8.

    A round trip alone would pass with the bit order flipped both ways;
    MtG payloads and the fast path's ``int.from_bytes(..., "little")``
    both rely on this order.
    """

    def test_items_zero_to_nine(self):
        bloom = BloomFilter(64, 3)
        for item in range(10):
            bloom.add(item)
        assert bloom.to_bytes() == bytes.fromhex("1b423059b08f1000")
        assert bloom.ones() == 21
        assert int.from_bytes(bloom.to_bytes(), "little").bit_count() == 21

    def test_saturated(self):
        bloom = BloomFilter(64, 3)
        bloom.saturate()
        assert bloom.to_bytes() == b"\xff" * 8
        assert bloom.ones() == 64
        assert bloom.is_saturated()
        assert BloomFilter.from_bytes(64, 3, b"\xff" * 8).is_saturated()
        assert not BloomFilter.from_bytes(64, 3, b"\xff" * 7 + b"\x7f").is_saturated()


class _ReferenceBloom:
    """The byte-array filter the int-backed one replaced."""

    def __init__(self, bit_count, hash_count):
        self.bit_count, self.hash_count = bit_count, hash_count
        self.bits = bytearray(bit_count // 8)

    def positions(self, item):
        encoded = item.to_bytes(8, "big", signed=True)
        return [
            int.from_bytes(
                hashlib.sha256(index.to_bytes(2, "big") + encoded).digest()[:8], "big"
            )
            % self.bit_count
            for index in range(self.hash_count)
        ]

    def add(self, item):
        for position in self.positions(item):
            self.bits[position // 8] |= 1 << (position % 8)

    def __contains__(self, item):
        return all(
            self.bits[position // 8] & (1 << (position % 8))
            for position in self.positions(item)
        )

    def union_with(self, other):
        changed = False
        for index, chunk in enumerate(other.bits):
            merged = self.bits[index] | chunk
            if merged != self.bits[index]:
                self.bits[index] = merged
                changed = True
        return changed

    def saturate(self):
        self.bits = bytearray(b"\xff" * len(self.bits))


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(8, 1), (64, 3), (96, 7), (200, 5)]),
    st.lists(
        st.tuples(
            st.sampled_from(["add", "union", "saturate"]),
            st.integers(0, 2),  # which filter
            st.integers(0, 2),  # the other filter, for union
            st.integers(-3, 40),  # the item, for add
        ),
        max_size=30,
    ),
)
def test_int_backed_filter_matches_a_bytearray_reference(geometry, ops):
    filters = [BloomFilter(*geometry) for _ in range(3)]
    references = [_ReferenceBloom(*geometry) for _ in range(3)]
    for kind, which, other, item in ops:
        if kind == "add":
            filters[which].add(item)
            references[which].add(item)
        elif kind == "union":
            assert filters[which].union_with(filters[other]) == references[
                which
            ].union_with(references[other])
        elif kind == "saturate" and which == 0:  # keep saturation rare
            filters[which].saturate()
            references[which].saturate()
    for bloom, reference in zip(filters, references):
        assert bloom.to_bytes() == bytes(reference.bits)
        assert bloom.ones() == sum(bin(chunk).count("1") for chunk in reference.bits)
        assert bloom.is_saturated() == all(chunk == 0xFF for chunk in reference.bits)
        for item in range(-3, 41):
            assert (item in bloom) == (item in reference)
        for count in (1, 5, 20, 41):
            assert bloom.contains_ids(count) == all(
                item in reference for item in range(count)
            )
