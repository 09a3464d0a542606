"""Tests for utility helpers."""

import pytest

from repro.testing import reference
from repro.util import bell_number, fresh_names, partition_to_mapping, rgs_codes
from repro.util.partitions import _blocks_of


class TestBellNumbers:
    @pytest.mark.parametrize(
        "n,expected", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (8, 4140)]
    )
    def test_known_values(self, n, expected):
        assert bell_number(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestGrowthStrings:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_count_matches_bell(self, n):
        assert sum(1 for _ in rgs_codes(n)) == bell_number(n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_listing_matches_the_reference(self, n):
        assert list(rgs_codes(n)) == list(reference.partitions(n))

    def test_all_distinct(self):
        assert len(set(rgs_codes(4))) == bell_number(4)

    def test_blocks_cover_everything(self):
        for code in rgs_codes(3):
            blocks = _blocks_of("abc", code)
            elements = [x for block in blocks for x in block]
            assert sorted(elements) == ["a", "b", "c"]

    def test_first_partition_is_coarsest(self):
        first = next(rgs_codes(3))
        assert _blocks_of("abc", first) == (("a", "b", "c"),)


class TestPartitionMapping:
    def test_representatives(self):
        mapping = partition_to_mapping([("a", "b"), ("c",)])
        assert mapping == {"a": "a", "b": "a", "c": "c"}

    def test_duplicate_detection(self):
        with pytest.raises(ValueError):
            partition_to_mapping([("a", "b"), ("b",)])

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            partition_to_mapping([()])


class TestFreshNames:
    def test_avoids_taken(self):
        stream = fresh_names({"z0", "z2"})
        assert [next(stream) for _ in range(3)] == ["z1", "z3", "z4"]

    def test_prefix(self):
        stream = fresh_names(set(), prefix="w")
        assert next(stream) == "w0"
