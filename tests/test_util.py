"""Tests for utility helpers."""

import pytest

from repro.util import (
    bell_number,
    canonical_partition,
    fresh_names,
    partition_to_mapping,
    refinements,
    set_partitions,
)


class TestBellNumbers:
    @pytest.mark.parametrize(
        "n,expected", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (8, 4140)]
    )
    def test_known_values(self, n, expected):
        assert bell_number(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestSetPartitions:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_count_matches_bell(self, n):
        assert sum(1 for _ in set_partitions(range(n))) == bell_number(n)

    def test_all_distinct(self):
        seen = {canonical_partition(p) for p in set_partitions("abcd")}
        assert len(seen) == bell_number(4)

    def test_blocks_cover_everything(self):
        for partition in set_partitions("abc"):
            elements = [x for block in partition for x in block]
            assert sorted(elements) == ["a", "b", "c"]

    def test_first_partition_is_coarsest(self):
        first = next(set_partitions("abc"))
        assert first == (("a", "b", "c"),)


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


class TestRefinements:
    def test_refinements_of_pair(self):
        refined = list(refinements((("a", "b"),)))
        assert refined == [(("a",), ("b",))]

    def test_proper_only(self):
        base = (("a",), ("b",))
        assert list(refinements(base)) == []

    def test_counts(self):
        # Refinements of a single 3-block: all partitions of 3 elements
        # except the coarsest one.
        refined = list(refinements((("a", "b", "c"),)))
        assert len(refined) == bell_number(3) - 1


class TestFreshNames:
    def test_avoids_taken(self):
        stream = fresh_names({"z0", "z2"})
        assert [next(stream) for _ in range(3)] == ["z1", "z3", "z4"]

    def test_prefix(self):
        stream = fresh_names(set(), prefix="w")
        assert next(stream) == "w0"
