"""Tests for relational structures and vocabularies."""

import pickle
from unittest import mock

import pytest

import repro.cq.structure as structure_module
from repro.cq import Structure, Vocabulary
from repro.io import structure_from_dict, structure_to_dict

try:
    import numpy
except ImportError:  # pragma: no cover - depends on the environment
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="numpy not installed")


def triangle() -> Structure:
    return Structure({"E": [(1, 2), (2, 3), (3, 1)]})


class TestVocabulary:
    def test_arities(self):
        vocabulary = Vocabulary({"E": 2, "R": 3})
        assert vocabulary["E"] == 2
        assert vocabulary["R"] == 3
        assert vocabulary.max_arity == 3
        assert len(vocabulary) == 2

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            Vocabulary({"E": 0})

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            Vocabulary({"": 2})

    def test_merge(self):
        merged = Vocabulary({"E": 2}).merge(Vocabulary({"R": 3}))
        assert dict(merged) == {"E": 2, "R": 3}

    def test_merge_conflict(self):
        with pytest.raises(ValueError):
            Vocabulary({"E": 2}).merge(Vocabulary({"E": 3}))

    def test_equality_and_hash(self):
        assert Vocabulary({"E": 2}) == Vocabulary({"E": 2})
        assert hash(Vocabulary({"E": 2})) == hash(Vocabulary({"E": 2}))


class TestStructureBasics:
    def test_active_domain(self):
        s = triangle()
        assert s.domain == frozenset({1, 2, 3})
        assert s.total_tuples == 3
        assert len(s) == 3

    def test_explicit_domain_keeps_isolated_elements(self):
        s = Structure({"E": [(1, 2)]}, domain=[1, 2, 9])
        assert 9 in s.domain

    def test_inferred_vocabulary(self):
        s = Structure({"R": [(1, 2, 3)]})
        assert s.arity("R") == 3

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Structure({"E": [(1, 2), (1, 2, 3)]})

    def test_explicit_vocabulary_for_empty_relation(self):
        s = Structure({"E": []}, vocabulary={"E": 2})
        assert s.arity("E") == 2
        assert s.tuples("E") == frozenset()

    def test_equality_and_hash(self):
        assert triangle() == triangle()
        assert hash(triangle()) == hash(triangle())
        assert triangle() != Structure({"E": [(1, 2)]})

    def test_facts_iteration_is_deterministic(self):
        assert list(triangle().facts()) == list(triangle().facts())
        assert len(list(triangle().facts())) == 3


class TestStructureContainment:
    def test_containment(self):
        small = Structure({"E": [(1, 2)]})
        assert small.is_contained_in(triangle())
        assert not triangle().is_contained_in(small)

    def test_strict_containment(self):
        small = Structure({"E": [(1, 2)]})
        assert small.is_strictly_contained_in(triangle())
        assert not triangle().is_strictly_contained_in(triangle())


class TestStructureConstructions:
    def test_induced(self):
        induced = triangle().induced({1, 2})
        assert induced.tuples("E") == frozenset({(1, 2)})
        assert induced.domain == frozenset({1, 2})

    def test_without(self):
        assert triangle().without(3).tuples("E") == frozenset({(1, 2)})

    def test_rename_injective(self):
        renamed = triangle().rename({1: "a", 2: "b", 3: "c"})
        assert renamed.tuples("E") == frozenset({("a", "b"), ("b", "c"), ("c", "a")})

    def test_quotient_collapses(self):
        quotient = triangle().rename({1: 1, 2: 1, 3: 3})
        assert quotient.tuples("E") == frozenset({(1, 1), (1, 3), (3, 1)})
        assert quotient.domain == frozenset({1, 3})

    def test_rename_with_callable(self):
        renamed = triangle().rename(lambda x: x * 10)
        assert renamed.domain == frozenset({10, 20, 30})

    def test_add_facts(self):
        extended = triangle().add_facts([("E", (1, 1))])
        assert (1, 1) in extended.tuples("E")
        assert extended.total_tuples == 4

    def test_remove_facts_keeps_domain(self):
        trimmed = triangle().remove_facts([("E", (1, 2))])
        assert trimmed.total_tuples == 2
        assert trimmed.domain == frozenset({1, 2, 3})

    def test_union(self):
        union = Structure({"E": [(1, 2)]}).union(Structure({"R": [(2, 3, 4)]}))
        assert union.tuples("E") == frozenset({(1, 2)})
        assert union.tuples("R") == frozenset({(2, 3, 4)})

    def test_disjoint_union_is_disjoint(self):
        combined, left, right = triangle().disjoint_union(triangle())
        assert combined.total_tuples == 6
        assert len(combined) == 6
        assert set(left.values()).isdisjoint(right.values())

    def test_relabel_canonically(self):
        relabeled, mapping = triangle().relabel_canonically()
        assert relabeled.domain == frozenset({"v0", "v1", "v2"})
        assert len(mapping) == 3


def tuple_backed(relations, **kwargs) -> Structure:
    """The same structure built without numpy: frozensets of tuples."""
    with mock.patch.object(structure_module, "_np", None):
        return Structure(relations, **kwargs)


def is_array_backed(structure: Structure) -> bool:
    return structure.int_span is not None


#: Row sets stored as int64 arrays, each with the keyword arguments it needs.
INT_CASES = [
    ({"E": [(1, 2), (2, 3), (3, 1)]}, {}),
    ({"E": [(0, 5), (5, 0)], "R": [(1, 2, 3)], "S": [(4,)]}, {}),
    ({"E": [(-3, -1), (-1, 2), (2, -3), (-1, -1)]}, {}),
    ({"E": [(1, 2)], "R": []}, {"vocabulary": {"E": 2, "R": 3}, "domain": [1, 2, 9]}),
    ({"E": [(2**62 - 1, -(2**62 - 1)), (0, 2**62 - 1)]}, {}),
    ({"E": [(1, 1), (1, 2), (2, 2), (3, 4)] * 3}, {}),
]


@needs_numpy
class TestArrayStorage:
    @pytest.mark.parametrize("relations, kwargs", INT_CASES)
    def test_both_forms_agree(self, relations, kwargs):
        arrays = Structure(relations, **kwargs)
        tuples = tuple_backed(relations, **kwargs)
        assert is_array_backed(arrays) and not is_array_backed(tuples)
        assert arrays.relations == tuples.relations
        assert arrays.domain == tuples.domain
        assert arrays.vocabulary == tuples.vocabulary
        assert arrays == tuples and tuples == arrays
        assert hash(arrays) == hash(tuples)
        assert arrays.total_tuples == tuples.total_tuples
        assert len(arrays) == len(tuples)
        assert list(arrays.facts()) == list(tuples.facts())
        assert repr(arrays) == repr(tuples)
        keep = sorted(arrays.domain)[: max(1, len(arrays.domain) // 2)]
        assert arrays.induced(keep) == tuples.induced(keep)
        shift = {value: value + 1 for value in arrays.domain}
        assert arrays.rename(shift) == tuples.rename(shift)
        other = Structure({"E": [(7, 8)], "T": [(9,)]})
        assert arrays.union(other) == tuples.union(other)
        assert arrays.is_contained_in(tuples) and tuples.is_contained_in(arrays)
        assert structure_from_dict(structure_to_dict(arrays)) == structure_from_dict(
            structure_to_dict(tuples)
        )
        assert structure_to_dict(arrays) == structure_to_dict(tuples)

    @pytest.mark.parametrize("relations, kwargs", INT_CASES)
    def test_pickle_round_trip(self, relations, kwargs):
        original = Structure(relations, **kwargs)
        copy = pickle.loads(pickle.dumps(original))
        assert is_array_backed(copy)
        assert copy == original and hash(copy) == hash(original)
        for name in original.vocabulary:
            assert not copy.matrix(name).flags.writeable

    def test_matrix_is_sorted_distinct_read_only_and_column_major(self):
        db = Structure({"E": [(3, 1), (1, 2), (3, 1), (1, 1), (2, 9)]})
        matrix = db.matrix("E")
        assert matrix.dtype == numpy.int64
        assert matrix.tolist() == [[1, 1], [1, 2], [2, 9], [3, 1]]
        assert matrix.flags.f_contiguous and not matrix.flags.writeable
        assert db.int_span == (1, 9)
        assert db.total_tuples == 4
        with pytest.raises(ValueError):
            matrix[0, 0] = 5

    def test_explicit_domain_widens_the_span(self):
        db = Structure({"E": [(1, 2)]}, domain=range(-4, 10))
        assert db.int_span == (-4, 9)

    def test_unknown_and_vocabulary_only_relations_are_empty(self):
        db = Structure({"E": [(1, 2)]}, vocabulary={"E": 2, "R": 3})
        assert db.matrix("R").shape == (0, 3)
        assert db.matrix("missing").shape[0] == 0
        assert db.tuples("R") == frozenset()
        assert db.tuples("missing") == frozenset()
        assert db.arity("R") == 3

    def test_array_rows_are_accepted_and_copied(self):
        rows = numpy.array([[2, 1], [0, 4], [2, 1]], dtype=numpy.int64)
        db = Structure({"E": rows})
        assert db == tuple_backed({"E": [(2, 1), (0, 4)]})
        rows[0, 0] = 99  # the structure owns its copy
        assert db.tuples("E") == frozenset({(2, 1), (0, 4)})

    def test_array_rows_outside_the_bound_become_tuples(self):
        rows = numpy.array([[2**62, 1]], dtype=numpy.int64)
        db = Structure({"E": rows})
        assert not is_array_backed(db)
        assert db.tuples("E") == frozenset({(2**62, 1)})

    def test_tuple_view_is_built_once(self):
        db = Structure({"E": [(1, 2), (2, 3)]})
        assert db.relations is db.relations
        assert db.tuples("E") is db.relations["E"]


@needs_numpy
class TestStorageFallbacks:
    """Inputs that must keep frozensets of tuples, or fail as before."""

    @pytest.mark.parametrize(
        "relations, kwargs",
        [
            pytest.param({"E": [(True, False)]}, {}, id="bools"),
            pytest.param({"E": [(1, 2), (True, 2)]}, {}, id="bool-beside-equal-int"),
            pytest.param({"E": [(1, 2), (1.0, 3)]}, {}, id="float-beside-equal-int"),
            pytest.param({"E": [(2**62, 0)]}, {}, id="2**62"),
            pytest.param({"E": [(-(2**63), 0)]}, {}, id="-2**63"),
            pytest.param({"E": [(2**63, 0)]}, {}, id="2**63"),
            pytest.param({"E": [("a", "b")]}, {}, id="strings"),
            pytest.param({"E": [(1, 2)], "L": [("a",)]}, {}, id="int-and-str-relations"),
            pytest.param({"L": [("a",)], "E": [(1, 2)]}, {}, id="str-then-int-relations"),
            pytest.param({"E": [(1, 2)]}, {"domain": ["x"]}, id="str-explicit-domain"),
            pytest.param({"E": []}, {"vocabulary": {"E": 2}}, id="empty-domain"),
            pytest.param({}, {}, id="no-relations"),
        ],
    )
    def test_keeps_frozensets(self, relations, kwargs):
        db = Structure(relations, **kwargs)
        assert not is_array_backed(db)
        with pytest.raises(ValueError):
            db.matrix("E")
        expected = tuple_backed(relations, **kwargs)
        assert db == expected
        assert repr(db) == repr(expected)

    def test_bool_rows_keep_their_values(self):
        db = Structure({"E": [(1, 2), (True, 2), (True, 3)]})
        assert (True, 3) in db.tuples("E")
        assert any(type(row[0]) is bool for row in db.tuples("E"))

    @pytest.mark.parametrize("value", [2**62 - 1, -(2**62 - 1), -(2**62)])
    def test_values_inside_the_bound_are_arrays(self, value):
        db = Structure({"E": [(value, 0)]})
        assert is_array_backed(db)
        assert db.tuples("E") == frozenset({(value, 0)})

    def test_negative_ints_are_arrays(self):
        db = Structure({"E": [(-5, -7), (-7, -5)]})
        assert db.int_span == (-7, -5)

    def test_explicit_non_int_domain_takes_the_codec_path(self):
        from repro.cq import parse_query
        from repro.evaluation import evaluate
        from repro.evaluation.columnar import ColumnarKernel

        db = Structure({"E": [(1, 2), (2, 3)]}, domain=[1, 2, 3, "isolated"])
        assert not is_array_backed(db)
        query = parse_query("Q(x) :- E(x, y)")
        kernel = ColumnarKernel()
        kernel.atom_bindings(db, query.atoms[0])
        assert kernel._codec is not None
        assert evaluate(query, db) == evaluate(query, db, engine="tuple")

    def test_arity_zero_relation_is_rejected_in_both_forms(self):
        for build in (Structure, tuple_backed):
            with pytest.raises(ValueError):
                build({"E": [(1, 2)], "P": [()]})

    def test_duplicate_rows_collapse_in_both_forms(self):
        rows = [(1, 2), (1, 2), (2, 1), (1, 2)]
        assert Structure({"E": rows}).total_tuples == 2
        assert tuple_backed({"E": rows}).total_tuples == 2
        array_rows = numpy.array(rows * 5, dtype=numpy.int64)
        assert Structure({"E": array_rows}).total_tuples == 2

    @pytest.mark.parametrize("build", [Structure, tuple_backed])
    def test_arity_mismatch_raises_in_both_forms(self, build):
        with pytest.raises(ValueError, match="has length 3, but 'E' has arity 2"):
            build({"E": [(1, 2), (1, 2, 3)]})
        with pytest.raises(ValueError, match="has arity 3"):
            build({"E": [(1, 2)]}, vocabulary={"E": 3})

    def test_array_arity_mismatch_raises(self):
        with pytest.raises(ValueError, match="has arity 3"):
            Structure({"E": numpy.zeros((2, 2), dtype=numpy.int64)}, vocabulary={"E": 3})
