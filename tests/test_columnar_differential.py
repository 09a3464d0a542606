"""Differential suite: columnar evaluators ≡ the tuple-at-a-time oracle.

Every test runs each evaluator with ``engine="columnar"`` (under both the
numpy and pure-python backends) and pins the answer set bit-equal to the
``engine="tuple"`` oracle — the original ``Bindings`` algebra.  The oracle
runs the same algorithm as the columnar path, so every answer is also
pinned to ``hom_evaluate``, which enumerates homomorphisms and shares no
code with either engine.  Covers the awkward corners: empty relations,
repeated-variable atoms, cartesian products, non-integer domains
(dictionary encoding), and randomized queries/databases across all four
tree/join evaluators.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cq import Structure, parse_query
from repro.evaluation import (
    EvalStats,
    evaluate,
    hom_evaluate,
    hypertree_evaluate,
    make_kernel,
    naive_join_evaluate,
    numpy_available,
    set_backend,
    treewidth_evaluate,
    yannakakis_evaluate,
)
from repro.evaluation.backend import backend_name
from repro.evaluation.columnar import ColumnarKernel, _unique

BACKEND_PARAMS = [
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not numpy_available(), reason="numpy not installed"
        ),
    ),
    "python",
]


@pytest.fixture(params=BACKEND_PARAMS)
def backend(request):
    set_backend(request.param)
    yield request.param
    set_backend(None)


def _tuple_oracle(evaluator, query, db, **kw):
    return evaluator(query, db, engine="tuple", **kw)


EVALUATORS = {
    "naive": naive_join_evaluate,
    "treewidth": treewidth_evaluate,
    "hypertree": hypertree_evaluate,
}


def assert_all_engines_agree(query, db, *, acyclic=None):
    """Columnar answers (current backend) must equal the tuple oracle, and
    both must equal ``hom_evaluate``."""
    truth = hom_evaluate(query, db)
    evaluators = dict(EVALUATORS)
    if acyclic is None:
        from repro.hypergraphs.gyo import is_acyclic_query

        acyclic = is_acyclic_query(query)
    if acyclic:
        evaluators["yannakakis"] = yannakakis_evaluate
    for name, evaluator in evaluators.items():
        expected = _tuple_oracle(evaluator, query, db)
        assert expected == truth, (name, query)
        got = evaluator(query, db, engine="columnar")
        assert got == expected, (name, query)


class TestHandPickedCorners:
    def test_backend_fixture_is_in_force(self, backend):
        assert backend_name() == backend

    def test_path_join(self, backend):
        db = Structure({"E": [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (6, 6)]})
        assert_all_engines_agree(
            parse_query("Q(x, z) :- E(x, y), E(y, z)"), db
        )

    def test_triangle(self, backend):
        db = Structure({"E": [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (6, 6)]})
        assert_all_engines_agree(
            parse_query("Q(x) :- E(x, y), E(y, z), E(z, x)"), db
        )

    def test_empty_relation(self, backend):
        db = Structure({"E": [(1, 2)], "R": []})
        assert_all_engines_agree(
            parse_query("Q(x) :- E(x, y), R(y, z)"), db
        )

    def test_missing_relation(self, backend):
        db = Structure({"E": [(1, 2)]})
        assert_all_engines_agree(parse_query("Q(x) :- S(x, y)"), db)

    def test_empty_database_boolean(self, backend):
        db = Structure({"E": []})
        assert_all_engines_agree(parse_query("Q() :- E(x, y)"), db)

    def test_repeated_variable_atom(self, backend):
        db = Structure({"E": [(1, 1), (1, 2), (2, 2), (3, 4)]})
        assert_all_engines_agree(parse_query("Q(x) :- E(x, x)"), db)

    def test_repeated_variable_triple(self, backend):
        db = Structure({"T": [(1, 1, 1), (1, 1, 2), (2, 2, 2), (3, 1, 3)]})
        assert_all_engines_agree(parse_query("Q(x, y) :- T(x, x, y)"), db)

    def test_repeated_head_variable(self, backend):
        db = Structure({"E": [(1, 2), (2, 3)]})
        assert_all_engines_agree(parse_query("Q(x, x, y) :- E(x, y)"), db)

    def test_cartesian_product(self, backend):
        db = Structure({"E": [(1, 2), (3, 4)], "S": [(7,), (8,)]})
        assert_all_engines_agree(parse_query("Q(x, u) :- E(x, y), S(u)"), db)

    def test_string_domain_dictionary_encoding(self, backend):
        db = Structure(
            {
                "E": [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
                "L": [("a",), ("c",)],
            }
        )
        assert_all_engines_agree(
            parse_query("Q(x, z) :- E(x, y), E(y, z), L(x)"), db
        )

    def test_mixed_domain_falls_back_to_codec(self, backend):
        db = Structure({"E": [(1, "b"), ("b", 2), (2, 1)]})
        assert_all_engines_agree(parse_query("Q(x, z) :- E(x, y), E(y, z)"), db)

    def test_negative_integer_values(self, backend):
        db = Structure(
            {"E": [(-3, -1), (-1, 2), (2, -3), (-1, -1), (2, 0), (0, -3)]}
        )
        assert_all_engines_agree(
            parse_query("Q(x, z) :- E(x, y), E(y, z), E(z, x)"), db
        )
        assert_all_engines_agree(parse_query("Q(x, y) :- E(x, y), E(y, x)"), db)

    def test_two_column_key_overflow_takes_void_fallback(self, backend):
        big = 2**40
        db = Structure(
            {"E": [(0, big), (big, 0), (big, big), (0, 1), (1, 0), (1, big)]}
        )
        if backend == "numpy":
            kernel = ColumnarKernel()
            kernel.atom_bindings(db, parse_query("Q() :- E(x, y)").atoms[0])
            assert kernel._packs(1) and not kernel._packs(2)
        assert_all_engines_agree(parse_query("Q(x, y) :- E(x, y), E(y, x)"), db)
        assert_all_engines_agree(
            parse_query("Q(x, z) :- E(x, y), E(y, z), E(z, x)"), db
        )

    def test_four_column_shared_key(self, backend):
        rows = [
            (a, b, c, d)
            for a in range(3)
            for b in range(3)
            for c in range(2)
            for d in range(2)
            if (a + 2 * b + c * d) % 3 != 1
        ]
        db = Structure({"R": rows, "S": [(0, 1, 1, 0, 5), (2, 2, 0, 1, 6)]})
        assert_all_engines_agree(
            parse_query("Q(a, b) :- R(a, b, c, d), R(b, a, d, c)"), db
        )
        assert_all_engines_agree(
            parse_query("Q(a, e) :- R(a, b, c, d), S(a, b, c, d, e)"), db
        )
        assert_all_engines_agree(
            parse_query("Q(a, b, c) :- R(a, b, c, d), R(b, c, a, d)"), db
        )

    def test_values_next_to_the_codec_switch(self, backend):
        top = 2**62 - 1
        edges = [(top, -top), (-top, top), (top, top), (-top, 0), (0, top)]
        db = Structure({"E": edges})
        assert_all_engines_agree(parse_query("Q(x, y) :- E(x, y), E(y, x)"), db)
        assert_all_engines_agree(
            parse_query("Q(x, z) :- E(x, y), E(y, z), E(z, x)"), db
        )
        # One past the bound: the domain goes through the value codec.
        db = Structure({"E": edges + [(2**62, top)]})
        assert_all_engines_agree(parse_query("Q(x, y) :- E(x, y), E(y, x)"), db)
        assert_all_engines_agree(parse_query("Q(x, z) :- E(x, y), E(y, z)"), db)

    def test_kernel_refuses_a_second_database(self, backend):
        atom = parse_query("Q(x) :- E(x, y)").atoms[0]
        first = Structure({"E": [(1, 2)]})
        kernel = make_kernel("columnar")
        assert len(kernel.atom_bindings(first, atom)) == 1
        assert len(kernel.atom_bindings(first, atom)) == 1
        with pytest.raises(ValueError, match="one database"):
            kernel.atom_bindings(Structure({"E": [(3, 4), (5, 6)]}), atom)

    def test_boolean_query_answer_conventions(self, backend):
        db = Structure({"E": [(1, 2), (2, 3)]})
        yes = parse_query("Q() :- E(x, y), E(y, z)")
        no = parse_query("Q() :- E(x, x)")
        assert evaluate(yes, db, engine="columnar") == frozenset({()})
        assert evaluate(no, db, engine="columnar") == frozenset()

    def test_evaluate_auto_matches_tuple(self, backend):
        db = Structure({"E": [(1, 2), (2, 3), (3, 1), (4, 2)]})
        for text in [
            "Q(x) :- E(x, y), E(y, z)",
            "Q() :- E(x, y), E(y, z), E(z, x)",
            "Q(x, y) :- E(x, y), E(y, x)",
        ]:
            query = parse_query(text)
            assert evaluate(query, db, engine="columnar") == evaluate(
                query, db, engine="tuple"
            )


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestUnique:
    INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

    @staticmethod
    def _check(values):
        import numpy as np

        keys = np.asarray(values, dtype=np.int64)
        got = _unique(np, keys)
        expected = np.unique(keys)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()

    @given(st.lists(INT64, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_matches_np_unique(self, values):
        self._check(values)

    @given(st.lists(st.integers(-4, 4), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_np_unique_with_many_repeats(self, values):
        self._check(values)

    @pytest.mark.parametrize(
        "values", [[], [7], [-(2**63)], [5] * 9, [2**63 - 1, -(2**63)] * 3]
    )
    def test_edge_arrays(self, values):
        self._check(values)


class TestRandomizedDifferential:
    def test_random_graph_queries(self, backend):
        from repro.workloads import random_digraph_db, random_graph_query

        for seed in range(10):
            query = random_graph_query(4, 5, seed=seed, head_size=seed % 3)
            db = random_digraph_db(8, 18, seed=seed)
            assert_all_engines_agree(query, db)

    def test_random_higher_arity(self, backend):
        from repro.workloads import random_cq, random_database

        for seed in range(6):
            query = random_cq({"R": 3, "S": 2}, 5, 4, seed=seed, head_size=1)
            db = random_database({"R": 3, "S": 2}, 6, 25, seed=seed)
            assert_all_engines_agree(query, db)

    def test_sparse_databases_with_empty_relations(self, backend):
        from repro.workloads import random_cq, random_database

        for seed in range(4):
            query = random_cq({"R": 2, "S": 2, "T": 1}, 4, 4, seed=seed, head_size=2)
            # so few tuples that some relations come out empty
            db = random_database({"R": 2, "S": 2, "T": 1}, 5, 3, seed=seed)
            assert_all_engines_agree(query, db)


def _tuple_backed(db):
    """``db`` rebuilt as frozensets of tuples (the no-numpy storage form)."""
    from unittest import mock

    import repro.cq.structure as structure_module

    with mock.patch.object(structure_module, "_np", None):
        return Structure(db.relations, vocabulary=db.vocabulary, domain=db.domain)


GENERATED_QUERIES = [
    "Q(x0) :- R0(x0, x1), R1(x1, x2), R2(x2, x3)",
    "Q(x0, x2) :- R0(x0, x1), R1(x1, x2), R2(x2, x0)",
    "Q(x0) :- R0(x0, x0), R1(x0, x1)",
    "Q() :- R0(x0, x1), R1(x1, x2), R2(x2, x3), R0(x3, x0)",
    "Q(x0) :- R0(x0, x1), R9(x1, x2)",
]


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestArrayBackedDatabases:
    """Int databases store int64 arrays; evaluation must not care."""

    @staticmethod
    def _database():
        from repro.workloads import chain_join_db

        db = chain_join_db(3, 300, 25, skew=0.5, seed=3)
        assert db.int_span is not None
        return db

    @pytest.mark.parametrize("text", GENERATED_QUERIES)
    def test_all_evaluators_match_the_tuple_oracle(self, backend, text):
        query = parse_query(text)
        db = self._database()
        assert_all_engines_agree(query, db)
        twin = _tuple_backed(db)
        assert twin.int_span is None
        assert evaluate(query, db) == evaluate(query, twin)

    def test_numpy_columnar_evaluation_never_builds_the_tuple_view(self, monkeypatch):
        set_backend("numpy")
        try:
            db = self._database()

            def tuple_view(self):
                raise AssertionError("columnar evaluation built the tuple view")

            monkeypatch.setattr(Structure, "relations", property(tuple_view))
            for text in GENERATED_QUERIES:
                query = parse_query(text)
                for evaluator in (
                    naive_join_evaluate,
                    treewidth_evaluate,
                    hypertree_evaluate,
                ):
                    evaluator(query, db, engine="columnar")
                evaluate(query, db)  # Yannakakis on the acyclic ones
        finally:
            set_backend(None)

    def test_scan_slices_the_stored_matrix(self):
        set_backend("numpy")
        try:
            db = self._database()
            kernel = ColumnarKernel()
            out = kernel.atom_bindings(db, parse_query("Q(x, y) :- R1(x, y)").atoms[0])
            assert out.data[0].base is db.matrix("R1")
            assert kernel._matrices == {}
            assert (kernel._base, kernel._radix) == (0, 25)
        finally:
            set_backend(None)


class TestStatsLedger:
    def test_columnar_records_per_operator_rows(self, backend):
        db = Structure({"E": [(1, 2), (2, 3), (3, 4), (4, 5)]})
        query = parse_query("Q(x) :- E(x, y), E(y, z)")
        stats = EvalStats()
        yannakakis_evaluate(query, db, stats, engine="columnar")
        assert stats.operators["scan"]["calls"] == 2
        assert stats.operators["scan"]["rows_scanned"] == 8
        assert stats.operators["semijoin"]["calls"] >= 1
        assert stats.rows_emitted > 0
        payload = stats.as_dict()
        assert payload["operators"]["scan"]["rows_scanned"] == 8

    @pytest.mark.parametrize(
        "evaluator, scans, hashed",
        # rows_hashed as the kernels charged it before relations were
        # flattened once per kernel; the scan cache must not change it.
        # Variable elimination scans each atom once and hashes one side of
        # the join that eliminates b.
        [(yannakakis_evaluate, 2, 15), (treewidth_evaluate, 2, 7)],
    )
    def test_every_scan_charges_the_whole_relation(
        self, backend, evaluator, scans, hashed
    ):
        edges = [(1, 2), (2, 1), (2, 3), (3, 3), (3, 4), (4, 2), (5, 5)]
        db = Structure({"E": edges})
        stats = EvalStats()
        answers = evaluator(
            parse_query("Q(a) :- E(a, b), E(b, a)"), db, stats=stats
        )
        assert answers == {(1,), (2,), (3,), (5,)}
        scan = stats.operators["scan"]
        assert scan["calls"] == scans
        assert scan["rows_scanned"] == scans * len(edges)
        assert stats.tuples_scanned == scans * len(edges)
        assert stats.rows_hashed == hashed

    def test_tuple_engine_records_ops_too(self, backend):
        db = Structure({"E": [(1, 2), (2, 3)]})
        stats = EvalStats()
        naive_join_evaluate(
            parse_query("Q(x) :- E(x, y)"), db, stats, engine="tuple"
        )
        assert stats.operators["scan"]["calls"] == 1
        # legacy semantics: 2 scanned + join re-counts both inputs (1 + 2)
        assert stats.tuples_scanned == 5


class TestEliminationStaysNearTheInput:
    """Treewidth-2 queries on sparse digraphs (average degree 2).

    The TW(2) approximations of a 4-cycle under an apex: a product of bag
    variables with the active domain reaches 669k rows here at 2k edges.
    The 4-cycle with every variable in the head, its atoms written so that
    neighbors in the list share no variable: joining what is left in list
    order forms ``E ⋈ E`` with no shared column, ``|E|²`` rows.  Under
    elimination the largest intermediate is at most a join of two edge
    relations on one shared vertex, about ``|E|`` times the average degree
    (2,000 and 20,000 rows for the approximations, 3,989 and 40,064 for
    the cycle, measured); the bound allows 2.5 rows per edge.
    """

    APEX = (
        "Q(a,c) :- E(a,b), E(b,c), E(c,d), E(d,a), "
        "E(x,a), E(x,b), E(x,c), E(x,d)"
    )
    ALL_HEAD_C4 = "Q(a,b,c,d) :- E(a,b), E(c,d), E(b,c), E(d,a)"
    ROWS_PER_EDGE = 2.5
    BACKENDS = ("numpy", "python") if numpy_available() else ("python",)

    def _evaluate_on_every_backend(self, queries, db, edges):
        answers = {}
        for backend in self.BACKENDS:
            set_backend(backend)
            try:
                stats = EvalStats()
                answers[backend] = [
                    treewidth_evaluate(query, db, 2, stats) for query in queries
                ]
            finally:
                set_backend(None)
            assert stats.intermediate_max <= self.ROWS_PER_EDGE * edges, backend
        assert all(got == answers["python"] for got in answers.values())
        return answers["python"]

    @pytest.mark.parametrize("edges", [2_000, 20_000])
    def test_intermediates_stay_bounded_and_answers_agree(self, edges):
        from repro.core import TreewidthClass, all_approximations
        from repro.workloads import scaled_digraph_db

        approximations = all_approximations(
            parse_query(self.APEX), TreewidthClass(2)
        )
        assert len(approximations) == 3
        db = scaled_digraph_db(edges // 2, edges, seed=0)
        answers = self._evaluate_on_every_backend(approximations, db, edges)
        if edges == 2_000:
            for query, got in zip(approximations, answers):
                assert got == hom_evaluate(query, db)
                assert got == naive_join_evaluate(query, db, engine="tuple")

    def test_head_variables_join_without_a_product(self):
        from repro.workloads import scaled_digraph_db

        query = parse_query(self.ALL_HEAD_C4)
        db = scaled_digraph_db(1_000, 2_000, seed=0)
        [got] = self._evaluate_on_every_backend([query], db, 2_000)
        assert got
        assert got == hom_evaluate(query, db)
        assert got == naive_join_evaluate(query, db, engine="tuple")
