"""Tests for the evaluation engine: relations, algebra, strategies."""

import pytest

from repro.cq import Structure, parse_query
from repro.evaluation import (
    Bindings,
    EvalStats,
    atom_bindings,
    backtracking_evaluate,
    evaluate,
    hom_evaluate,
    is_in_answer,
    join,
    naive_join_evaluate,
    project,
    project_answer,
    semijoin,
    unit,
)
from repro.cq.query import Atom


def toy_db() -> Structure:
    return Structure(
        {
            "E": [
                (1, 2), (2, 3), (3, 1),  # a triangle
                (3, 4), (4, 5),          # a tail
                (6, 6),                  # a loop
            ]
        }
    )


class TestBindings:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Bindings(("x", "x"), frozenset())

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Bindings(("x",), frozenset({(1, 2)}))

    def test_unit(self):
        assert len(unit()) == 1
        assert unit().columns == ()


class TestAtomBindings:
    def test_plain_atom(self):
        b = atom_bindings(toy_db(), Atom("E", ("x", "y")))
        assert len(b) == 6
        assert b.columns == ("x", "y")

    def test_repeated_variable_selects_diagonal(self):
        b = atom_bindings(toy_db(), Atom("E", ("x", "x")))
        assert b.columns == ("x",)
        assert b.rows == frozenset({(6,)})

    def test_missing_relation(self):
        b = atom_bindings(toy_db(), Atom("R", ("x", "y")))
        assert b.is_empty

    def test_stats_counting(self):
        stats = EvalStats()
        atom_bindings(toy_db(), Atom("E", ("x", "y")), stats)
        assert stats.tuples_scanned == 6


class TestAlgebra:
    def test_join_on_shared(self):
        a = Bindings(("x", "y"), frozenset({(1, 2), (2, 3)}))
        b = Bindings(("y", "z"), frozenset({(2, 9), (7, 8)}))
        joined = join(a, b)
        assert joined.columns == ("x", "y", "z")
        assert joined.rows == frozenset({(1, 2, 9)})

    def test_join_cartesian_when_disjoint(self):
        a = Bindings(("x",), frozenset({(1,), (2,)}))
        b = Bindings(("y",), frozenset({(8,), (9,)}))
        assert len(join(a, b)) == 4

    def test_semijoin(self):
        a = Bindings(("x", "y"), frozenset({(1, 2), (2, 3)}))
        b = Bindings(("y",), frozenset({(2,)}))
        assert semijoin(a, b).rows == frozenset({(1, 2)})

    def test_semijoin_disjoint_nonempty_keeps_all(self):
        a = Bindings(("x",), frozenset({(1,)}))
        b = Bindings(("z",), frozenset({(5,)}))
        assert semijoin(a, b) == a

    def test_semijoin_disjoint_empty_clears(self):
        a = Bindings(("x",), frozenset({(1,)}))
        b = Bindings(("z",), frozenset())
        assert semijoin(a, b).is_empty

    def test_project(self):
        a = Bindings(("x", "y"), frozenset({(1, 2), (1, 3)}))
        assert project(a, ["x"]).rows == frozenset({(1,)})

    def test_project_missing_column(self):
        with pytest.raises(ValueError):
            project(Bindings(("x",), frozenset()), ["q"])

    def test_project_answer_with_repeats(self):
        a = Bindings(("x", "y"), frozenset({(1, 2)}))
        assert project_answer(a, ("x", "x", "y")) == frozenset({(1, 1, 2)})


ALL_METHODS = ["naive", "backtracking", "hom", "treewidth", "hypertree"]


class TestStrategiesAgree:
    @pytest.mark.parametrize(
        "text",
        [
            "Q() :- E(x, y), E(y, z), E(z, x)",
            "Q() :- E(x, y), E(y, z)",
            "Q(x) :- E(x, y), E(y, z)",
            "Q(x, z) :- E(x, y), E(y, z)",
            "Q(x, x) :- E(x, x)",
            "Q() :- E(x, y), E(y, z), E(z, u), E(u, x)",
            "Q(x) :- E(x, y), E(x, z), E(z, z)",
        ],
    )
    def test_methods_agree(self, text):
        query = parse_query(text)
        db = toy_db()
        reference = hom_evaluate(query, db)
        for method in ALL_METHODS:
            assert evaluate(query, db, method=method) == reference, method
        assert evaluate(query, db, method="auto") == reference

    def test_yannakakis_on_acyclic(self):
        query = parse_query("Q(x, u) :- E(x, y), E(y, z), E(z, u)")
        db = toy_db()
        assert evaluate(query, db, method="yannakakis") == hom_evaluate(query, db)

    def test_yannakakis_rejects_cyclic(self):
        from repro.evaluation import CyclicQueryError

        query = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        with pytest.raises(CyclicQueryError):
            evaluate(query, toy_db(), method="yannakakis")

    def test_boolean_conventions(self):
        # On the loop-free triangle: the triangle query holds, the 2-cycle
        # query does not (on toy_db the loop at 6 would satisfy everything).
        db = Structure({"E": [(1, 2), (2, 3), (3, 1)]})
        yes = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        no = parse_query("Q() :- E(x, y), E(y, x)")
        assert evaluate(yes, db) == frozenset({()})
        assert evaluate(no, db) == frozenset()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            evaluate(parse_query("Q() :- E(x, y)"), toy_db(), method="quantum")


class TestMembership:
    def test_is_in_answer(self):
        query = parse_query("Q(x, z) :- E(x, y), E(y, z)")
        assert is_in_answer(query, toy_db(), (1, 3))
        assert not is_in_answer(query, toy_db(), (1, 4))

    def test_arity_check(self):
        query = parse_query("Q(x) :- E(x, y)")
        with pytest.raises(ValueError):
            is_in_answer(query, toy_db(), (1, 2))


class TestOnRandomInstances:
    def test_all_strategies_agree_on_random_workloads(self):
        from repro.workloads import random_digraph_db, random_graph_query

        for seed in range(8):
            query = random_graph_query(4, 5, seed=seed, head_size=seed % 3)
            db = random_digraph_db(8, 18, seed=seed)
            reference = hom_evaluate(query, db)
            assert naive_join_evaluate(query, db) == reference
            assert backtracking_evaluate(query, db) == reference
            assert evaluate(query, db, method="treewidth") == reference
            assert evaluate(query, db, method="hypertree") == reference

    def test_higher_arity_random(self):
        from repro.workloads import random_cq, random_database

        for seed in range(6):
            query = random_cq({"R": 3, "S": 2}, 5, 4, seed=seed, head_size=1)
            db = random_database({"R": 3, "S": 2}, 6, 25, seed=seed)
            reference = hom_evaluate(query, db)
            assert evaluate(query, db, method="hypertree") == reference
            assert evaluate(query, db, method="treewidth") == reference
            assert evaluate(query, db, method="backtracking") == reference
