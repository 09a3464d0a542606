"""Tests for workload generators and the paper-family aggregator."""

import pytest

from repro.cq import ConjunctiveQuery
from repro.evaluation import numpy_available
from repro.hypergraphs import is_acyclic_query
from repro.workloads import (
    chain_join_db,
    chain_join_query,
    cycle_with_chords,
    grid_query,
    path_heavy_db,
    random_cq,
    random_database,
    random_digraph_db,
    random_graph_query,
    scaled_database,
    scaled_digraph_db,
    social_network_db,
    stream_matrix,
    stream_tuples,
    union_with_pattern,
)

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


class TestRandomGraphQuery:
    def test_every_variable_used(self):
        for seed in range(5):
            q = random_graph_query(6, 9, seed=seed)
            assert q.num_variables == 6
            assert q.num_atoms == 9

    def test_deterministic_with_seed(self):
        assert random_graph_query(5, 7, seed=3) == random_graph_query(5, 7, seed=3)

    def test_head_size(self):
        q = random_graph_query(5, 7, seed=1, head_size=2)
        assert len(q.head) == 2

    def test_connected_tableau(self):
        import networkx as nx

        q = random_graph_query(7, 9, seed=5)
        assert nx.is_connected(q.graph())

    def test_validation(self):
        with pytest.raises(ValueError):
            random_graph_query(1, 5)
        with pytest.raises(ValueError):
            random_graph_query(5, 2)


class TestRandomCq:
    def test_shape(self):
        q = random_cq({"R": 3, "S": 2}, 5, 4, seed=0)
        assert isinstance(q, ConjunctiveQuery)
        assert q.num_variables == 5
        assert q.num_atoms == 4

    def test_all_variables_covered(self):
        for seed in range(8):
            q = random_cq({"R": 3}, 6, 3, seed=seed)
            assert q.num_variables == 6

    def test_impossible_budget(self):
        with pytest.raises(ValueError):
            random_cq({"S": 2}, 10, 2, seed=0)


class TestStructuredQueries:
    def test_cycle_with_chords(self):
        q = cycle_with_chords(5, [(0, 2)])
        assert q.num_atoms == 6
        assert not is_acyclic_query(q)

    def test_grid_query_balanced_bipartite(self):
        from repro.core import TrichotomyCase, classify_boolean_graph_query

        q = grid_query(2, 3)
        assert classify_boolean_graph_query(q) is TrichotomyCase.BIPARTITE_BALANCED

    def test_grid_treewidth(self):
        from repro.hypergraphs import treewidth_of_query

        assert treewidth_of_query(grid_query(2, 4)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            cycle_with_chords(2)
        with pytest.raises(ValueError):
            grid_query(1, 1)


class TestRandomData:
    def test_digraph_db(self):
        db = random_digraph_db(20, 50, seed=1)
        assert len(db.domain) == 20
        assert db.total_tuples <= 50
        assert not any(u == v for u, v in db.tuples("E"))

    def test_digraph_db_loops(self):
        db = random_digraph_db(5, 30, seed=1, loops=True)
        assert any(u == v for u, v in db.tuples("E"))

    def test_random_database_vocab(self):
        db = random_database({"R": 3, "S": 2}, 8, 20, seed=2)
        assert db.arity("R") == 3
        assert len(db.tuples("S")) <= 20

    def test_social_network(self):
        db = social_network_db(50, avg_degree=3, seed=4)
        assert len(db.domain) == 50
        assert db.total_tuples > 0

    def test_path_heavy(self):
        db = path_heavy_db(30, seed=5)
        assert (0, 1) in db.tuples("E")

    def test_union_with_pattern(self):
        from repro.cq import parse_query

        db = random_digraph_db(10, 20, seed=6)
        pattern = parse_query("Q() :- E(x, y), E(y, z), E(z, x)").tableau().structure
        planted = union_with_pattern(db, pattern)
        from repro.evaluation import evaluate

        q = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        assert evaluate(q, planted)


class TestStreamedData:
    def test_stream_tuples_deterministic(self):
        import random

        first = list(stream_tuples(2, 200, 50, skew=0.5, rng=random.Random(1)))
        second = list(stream_tuples(2, 200, 50, skew=0.5, rng=random.Random(1)))
        assert first == second
        assert len(first) == 200
        assert all(len(t) == 2 for t in first)
        assert all(0 <= v < 50 for t in first for v in t)

    def test_stream_tuples_skew_concentrates_mass(self):
        import random
        from collections import Counter

        uniform = Counter(
            v
            for t in stream_tuples(1, 5000, 100, skew=0.0, rng=random.Random(2))
            for v in t
        )
        skewed = Counter(
            v
            for t in stream_tuples(1, 5000, 100, skew=1.0, rng=random.Random(2))
            for v in t
        )
        top10 = lambda c: sum(c[v] for v in range(10)) / 5000
        assert top10(skewed) > 2 * top10(uniform)

    def test_chain_join_query_shape(self):
        q = chain_join_query(3)
        assert str(q) == "Q(x0) :- R0(x0, x1), R1(x1, x2), R2(x2, x3)"
        assert is_acyclic_query(q)
        assert len(chain_join_query(3, head_size=2).head) == 2

    def test_chain_join_db_matches_query(self):
        from repro.evaluation import yannakakis_evaluate

        db = chain_join_db(3, 300, 20, skew=0.3, seed=5)
        assert db.arity("R0") == 2
        # Duplicates collapse in the relation, so "up to" the request.
        assert 0 < len(db.tuples("R1")) <= 300
        answers = yannakakis_evaluate(chain_join_query(3), db)
        assert answers  # dense enough that the chain joins through

    def test_scaled_generators_deterministic(self):
        a = scaled_digraph_db(40, 200, skew=0.5, seed=9)
        b = scaled_digraph_db(40, 200, skew=0.5, seed=9)
        assert a.tuples("E") == b.tuples("E")
        db = scaled_database({"R": 3}, 30, 100, skew=0.2, seed=4)
        assert db.arity("R") == 3
        assert all(len(t) == 3 for t in db.tuples("R"))

    @needs_numpy
    @pytest.mark.parametrize("arity, count, batch", [(1, 50, 16), (2, 700, 128), (3, 0, 8)])
    def test_stream_matrix_draws_the_tuple_stream(self, arity, count, batch):
        import random

        rows = stream_matrix(
            arity, count, 40, skew=0.5, rng=random.Random(3), batch=batch
        )
        expected = list(
            stream_tuples(arity, count, 40, skew=0.5, rng=random.Random(3), batch=batch)
        )
        assert [tuple(row) for row in rows.tolist()] == expected
        assert rows.shape == (count, arity) and rows.dtype.name == "int64"

    @needs_numpy
    def test_scaled_generators_hand_over_the_tuple_stream_relations(self):
        import random

        from repro.cq import Structure

        def from_stream(vocabulary, count, domain, skew, seed):
            rng = random.Random(seed)
            return Structure(
                {
                    name: stream_tuples(vocabulary[name], count, domain, skew=skew, rng=rng)
                    for name in vocabulary
                },
                vocabulary=vocabulary,
                domain=range(domain),
            )

        cases = [
            (chain_join_db(3, 400, 60, skew=0.4, seed=5),
             from_stream({"R0": 2, "R1": 2, "R2": 2}, 400, 60, 0.4, 5)),
            (scaled_database({"R": 3, "S": 1, "T": 2}, 30, 300, skew=0.2, seed=4),
             from_stream({"R": 3, "S": 1, "T": 2}, 300, 30, 0.2, 4)),
            (scaled_digraph_db(50, 500, skew=0.5, seed=9),
             from_stream({"E": 2}, 500, 50, 0.5, 9)),
        ]
        for generated, expected in cases:
            assert generated.int_span is not None
            assert generated.relations == expected.relations
            assert generated == expected


class TestFamilies:
    def test_prop_44_family(self):
        from repro.workloads.families import prop_44_approximations, prop_44_query

        query = prop_44_query(1)
        approximations = prop_44_approximations(1)
        assert len(approximations) == 2
        assert query.num_variables == 28

    def test_theorem_51_examples_classify(self):
        from repro.core import classify_boolean_graph_query
        from repro.workloads.families import theorem_51_examples

        examples = theorem_51_examples()
        cases = {classify_boolean_graph_query(q).name for q in examples.values()}
        assert len(cases) == 3

    def test_example_66_bundle(self):
        from repro.workloads.families import (
            example_66_approximations,
            example_66_query,
        )

        assert example_66_query().num_atoms == 3
        assert len(example_66_approximations()) == 3
