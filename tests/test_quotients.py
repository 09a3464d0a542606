"""Tests for quotient/extension candidate enumeration."""

import pytest

from repro.cq import Structure, Tableau, parse_query
from repro.core import (
    AC,
    TW1,
    all_approximations,
    iter_extended_tableaux,
    iter_extension_atoms,
    iter_quotient_tableaux,
    quotient_count,
)
from repro.core.pipeline import _check_integer_candidate
from repro.core.quotients import (
    ExtensionCandidate,
    _integer_automorphisms,
    _lattice_levels,
    _rank_table,
    _rgs_rank,
    _shard_prefixes,
    coarseness_buckets,
    iter_extended_candidates,
    iter_quotient_candidates,
)
from repro.homomorphism import hom_equivalent, hom_le
from repro.homomorphism.signatures import canonical_key
from repro.util import bell_number, rgs_codes
from repro.util.partitions import code_coarsens
from repro.workloads import cycle_with_chords


TRIANGLE = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")


class TestQuotients:
    def test_count(self):
        tableau = TRIANGLE.tableau()
        quotients = list(iter_quotient_tableaux(tableau))
        assert len(quotients) == bell_number(3) == quotient_count(tableau)

    def test_identity_included(self):
        tableau = TRIANGLE.tableau()
        assert any(q.structure == tableau.structure for q in iter_quotient_tableaux(tableau))

    def test_every_quotient_is_hom_image(self):
        tableau = TRIANGLE.tableau()
        for quotient in iter_quotient_tableaux(tableau):
            assert hom_le(tableau, quotient)

    def test_distinguished_mapped(self):
        q = parse_query("Q(x, y) :- E(x, y), E(y, x)")
        for quotient in iter_quotient_tableaux(q.tableau()):
            assert len(quotient.distinguished) == 2
            assert all(
                d in quotient.structure.domain for d in quotient.distinguished
            )

    def test_full_merge_present(self):
        tableau = TRIANGLE.tableau()
        smallest = min(
            (q for q in iter_quotient_tableaux(tableau)),
            key=lambda t: len(t.structure.domain),
        )
        assert len(smallest.structure.domain) == 1
        assert smallest.structure.tuples("E")  # the loop


class TestCanonicalDedup:
    def test_symmetric_query_stream_shrinks(self):
        # On a symmetric query, distinct partitions collapse onto isomorphic
        # quotients; the deduplicated stream must be strictly smaller than
        # the Bell number of raw partitions.
        for query in (TRIANGLE, cycle_with_chords(5), cycle_with_chords(6)):
            tableau = query.tableau()
            n = len(tableau.structure.domain)
            deduped = list(iter_quotient_tableaux(tableau, dedup=True))
            assert len(deduped) < bell_number(n)

    def test_dedup_covers_every_isomorphism_class(self):
        tableau = cycle_with_chords(5).tableau()
        raw_keys = {
            canonical_key(q.structure, q.distinguished)
            for q in iter_quotient_tableaux(tableau)
        }
        deduped = list(iter_quotient_tableaux(tableau, dedup=True))
        deduped_keys = {
            canonical_key(q.structure, q.distinguished) for q in deduped
        }
        assert deduped_keys == raw_keys
        assert len(deduped) == len(deduped_keys)  # one per class, exactly

    def test_dedup_default_off(self):
        tableau = TRIANGLE.tableau()
        assert len(list(iter_quotient_tableaux(tableau))) == bell_number(3)

    def test_all_approximations_unchanged_up_to_equivalence(self):
        # The frontier built from the deduplicated stream must match the one
        # built from the raw stream up to homomorphic equivalence.
        for query in (TRIANGLE, cycle_with_chords(5), cycle_with_chords(6)):
            results = all_approximations(query, TW1)
            tableau = query.tableau()
            raw_frontier = []
            for candidate in iter_quotient_tableaux(tableau):
                if not TW1.contains_tableau(candidate):
                    continue
                if any(hom_le(m, candidate) for m in raw_frontier):
                    continue
                raw_frontier = [
                    m for m in raw_frontier if not hom_le(candidate, m)
                ]
                raw_frontier.append(candidate)
            assert len(results) == len(raw_frontier)
            for result in results:
                assert any(
                    hom_equivalent(result.tableau(), member)
                    for member in raw_frontier
                )

    def test_extended_dedup_still_covers_example(self):
        q = parse_query("Q() :- R(x, y, z)")
        tableau = q.tableau()
        raw = list(iter_extended_tableaux(tableau, max_extra_atoms=1))
        deduped = list(
            iter_extended_tableaux(tableau, max_extra_atoms=1, dedup=True)
        )
        assert len(deduped) <= len(raw)
        # Every raw candidate has an isomorphic (hence equivalent)
        # representative in the deduplicated stream.
        deduped_keys = {
            canonical_key(c.structure, c.distinguished) for c in deduped
        }
        for candidate in raw:
            assert (
                canonical_key(candidate.structure, candidate.distinguished)
                in deduped_keys
            )


class TestIntegerExtensionStream:
    """The lazy integer-form extension stream (Claim 6.2 fast path)."""

    def test_extended_duplicates_of_plain_quotients_are_pruned(self):
        # Regression for the historical dedup blind spot: an extended
        # candidate isomorphic to a plain quotient was never cross-checked
        # (this workload used to emit four duplicated isomorphism classes).
        # The shared fact-level keyspace must leave the deduplicated stream
        # duplicate-free.
        q = parse_query("Q() :- R(x1, x2, x3), R(x3, x4, x5)")
        stream = list(
            iter_extended_tableaux(
                q.tableau(), max_extra_atoms=1, dedup=True, allow_fresh=False
            )
        )
        keys = [canonical_key(c.structure, c.distinguished) for c in stream]
        assert None not in keys
        assert len(keys) == len(set(keys))

    def test_integer_facts_agree_with_materialized_structure(self):
        # The facts over block + fresh ids must describe exactly the
        # materialized extended tableau: same hypergraph-class verdicts,
        # same fact and element counts.
        q = parse_query("Q() :- R(x, y), R(y, z)")
        extended_seen = 0
        for candidate in iter_extended_candidates(q.tableau(), max_extra_atoms=1):
            facts = candidate.facts()
            tableau = candidate.materialize()
            assert len(facts) == tableau.structure.total_tuples
            assert candidate.block_count == len(tableau.structure.domain)
            assert _check_integer_candidate(
                AC, candidate.block_count, facts
            ) == AC.contains_tableau(tableau)
            if isinstance(candidate, ExtensionCandidate):
                extended_seen += 1
        assert extended_seen > 0

    def test_integer_automorphisms_are_fact_preserving(self):
        # The 3-cycle quotient facts have the rotation/reflection symmetries.
        facts = ((0, (0, 1)), (0, (1, 2)), (0, (2, 0)))
        perms = _integer_automorphisms(3, facts, ())
        assert len(perms) == 2  # the two non-identity rotations
        for perm in perms:
            mapped = {(rel, tuple(perm[v] for v in row)) for rel, row in facts}
            assert mapped == set(facts)

    def test_distinguished_elements_pin_automorphisms(self):
        facts = ((0, (0, 1)), (0, (1, 2)), (0, (2, 0)))
        assert _integer_automorphisms(3, facts, (0,)) == []


def _path(n: int):
    """A directed path on ``n`` variables: no automorphisms, no isolated
    elements, so every partition is a distinct stream element."""
    return parse_query(
        "Q() :- " + ", ".join(f"E(x{i}, x{i + 1})" for i in range(n - 1))
    ).tableau()


def _walked_codes(n: int, prefixes) -> list[tuple[int, ...]]:
    table = _rank_table(n)
    return [
        level[rank][0]
        for _, level in _lattice_levels(n, prefixes, table, set())
        for rank in sorted(level)
    ]


class TestLatticeWalk:
    """The fine-to-coarse reverse search over the partition lattice."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_unpruned_walk_yields_every_partition_once(self, n):
        walked = [
            candidate.codes
            for candidate in iter_quotient_candidates(
                _path(n), generation="raw", fine_to_coarse=True
            )
        ]
        assert len(walked) == len(set(walked)) == bell_number(n)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_rank_is_the_position_in_the_listed_stream(self, n):
        table = _rank_table(n)
        assert [_rgs_rank(code, table) for code in rgs_codes(n)] == list(
            range(bell_number(n))
        )

    @pytest.mark.parametrize("generation", ["raw", "orbit", "canonical"])
    @pytest.mark.parametrize("shard", [None, (0, 2), (1, 3)])
    def test_order_and_stamps_match_the_buffered_replay(self, generation, shard):
        tableau = cycle_with_chords(7, ((0, 3),)).tableau()
        listed = list(
            iter_quotient_candidates(tableau, generation=generation, shard=shard)
        )
        replayed = [c for bucket in coarseness_buckets(iter(listed)) for c in bucket]
        walked = list(
            iter_quotient_candidates(
                tableau, generation=generation, shard=shard, fine_to_coarse=True
            )
        )
        assert [c.codes for c in walked] == [c.codes for c in replayed]
        assert [c.partition for c in walked] == [c.partition for c in replayed]
        # The stamps are growth-string ranks: ints ordered like the
        # unreordered stream, as the buffered replay's positions are.
        table = _rank_table(len(tableau.structure.domain))
        assert all(c.generation == _rgs_rank(c.codes, table) for c in walked)
        by_stamp = sorted(walked, key=lambda c: c.generation)
        assert [c.codes for c in by_stamp] == [c.codes for c in listed]

    @pytest.mark.parametrize("count", [2, 3, 4])
    @pytest.mark.parametrize("n", [3, 5, 7, 8])
    def test_prefix_walks_tile_the_shard_slices(self, n, count):
        tiles = []
        for index in range(count):
            prefixes = _shard_prefixes(n, (index, count))
            codes = _walked_codes(n, prefixes)
            depth = len(prefixes[0]) if prefixes else 0
            assert all(code[:depth] in prefixes for code in codes)
            assert sorted(codes) == sorted(
                code
                for prefix in prefixes
                for code in rgs_codes(n, prefix=prefix)
            )
            tiles.extend(codes)
        assert sorted(tiles) == list(rgs_codes(n))

    def test_marked_candidates_lose_their_subtrees_only(self):
        # Marking a candidate skips its reverse-search subtree: every
        # partition the walk then leaves out coarsens a marked one, and
        # everything else is still emitted.
        tableau = _path(6)
        marked: list[tuple[int, ...]] = []
        walked = []
        for candidate in iter_quotient_candidates(
            tableau, generation="raw", fine_to_coarse=True
        ):
            walked.append(candidate.codes)
            if candidate.block_count == 4 and len(marked) < 3:
                candidate.strictly_dominated = True
                marked.append(candidate.codes)
        skipped = set(rgs_codes(6)) - set(walked)
        assert skipped
        assert all(
            any(code_coarsens(mark, code) for mark in marked) for code in skipped
        )


class TestExtensionSharding:
    """Satellite: per-shard extension streams must cover the whole space."""

    WORKLOADS = [
        ("Q() :- R(x1, x2, x3), R(x3, x4, x5)", False),
        ("Q() :- E(x, y), E(y, z), E(z, x), E(x, u)", True),
    ]

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("query_text,fresh", WORKLOADS)
    def test_shard_union_equals_unsharded_stream(self, query_text, fresh, count):
        tableau = parse_query(query_text).tableau()
        full = {
            canonical_key(c.structure, c.distinguished)
            for c in iter_extended_tableaux(
                tableau, max_extra_atoms=1, allow_fresh=fresh, dedup=True
            )
        }
        union = set()
        for index in range(count):
            union |= {
                canonical_key(c.structure, c.distinguished)
                for c in iter_extended_tableaux(
                    tableau,
                    max_extra_atoms=1,
                    allow_fresh=fresh,
                    dedup=True,
                    shard=(index, count),
                )
            }
        assert union == full


class TestExtensionAtoms:
    def test_extension_atoms_cover_pairs(self):
        structure = Structure({"R": [("a", "b", "c")]})
        atoms = list(iter_extension_atoms(structure, allow_fresh=False))
        assert atoms
        assert all(name == "R" for name, _ in atoms)
        # the existing fact is not re-proposed
        assert ("R", ("a", "b", "c")) not in atoms

    def test_fresh_markers(self):
        structure = Structure({"R": [("a", "b", "c")]})
        atoms = list(iter_extension_atoms(structure, allow_fresh=True))
        assert any(
            any(isinstance(v, tuple) and v[0] == "fresh" for v in row)
            for _, row in atoms
        )

    def test_min_cover_respected(self):
        structure = Structure({"R": [("a", "b", "c")]})
        for _, row in iter_extension_atoms(structure, allow_fresh=True):
            concrete = [v for v in row if not (isinstance(v, tuple) and v[0] == "fresh")]
            assert len(set(concrete)) >= 2


class TestExtendedTableaux:
    def test_zero_extras_is_quotients(self):
        tableau = TRIANGLE.tableau()
        plain = list(iter_quotient_tableaux(tableau))
        extended = list(iter_extended_tableaux(tableau, max_extra_atoms=0))
        assert len(plain) == len(extended)

    def test_extensions_still_above_query(self):
        q = parse_query("Q() :- R(x, y, z)")
        tableau = q.tableau()
        for candidate in iter_extended_tableaux(tableau, max_extra_atoms=1):
            assert hom_le(tableau, candidate)

    def test_extension_adds_facts(self):
        q = parse_query("Q() :- R(x, y, z)")
        tableau = q.tableau()
        sizes = {c.structure.total_tuples for c in iter_extended_tableaux(tableau, max_extra_atoms=1)}
        assert 2 in sizes  # some candidate gained an atom

    def test_fresh_elements_named_apart(self):
        q = parse_query("Q() :- R(x, y, z)")
        for candidate in iter_extended_tableaux(q.tableau(), max_extra_atoms=1):
            for element in candidate.structure.domain:
                assert not (isinstance(element, tuple) and element and element[0] == "fresh")
