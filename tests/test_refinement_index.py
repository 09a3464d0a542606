"""Tests for the sublinear (trie) refinement index.

Satellite coverage for the PR that retired the ``_INDEX_CAP`` linear
antichain scan: the trie's two dual queries must agree with the linear
reference scan on randomized partition-code sets (antichains included),
and refinement hits must surface repair-correct witnesses under
eviction-free operation.  A trie exported with ``codes()`` and rebuilt
with ``add`` (how shard kernel tries travel) must answer the same.
"""

import random

import pytest

from repro.core.classes import class_from_name
from repro.core.pipeline import Frontier, PipelineStats, run_pipeline
from repro.core.quotients import (
    coarseness_ordered,
    iter_extended_candidates,
    iter_quotient_candidates,
)
from repro.cq import parse_query
from repro.homomorphism.engine import HomEngine
from repro.util import RefinementTrie, code_coarsens
from repro.workloads import cycle_with_chords

TRIANGLE = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")


def random_rgs(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniform-ish random restricted growth string of length ``n``."""
    code = [0]
    for _ in range(n - 1):
        code.append(rng.randint(0, max(code) + 1))
    return tuple(code)


def linear_find(entries, query, predicate):
    """The reference linear antichain scan (first hit in insertion order)."""
    for codes, payload in entries:
        if predicate(codes, query):
            return True, codes, payload
    return False, None, None


def antichain_of(entries):
    """Filter to a refinement antichain, keeping earlier entries."""
    kept = []
    for codes, payload in entries:
        if not any(
            code_coarsens(codes, other) or code_coarsens(other, codes)
            for other, _ in kept
        ):
            kept.append((codes, payload))
    return kept


class TestTrieAgreesWithLinearScan:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_find_refinement_matches(self, seed, n):
        rng = random.Random(seed)
        entries = [
            (random_rgs(rng, n), index) for index in range(rng.randint(1, 120))
        ]
        trie = RefinementTrie()
        for codes, payload in entries:
            trie.add(codes, payload)
        payload_of = {payload: codes for codes, payload in entries}
        for _ in range(200):
            query = random_rgs(rng, n)
            expected, _, _ = linear_find(
                entries, query, lambda e, q: code_coarsens(e, q)
            )
            hit, payload = trie.find_refinement(query)
            assert hit == expected
            if hit:
                # Any refining entry is a valid answer (the frontier's
                # witness-uniqueness argument) — validate, not compare.
                assert code_coarsens(payload_of[payload], query)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_find_coarsening_matches(self, seed, n):
        rng = random.Random(seed + 1000)
        entries = [
            (random_rgs(rng, n), index) for index in range(rng.randint(1, 120))
        ]
        trie = RefinementTrie()
        for codes, payload in entries:
            trie.add(codes, payload)
        payload_of = {payload: codes for codes, payload in entries}
        for _ in range(200):
            query = random_rgs(rng, n)
            expected, _, _ = linear_find(
                entries, query, lambda e, q: code_coarsens(q, e)
            )
            hit, payload = trie.find_coarsening(query)
            assert hit == expected
            if hit:
                assert code_coarsens(query, payload_of[payload])

    @pytest.mark.parametrize("seed", range(4))
    def test_antichain_entries_match(self, seed):
        # The index's production shape: a refinement antichain (a covered
        # candidate is never added).
        rng = random.Random(seed + 2000)
        entries = antichain_of(
            [(random_rgs(rng, 7), index) for index in range(80)]
        )
        trie = RefinementTrie()
        for codes, payload in entries:
            trie.add(codes, payload)
        assert len(trie) == len(entries)
        for _ in range(300):
            query = random_rgs(rng, 7)
            expected, _, _ = linear_find(
                entries, query, lambda e, q: code_coarsens(e, q)
            )
            assert trie.find_refinement(query)[0] == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_export_rebuild_round_trip(self, seed):
        # Shard workers ship kernel tries as codes() pairs and the driver
        # rebuilds them with add(): the rebuilt trie must hold the same
        # entries and answer every query as the original does.
        rng = random.Random(seed + 3000)
        trie = RefinementTrie()
        for _ in range(rng.randint(20, 150)):
            codes = random_rgs(rng, 7)
            trie.add(codes, ("witness", codes))
        exported = list(trie.codes())
        assert all(payload == ("witness", codes) for codes, payload in exported)
        rebuilt = RefinementTrie()
        for codes, payload in exported:
            rebuilt.add(codes, payload)
        assert len(rebuilt) == len(trie) == len(exported)
        assert sorted(rebuilt.codes()) == sorted(exported)
        for _ in range(300):
            query = random_rgs(rng, 7)
            hit, payload = rebuilt.find_refinement(query)
            assert hit == trie.find_refinement(query)[0]
            if hit:
                assert code_coarsens(payload[1], query)
            hit, payload = rebuilt.find_coarsening(query)
            assert hit == trie.find_coarsening(query)[0]
            if hit:
                assert code_coarsens(query, payload[1])

    def test_duplicate_add_overwrites_payload(self):
        trie = RefinementTrie()
        trie.add((0, 1, 0), "first")
        trie.add((0, 1, 0), "second")
        assert len(trie) == 1
        assert trie.find_refinement((0, 1, 0)) == (True, "second")

    def test_exact_code_is_its_own_refinement_and_coarsening(self):
        trie = RefinementTrie()
        trie.add((0, 1, 1, 2), "x")
        assert trie.find_refinement((0, 1, 1, 2)) == (True, "x")
        assert trie.find_coarsening((0, 1, 1, 2)) == (True, "x")

    def test_coarsening_query_accepts_non_rgs_labels(self):
        # find_coarsening only reads the query's equality pattern.
        trie = RefinementTrie()
        trie.add((0, 0, 1), "y")
        assert trie.find_coarsening((7, 7, 3))[0] is True
        assert trie.find_coarsening((7, 3, 3))[0] is False

    def test_empty_trie_misses(self):
        trie = RefinementTrie()
        assert trie.find_refinement((0, 0)) == (False, None)
        assert trie.find_coarsening((0, 0)) == (False, None)


class TestRepairWitnesses:
    def test_refinement_hit_resolves_to_recorded_member(self):
        # Eviction-free operation: one admitted member, no repairs — a hit
        # on any coarsening of its partition must surface exactly that
        # member as the repair witness.
        stats = PipelineStats()
        frontier = Frontier(stats=stats)
        candidates = {
            candidate.block_count: candidate
            for candidate in iter_quotient_candidates(
                TRIANGLE.tableau(), generation="raw"
            )
        }
        identity = candidates[3]
        identity.generation = 0
        assert frontier.resolve(identity) == "admitted"  # known member
        hit, witness = frontier._refinement_lookup((0, 0, 0))
        assert hit
        assert witness is identity.materialize()
        assert stats.evicted == 0
        assert stats.representative_repairs == 0

    def test_miss_on_uncovered_partition(self):
        frontier = Frontier(stats=PipelineStats())
        candidates = list(
            iter_quotient_candidates(TRIANGLE.tableau(), generation="raw")
        )
        two_block = next(c for c in candidates if c.block_count == 2)
        two_block.generation = 0
        assert frontier.resolve(two_block) == "admitted"
        # The identity partition is strictly finer than any 2-block entry,
        # so it is not covered by the index.
        hit, _ = frontier._refinement_lookup((0, 1, 2))
        assert not hit

    def test_index_runs_uncapped_without_evictions(self):
        # The historical _INDEX_CAP silently truncated the index; the trie
        # records every uncovered dominated-or-admitted candidate.
        stats = PipelineStats()
        frontier = Frontier(stats=stats)
        for candidate in coarseness_ordered(
            iter_quotient_candidates(TRIANGLE.tableau(), generation="raw")
        ):
            # coarseness_ordered stamps each candidate's generation.
            frontier.resolve(candidate, membership=lambda: True)
        assert not hasattr(Frontier, "_INDEX_CAP")
        assert len(frontier._refinement_index) > 0


# The frontier's reverse query (candidate → member) against the engine, over
# every quotient of small bases: a cycle, a chorded cycle, a ternary query
# and a base with head variables.
KERNEL_BASES = {
    "cycle": "Q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x0)",
    "chorded cycle": (
        "Q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x0), E(x0, x2)"
    ),
    "ternary": "Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x1, x1)",
    "head variables": "Q(x, z) :- E(x, y), E(y, z), E(z, w), E(w, x)",
}


def _kernel_members(tableau):
    """Targets of the reverse query: each deduplicated quotient with its
    codes, plus a sample of the extended candidates (no codes)."""
    members = [
        (quotient.materialize(), quotient.codes)
        for quotient in iter_quotient_candidates(tableau)
    ]
    extended = [
        candidate
        for candidate in iter_extended_candidates(tableau, max_extra_atoms=1)
        if candidate.codes is None
    ]
    members += [(candidate.materialize(), None) for candidate in extended[::25]]
    return members


class TestKernelIndex:
    @pytest.mark.parametrize("cap", [None, 2])
    @pytest.mark.parametrize("name", sorted(KERNEL_BASES))
    def test_reverse_query_matches_engine(self, name, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(Frontier, "_KERNEL_HOM_CAP", cap)
        tableau = parse_query(KERNEL_BASES[name]).tableau()
        stats = PipelineStats()
        frontier = Frontier(base=tableau, stats=stats)
        engine = HomEngine()
        members = _kernel_members(tableau)
        assert any(codes is None for _, codes in members), "an extended member"
        for member, codes in members:
            if codes is not None:
                frontier._codes[id(member)] = codes
        for candidate in iter_quotient_candidates(tableau, generation="raw"):
            source = candidate.materialize()
            for member, _ in members:
                assert frontier._maps_into(
                    candidate, candidate.codes, member
                ) == engine.hom_le(source, member), (str(source), str(member))
        tries = [trie for _, trie in frontier._kernel_tries.values()]
        if cap is None:
            assert None not in tries
            assert stats.kernel_trie_hits > 0
        else:
            # Capped-out members fall back to the engine.
            assert None in tries
            assert stats.hom_le_calls > 0

    @pytest.mark.parametrize("cap", [None, 2])
    @pytest.mark.parametrize("fresh", [False, True])
    @pytest.mark.parametrize("name", sorted(KERNEL_BASES))
    def test_extended_reverse_query_matches_engine(self, name, fresh, cap, monkeypatch):
        """An extended candidate's reverse query, answered from the
        member's kernel homs (or by the engine past the cap)."""
        if cap is not None:
            monkeypatch.setattr(Frontier, "_KERNEL_HOM_CAP", cap)
        tableau = parse_query(KERNEL_BASES[name]).tableau()
        stats = PipelineStats()
        frontier = Frontier(base=tableau, stats=stats)
        engine = HomEngine()
        members = [member for member, _ in _kernel_members(tableau)]
        extended = [
            candidate
            for candidate in iter_extended_candidates(
                tableau, max_extra_atoms=1, allow_fresh=fresh
            )
            if candidate.codes is None
        ]
        for candidate in extended[::7]:
            source = candidate.materialize()
            for member in members:
                assert frontier._maps_into(candidate, None, member) == engine.hom_le(
                    source, member
                ), (str(source), str(member))
        tries = [trie for _, trie in frontier._kernel_tries.values()]
        if cap is None:
            assert None not in tries
            assert stats.hom_le_calls == 0
        else:
            assert None in tries
            assert stats.hom_le_calls > 0


# The extension specs of the end-to-end solve benchmark, full and smoke:
# name -> (query, class, allow_fresh).
EXTENSION_SPECS = {
    "ternary(6v,4atoms)/HTW1 +ext": (
        "Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1), R(x2,x4,x6)",
        "HTW1",
        False,
    ),
    "C8/HTW1 +ext": (str(cycle_with_chords(8)), "HTW1", False),
    "C7+ch/HTW1 +ext": (str(cycle_with_chords(7, ((0, 3),))), "HTW1", False),
    "C7/HTW1 +fresh-ext": (str(cycle_with_chords(7)), "HTW1", True),
    "ternary-C3(6v)/AC +ext": (
        "Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)",
        "AC",
        False,
    ),
    "C6/HTW1 +ext": (str(cycle_with_chords(6)), "HTW1", False),
    "C6/HTW1 +fresh-ext": (str(cycle_with_chords(6)), "HTW1", True),
}


def _eviction_pairs(monkeypatch) -> list:
    """Record every ``(extended candidate, member, answer)`` reverse query
    the frontier answers."""
    pairs: list = []
    answer_of = Frontier._maps_into

    def recording(self, source, codes, member):
        answer = answer_of(self, source, codes, member)
        if getattr(source, "extension", None) is not None:
            pairs.append((source.materialize(), member, answer))
        return answer

    monkeypatch.setattr(Frontier, "_maps_into", recording)
    return pairs


@pytest.mark.parametrize("name", sorted(EXTENSION_SPECS))
def test_extension_eviction_queries_match_engine(name, monkeypatch):
    query, cls, fresh = EXTENSION_SPECS[name]
    pairs = _eviction_pairs(monkeypatch)
    result = run_pipeline(
        parse_query(query).tableau(),
        class_from_name(cls),
        max_extra_atoms=1,
        allow_fresh=fresh,
    )
    engine = HomEngine()
    for source, member, answer in pairs:
        assert answer == engine.hom_le(source, member), (str(source), str(member))
    # Only the ternary specs admit an extended candidate while members it
    # could evict are on the frontier; the cycle specs meet no such pair,
    # so fresh positions are covered by the small-base test above.
    if name.startswith("ternary"):
        assert pairs
        assert result.stats.kernel_homs_scanned > 0


def test_extension_eviction_queries_past_the_cap_ask_the_engine(monkeypatch):
    """With the cap forced below the members' hom counts, the kernel scans
    cap out and the engine answers the eviction queries."""
    monkeypatch.setattr(Frontier, "_KERNEL_HOM_CAP", 1)
    query, cls, fresh = EXTENSION_SPECS["ternary-C3(6v)/AC +ext"]
    pairs = _eviction_pairs(monkeypatch)
    tries: list = []
    build = Frontier._kernel_trie

    def recording(self, member):
        trie = build(self, member)
        tries.append(trie)
        return trie

    monkeypatch.setattr(Frontier, "_kernel_trie", recording)
    run_pipeline(
        parse_query(query).tableau(),
        class_from_name(cls),
        max_extra_atoms=1,
        allow_fresh=fresh,
    )
    engine = HomEngine()
    assert pairs and None in tries
    for source, member, answer in pairs:
        assert answer == engine.hom_le(source, member), (str(source), str(member))
