"""Tests for the staged, parallel approximation pipeline."""

import itertools
import os
import random
import signal
import subprocess
import sys
import textwrap
import types

import pytest

from repro.core import (
    AC,
    TW1,
    TW2,
    ApproximationConfig,
    Frontier,
    HypertreeClass,
    QueryClass,
    all_approximations,
    approximation_frontier,
    decode_tableau,
    encode_tableau,
    greedy_approximate,
    iter_membership,
    membership_key,
    run_pipeline,
)
import repro.core.pipeline as pipeline_module
import repro.core.quotients as quotients_module
from repro.core.approximation import candidate_tableaux
from repro.core.pipeline import PipelineStats, _reduce_inline
from repro.core.quotients import (
    _shard_prefixes,
    _with_extensions,
    coarseness_ordered,
    iter_extension_atoms,
    iter_quotient_candidates,
    iter_quotient_tableaux,
)
from repro.homomorphism.engine import default_engine
from repro.cq import Structure, Tableau, parse_query
from repro.homomorphism import hom_equivalent
from repro.util import bell_number, rgs_codes, set_partitions
from repro.workloads import cycle_with_chords, random_graph_query

TRIANGLE = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
TERNARY = parse_query("Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1)")
NO_FRESH = ApproximationConfig(allow_fresh=False)


class TestRgsSharding:
    def test_rgs_codes_count_and_order(self):
        codes = list(rgs_codes(4))
        assert len(codes) == bell_number(4)
        assert codes == sorted(codes)

    def test_prefix_enumeration_is_a_slice(self):
        full = list(rgs_codes(5))
        for prefix in rgs_codes(2):
            sliced = list(rgs_codes(5, prefix=prefix))
            assert sliced == [c for c in full if c[:2] == prefix]

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            list(rgs_codes(4, prefix=(0, 2)))  # 2 > max(0)+1

    def test_shards_disjointly_cover_the_partition_stream(self):
        items = list("abcde")
        full = list(set_partitions(items))
        for count in (2, 3, 4):
            shards = []
            for index in range(count):
                prefixes = _shard_prefixes(len(items), (index, count))
                shards.append(
                    list(
                        itertools.chain.from_iterable(
                            set_partitions(items, prefix=p) for p in prefixes
                        )
                    )
                )
            assert sum(len(s) for s in shards) == len(full)
            assert sorted(map(repr, itertools.chain.from_iterable(shards))) == sorted(
                map(repr, full)
            )

    @pytest.mark.parametrize("n", [8, 9])
    def test_shards_get_near_equal_slices(self, n):
        # One shard per pool worker: the slowest shard sets the wall time.
        for count in (2, 3, 4):
            sizes = [
                sum(
                    1
                    for prefix in _shard_prefixes(n, (index, count))
                    for _ in rgs_codes(n, prefix=prefix)
                )
                for index in range(count)
            ]
            assert sum(sizes) == bell_number(n)
            assert max(sizes) <= 1.05 * bell_number(n) / count, sizes

    def test_sharded_quotients_cover_all_isomorphism_classes(self):
        tableau = cycle_with_chords(5).tableau()
        serial_keys = {
            t.structure for t in iter_quotient_tableaux(tableau, dedup=False)
        }
        sharded = []
        for index in range(3):
            sharded.extend(
                iter_quotient_tableaux(tableau, dedup=False, shard=(index, 3))
            )
        assert {t.structure for t in sharded} == serial_keys


class TestTableauCodec:
    def test_round_trip(self):
        for query in (TRIANGLE, TERNARY, parse_query("Q(x, y) :- E(x, y), E(y, x)")):
            tableau = query.tableau()
            assert decode_tableau(encode_tableau(tableau)) == tableau

    def test_round_trip_preserves_empty_relations_and_domain(self):
        structure = Structure(
            {"E": [(1, 2)], "F": []},
            vocabulary={"E": 2, "F": 3},
            domain=[1, 2, 9],
        )
        tableau = Tableau(structure, (1,))
        back = decode_tableau(encode_tableau(tableau))
        assert back == tableau
        assert back.structure.arity("F") == 3
        assert 9 in back.structure.domain


class TestMembershipKey:
    def test_graph_key_ignores_orientation(self):
        forward = parse_query("Q() :- E(x, y), E(y, z)").tableau().structure
        backward = parse_query("Q() :- E(y, x), E(z, y)").tableau().structure
        assert membership_key(TW1, forward) == membership_key(TW1, backward)

    def test_hypergraph_key_ignores_argument_order(self):
        a = parse_query("Q() :- R(x, y, z)").tableau().structure
        b = parse_query("Q() :- R(z, x, y)").tableau().structure
        assert membership_key(AC, a) == membership_key(AC, b)

    def test_distinct_domains_get_distinct_keys(self):
        a = parse_query("Q() :- E(x, y)").tableau().structure
        b = parse_query("Q() :- E(x, z)").tableau().structure
        assert membership_key(TW1, a) != membership_key(TW1, b)

    def test_unknown_kind_disables_memo(self):
        class Oddball(QueryClass):
            kind = "modal"
            name = "ODD"

            def contains_structure(self, structure):
                return True

        structure = TRIANGLE.tableau().structure
        assert membership_key(Oddball(), structure) is None

    def test_memoized_stream_matches_direct_checks(self):
        tableau = TERNARY.tableau()
        candidates = list(iter_quotient_tableaux(tableau, dedup=True))
        for cls in (AC, HypertreeClass(2)):
            direct = [cls.contains_tableau(c) for c in candidates]
            stats = PipelineStats()
            streamed = [
                verdict
                for _, verdict in iter_membership(candidates, cls, stats=stats)
            ]
            assert streamed == direct
            assert stats.check_memo_hits > 0  # the memo actually engaged
            assert stats.checks_run + stats.check_memo_hits == len(candidates)


def candidate_tableaux_frontier(query, cls, config):
    """The pre-pipeline serial algorithm: every class member of the
    :func:`candidate_tableaux` stream meets the frontier in stream order
    through the engine's memoized ``hom_le``."""
    engine = default_engine()
    frontier = []
    for candidate in candidate_tableaux(query, cls, config):
        if any(engine.hom_le(member, candidate) for member in frontier):
            continue
        frontier = [m for m in frontier if not engine.hom_le(candidate, m)]
        frontier.append(candidate)
    return frontier


class TestDeterminism:
    """`all_approximations` must not depend on the worker count or run,
    and must equal the pre-pipeline serial algorithm down to the bit."""

    WORKLOADS = [
        (TRIANGLE, TW1, ApproximationConfig()),
        (cycle_with_chords(6), TW2, ApproximationConfig()),
        (TERNARY, AC, NO_FRESH),
        (TERNARY, HypertreeClass(2), NO_FRESH),
        # Default config on an extension stream: the workload on which the
        # deleted pooled-checks batcher livelocked.
        (cycle_with_chords(7), HypertreeClass(1), ApproximationConfig()),
        # A plain quotient stream under a hypergraph class, 16 members.
        (
            parse_query(
                "Q() :- R(x1,x2,x3), R(x2,x3,x4), R(x4,x5,x6), R(x6,x7,x1)"
            ),
            HypertreeClass(1),
            ApproximationConfig(max_extra_atoms=0),
        ),
    ]

    @pytest.mark.parametrize("query,cls,config", WORKLOADS)
    def test_workers_do_not_change_results(self, query, cls, config):
        serial = all_approximations(query, cls, config)
        # The serial frontier: same tableaux, same order as the
        # pre-pipeline algorithm.
        assert approximation_frontier(query, cls, config) == (
            candidate_tableaux_frontier(query, cls, config)
        )
        for workers in (2, 3, 4):
            parallel = all_approximations(
                query,
                cls,
                ApproximationConfig(
                    allow_fresh=config.allow_fresh,
                    max_extra_atoms=config.max_extra_atoms,
                    workers=workers,
                ),
            )
            assert serial == parallel, workers  # same queries, same order

    #: Bases off the integer fast path: a vocabulary relation without
    #: facts sends the extension stream through
    #: ``_iter_extended_candidates_fallback`` (parentless extended
    #: candidates), an isolated element sends the quotient stream through
    #: its materialized fallback (quotients without codes).
    FALLBACK_BASES = [
        (
            Tableau(
                Structure(
                    {"E": [("x", "y"), ("y", "z"), ("z", "x")], "F": []},
                    vocabulary={"E": 2, "F": 2},
                )
            ),
            HypertreeClass(1),
            1,
        ),
        (
            Tableau(
                Structure(
                    {"E": [("x", "y"), ("y", "z"), ("z", "u"), ("u", "x")]},
                    domain=["x", "y", "z", "u", "w"],
                )
            ),
            TW1,
            0,
        ),
    ]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("tableau,cls,extra_atoms", FALLBACK_BASES)
    def test_workers_bit_identical_off_the_integer_path(
        self, tableau, cls, extra_atoms, workers
    ):
        serial = run_pipeline(tableau, cls, max_extra_atoms=extra_atoms)
        sharded = run_pipeline(
            tableau, cls, max_extra_atoms=extra_atoms, workers=workers
        )
        assert sharded.stats.shards == workers
        assert sharded.frontier == serial.frontier

    def test_extension_stream_with_default_config_terminates(self):
        # C7/HTW1 with fresh extension variables used to livelock the
        # pooled-checks batcher (children gated on a suppressed parent
        # whose verdict never came).  A subprocess with its own timeout
        # fails fast instead of waiting out the pytest watchdog.
        script = textwrap.dedent(
            """
            from repro.core import (
                ApproximationConfig, all_approximations, class_from_name,
            )
            from repro.workloads import cycle_with_chords

            query, cls = cycle_with_chords(7), class_from_name("HTW1")
            serial = all_approximations(query, cls)
            pooled = all_approximations(
                query, cls, ApproximationConfig(workers=2)
            )
            assert pooled == serial, (pooled, serial)
            print("ok")
            """
        )
        package_dir = os.path.dirname(os.path.dirname(pipeline_module.__file__))
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(package_dir)),
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            # Take the pool workers down with the hung driver.
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("workers=2 run did not finish within 60 s")
        assert process.returncode == 0, err
        assert out.strip() == "ok"

    def test_repeated_runs_are_stable(self):
        first = all_approximations(cycle_with_chords(5), TW1)
        second = all_approximations(cycle_with_chords(5), TW1)
        assert first == second

    def test_greedy_same_seed_same_result(self):
        config = ApproximationConfig(seed=41, greedy_rounds=60)
        first = greedy_approximate(cycle_with_chords(6), TW1, config)
        second = greedy_approximate(cycle_with_chords(6), TW1, config)
        assert first == second

    def test_shard_strategy_equivalent_to_serial(self):
        for query, cls, config in (
            (cycle_with_chords(6), TW1, ApproximationConfig()),
            (TERNARY, AC, NO_FRESH),
        ):
            serial = approximation_frontier(query, cls, config)
            sharded = approximation_frontier(
                query,
                cls,
                ApproximationConfig(allow_fresh=config.allow_fresh, workers=2),
            )
            assert len(sharded) == len(serial)
            for member in sharded:
                assert any(hom_equivalent(member, other) for other in serial)


class TestCoarsenessOrdered:
    def test_buckets_descend_and_generations_are_stamped(self):
        candidates = list(
            iter_quotient_candidates(cycle_with_chords(5).tableau())
        )
        replayed = list(coarseness_ordered(iter(candidates)))
        assert sorted(replayed, key=id) == sorted(candidates, key=id)
        assert sorted(c.generation for c in replayed) == list(
            range(len(candidates))
        )
        counts = [c.block_count for c in replayed]
        assert counts == sorted(counts, reverse=True)
        for block_count in set(counts):
            generations = [
                c.generation for c in replayed if c.block_count == block_count
            ]
            assert generations == sorted(generations)  # stable within bucket


class TestAdmissionOrder:
    """Fine-to-coarse reduction must stay bit-identical to the serial
    generation-order baseline (representative repair + final sort)."""

    MEMBER_HEAVY = cycle_with_chords(8, ((0, 3), (1, 4), (2, 6)))

    def test_invalid_admission_order_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(
                TRIANGLE.tableau(), TW1, admission_order="coarse_to_fine"
            )

    def test_member_heavy_htw2_bit_identical_to_legacy(self):
        # The differential pin for the member-heavy plain quotient regime
        # (ROADMAP's old first open item): ~99% of candidates are HTW(2)
        # members, the stream is reduced fine-to-coarse by default, and the
        # result must equal the pre-PR insertion-order reduction down to
        # the representative tableaux and their order.
        tableau = self.MEMBER_HEAVY.tableau()
        cls = HypertreeClass(2)
        legacy = _reduce_inline(
            (
                _LegacyTableauCandidate(t)
                for t in iter_quotient_tableaux(tableau, dedup=True)
            ),
            cls,
            PipelineStats(),
        )
        result = run_pipeline(tableau, cls, max_extra_atoms=0)
        assert result.frontier == legacy.members

    @pytest.mark.parametrize(
        "query,cls",
        [
            (TRIANGLE, TW1),
            (cycle_with_chords(6), TW1),
            (cycle_with_chords(7, ((0, 3),)), TW2),
            (random_graph_query(7, 9, seed=2), TW1),  # dedup switches off
        ],
    )
    def test_orders_agree_on_graph_classes(self, query, cls):
        ordered = run_pipeline(query.tableau(), cls)
        baseline = run_pipeline(
            query.tableau(), cls, admission_order="insertion"
        )
        assert ordered.frontier == baseline.frontier

    def test_representative_repair_restores_first_generated(self):
        # The triangle's loop quotient is hom-equivalent to a
        # later-generated finer quotient that fine-to-coarse admits first;
        # without repair the reordered run would return the wrong (though
        # equivalent) representative.
        ordered = run_pipeline(TRIANGLE.tableau(), TW1)
        baseline = run_pipeline(
            TRIANGLE.tableau(), TW1, admission_order="insertion"
        )
        assert ordered.frontier == baseline.frontier
        assert ordered.stats.representative_repairs >= 1

    def test_fine_to_coarse_handles_candidates_without_codes(self):
        # Isolated domain elements force the enumerator's materialized
        # fallback: candidates carry a block count but no codes, so the
        # refinement index and coarsening fast paths are unavailable while
        # the order and repair machinery still run.
        structure = Structure(
            {"E": [("x", "y")]}, domain=["x", "y", "z"]
        )
        tableau = Tableau(structure, ())
        ordered = run_pipeline(tableau, TW1, max_extra_atoms=0)
        baseline = run_pipeline(
            tableau, TW1, max_extra_atoms=0, admission_order="insertion"
        )
        assert ordered.frontier == baseline.frontier

    def test_fine_to_coarse_extension_stream_matches_generation_order(self):
        # Forcing fine-to-coarse on an extension stream keeps generation
        # order (the extension enumerator bypasses the lattice walk) under
        # the ordered frontier's shortcuts, which change no verdict.
        tableau = cycle_with_chords(6).tableau()
        cls = HypertreeClass(1)
        baseline = run_pipeline(tableau, cls, max_extra_atoms=1, allow_fresh=True)
        ordered = run_pipeline(
            tableau,
            cls,
            max_extra_atoms=1,
            allow_fresh=True,
            admission_order="fine-to-coarse",
        )
        assert ordered.frontier == baseline.frontier

    @pytest.mark.parametrize("order", ["generation", "fine-to-coarse"])
    def test_canonical_extension_runs_never_recanonize(self, order):
        # Extended candidates carry the key the enumerator deduplicated
        # them under, so the reducer's late key is free.
        query = parse_query(
            "Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1), R(x2, x4, x6)"
        )
        result = run_pipeline(
            query.tableau(),
            HypertreeClass(1),
            max_extra_atoms=1,
            generation="canonical",
            admission_order=order,
        )
        assert result.stats.generated > 0
        assert result.stats.late_canonizations == 0

    @pytest.mark.slow
    def test_pooled_checks_bit_identical_on_member_heavy_stream(self):
        tableau = self.MEMBER_HEAVY.tableau()
        cls = HypertreeClass(2)
        serial = run_pipeline(tableau, cls, max_extra_atoms=0)
        pooled = run_pipeline(tableau, cls, max_extra_atoms=0, workers=2)
        assert pooled.frontier == serial.frontier


class TestFrontier:
    def test_merge_of_split_streams_matches_serial(self):
        tableau = cycle_with_chords(6).tableau()
        members = [
            c
            for c in iter_quotient_tableaux(tableau, dedup=True)
            if TW1.contains_tableau(c)
        ]
        serial = Frontier().merge(members)
        for cut in (1, len(members) // 2, len(members) - 1):
            left = Frontier().merge(members[:cut])
            right = Frontier().merge(members[cut:])
            combined = Frontier().merge(left.members).merge(right.members)
            assert len(combined.members) == len(serial.members)
            for member in combined.members:
                assert any(
                    hom_equivalent(member, other) for other in serial.members
                )

    def test_dominated_and_eviction(self):
        # two_cycle → loop (collapse both variables), but not conversely, so
        # the two-cycle is strictly lower in the →-order.
        loop = parse_query("Q() :- E(x, x)").tableau()
        two_cycle = parse_query("Q() :- E(x, y), E(y, x)").tableau()
        frontier = Frontier()
        assert frontier.add(loop)
        assert frontier.add(two_cycle)  # not dominated: evicts the loop
        assert frontier.members == [two_cycle]
        assert frontier.dominated(loop)
        assert not frontier.add(loop)

    def test_merge_of_empty_shard_frontier_is_a_noop(self):
        frontier = Frontier()
        assert frontier.merge([]).members == []
        loop = parse_query("Q() :- E(x, x)").tableau()
        frontier.add(loop)
        assert frontier.merge([]).members == [loop]
        assert frontier.merge(iter(())).members == [loop]

    def test_merge_short_circuits_known_isomorphic_members(self):
        # Shard merges present members isomorphic to already-merged ones
        # (per-shard dedup cannot see across shards).  The first duplicate
        # pays one dominance scan; later ones must hit the shared dominance
        # memo under their canonical ("iso") key and run no scan at all.
        stats = PipelineStats()
        frontier = Frontier(stats=stats)
        copies = [
            parse_query(f"Q() :- E({v}, {v})").tableau() for v in "xyz"
        ]
        frontier.merge([copies[0]])
        frontier.merge([copies[1]])
        scans_after_first_duplicate = stats.dominance_tests
        frontier.merge([copies[2]])
        assert frontier.members == [copies[0]]
        assert stats.dominance_tests == scans_after_first_duplicate
        assert stats.dominance_memo_hits >= 1
        assert stats.dominated_without_search >= 1

    def test_hom_le_many_matches_pairwise_verdicts(self):
        engine = default_engine()
        tableaux = [
            parse_query(text).tableau()
            for text in (
                "Q() :- E(x, y), E(y, z), E(z, x)",
                "Q() :- E(x, x)",
                "Q() :- E(x, y)",
                "Q() :- E(x, y), E(y, x)",
            )
        ]
        for source in tableaux:
            assert engine.hom_le_many(source, tableaux) == [
                engine.hom_le(source, target) for target in tableaux
            ]
            assert engine.hom_le_many(source, []) == []


class TestGenerationModes:
    """Raw-stream generation must not change results, down to the bit.

    Every stage-1 regime prunes only candidates isomorphic to an earlier
    stream element, and the reducer's absorption machinery (dominance
    memo, refinement index, class-status memo) plus representative repair
    converge on the first-generated member of each →-minimal class — so
    serial and pooled results are bit-identical across regimes, and
    sharded runs are bit-identical *to each other* across regimes.
    """

    MEMBER_HEAVY = cycle_with_chords(8, ((0, 3), (1, 4), (2, 6)))
    MEMBER_LIGHT = cycle_with_chords(7, ((0, 3),))

    STREAMS = [
        (MEMBER_HEAVY, HypertreeClass(2)),  # ~99% members
        (MEMBER_LIGHT, TW1),                # ~1% members
        (MEMBER_LIGHT, TW2),                # member-light, larger frontier
    ]

    @pytest.mark.parametrize("query,cls", STREAMS)
    @pytest.mark.parametrize("generation", ["raw", "orbit"])
    def test_serial_bit_identical_to_canonical(self, query, cls, generation):
        tableau = query.tableau()
        canonical = run_pipeline(
            tableau, cls, max_extra_atoms=0, generation="canonical"
        )
        other = run_pipeline(
            tableau, cls, max_extra_atoms=0, generation=generation
        )
        assert other.frontier == canonical.frontier

    @pytest.mark.parametrize("query,cls", STREAMS)
    def test_raw_serial_insertion_order_bit_identical(self, query, cls):
        tableau = query.tableau()
        canonical = run_pipeline(
            tableau,
            cls,
            max_extra_atoms=0,
            generation="canonical",
            admission_order="insertion",
        )
        raw = run_pipeline(
            tableau,
            cls,
            max_extra_atoms=0,
            generation="raw",
            admission_order="insertion",
        )
        assert raw.frontier == canonical.frontier

    def test_raw_stream_is_bell_sized(self):
        # The listed raw stream emits every partition; the fine-to-coarse
        # walk over the same regime skips strictly dominated subtrees and
        # keeps the frontier.
        tableau = self.MEMBER_HEAVY.tableau()
        listed = run_pipeline(
            tableau,
            HypertreeClass(2),
            max_extra_atoms=0,
            generation="raw",
            admission_order="insertion",
        )
        assert listed.stats.generated == bell_number(
            len(tableau.structure.domain)
        )
        walked = run_pipeline(
            tableau, HypertreeClass(2), max_extra_atoms=0, generation="raw"
        )
        assert walked.frontier == listed.frontier
        assert walked.stats.generated < listed.stats.generated
        assert walked.stats.index_evictions == 0

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "query,cls",
        [(MEMBER_HEAVY, HypertreeClass(2)), (MEMBER_LIGHT, TW2)],
    )
    def test_raw_pooled_checks_bit_identical(self, query, cls):
        tableau = query.tableau()
        serial_canonical = run_pipeline(
            tableau, cls, max_extra_atoms=0, generation="canonical"
        )
        pooled_raw = run_pipeline(
            tableau, cls, max_extra_atoms=0, generation="raw", workers=2
        )
        assert pooled_raw.frontier == serial_canonical.frontier

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "query,cls",
        [(MEMBER_HEAVY, HypertreeClass(2)), (MEMBER_LIGHT, TW2)],
    )
    def test_raw_sharded_identical_to_canonical_sharded(self, query, cls):
        tableau = query.tableau()
        kwargs = dict(max_extra_atoms=0, workers=2)
        sharded_canonical = run_pipeline(
            tableau, cls, generation="canonical", **kwargs
        )
        sharded_raw = run_pipeline(tableau, cls, generation="raw", **kwargs)
        # Every regime keeps each shard's first-generated representatives,
        # and the stream-order merge keeps the serial ones among them.
        assert sharded_raw.frontier == sharded_canonical.frontier
        serial = run_pipeline(tableau, cls, max_extra_atoms=0)
        assert len(sharded_raw.frontier) == len(serial.frontier)
        for member in sharded_raw.frontier:
            assert any(
                hom_equivalent(member, other) for other in serial.frontier
            )
        assert sharded_raw.frontier == serial.frontier

    def test_extension_space_raw_quotients_bit_identical(self):
        tableau = TERNARY.tableau()
        canonical = run_pipeline(tableau, AC, allow_fresh=False)
        raw = run_pipeline(
            tableau, AC, allow_fresh=False, generation="raw"
        )
        assert raw.frontier == canonical.frontier

    @pytest.mark.parametrize(
        "generation,order",
        [
            ("orbit", "generation"),
            ("canonical", "fine-to-coarse"),
            ("orbit", "fine-to-coarse"),
            ("raw", "fine-to-coarse"),
        ],
    )
    def test_extension_space_regimes_bit_identical(self, generation, order):
        tableau = TERNARY.tableau()
        baseline = run_pipeline(tableau, AC, allow_fresh=False)
        other = run_pipeline(
            tableau,
            AC,
            allow_fresh=False,
            generation=generation,
            admission_order=order,
        )
        assert other.frontier == baseline.frontier

    def test_unknown_generation_rejected(self):
        # "adaptive" and "model" were timing-driven regimes; they are gone.
        for generation in ("telepathic", "adaptive", "model"):
            with pytest.raises(ValueError):
                run_pipeline(TRIANGLE.tableau(), TW1, generation=generation)
            with pytest.raises(ValueError):
                list(
                    iter_quotient_candidates(
                        TRIANGLE.tableau(), generation=generation
                    )
                )

    def test_orbit_mode_prunes_without_keys(self):
        tableau = cycle_with_chords(6).tableau()
        raw = list(iter_quotient_candidates(tableau, generation="raw"))
        orbit = list(iter_quotient_candidates(tableau, generation="orbit"))
        canonical = list(
            iter_quotient_candidates(tableau, generation="canonical")
        )
        assert len(canonical) <= len(orbit) <= len(raw)
        assert len(orbit) < len(raw)  # the symmetric cycle has orbits
        assert all(c.key is None for c in orbit)
        assert len(raw) == bell_number(6)


class SlowTW1(QueryClass):
    """TW(1) with an artificially costly membership test."""

    kind = "graph"
    name = "TW(1)"  # same key space as TW1 on purpose

    def contains_structure(self, structure):
        acc = 0
        for _ in range(4000):
            acc += 1
        return TW1.contains_structure(structure)


def _erratic_clock(seed):
    """A seeded ``time`` stand-in: a per-clock rate between 1 µs and 1 s
    per reading, jittered, with occasional thousandfold stalls."""
    rng = random.Random(seed)
    rate = 10 ** rng.uniform(-6, 0)
    now = [0.0]

    def perf_counter():
        stall = 1000.0 if rng.random() < 0.05 else 1.0
        now[0] += rate * stall * rng.expovariate(1.0)
        return now[0]

    return types.SimpleNamespace(perf_counter=perf_counter)


class TestTimingIndependence:
    """The work a serial run does is a function of its input, not the clock.

    Stage 1's regime and the stage order are fixed per run, so feeding the
    pipeline an erratic clock must leave the frontier and every counter
    unchanged; only the two reported timers may move.
    """

    TIMERS = ("check_seconds", "dominance_seconds")

    RUNS = [
        (cycle_with_chords(7, ((0, 3), (1, 4), (2, 5))), HypertreeClass(2), {}),
        (TERNARY, AC, {"max_extra_atoms": 1, "allow_fresh": False}),
        (cycle_with_chords(7), SlowTW1(), {"admission_order": "generation"}),
    ]

    @pytest.mark.parametrize(
        "query,cls,kwargs", RUNS, ids=["member-heavy", "extension", "slow-class"]
    )
    def test_erratic_clock_changes_no_counter(
        self, monkeypatch, query, cls, kwargs
    ):
        tableau = query.tableau()
        normal = run_pipeline(tableau, cls, **kwargs)
        for seed in range(3):
            # Each module gets its own clock, so their readings disagree.
            with monkeypatch.context() as patch:
                patch.setattr(pipeline_module, "time", _erratic_clock(2 * seed))
                patch.setattr(
                    quotients_module,
                    "time",
                    _erratic_clock(2 * seed + 1),
                    raising=False,
                )
                erratic = run_pipeline(tableau, cls, **kwargs)
            assert erratic.frontier == normal.frontier
            for name in PipelineStats.numeric_fields():
                if name not in self.TIMERS:
                    assert getattr(erratic.stats, name) == getattr(
                        normal.stats, name
                    ), name
        assert normal.stats.order_switches == 0
        assert normal.stats.generation_switches == 0

    def test_check_timer_is_still_reported(self):
        result = run_pipeline(TERNARY.tableau(), AC, allow_fresh=False)
        assert result.stats.checks_run > 0
        assert result.stats.check_seconds > 0.0

    def test_expensive_class_stays_correct(self):
        query = cycle_with_chords(6)
        slow = run_pipeline(query.tableau(), SlowTW1())
        fast = run_pipeline(query.tableau(), TW1)
        assert len(slow.frontier) == len(fast.frontier)
        for member in slow.frontier:
            assert any(hom_equivalent(member, other) for other in fast.frontier)


class TestGreedyBudgets:
    class NeverClass(QueryClass):
        kind = "graph"
        name = "NEVER"

        def contains_structure(self, structure):
            return False

    def test_start_search_has_its_own_budget_and_error(self):
        config = ApproximationConfig(greedy_start_rounds=7, greedy_rounds=500)
        with pytest.raises(ValueError) as excinfo:
            greedy_approximate(TRIANGLE, self.NeverClass(), config)
        message = str(excinfo.value)
        assert "start-point search" in message
        assert "7 samples" in message
        assert "descent" in message

    def test_start_budget_defaults_to_greedy_rounds(self):
        config = ApproximationConfig(greedy_rounds=5)
        with pytest.raises(ValueError) as excinfo:
            greedy_approximate(TRIANGLE, self.NeverClass(), config)
        assert "5 samples" in str(excinfo.value)


class _LegacyTableauCandidate:
    """The pre-PR stage-1 adapter: materialized tableaux, no integer form."""

    block_count = None
    codes = None

    def __init__(self, tableau):
        self._tableau = tableau

    def facts(self):
        return None

    def materialize(self):
        return self._tableau


def legacy_extended_stream(tableau, max_extra_atoms, allow_fresh):
    """Faithful replica of the pre-PR ``iter_extended_tableaux(dedup=True)``:
    materialized quotients, extension atoms enumerated over the quotient's
    structure, tableau-level canonical dedup of the extended candidates only
    (no cross-check against the plain quotients).

    ``test_perf_smoke.py`` imports this replica.
    """
    engine = default_engine()
    seen = set()
    for quotient in iter_quotient_tableaux(tableau, dedup=True):
        yield quotient
        pool = list(
            iter_extension_atoms(quotient.structure, allow_fresh=allow_fresh)
        )
        for count in range(1, max_extra_atoms + 1):
            for extras in itertools.combinations(pool, count):
                extended = _with_extensions(quotient, extras)
                key = engine.canonical_key(extended)
                if key is not None:
                    if key in seen:
                        continue
                    seen.add(key)
                yield extended


class TestExtensionStreamDifferential:
    """The integer-form extension stream must not change serial results.

    The pre-PR extension path is replicated above; the pipeline run on the
    same workload must produce a **bit-identical** frontier — same tableau
    objects (element names included), same order.  Every candidate the new
    stream prunes is isomorphic to an earlier stream element, so pruning
    can never change which representatives survive.
    """

    WORKLOADS = [
        ("Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1)", AC, False),
        ("Q() :- R(x1, x2, x3), R(x3, x4, x5)", HypertreeClass(2), False),
        # Member-heavy extension space: every family is dominated by its
        # parent's verdict, so the source-level skip carries the stream.
        (
            "Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1)",
            HypertreeClass(2),
            False,
        ),
        ("Q() :- E(x, y), E(y, z), E(z, x)", AC, True),
        ("Q() :- R(x, y), R(y, z)", TW2, True),  # graph class ignores extras
    ]

    @pytest.mark.parametrize("query_text,cls,fresh", WORKLOADS)
    def test_serial_pipeline_bit_identical_to_legacy(self, query_text, cls, fresh):
        tableau = parse_query(query_text).tableau()
        legacy_stats = PipelineStats()
        legacy = _reduce_inline(
            (
                _LegacyTableauCandidate(t)
                for t in legacy_extended_stream(tableau, 1, fresh)
            )
            if cls.kind == "hypergraph"
            else (
                _LegacyTableauCandidate(t)
                for t in iter_quotient_tableaux(tableau, dedup=True)
            ),
            cls,
            legacy_stats,
        )
        result = run_pipeline(tableau, cls, max_extra_atoms=1, allow_fresh=fresh)
        assert result.frontier == legacy.members  # same tableaux, same order

    def test_extension_space_workers_still_bit_identical(self):
        tableau = parse_query(
            "Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1)"
        ).tableau()
        serial = run_pipeline(tableau, AC, allow_fresh=False)
        pooled = run_pipeline(tableau, AC, allow_fresh=False, workers=2)
        assert pooled.frontier == serial.frontier


class TestOrbitShipping:
    """Base-tableau orbit data is derived once and shipped, never re-derived."""

    def test_orbit_derivation_runs_once_serially(self):
        result = run_pipeline(TERNARY.tableau(), AC, allow_fresh=False)
        assert result.stats.orbit_derivations == 1

    def test_orbit_derivation_runs_once_with_shard_workers(self):
        # Worker stats are absorbed into the driver's: if a worker derived
        # the orbit data at startup instead of using the shipped copy, the
        # absorbed counter would exceed one.
        result = run_pipeline(
            TERNARY.tableau(), AC, allow_fresh=False, workers=2
        )
        assert result.stats.shards > 0
        assert result.stats.orbit_derivations == 1

    def test_orbit_derivation_runs_once_with_check_workers(self):
        result = run_pipeline(TERNARY.tableau(), AC, allow_fresh=False, workers=2)
        assert result.stats.orbit_derivations == 1
