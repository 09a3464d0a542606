"""Hot-path performance guardrails.

The exact approximation algorithm (Corollary 4.3) funnels Bell-many
candidates through class membership and homomorphism-order checks; the
homomorphism engine keeps that tractable (indexed search, canonical dedup,
memoized ``hom_le``).  These smoke tests pin a *generous* wall-clock ceiling
on fixed workloads so a future regression on the hot path fails loudly
instead of silently making every benchmark and caller crawl.

The ceilings are ~20x the current wall time on an unloaded machine — they
should only trip on algorithmic regressions, not machine noise.

Wall-clock tests (and everything that spins up a process pool) carry the
``slow`` marker; ``-m "not slow"`` is the quick tier (see ``pytest.ini``),
which keeps the counter-based guards — they are deterministic and cheap.
"""

import os
import time

import pytest

from repro.core import (
    AcyclicClass,
    ApproximationConfig,
    HypertreeClass,
    TreewidthClass,
    all_approximations,
    approximation_frontier,
    run_pipeline,
)
from repro.cq import is_contained_in, parse_query
from repro.evaluation import numpy_available
from repro.workloads import cycle_with_chords, random_graph_query


def elapsed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class TestPerfSmoke:
    @pytest.mark.slow
    def test_seven_variable_frontier_under_ceiling(self):
        # Bell(7) = 877 raw candidates; the engine must keep the whole
        # frontier construction well under this ceiling (currently ~0.03s).
        query = cycle_with_chords(7)
        seconds, frontier = elapsed(
            lambda: approximation_frontier(query, TreewidthClass(1))
        )
        assert frontier, "the 7-variable frontier must not be empty"
        assert seconds < 10.0, f"7-variable frontier took {seconds:.1f}s"

    @pytest.mark.slow
    def test_seven_variable_all_approximations_correct_and_fast(self):
        query = cycle_with_chords(7)
        seconds, results = elapsed(
            lambda: all_approximations(query, TreewidthClass(1))
        )
        assert results
        assert all(is_contained_in(r, query) for r in results)
        assert seconds < 15.0, f"7-variable all_approximations took {seconds:.1f}s"

    @pytest.mark.slow
    def test_dense_random_frontier_under_ceiling(self):
        # An asymmetric base where dedup prunes little: the engine must
        # never be pathologically slower than plain enumeration.
        query = random_graph_query(7, 9, seed=2)
        seconds, frontier = elapsed(
            lambda: approximation_frontier(query, TreewidthClass(1))
        )
        assert frontier
        assert seconds < 20.0, f"random 7-variable frontier took {seconds:.1f}s"

    @pytest.mark.slow
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="process-pool smoke needs at least 2 CPUs to be meaningful",
    )
    def test_parallel_pipeline_under_ceiling(self):
        # Exercises the sharded pool path (fork, per-worker context
        # shipping, stream-order merge) inside tier-1, with a ceiling
        # generous enough that only a real regression — a deadlocked pool,
        # a hung merge — can trip it.
        query = cycle_with_chords(7)
        config = ApproximationConfig(workers=2)
        seconds, frontier = elapsed(
            lambda: approximation_frontier(query, TreewidthClass(1), config)
        )
        assert frontier, "the pooled 7-variable frontier must not be empty"
        assert seconds < 30.0, f"pooled 7-variable frontier took {seconds:.1f}s"

    @pytest.mark.slow
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="process-pool smoke needs at least 2 CPUs to be meaningful",
    )
    def test_sharded_pipeline_under_ceiling(self):
        # Same guardrail for the pool path on a hypergraph-class workload.
        query = parse_query("Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1)")
        config = ApproximationConfig(workers=2, allow_fresh=False)
        seconds, frontier = elapsed(
            lambda: approximation_frontier(query, AcyclicClass(), config)
        )
        assert frontier
        assert seconds < 30.0, f"sharded AC frontier took {seconds:.1f}s"

    @pytest.mark.slow
    def test_extension_stream_faster_than_materialized_path(self):
        # The pipeline (integer-form class checks and their memo, the
        # family-dominance and memoized-rejection skips at the source, the
        # frontier's shortcuts) must stay well ahead of the naive
        # materialized reduction of the same stream (shared with the
        # differential suite).  Current speedup is ~25x on this workload;
        # the 2x guard plus the skip on unmeasurably fast baselines keeps
        # the test from ever flaking on noise.
        from test_pipeline import naive_frontier

        tableau = parse_query(
            "Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1)"
        ).tableau()
        cls = HypertreeClass(2)
        naive_s, naive = elapsed(lambda: naive_frontier(tableau, cls, 1, False))
        stream_s, result = elapsed(
            lambda: run_pipeline(tableau, cls, max_extra_atoms=1, allow_fresh=False)
        )
        assert result.frontier == naive, "stream must stay bit-identical"
        if naive_s < 0.2:
            pytest.skip(f"baseline too fast to compare reliably ({naive_s:.3f}s)")
        assert stream_s * 2.0 < naive_s, (
            f"pipeline took {stream_s:.2f}s vs {naive_s:.2f}s naive — "
            "the ≥2x speedup guard tripped"
        )

    def test_fine_to_coarse_order_does_fewer_hom_le_calls(self):
        # Pinned member-heavy stream: an 8-variable chordal cycle outside
        # HTW(2) whose quotients are ~99% members, so insertion order pays
        # an engine-backed dominance scan per admission while the
        # fine-to-coarse order resolves most candidates through the
        # coarsening fast path and the refinement index.  Counted via
        # PipelineStats (hom_le_calls), not wall time — deterministic, so
        # no noise skip is needed.  Results must stay bit-identical.
        query = cycle_with_chords(8, ((0, 3), (1, 4), (2, 6)))
        cls = HypertreeClass(2)
        baseline = run_pipeline(
            query.tableau(), cls, max_extra_atoms=0,
            admission_order="insertion",
        )
        ordered = run_pipeline(query.tableau(), cls, max_extra_atoms=0)
        assert ordered.frontier == baseline.frontier
        assert baseline.stats.members > 0.9 * baseline.stats.generated
        assert ordered.stats.hom_le_calls < baseline.stats.hom_le_calls, (
            f"fine-to-coarse did {ordered.stats.hom_le_calls} hom_le calls "
            f"vs {baseline.stats.hom_le_calls} in insertion order"
        )
        assert ordered.stats.admissions_resolved_by_order > 0

    @pytest.mark.slow
    @pytest.mark.skipif(
        not numpy_available(),
        reason="the columnar speedup guard needs the numpy fast path",
    )
    def test_columnar_engine_beats_tuple_oracle(self):
        # The data-side counterpart of the query-side guards: Yannakakis
        # over the columnar hash kernels must stay well ahead of the
        # tuple-at-a-time oracle on a mid-size chain join (currently ~10x;
        # the 2x guard only trips on a real kernel regression).  Answers
        # are asserted bit-equal, so this doubles as a large-instance
        # differential check.
        from repro.evaluation import yannakakis_evaluate
        from repro.workloads import chain_join_db, chain_join_query

        db = chain_join_db(4, 30_000, 15_000, skew=0.4, seed=7)
        query = chain_join_query(4)
        columnar_s, columnar = elapsed(
            lambda: yannakakis_evaluate(query, db, engine="columnar")
        )
        tuple_s, tuple_answers = elapsed(
            lambda: yannakakis_evaluate(query, db, engine="tuple")
        )
        assert columnar == tuple_answers
        if tuple_s < 0.2:
            pytest.skip(f"tuple baseline too fast to compare ({tuple_s:.3f}s)")
        assert columnar_s * 2.0 < tuple_s, (
            f"columnar took {columnar_s:.2f}s vs {tuple_s:.2f}s tuple — "
            "the ≥2x speedup guard tripped"
        )

    @pytest.mark.slow
    def test_eight_variable_frontier_under_ceiling(self):
        # Bell(8) = 4140 raw candidates — beyond the seed's practical reach,
        # in range for the engine (and for exact_limit=9's intent).
        query = cycle_with_chords(8)
        seconds, frontier = elapsed(
            lambda: approximation_frontier(query, TreewidthClass(1))
        )
        assert frontier
        assert seconds < 60.0, f"8-variable frontier took {seconds:.1f}s"
