"""Computing C-approximations (Definition 3.1).

A C-approximation of ``Q`` is a query ``Q' ∈ C`` with ``Q' ⊆ Q`` such that no
``Q'' ∈ C`` satisfies ``Q' ⊂ Q'' ⊆ Q``.  In tableau terms: the →-minimal
elements of the set of class-C tableaux homomorphically above ``(T_Q, x̄)``.

* For graph-based classes, Theorem 4.1 bounds the search space to the
  homomorphic images (quotients) of the tableau, giving an *exact*,
  single-exponential algorithm (Corollary 4.3): enumerate quotients, keep
  class members, reduce to cores, deduplicate up to homomorphic equivalence,
  and return the →-minimal representatives.

* For hypergraph-based classes, Theorem 6.1 / Claim 6.2 enlarge the space
  with bounded extension atoms; ``ApproximationConfig.max_extra_atoms`` caps
  how many are tried (1 by default — enough for the paper's worked examples,
  and every returned query is still guaranteed to be a class member
  contained in ``Q``).  Extension-space runs stream through the same lazy
  integer-form pipeline stage as plain quotients
  (:func:`repro.core.quotients.iter_extended_candidates`): extension atoms
  are enumerated over block + fresh ids, orbit-pruned per quotient family,
  and rejected candidates never build a ``Structure``.

* For queries too large to enumerate, a randomized greedy descent provides a
  sound best-effort answer: a class member contained in ``Q`` that no
  inspected candidate improves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.cq.minimize import minimize
from repro.cq.query import ConjunctiveQuery
from repro.cq.tableau import Tableau
from repro.core.classes import QueryClass
from repro.core.pipeline import PipelineStats, run_pipeline
from repro.runtime.budget import RunBudget
from repro.core.quotients import (
    iter_extended_tableaux,
    iter_quotient_tableaux,
)
from repro.homomorphism.cores import core_tableau
from repro.homomorphism.engine import default_engine
from repro.util.partitions import partition_to_mapping


@dataclass(frozen=True)
class ApproximationConfig:
    """Knobs of the approximation search.

    ``exact_limit`` is the largest number of tableau elements for which the
    exact (Bell-number) enumeration runs — the indexed, memoizing
    homomorphism engine plus canonical-form deduplication of the candidate
    stream keep 9-variable enumerations (Bell(9) = 21147 partitions)
    practical, hence the default of 9; ``max_extra_atoms``/``allow_fresh``
    control the hypergraph extension space of Claim 6.2; the greedy descent
    stops after ``greedy_rounds`` consecutive unimproved samples, and its
    start-point search after ``greedy_start_rounds`` (defaulting to
    ``greedy_rounds`` when ``None``).

    ``workers`` drives the staged pipeline behind the exact enumeration
    (:mod:`repro.core.pipeline`): ``workers > 1`` splits the candidate
    stream by partition prefix into one shard per local slot process
    and merges the shard frontiers in stream order, so results are
    bit-identical for any worker count.  ``workers=-1`` means "all CPUs".
    The greedy descent is inherently sequential and ignores ``workers``.

    The budget knobs turn the exact enumeration *anytime*: ``deadline``
    (seconds of wall clock), ``memory_limit`` (bytes, combining an RSS
    probe with tracked frontier/memo sizes), ``max_candidates`` and
    ``max_checks`` each stop the run gracefully when exceeded — the
    partial frontier comes back with ``PipelineStats.exhausted`` set, and
    every member of it is still a sound C-overapproximation (only
    minimality/completeness is forfeited).  ``greedy_fallback`` falls back
    to the greedy descent when an exhausted run produced an *empty*
    frontier, so a budgeted call still returns a sound answer.  With
    ``workers > 1`` or ``fabric_workers`` the budget applies per shard:
    each shard gets the remaining deadline and the full caps.
    ``checkpoint_path`` enables periodic snapshot/resume of serial
    plain-quotient-stream runs.

    ``fabric_workers`` runs the shards on network workers
    (:mod:`repro.fabric`) instead of local slot processes: each entry is a
    ``"host:port"`` or unix-socket address of a ``repro worker`` process;
    ``heartbeat_interval`` tunes the coordinator's liveness probes.
    ``shard_timeout`` (seconds) is the per-shard deadline of both
    transports: a shard over it is abandoned — a local slot process is
    killed and respawned — and retried, so the answer stays complete.
    ``spill_dir`` points frontier memo state (class-status map, cold
    refinement subtries) at an on-disk LRU spill tier so
    ``memory_limit``-bounded runs track only resident entries.
    """

    exact_limit: int = 9
    max_extra_atoms: int = 1
    allow_fresh: bool = True
    greedy_rounds: int = 300
    greedy_start_rounds: int | None = None
    seed: int = 17
    workers: int = 1
    deadline: float | None = None
    memory_limit: int | None = None
    max_candidates: int | None = None
    max_checks: int | None = None
    checkpoint_path: str | None = None
    greedy_fallback: bool = False
    fabric_workers: tuple[str, ...] = ()
    spill_dir: str | None = None
    heartbeat_interval: float = 2.0
    shard_timeout: float | None = None

    def budget(self) -> "RunBudget | None":
        """The run budget these knobs describe (``None`` when unbudgeted)."""
        if (
            self.deadline is None
            and self.memory_limit is None
            and self.max_candidates is None
            and self.max_checks is None
        ):
            return None
        return RunBudget(
            deadline=self.deadline,
            memory_limit=self.memory_limit,
            max_candidates=self.max_candidates,
            max_checks=self.max_checks,
        )


DEFAULT_CONFIG = ApproximationConfig()


def candidate_tableaux(
    query: ConjunctiveQuery,
    cls: QueryClass,
    config: ApproximationConfig = DEFAULT_CONFIG,
) -> Iterable[Tableau]:
    """The bounded witness space for ``Q`` and ``C`` (class members only).

    Candidates are deduplicated by canonical form before the (expensive)
    class-membership test: distinct partitions routinely produce isomorphic
    quotients, and class membership and the downstream frontier are
    isomorphism-invariant, so the dedup is lossless up to equivalence.

    This is the serial reference stream, kept at the tableau level on
    purpose (:mod:`repro.core.identification` consumes it as tableaux, and
    the pipeline tests rebuild the pre-pipeline frontier from it); the
    frontier construction itself goes through :mod:`repro.core.pipeline`,
    which streams both quotients and extended candidates in lazy integer
    form, memoizes membership verdicts, and can spread shards over local
    slot processes.
    """
    tableau = query.tableau()
    if cls.kind == "graph":
        source = iter_quotient_tableaux(tableau, dedup=True)
    else:
        source = iter_extended_tableaux(
            tableau,
            max_extra_atoms=config.max_extra_atoms,
            allow_fresh=config.allow_fresh,
            dedup=True,
        )
    for candidate in source:
        if cls.contains_tableau(candidate):
            yield candidate


def approximation_frontier(
    query: ConjunctiveQuery,
    cls: QueryClass,
    config: ApproximationConfig = DEFAULT_CONFIG,
    *,
    tableau: Tableau | None = None,
    stats: PipelineStats | None = None,
    faults: list | None = None,
) -> list[Tableau]:
    """The →-minimal candidate tableaux, maintained as an online frontier.

    A new candidate is dropped if some frontier member maps into it (it is
    dominated or equivalent); otherwise it evicts every frontier member it
    maps into.  By transitivity of → the surviving set is exactly the set of
    minimal candidates up to homomorphic equivalence.

    Runs as the staged pipeline of :mod:`repro.core.pipeline`; with
    ``config.workers > 1`` the stream is sharded over slot processes (see
    :class:`ApproximationConfig` for the determinism guarantee).
    ``tableau`` lets callers that already materialized
    ``query.tableau()`` avoid rebuilding it; ``stats`` is an optional
    :class:`~repro.core.pipeline.PipelineStats` sink the run's counters are
    absorbed into (the CLI's ``--stats`` flag reads them there); ``faults``
    is an optional list the run's structured fault records are appended to
    (sharded runs only: the shard faults, recovered or not, behind the
    ``stats.quarantined`` count and the retry counters).
    """
    if tableau is None:
        tableau = query.tableau()
    result = run_pipeline(
        tableau,
        cls,
        workers=config.workers,
        max_extra_atoms=config.max_extra_atoms,
        allow_fresh=config.allow_fresh,
        budget=config.budget(),
        checkpoint=config.checkpoint_path,
        fabric=config.fabric_workers or None,
        spill_dir=config.spill_dir,
        heartbeat_interval=config.heartbeat_interval,
        shard_timeout=config.shard_timeout,
    )
    if stats is not None:
        stats.absorb(result.stats)
    if faults is not None:
        faults.extend(result.faults)
    return result.frontier


def all_approximations(
    query: ConjunctiveQuery,
    cls: QueryClass,
    config: ApproximationConfig = DEFAULT_CONFIG,
    *,
    tableau: Tableau | None = None,
    stats: PipelineStats | None = None,
    faults: list | None = None,
) -> list[ConjunctiveQuery]:
    """The set ``C-APPR_min(Q)``: minimized, pairwise non-equivalent.

    Exact for graph-based classes whenever the query has at most
    ``config.exact_limit`` variables (Theorem 4.1's witness bound); for
    hypergraph-based classes, exact relative to the extension cap
    ``config.max_extra_atoms`` (Claim 6.2's full bound is polynomial but
    large).  Raises ``ValueError`` beyond ``exact_limit`` — use
    :func:`approximate` with the greedy method there.

    Under a budget (see :class:`ApproximationConfig`) the result may be a
    *partial* answer — check ``stats.exhausted``: every returned query is
    still a sound C-overapproximation, but queries of the full answer set
    may be missing.  With ``config.greedy_fallback`` an exhausted run that
    found *nothing* falls back to the greedy descent instead of returning
    an empty list.
    """
    if tableau is None:
        tableau = query.tableau()
    if len(tableau.structure.domain) > config.exact_limit:
        raise ValueError(
            f"query has {len(tableau.structure.domain)} variables; "
            f"exact enumeration is capped at exact_limit={config.exact_limit}"
        )
    if cls.contains_tableau(tableau):
        return [minimize(query)]

    run_stats = stats if stats is not None else PipelineStats()
    frontier = approximation_frontier(
        query, cls, config, tableau=tableau, stats=run_stats, faults=faults
    )
    if not frontier and run_stats.exhausted and config.greedy_fallback:
        return [greedy_approximate(query, cls, config, tableau=tableau)]
    return [
        ConjunctiveQuery.from_tableau(core_tableau(t), prefix="a")
        for t in frontier
    ]


def _quotient_by(tableau: Tableau, partition) -> Tableau:
    return tableau.rename(partition_to_mapping(partition))


def greedy_approximate(
    query: ConjunctiveQuery,
    cls: QueryClass,
    config: ApproximationConfig = DEFAULT_CONFIG,
    *,
    tableau: Tableau | None = None,
) -> ConjunctiveQuery:
    """Randomized descent through quotients: sound, best-effort minimal.

    The result is always a class member contained in ``Q``.  The search has
    two phases with separate budgets: the *start-point search* samples
    quotients (coarsest first) until it finds any class member, giving up
    after ``greedy_start_rounds`` misses; the *descent* then repeatedly
    samples quotients (random refinements of the current kernel and fully
    random partitions), accepting any candidate strictly lower in the
    →-order, and stops after ``greedy_rounds`` consecutive failures.
    """
    if tableau is None:
        tableau = query.tableau()
    if cls.contains_tableau(tableau):
        return minimize(query)

    engine = default_engine()
    rng = random.Random(config.seed)
    elements = sorted(tableau.structure.domain, key=repr)

    def random_partition() -> tuple[tuple, ...]:
        block_count = rng.randint(1, len(elements))
        blocks: list[list] = [[] for _ in range(block_count)]
        for element in elements:
            blocks[rng.randrange(block_count)].append(element)
        return tuple(tuple(b) for b in blocks if b)

    def random_refinement(partition) -> tuple[tuple, ...]:
        blocks = [list(b) for b in partition]
        candidates = [i for i, b in enumerate(blocks) if len(b) > 1]
        if not candidates:
            return tuple(tuple(b) for b in blocks)
        index = rng.choice(candidates)
        block = blocks.pop(index)
        rng.shuffle(block)
        cut = rng.randint(1, len(block) - 1)
        blocks.extend([block[:cut], block[cut:]])
        return tuple(tuple(b) for b in blocks)

    # Phase 1 — start-point search: the coarsest quotient first, then random
    # samples, on its own budget so a hard-to-hit class cannot silently eat
    # the rounds meant for the descent phase.
    start_budget = (
        config.greedy_start_rounds
        if config.greedy_start_rounds is not None
        else config.greedy_rounds
    )
    samples_left = start_budget
    current_partition = (tuple(elements),)
    current = _quotient_by(tableau, current_partition)
    while not cls.contains_tableau(current):
        if samples_left <= 0:
            raise ValueError(
                f"greedy start-point search found no {cls.name} quotient of "
                f"the query in {start_budget} samples, so the descent phase "
                f"never began — raise greedy_start_rounds (or greedy_rounds) "
                f"or verify the query has any {cls.name} quotient at all"
            )
        samples_left -= 1
        current_partition = random_partition()
        current = _quotient_by(tableau, current_partition)

    # Phase 2 — descent, on the greedy_rounds budget.

    failures = 0
    while failures < config.greedy_rounds:
        move = rng.random()
        if move < 0.6:
            candidate_partition = random_refinement(current_partition)
        else:
            candidate_partition = random_partition()
        candidate = _quotient_by(tableau, candidate_partition)
        # The engine's strictness check front-loads the cheap refutations:
        # signature fast paths and canonical-key equality (isomorphic ⇒ not
        # strict) usually decide without any search, and repeated samples hit
        # the hom_le memo, so most rounds never pay for two full searches.
        if engine.strictly_below(candidate, current) and cls.contains_tableau(
            candidate
        ):
            current, current_partition = candidate, candidate_partition
            failures = 0
        else:
            failures += 1
    return minimize(ConjunctiveQuery.from_tableau(current, prefix="a"))


def approximate(
    query: ConjunctiveQuery,
    cls: QueryClass,
    *,
    method: str = "auto",
    config: ApproximationConfig = DEFAULT_CONFIG,
    stats: PipelineStats | None = None,
    faults: list | None = None,
) -> ConjunctiveQuery:
    """One C-approximation of ``Q`` (Corollaries 4.2/4.3, 6.3, 6.5).

    ``method="exact"`` uses the enumeration (guaranteed approximation, caps
    apply), ``method="greedy"`` the randomized descent, and ``"auto"`` picks
    by query size.  The tableau is materialized once here and threaded
    through whichever method runs.  ``stats`` (exact method only — the
    greedy descent does not run the pipeline) collects the run's
    :class:`~repro.core.pipeline.PipelineStats`.
    """
    if method not in {"auto", "exact", "greedy"}:
        raise ValueError(f"unknown method {method!r}")
    tableau = query.tableau()
    if method == "auto":
        small = len(tableau.structure.domain) <= config.exact_limit
        method = "exact" if small else "greedy"
    if method == "exact":
        results = all_approximations(
            query, cls, config, tableau=tableau, stats=stats, faults=faults
        )
        if not results:
            raise ValueError(f"query has no {cls.name}-approximation candidates")
        return results[0]
    return greedy_approximate(query, cls, config, tableau=tableau)
