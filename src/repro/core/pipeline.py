"""Staged, parallel approximation pipeline (Corollary 4.3 as a dataflow).

The exact approximation algorithm is a generate → filter → reduce loop.
This module makes the three stages explicit and independently scalable::

      stage 1 — GENERATE          stage 2 — FILTER            stage 3 — REDUCE
    ┌──────────────────────┐    ┌──────────────────────┐    ┌──────────────────────┐
    │ iter_quotient_       │    │ class-membership     │    │ →-minimal frontier   │
    │   candidates /       │ →  │   checks             │ →  │ (Frontier)           │
    │ iter_extended_       │    │ · key-memoized: for  │    │ · online dominance / │
    │   candidates         │    │   graph (hypergraph) │    │   eviction via       │
    │ · canonical dedup or │    │   classes the verdict│    │   hom_le(memo=False) │
    │   orbit pruning,     │    │   depends only on    │    │   — stream pairs     │
    │   fixed per run by   │    │   G(Q) (H(Q)), so    │    │   never repeat, so   │
    │   the stream's shape │    │   candidates sharing │    │   canonical memo     │
    │                      │    │   a (hyper)graph     │    │   keys cost more     │
    │ · extension atoms    │    │   share one check    │    │   than they save     │
    │   over block + fresh │    │ · straight off the   │    │ · dominance memo     │
    │   ids, orbit-pruned  │    │   integer facts: a   │    │   under integer-form │
    │   per quotient family│    │   non-member never   │    │   keys               │
    │ · shardable by RGS   │    │   builds a Structure │    │ · associative merge  │
    │   partition prefix   │    │                      │    │   so per-shard       │
    │   (disjoint slices   │    │                      │    │   frontiers combine  │
    │   per worker)        │    │                      │    │                      │
    └──────────────────────┘    └──────────────────────┘    └──────────────────────┘

Scaling out has one strategy.  With ``workers > 1`` (local slot processes)
or ``fabric=`` (network workers, :mod:`repro.fabric`) the partition stream
is split by restricted-growth-string prefix
(:func:`repro.core.quotients._shard_prefixes`) and each shard runs the
whole three-stage loop on its slice (:func:`run_shard`): one shard per
local worker, two per fabric address.  The encoded base tableau and its
automorphism/orbit data — derived once in the driver, never re-derived at
worker startup — reach each local slot process once, through its
initializer, rather than once per task.  One
:class:`~repro.fabric.coordinator.FabricCoordinator` dispatches the
shards of either transport and retries the lost ones.  Corollary 4.3's
frontier is the →-minimal set over all candidates, so the frontier of a
union of slices is the merge of the slice frontiers.  Every shipped member carries its *stream position*
(its quotient's partition codes plus its rank within that quotient's
extension family), and :func:`_merge_shards` folds the union of the shard
frontiers in global stream order.  The first-generated member of each
→-minimal class lies in its shard's frontier and comes first among its
class in the sorted union, so the merge keeps exactly the serial
representatives in the serial order: pooled and fabric frontiers are
**bit-identical** to ``workers=1``.

Stage 3 is a *dominance-aware reduction engine*.  On plain quotient streams
(graph classes, and hypergraph classes with the extension space off) the
reducer replays the stream **fine-to-coarse** — candidates bucketed by
descending block count, which is free in integer form — so a quotient is
reduced before any coarsening of it.  The partition-coarsening positive
fast path then decides most dominance verdicts in O(n) integer comparisons
(the frontier's finer members refine the coarser candidates), turning it
from an opportunistic check into the common case and letting most
admissions resolve with **zero** ``hom_le`` searches
(``PipelineStats.admissions_resolved_by_order``).  Reordering stays
bit-identical to the serial generation-order baseline through **forward
representative repair**: members carry their generation index, a candidate
found equivalent to a later-generated member replaces it
(``representative_repairs``), and the surviving members are sorted back
into generation order at the end.  Extension-space runs keep generation
order: their reducer feeds dominance back into the lazy enumerator, which
skips the extension family of every quotient the frontier already
dominates.

Stage 1's dedup regime (``run_pipeline``'s ``generation`` knob) is fixed
per run by the shape of the stream, never by measurements: fine-to-coarse
plain streams are orbit-pruned and canonicalized only at the reducer's
point of need (the refinement index absorbs most repeats for free), and
every other stream is canonically deduplicated at the source.  The serial
reducer always runs the class check before the dominance scan.

Determinism: the candidate stream is a function of the query, the class
and the knobs alone, and so is every counter of a run — no decision reads
a clock (the only clock reads feed ``check_seconds`` and
``dominance_seconds``), so two runs do the same work and a checkpoint
cursor replays the same stream.  The serial path is bit-identical to the
pre-pipeline implementation, and sharded runs are bit-identical to the
serial path for any worker count.  Every regime prunes only candidates
isomorphic to an earlier stream element, so frontiers are identical across
regimes — the first-generated member of each →-minimal class is never
pruned, and representative repair converges on exactly it whatever else
survives.

Engine handles are never pickled: slot processes rebuild their own
:class:`~repro.homomorphism.engine.HomEngine` via the pid check in
:func:`~repro.homomorphism.engine.default_engine`.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator

from repro.core.classes import QueryClass
from repro.homomorphism.signatures import canonical_key_indexed
from repro.core.quotients import (
    GENERATION_MODES,
    QuotientCandidate,
    base_automorphism_inverses,
    coarseness_buckets,
    coarseness_ordered,  # unused here; benchmarks/e2e/trace.py patches it
    iter_extended_candidates,
    iter_quotient_candidates,
)
from repro.cq.structure import Structure
from repro.cq.tableau import Tableau, pin_for
from repro.homomorphism.engine import default_engine
from repro.parallel import ProcessExecutor, effective_workers
from repro.runtime.budget import RunBudget
from repro.runtime.checkpoint import CheckpointManager
from repro.util.partitions import RefinementTrie, code_coarsens

#: Shards per fabric address.  The local pool runs one shard per worker:
#: a second shard per worker costs more in per-shard setup and cross-shard
#: duplicates than it wins back in balance.
_FABRIC_SHARDS_PER_WORKER = 2


# --------------------------------------------------------------- serialization


def encode_tableau(tableau: Tableau) -> tuple:
    """A compact, picklable form of a tableau.

    Elements are replaced by indexes into a sorted element tuple, facts by
    ``(relation_index, index_row)`` pairs; empty relations survive through
    the explicit name/arity vectors.  :func:`decode_tableau` restores an
    equal tableau (same element names — shard workers return frontier
    members over the driver's original variable names).
    """
    structure = tableau.structure
    elements = sorted(structure.domain, key=repr)
    index = {element: i for i, element in enumerate(elements)}
    names = tuple(sorted(structure.relations))
    arities = tuple(structure.arity(name) for name in names)
    facts = tuple(
        (name_index, tuple(index[value] for value in row))
        for name_index, name in enumerate(names)
        for row in sorted(structure.relations[name], key=repr)
    )
    distinguished = tuple(index[d] for d in tableau.distinguished)
    return (tuple(elements), names, arities, facts, distinguished)


def decode_tableau(data: tuple) -> Tableau:
    """Inverse of :func:`encode_tableau`."""
    elements, names, arities, facts, distinguished = data
    relations: dict[str, list[tuple]] = {name: [] for name in names}
    for name_index, row in facts:
        relations[names[name_index]].append(
            tuple(elements[i] for i in row)
        )
    structure = Structure(
        relations, vocabulary=dict(zip(names, arities)), domain=elements
    )
    return Tableau(structure, tuple(elements[i] for i in distinguished))


# ------------------------------------------------------------ membership keys


def membership_key(cls: QueryClass, structure: Structure) -> tuple | None:
    """A key under which class membership of ``structure`` is constant.

    Graph-based classes (Section 4) are by definition determined by the
    graph ``G(Q)`` and hypergraph-based classes (Section 6) by ``H(Q)``, so
    two candidates with equal primal graph (hypergraph) share one verdict —
    and the candidate stream is full of such coincidences that survive
    isomorphism dedup (e.g. quotients differing only in edge orientation,
    or extension atoms permuting the same variable set).  Returns ``None``
    for classes of unknown kind, which disables memoization for them.
    """
    kind = getattr(cls, "kind", None)
    if kind == "hypergraph":
        edges = frozenset(
            frozenset(row)
            for rows in structure.relations.values()
            for row in rows
        )
        return (cls.name, structure.domain, edges)
    if kind == "graph":
        rows = (
            row
            for relation_rows in structure.relations.values()
            for row in relation_rows
        )
        return (cls.name, structure.domain, frozenset(_primal_pairs(rows)))
    return None


def _primal_pairs(rows) -> set[tuple]:
    """The primal-graph edge pairs of an iterable of fact rows.

    One shared clique expansion (distinct row elements, all unordered
    pairs), mirroring
    :func:`repro.core.classes.primal_graph_of_structure`, so labelled memo
    keys cannot drift from the structure-level test.
    """
    pairs: set[tuple] = set()
    for row in rows:
        distinct = sorted(set(row), key=repr)
        for i, u in enumerate(distinct):
            for v in distinct[i + 1 :]:
                pairs.add((u, v))
    return pairs


def candidate_check_key(cls: QueryClass, candidate) -> tuple | None:
    """The membership-memo key of a stage-1 candidate.

    Quotient candidates expose their facts over integer block ids, which
    give a label-free key: the (hyper)graph as bitmasks over block ids
    (:func:`_integer_masks`).  Equal integer (hyper)graphs mean isomorphic
    (hyper)graphs, so the key collapses strictly more duplicate checks than
    the label-exact :func:`membership_key` — while remaining disjoint from
    it (integer vs. labelled domain components), so both can share a memo.
    Falls back to the structure-based key for materialized candidates.
    """
    facts = candidate.facts()
    if facts is None:
        return membership_key(cls, candidate.materialize().structure)
    masks = _integer_masks(cls, candidate.block_count, facts)
    if masks is None:
        return None
    return (cls.name, candidate.block_count, masks)


def dominance_key(candidate) -> tuple | None:
    """A key under which stage-1 candidates are isomorphic *as tableaux*.

    Unlike :func:`candidate_check_key` this keeps the relational layout and
    the distinguished tuple: equal keys mean the identity on block ids is an
    isomorphism, so frontier verdicts transfer between the candidates.
    ``None`` for candidates without an integer form.
    """
    facts = candidate.facts()
    if facts is None:
        return None
    return (candidate.block_count, facts, candidate.distinguished)


def _integer_masks(cls: QueryClass, block_count: int, facts: tuple):
    """``H(Q)`` or ``G(Q)`` of integer facts as bitmasks (block ``i`` is bit
    ``i``; fresh extension ids are blocks too).

    Hypergraph classes get the frozenset of row masks — equal exactly when
    the edge sets are equal; graph classes get the tuple of loop-free
    neighbor masks, one per block.  ``None`` for other kinds.
    """
    kind = getattr(cls, "kind", None)
    if kind == "hypergraph":
        edges = set()
        for _, row in facts:
            mask = 0
            for value in row:
                mask |= 1 << value
            edges.add(mask)
        return frozenset(edges)
    if kind == "graph":
        adjacency = [0] * block_count
        for _, row in facts:
            mask = 0
            for value in row:
                mask |= 1 << value
            for value in row:
                adjacency[value] |= mask
        return tuple(mask & ~(1 << i) for i, mask in enumerate(adjacency))
    return None


#: The mask-level membership test of each class kind.
_MASK_ENTRY_POINTS = {"hypergraph": "contains_edge_masks", "graph": "contains_adjacency"}


def _check_integer_candidate(
    cls: QueryClass, block_count: int, facts: tuple
) -> bool | None:
    """Class membership straight from integer-indexed facts.

    Hands the bitmask (hyper)graph to the class's mask-level membership
    test — no ``Structure``, ``Tableau``, ``Hypergraph`` or graph object.
    Returns ``None`` when the class offers no such entry point (the caller
    then materializes and uses ``contains_tableau``).
    """
    entry = _MASK_ENTRY_POINTS.get(getattr(cls, "kind", None))
    if entry is None or not hasattr(cls, entry):
        return None
    return bool(getattr(cls, entry)(_integer_masks(cls, block_count, facts)))


# ------------------------------------------------------------------ statistics


@dataclass
class PipelineStats:
    """Counters and stage timings of one pipeline run."""

    generated: int = 0
    checks_run: int = 0
    #: Canonical keys computed *at reduction time* (raw/orbit streams only):
    #: a candidate that survives the free absorption checks — the dominance
    #: memo, the refinement index, and (check-first) a memoized membership
    #: rejection — is keyed just before its dominance scan, so isomorphic
    #: repeats the stream did not deduplicate still skip their searches
    #: through the class-status memo.  This is the stage-1 canonicalization
    #: tax moved behind the absorption filters: member-heavy streams barely
    #: pay it at all, and rejected candidates never do.
    late_canonizations: int = 0
    #: Candidates resolved by the isomorphism-class status memo (an earlier
    #: isomorphic candidate's admitted/dominated outcome decided this one
    #: with no dominance scan; rejections are not memoized — rejected
    #: candidates exit through the memoized class check before any key is
    #: computed).
    class_status_hits: int = 0
    check_memo_hits: int = 0
    check_seconds: float = 0.0
    members: int = 0
    dominance_tests: int = 0
    dominance_memo_hits: int = 0
    dominance_seconds: float = 0.0
    dominated: int = 0
    admitted: int = 0
    evicted: int = 0
    #: Mid-run flips of the stage order.  The order is fixed (check-first),
    #: so this stays 0; kept because benchmark reports read it.
    order_switches: int = 0
    shards: int = 0
    #: How many times the base tableau's automorphism/orbit data was derived
    #: (the endomorphism scan behind stage 1's orbit pruning).  Exactly one
    #: per run: the driver derives once and shard workers receive the data
    #: with their task context instead of re-deriving at startup.
    orbit_derivations: int = 0
    #: Engine-backed order queries issued by the frontier (dominance scans,
    #: eviction scans, representative repairs).  Coarsening fast paths and
    #: dominance-memo hits do not count — the counter is the wall-clock-free
    #: guard for the fine-to-coarse admission order, which exists precisely
    #: to resolve admissions without engine searches.
    hom_le_calls: int = 0
    #: "Dominated" verdicts that needed no member scan: dominance-memo hits
    #: plus refinement-index hits.  (``dominance_memo_hits`` counts hits of
    #: either verdict; this isolates the positive ones.)
    dominated_without_search: int = 0
    #: Stage-3 resolutions (dominance verdict plus any repair and eviction
    #: work) that completed with zero engine ``hom_le`` calls.  Counted only
    #: while the fine-to-coarse admission order is active: under it a
    #: coarser candidate usually meets a strictly finer frontier member
    #: whose partition refines its own, so the coarsening fast path (an
    #: O(n) integer comparison) decides the admission outright.
    admissions_resolved_by_order: int = 0
    #: Frontier representatives swapped back to an earlier-generated
    #: equivalent candidate (:meth:`Frontier._repair`) — the forward
    #: repair that keeps reordered reductions bit-identical to the serial
    #: generation-order baseline.
    representative_repairs: int = 0
    #: Refinement-index entries dropped by a capacity backstop.  The trie
    #: index is uncapped (the historical ``_INDEX_CAP`` antichain cap is
    #: retired), so this stays zero — it is the tripwire that makes any
    #: reintroduced cap visible in ``--stats`` instead of silently
    #: truncating the index like the old backstop did.
    index_evictions: int = 0
    #: Mid-run flips of the stage-1 generation regime.  The regime is fixed
    #: per run, so this stays 0; kept because benchmark reports read it.
    generation_switches: int = 0
    #: Whether a :class:`~repro.runtime.budget.RunBudget` stopped the run
    #: before the candidate space was exhausted.  A partial frontier is
    #: still *sound* — every member is a class member the base maps into,
    #: hence a C-overapproximation of the query — but minimality and
    #: completeness are forfeited: members of the true frontier may be
    #: missing, and surviving members may be dominated by unseen
    #: candidates.  Consumers must surface this flag.
    exhausted: bool = False
    #: Which budget dimension tripped (empty while within budget).
    exhaustion_reason: str = ""
    #: Local slot processes respawned after a death or a ``shard_timeout``
    #: kill.  Their shards are retried, so results are unaffected.
    pool_respawns: int = 0
    #: Shards given up after every attempt failed, the driver's own last
    #: attempt included.  Their slices are skipped — a sound omission:
    #: skipping forfeits completeness only, like a budget stop.  A run is
    #: complete exactly when neither this nor ``exhausted`` is set.
    quarantined: int = 0
    #: Snapshots written by the checkpoint manager this run.
    checkpoints_written: int = 0
    #: Candidates skipped on resume because a checkpoint already covered
    #: them (the restored ``generated`` count still includes them).
    resumed_candidates: int = 0
    #: Candidate classes resolved at merge time by a shard-shipped kernel
    #: trie (satellite of the fabric work): the incoming member's own
    #: trie answered the dominance direction exactly, so the merge ran no
    #: reverse hom search for it.
    kernel_trie_merge_hits: int = 0
    # --- coordinator counters (zero on serial runs) ----------------------
    #: Shards re-dispatched after a lost attempt — a connection, heartbeat,
    #: deadline or error fault (the at-least-once path; duplicates are
    #: absorbed by merge).
    shard_retries: int = 0
    #: Speculative duplicate dispatches launched against straggler shards.
    speculative_dispatches: int = 0
    #: Shard results that arrived after another copy of the same shard had
    #: already been merged (speculation or re-dispatch races; absorbing
    #: them is the idempotence the fabric's at-least-once delivery needs).
    duplicate_results: int = 0
    #: Shard responses re-served from a worker's memoized result cache
    #: (keyed by context digest + shard slice) instead of recomputed — a
    #: retried or speculated shard that already ran on that worker costs
    #: a lookup, not a pipeline pass.
    shard_cache_hits: int = 0
    #: Slots (fabric workers or local slot processes) blacklisted after
    #: consecutive failures.
    workers_blacklisted: int = 0
    #: Shards that ultimately ran in the driver because every slot was
    #: blacklisted or the shard ran out of attempts.
    fabric_local_shards: int = 0
    #: Heartbeat probes that went unanswered past the deadline (each one
    #: costs the affected shard a re-dispatch).
    heartbeat_misses: int = 0
    #: Peak resident frontier state (tracked entries, see
    #: :meth:`Frontier.tracked_entries`) observed in any single process of
    #: the run.  Absorbed with *max*, not sum: across shard workers it
    #: reports the largest per-process footprint — the quantity a
    #: per-worker memory ceiling actually binds on.
    peak_tracked_entries: int = 0

    #: Fields absorbed with ``max`` instead of ``+``: per-process peaks,
    #: where summing across shards would misstate the footprint.
    _PEAK_FIELDS = ("peak_tracked_entries",)

    def absorb(self, other: "PipelineStats") -> None:
        for name in self.__dataclass_fields__:
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, bool):
                setattr(self, name, mine or theirs)
            elif isinstance(mine, str):
                if not mine:
                    setattr(self, name, theirs)
            elif name in self._PEAK_FIELDS:
                setattr(self, name, max(mine, theirs))
            else:
                setattr(self, name, mine + theirs)

    def as_dict(self) -> dict:
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }

    @classmethod
    def numeric_fields(cls) -> tuple[str, ...]:
        """The summable counter/timer fields (excludes flags and reasons)."""
        return tuple(
            name
            for name, spec in cls.__dataclass_fields__.items()
            if spec.type in ("int", "float")
        )


@dataclass
class PipelineResult:
    """The →-minimal frontier plus the run's observability payload.

    ``faults`` carries the run's structured
    :class:`~repro.fabric.coordinator.ShardFault` records (empty on
    fault-free runs): what kind of failure, which shard and slot, the
    stringified cause, and how long the attempt lasted.  Most are
    recovered by a retry; only ``stats.quarantined`` marks lost slices.
    """

    frontier: list[Tableau]
    stats: PipelineStats
    faults: list = field(default_factory=list)


# -------------------------------------------------------------------- stage 2


class MembershipTester:
    """Stage 2 inline: key-memoized, timed class-membership checks.

    Accepts stage-1 candidates (quotient candidates or adapted tableaux);
    integer-form candidates are checked straight off their integer facts so
    a non-member is rejected without ever materializing a ``Structure``.
    """

    def __init__(self, cls: QueryClass, stats: PipelineStats) -> None:
        self._cls = cls
        self._stats = stats
        self._memo: dict[tuple, bool] = {}

    def __call__(self, candidate) -> bool:
        key = candidate_check_key(self._cls, candidate)
        if key is not None:
            cached = self._memo.get(key)
            if cached is not None:
                self._stats.check_memo_hits += 1
                if cached:
                    self._stats.members += 1
                return cached
        started = time.perf_counter()
        facts = candidate.facts()
        verdict = None
        if facts is not None:
            verdict = _check_integer_candidate(
                self._cls, candidate.block_count, facts
            )
        if verdict is None:
            verdict = bool(self._cls.contains_tableau(candidate.materialize()))
        elapsed = time.perf_counter() - started
        self._stats.checks_run += 1
        self._stats.check_seconds += elapsed
        if key is not None:
            self._memo[key] = verdict
        if verdict:
            self._stats.members += 1
        return verdict


def iter_membership(
    candidates: Iterable[Tableau],
    cls: QueryClass,
    *,
    stats: PipelineStats | None = None,
) -> Iterator[tuple[Tableau, bool]]:
    """Stage 2 as a reusable stream over plain tableaux.

    For callers that hold tableaux (e.g. the syntactic overapproximation
    search): yields ``(tableau, is_member)`` in input order, verdicts
    memoized under :func:`candidate_check_key`.
    """
    if stats is None:
        stats = PipelineStats()
    tester = MembershipTester(cls, stats)
    for tableau in candidates:
        candidate = QuotientCandidate.from_tableau(tableau)
        stats.generated += 1
        yield candidate.materialize(), tester(candidate)


# -------------------------------------------------------------------- stage 3


class Frontier:
    """The →-minimal frontier, with an associative merge (stage 3).

    ``add`` implements the online update: a candidate dominated by (or
    equivalent to) a member is dropped; otherwise it evicts every member it
    maps into and joins.  All order queries go through
    ``hom_le(memo=False)`` — a streamed candidate meets the frontier exactly
    once, so computing canonical memo keys for the pair would cost more than
    the (signature-guarded) search it tries to avoid.

    Dominance tests scan members in a private move-to-front order:
    consecutive candidates are structurally close (neighbouring partitions),
    so the member that dominated the last candidate very likely dominates
    the next one, and front-loading it turns the typical scan into a single
    successful search.  The scan order is pure bookkeeping — ``any`` over a
    set of members — while :attr:`members` itself stays in admission order,
    so results and their order are unchanged.

    Candidates from one quotient stream can also carry their partition
    ``codes`` (restricted-growth strings over the shared base).  When both
    sides of an order query have codes, partition coarsening is a sound
    positive fast path: if ``codes(b)`` coarsens ``codes(a)`` the quotient
    map ``T/a → T/b`` *is* a homomorphism, deciding ``a → b`` in O(n)
    integer comparisons with no search.  (Coarsening is sufficient, not
    necessary — failures still fall through to the engine.)

    Dominance verdicts are additionally memoized under the candidate's
    integer-form ``key`` (see :func:`dominance_key`): candidates with equal
    keys are isomorphic, and since the frontier only descends in the
    →-order, a "dominated" verdict stays valid for the rest of the run — a
    member that mapped into the candidate can only ever be replaced by
    something lower, which maps in too.  "Not dominated" verdicts are
    reusable only until the next admission.  On raw (dedup-off) candidate
    streams most candidates repeat an earlier integer form, so this removes
    the majority of dominance searches outright.

    The frontier is *dominance-aware* across admission orders: members can
    carry a ``generation`` index (their position in the unreordered
    candidate stream), and when a dominance scan finds a candidate
    equivalent to a *later-generated* member — which only happens when the
    reducer replays the stream fine-to-coarse — the representative is
    repaired back to the earlier-generated candidate
    (:meth:`_repair`).  Together with
    :meth:`restore_generation_order` this makes the reordered reduction
    bit-identical to the serial generation-order baseline: both end with
    the first-generated class member of each →-minimal equivalence class,
    listed in generation order.

    ``merge`` folds another frontier's members through ``add``; since the
    →-minimal set is unique up to homomorphic equivalence, merging is
    associative and commutative *up to equivalence of representatives*,
    which is what lets per-shard frontiers combine in any grouping.
    """

    __slots__ = (
        "members",
        "_scan",
        "_codes",
        "_generation",
        "_dominated_keys",
        "_undominated_keys",
        "_refinement_index",
        "_repair_forward",
        "_class_status",
        "_kernel_tries",
        "_kernel_queries",
        "_ordered",
        "_engine",
        "_stats",
    )

    #: Cap on homomorphisms scanned while building one member's kernel
    #: index (:meth:`_kernel_trie_for`); a member beyond it falls back to
    #: per-candidate engine queries.  Loop-heavy members can absorb very
    #: many homomorphisms, and a capped-out enumeration is pure waste, so
    #: the cap is deliberately modest — such members are exactly the ones
    #: whose engine queries resolve fast anyway.
    _KERNEL_HOM_CAP = 512

    #: Engine-backed reverse queries a member must attract before its
    #: kernel index is built.  The hom enumeration behind the index is
    #: worth one-time cost only when many candidates are tested against
    #: the member (raw member-heavy streams: thousands); member-light
    #: streams ask a handful of reverse queries per member and must not
    #: pay an enumeration that can cost more than all of them together.
    _KERNEL_BUILD_AFTER = 8

    def __init__(
        self,
        *,
        stats: PipelineStats | None = None,
        ordered: bool = False,
    ) -> None:
        self.members: list[Tableau] = []
        self._scan: list[Tableau] = []
        self._codes: dict[int, tuple[int, ...]] = {}
        self._generation: dict[int, int] = {}
        self._dominated_keys: set = set()
        self._undominated_keys: dict = {}
        #: Trie over the codes of uncovered dominated-or-admitted
        #: candidates, each entry carrying its repair witness.  Lookups are
        #: sublinear (compatible-prefix walk instead of the historical
        #: linear antichain scan), so the index runs uncapped — the
        #: ``_INDEX_CAP`` backstop that silently truncated it is retired.
        self._refinement_index = RefinementTrie()
        #: Repair swaps, old representative id → its replacement — index
        #: witnesses are resolved through this map at hit time.
        self._repair_forward: dict[int, Tableau] = {}
        #: Resolution outcome per isomorphism class (fact-level canonical
        #: key → "admitted"/"dominated").  Raw streams consult it through
        #: :meth:`resolve`'s ``late_key`` just before a dominance scan, so
        #: unabsorbed isomorphic repeats skip their searches; outcomes
        #: transfer because the frontier only descends (a member mapping
        #: into the first copy maps into every repeat).
        self._class_status: dict[tuple, str] = {}
        #: Per-member kernel index for the repair reverse query, keyed by
        #: ``id(member)`` — the value pins the member tableau alive so ids
        #: cannot be reused.  ``(member, trie)`` with a
        #: :class:`~repro.util.partitions.RefinementTrie` of hom kernels,
        #: or ``(member, None)`` when the hom scan capped out.
        self._kernel_tries: dict[int, tuple[Tableau, RefinementTrie | None]] = {}
        #: Reverse queries answered by the engine per member so far — the
        #: build trigger for the lazy kernel index (see
        #: ``_KERNEL_BUILD_AFTER``).
        self._kernel_queries: dict[int, int] = {}
        self._ordered = ordered
        self._engine = default_engine()
        self._stats = stats if stats is not None else PipelineStats()

    #: Whether every block of ``fine`` lies inside a block of ``coarse``
    #: (the shared O(n) coarsening test of :mod:`repro.util.partitions`).
    _coarsens = staticmethod(code_coarsens)

    def _le(
        self,
        source: Tableau,
        source_codes: tuple[int, ...] | None,
        target: Tableau,
        target_codes: tuple[int, ...] | None,
    ) -> bool:
        if self._coarsens(source_codes, target_codes):
            return True
        self._stats.hom_le_calls += 1
        return self._engine.hom_le(source, target, memo=False)

    def cached_dominance(self, key: tuple | None) -> bool | None:
        """The memoized dominance verdict for an integer form, if still valid.

        "Dominated" never expires (the frontier only descends); "not
        dominated" is valid only while no admission happened since it was
        recorded.  Callers can consult this before materializing a
        candidate — a hit answers the stage-3 question with no tableau, no
        search.
        """
        if key is None:
            return None
        # Memo hits deliberately leave `dominated`/`dominance_tests` alone:
        # those two counters describe *searched* verdicts only.
        if key in self._dominated_keys:
            self._stats.dominance_memo_hits += 1
            self._stats.dominated_without_search += 1
            return True
        if self._undominated_keys.get(key) == self._stats.admitted:
            self._stats.dominance_memo_hits += 1
            return False
        return None

    def absorbable(self, candidate) -> bool:
        """Whether zero-cost evidence already settles this candidate.

        A true return means the dominance memo, the refinement index, or
        the class-status memo would resolve the candidate "dominated"
        without its class check.  Side-effect-free (no hit counting) and
        monotone: every structure consulted only grows, and "dominated"
        never expires.  Only *pre-computed* class keys are consulted.  No
        pipeline path calls it; ``benchmarks/e2e/trace.py`` patches it by
        name.
        """
        key = dominance_key(candidate)
        if key is not None and key in self._dominated_keys:
            return True
        codes = candidate.codes
        if self._ordered and codes is not None:
            hit, _ = self._refinement_index.find_refinement(codes)
            if hit:
                return True
        class_key = getattr(candidate, "key", None)
        if class_key is not None and self._class_status.get(class_key) is not None:
            return True
        return False

    def _scan_dominance(
        self,
        candidate: Tableau,
        codes: tuple[int, ...] | None,
        key: tuple | None,
    ) -> tuple[bool, Tableau | None]:
        """The timed member scan behind :meth:`dominated`.

        Returns the verdict plus the member that witnessed it (``None`` for
        negative verdicts) — the witness is what representative repair
        needs.  Memo bookkeeping is identical to the historical scan.

        The scan runs in two phases: a *coarsening pre-pass* testing every
        member's partition codes against the candidate's (O(n) integer
        comparisons per member, no search), then the engine-backed
        move-to-front pass.  Under fine-to-coarse admission the frontier's
        members are at least as fine as the candidate, so the pre-pass
        decides most scans outright — paying a ``hom_le`` on the
        front members first (the historical single pass) would waste
        searches that are strictly pricier than checking every member's
        codes.  Which member witnesses a positive verdict is bookkeeping
        only: if the candidate has an equivalent member, that member is the
        unique one mapping into it, so any witness found is the right one.
        """
        started = time.perf_counter()
        verdict, witness = False, None
        member_codes = self._codes
        if codes is not None:
            for position, member in enumerate(self._scan):
                if self._coarsens(member_codes.get(id(member)), codes):
                    verdict, witness = True, member
                    if position:
                        self._scan.insert(0, self._scan.pop(position))
                    break
        if not verdict:
            # The pre-pass already rejected every coarsening witness (and
            # with ``codes`` None there can be none), so this pass goes
            # straight to the engine.
            for position, member in enumerate(self._scan):
                self._stats.hom_le_calls += 1
                if self._engine.hom_le(member, candidate, memo=False):
                    verdict, witness = True, member
                    if position:
                        self._scan.insert(0, self._scan.pop(position))
                    break
        self._stats.dominance_tests += 1
        self._stats.dominance_seconds += time.perf_counter() - started
        if key is not None:
            if verdict:
                self._dominated_keys.add(key)
            else:
                self._undominated_keys[key] = self._stats.admitted
        if verdict:
            self._stats.dominated += 1
        return verdict, witness

    def dominated(
        self,
        candidate: Tableau,
        codes: tuple[int, ...] | None = None,
        key: tuple | None = None,
    ) -> bool:
        """Whether some member maps into ``candidate``."""
        cached = self.cached_dominance(key)
        if cached is not None:
            return cached
        verdict, _ = self._scan_dominance(candidate, codes, key)
        return verdict

    def _refinement_lookup(
        self, codes: tuple[int, ...]
    ) -> tuple[bool, Tableau | None]:
        """Query the refinement index: ``(hit, witness)``.

        A hit means some recorded dominated-or-admitted partition refines
        ``codes``: a member mapped into that finer quotient when it was
        recorded, the quotient map carries it on into this candidate, and
        the frontier only descends — so the candidate is dominated with no
        scan and no search.  The index is a
        :class:`~repro.util.partitions.RefinementTrie`, so the query walks
        only the entries sharing a refinement-compatible code prefix
        instead of scanning the whole antichain.  Which refining entry the
        walk surfaces is immaterial: if the candidate is equivalent to a
        current member, that member is the *unique* member mapping into it
        — hence the unique member behind **every** hitting entry's witness
        chain (any witness chain resolving to a live member resolves to
        it), so any hit repairs identically to any other.  The returned
        witness is resolved through past repair swaps; ``None`` means the
        entry's class is provably off the frontier, so representative
        repair cannot apply (see :meth:`resolve` for why that is sound).
        """
        hit, witness = self._refinement_index.find_refinement(codes)
        if not hit:
            return False, None
        while witness is not None and id(witness) not in self._generation:
            witness = self._repair_forward.get(id(witness))
        return True, witness

    def _record_refinement(
        self, codes: tuple[int, ...] | None, witness: Tableau | None
    ) -> None:
        """Add an uncovered dominated-or-admitted candidate to the index."""
        if self._ordered and codes is not None:
            self._refinement_index.add(codes, witness)

    def _kernel_trie_for(
        self, base: Tableau, witness: Tableau
    ) -> RefinementTrie | None:
        """The witness's kernel index: the kernels of every pinned
        homomorphism ``base → witness``, as partition codes over the base
        element order, in a :class:`~repro.util.partitions.RefinementTrie`.

        A quotient candidate ``c`` (of the same base) maps into the witness
        iff some hom ``base → witness`` is constant on ``c``'s blocks —
        i.e. iff ``c``'s partition refines one of these kernels — so the
        index answers the repair reverse query ``c → witness`` in one
        :meth:`~repro.util.partitions.RefinementTrie.find_coarsening` walk
        instead of a per-candidate engine search.  Built once per member
        on first use (the hom enumeration is amortized over every
        candidate tested against the member — on raw streams that is the
        dominant repair cost); ``None`` when the enumeration exceeded
        ``_KERNEL_HOM_CAP`` (callers then fall back to the engine).  An
        empty trie is exact: no pinned hom exists, so nothing maps in.
        """
        cached = self._kernel_tries.get(id(witness))
        if cached is not None:
            return cached[1]
        trie: RefinementTrie | None = RefinementTrie()
        pin = pin_for(base, witness)
        if pin is not None:
            elements = sorted(base.structure.domain, key=repr)
            scanned = 0
            for hom in self._engine.iter_homomorphisms(
                base.structure, witness.structure, pin=pin
            ):
                scanned += 1
                if scanned > self._KERNEL_HOM_CAP:
                    trie = None
                    break
                label: dict = {}
                trie.add(
                    tuple(
                        label.setdefault(hom[element], len(label))
                        for element in elements
                    )
                )
        self._kernel_tries[id(witness)] = (witness, trie)
        return trie

    def _member_le(self, candidate, codes, witness: Tableau) -> bool:
        """``candidate → witness`` — the repair/equivalence reverse query.

        Decided, in order, by the coarsening fast path (candidate codes
        refine the witness's), the witness's kernel index (quotient
        candidates only), and the engine.  The kernel index is what keeps
        raw streams cheap: the forced equivalence queries of the ordered
        reduction repeat against the same few members, and a trie walk per
        candidate replaces a (mostly futile) search per candidate.  The
        index is built lazily — a member answers its first
        ``_KERNEL_BUILD_AFTER`` queries through the engine, so streams
        that only ever ask a handful never pay the hom enumeration.
        """
        if codes is not None and code_coarsens(codes, self._codes.get(id(witness))):
            return True
        base = getattr(candidate, "base", None)
        if codes is not None and base is not None:
            cached = self._kernel_tries.get(id(witness))
            if cached is not None:
                trie = cached[1]
            else:
                asked = self._kernel_queries.get(id(witness), 0) + 1
                if asked <= self._KERNEL_BUILD_AFTER:
                    self._kernel_queries[id(witness)] = asked
                    trie = None
                else:
                    self._kernel_queries.pop(id(witness), None)
                    trie = self._kernel_trie_for(base, witness)
            if trie is not None:
                hit, _ = trie.find_coarsening(codes)
                return hit
        self._stats.hom_le_calls += 1
        return self._engine.hom_le(candidate.materialize(), witness, memo=False)

    def _repair(
        self, candidate, witness, generation, membership, *, equivalent=None
    ) -> None:
        """Swap ``witness`` for the earlier-generated equivalent ``candidate``.

        Fine-to-coarse admission can put a later-generated member on the
        frontier before an earlier-generated equivalent candidate is
        processed.  When a dominance verdict then finds that candidate
        dominated by such a member (``generation(witness) > generation``),
        the representative set is repaired *forward*: if the candidate maps
        back into the witness (hom-equivalence — the witness already maps
        into the candidate) and is itself a class member (``membership``;
        equivalence does not preserve class membership, so it must be
        verified), it replaces the witness — the frontier converges on the
        first-generated member of each equivalence class, exactly what the
        serial generation-order baseline keeps.  The swap exchanges
        hom-equivalent tableaux, so every memoized dominance verdict stays
        valid.  ``equivalent`` short-circuits the reverse query when the
        caller already computed it.
        """
        if witness is None or generation is None:
            return
        witness_generation = self._generation.get(id(witness))
        if witness_generation is None or witness_generation <= generation:
            return
        codes = candidate.codes
        if equivalent is None:
            equivalent = self._member_le(candidate, codes, witness)
        if not equivalent:
            return
        if membership is not None and not membership():
            return
        tableau = candidate.materialize()
        position = next(
            i for i, member in enumerate(self.members) if member is witness
        )
        self.members[position] = tableau
        scan_position = next(
            i for i, member in enumerate(self._scan) if member is witness
        )
        self._scan[scan_position] = tableau
        self._codes.pop(id(witness), None)
        if codes is not None:
            self._codes[id(tableau)] = codes
        self._generation.pop(id(witness), None)
        self._generation[id(tableau)] = generation
        self._repair_forward[id(witness)] = tableau
        self._stats.representative_repairs += 1

    def resolve(
        self,
        candidate,
        *,
        key: tuple | None = None,
        generation: int | None = None,
        membership=None,
        late_key=None,
    ) -> str:
        """The order-aware frontier update for one stage-1 candidate.

        Returns ``"dominated"`` (some member maps into the candidate —
        after attempting representative repair), ``"rejected"``
        (``membership`` vetoed the candidate), or ``"admitted"``.
        ``membership`` is a zero-argument callable deciding class
        membership, consulted at most once; pass ``None`` when the
        candidate is already known to be a member.  The class check runs
        before the dominance *scan*, but zero-cost dominance evidence (the
        key memo and the refinement index) is consulted before either,
        since a free "dominated" beats any check.  ``candidate`` is a
        stage-1 candidate object (``materialize()``/``codes``),
        materialized only when a search or admission actually needs the
        tableau.

        ``late_key`` is the raw-stream dedup hook: a zero-argument callable
        producing the candidate's fact-level canonical key (``None`` when
        uncomputable).  It is invoked only on the brink of a dominance
        *scan* — after the free absorption checks (dominance memo,
        refinement index) missed and after a membership rejection had its
        chance to end the resolution cheaply — this is the stage-1
        canonicalization tax deferred to the point of real need, never
        paid by candidates a memoized check rejects.  The key
        is consulted against the class-status memo: an isomorphic
        candidate's earlier admitted/dominated outcome settles this one
        with no search ("admitted"/"dominated" transfer because the
        frontier only descends; equal keys share a block count, so under
        any supported order the earlier copy had the lower generation and
        any repair already happened there, exactly as for the dominance
        memo below).  On a miss the candidate's own outcome is recorded
        under the key.

        Fine-to-coarse reductions (``ordered=True``) answer most
        resolutions from the refinement index with zero engine calls.
        Repair stays exact on index hits: if the candidate were equivalent
        to a current member, that member would be the *unique* member
        mapping into it, hence also the unique member behind the index
        entry's witness chain — so repairing against the resolved witness
        (or skipping repair when the entry's class provably left the
        frontier) reproduces exactly what a full scan would have done.
        """
        cached = self.cached_dominance(key)
        if cached is True:
            # An isomorphic candidate resolved "dominated" earlier.  Equal
            # keys share a block count, so under any supported order the
            # earlier candidate had the lower generation and any repair
            # already happened there — nothing further to do.
            return "dominated"
        codes = candidate.codes
        if cached is None and self._ordered and codes is not None:
            hit, hit_witness = self._refinement_lookup(codes)
            if hit:
                self._stats.dominance_memo_hits += 1
                self._stats.dominated_without_search += 1
                if key is not None:
                    self._dominated_keys.add(key)
                self._repair(candidate, hit_witness, generation, membership)
                return "dominated"
        if membership is not None and not membership():
            return "rejected"
        class_key = None
        if cached is False:
            verdict, witness = False, None
        else:
            if late_key is not None:
                class_key = late_key()
                if class_key is not None:
                    status = self._class_status.get(class_key)
                    if status is not None:
                        # "admitted" or "dominated": either way a member
                        # maps into the earlier isomorphic copy, hence
                        # into this candidate — no scan needed.
                        self._stats.class_status_hits += 1
                        self._stats.dominated_without_search += 1
                        if key is not None:
                            self._dominated_keys.add(key)
                        return "dominated"
            verdict, witness = self._scan_dominance(
                candidate.materialize(), codes, key
            )
        if verdict:
            if self._ordered:
                # Establish once whether this candidate's class sits on the
                # frontier (the repair's reverse query, forced even when
                # the generations would not warrant it): index hits through
                # the entry then know for certain whether repair can ever
                # apply — a ``None`` witness is a proof, not a guess.
                equivalent = self._member_le(candidate, codes, witness)
                if equivalent:
                    self._repair(
                        candidate, witness, generation, None, equivalent=True
                    )
                self._record_refinement(codes, witness if equivalent else None)
            else:
                self._repair(candidate, witness, generation, None)
            self._set_class_status(class_key, "dominated")
            return "dominated"
        tableau = candidate.materialize()
        self.insert(tableau, codes, generation=generation)
        self._record_refinement(codes, tableau)
        self._set_class_status(class_key, "admitted")
        return "admitted"

    def _set_class_status(self, class_key: tuple | None, status: str) -> None:
        if class_key is not None:
            self._class_status[class_key] = status

    def insert(
        self,
        candidate: Tableau,
        codes: tuple[int, ...] | None = None,
        *,
        generation: int | None = None,
        use_kernel_tries: bool = False,
    ) -> None:
        """Admit a known-undominated class member, evicting what it beats.

        Engine-backed eviction queries are batched through
        :meth:`~repro.homomorphism.engine.HomEngine.hom_le_many` (the
        candidate-side signature and search plan are shared across the
        member scan) after coarsening-witnessed pairs are decided inline.

        ``use_kernel_tries`` additionally decides eviction queries through
        the scanned member's kernel index when one is seeded (``candidate →
        member`` holds iff the candidate's partition refines some hom
        kernel of the member — exact in both directions for same-base
        quotients).  Only :meth:`merge` sets it: the serial path's members
        never carry seeded tries, and keeping the flag off there leaves
        its engine-call counters untouched.
        """
        member_codes = self._codes
        beaten: dict[int, bool] = {}
        searched: list[Tableau] = []
        for member in self.members:
            if self._coarsens(codes, member_codes.get(id(member))):
                beaten[id(member)] = True
                continue
            if use_kernel_tries and codes is not None:
                cached = self._kernel_tries.get(id(member))
                if cached is not None and cached[1] is not None:
                    hit, _ = cached[1].find_coarsening(codes)
                    beaten[id(member)] = hit
                    self._stats.kernel_trie_merge_hits += 1
                    continue
            searched.append(member)
        if searched:
            self._stats.hom_le_calls += len(searched)
            for member, verdict in zip(
                searched,
                self._engine.hom_le_many(candidate, searched, memo=False),
            ):
                beaten[id(member)] = verdict
        survivors = [
            member for member in self.members if not beaten[id(member)]
        ]
        self._stats.evicted += len(self.members) - len(survivors)
        self._stats.admitted += 1
        survivors.append(candidate)
        if len(survivors) != len(self.members) + 1:
            kept = set(map(id, survivors))
            self._scan = [m for m in self._scan if id(m) in kept]
            self._codes = {
                key: value for key, value in member_codes.items() if key in kept
            }
            self._generation = {
                key: value
                for key, value in self._generation.items()
                if key in kept
            }
        self.members = survivors
        self._scan.insert(0, candidate)
        if codes is not None:
            self._codes[id(candidate)] = codes
        if generation is not None:
            self._generation[id(candidate)] = generation

    def add(
        self,
        candidate: Tableau,
        codes: tuple[int, ...] | None = None,
        key: tuple | None = None,
    ) -> bool:
        """The online frontier update; returns whether the candidate joined."""
        if self.dominated(candidate, codes, key):
            return False
        self.insert(candidate, codes)
        return True

    def restore_generation_order(self) -> None:
        """Sort members back into generation order (reordered reductions).

        A fine-to-coarse reduction admits members out of stream order; the
        serial baseline lists survivors in generation order, so reordered
        runs sort once at the end.  Members without a recorded generation
        (directly ``merge``-d ones) keep their relative position at the
        front.
        """
        self.members.sort(key=lambda member: self._generation.get(id(member), -1))

    def tracked_entries(self) -> int:
        """Entry count of the frontier's growable structures — the memory
        budget's tracked-size probe (see :meth:`RunBudget.register_probe`).

        Every entry is resident: the memos and the refinement index live in
        memory for the whole run.  The budget's RSS probe is the ceiling
        that binds in practice; this count is the deterministic floor
        under it, and ``PipelineStats.peak_tracked_entries`` reports it.
        """
        return (
            len(self.members)
            + len(self._dominated_keys)
            + len(self._undominated_keys)
            + len(self._class_status)
            + len(self._refinement_index)
        )

    def snapshot(self) -> list[tuple]:
        """The frontier's resumable state, picklable.

        Members in admission order, each with its partition codes and
        generation stamp.  The perf-only structures (dominance memo,
        class-status memo, refinement index beyond admitted members, kernel
        tries) are deliberately *not* captured: every verdict they
        short-circuit is reproduced identically by the full scan they
        replace, so a restore that drops them changes counters, never the
        frontier.
        """
        return [
            (
                encode_tableau(member),
                self._codes.get(id(member)),
                self._generation.get(id(member)),
            )
            for member in self.members
        ]

    def restore(self, snapshot: Iterable[tuple]) -> None:
        """Rebuild members (plus codes/generations) from :meth:`snapshot`.

        Only valid on an empty frontier.  Admitted members are re-seeded
        into the refinement index (ordered reductions record them there on
        admission), so resumed runs keep the index's positive fast path for
        everything already admitted.
        """
        if self.members:
            raise ValueError("restore() needs an empty frontier")
        for encoded, codes, generation in snapshot:
            member = decode_tableau(encoded)
            self.members.append(member)
            self._scan.append(member)
            if codes is not None:
                self._codes[id(member)] = codes
            if generation is not None:
                self._generation[id(member)] = generation
            self._record_refinement(codes, member)

    def kernel_exports(self) -> list[tuple[tuple[int, ...], ...] | None]:
        """Per-member kernel indexes as plain code tuples, members order.

        The shard-result counterpart of :meth:`snapshot`: each entry is
        the member's built kernel trie flattened to a tuple of partition
        codes (``None`` when no trie was built or the hom scan capped
        out).  Plain nested tuples of ints are cheaply picklable, so shard
        workers ship them with their frontiers and :meth:`merge` rebuilds
        the tries coordinator-side — the reverse queries the worker
        already paid to index are never re-answered by the driver's
        engine.  Only *already-built* tries are exported; exporting never
        forces the hom enumeration.
        """
        exports: list[tuple[tuple[int, ...], ...] | None] = []
        for member in self.members:
            cached = self._kernel_tries.get(id(member))
            if cached is None or cached[1] is None:
                exports.append(None)
            else:
                exports.append(
                    tuple(prefix for prefix, _ in cached[1].codes())
                )
        return exports

    def merge(
        self,
        members: Iterable[Tableau],
        codes: Iterable[tuple[int, ...] | None] | None = None,
        kernel_tries: Iterable | None = None,
    ) -> "Frontier":
        """Fold another frontier (or member list) into this one.

        Each incoming member is keyed by its engine canonical form (under
        an ``("iso", …)`` namespace disjoint from the integer-form
        :func:`dominance_key` space), so the shared dominance memo
        short-circuits repeats before any ``hom_le``: shard merges
        routinely present members isomorphic to ones an earlier merge
        already resolved — per-shard dedup state cannot see across shards —
        and a memoized "dominated" verdict now answers them with no scan.
        Canonical keys for the batch are requested together through
        :meth:`~repro.homomorphism.engine.HomEngine.canonical_key_many`.
        Merging an empty frontier is a no-op, and re-merging a shard's
        members is absorbed by the same memo — the idempotence the
        fabric's at-least-once re-dispatch relies on.

        ``codes`` optionally carries each member's partition codes over the
        *shared base element order* (shard workers return them with their
        frontiers).  They feed the same refinement index the fine-to-coarse
        reducer uses — the index's soundness needs only that the frontier
        descends, not any admission order: an incoming member refined by a
        recorded dominated-or-admitted partition is dominated with no scan
        and no search, so cross-shard repeats and coarsenings resolve in
        one trie walk.  Admitted members are recorded in turn (dominated
        ones are not — ``add`` surfaces no repair witness, and merged
        members carry no generation, so only admissions have a sound
        witness to store).

        ``kernel_tries`` optionally carries each member's
        :meth:`kernel_exports` entry.  A member arriving with one has its
        trie rebuilt and used to *decide the dominance scan outright*
        whenever every current member has codes: ``existing → incoming``
        holds iff the existing member's partition refines some hom kernel
        of the incoming one, so one trie walk per current member replaces
        the engine scan, exactly (the trie is only shipped when the hom
        enumeration completed).  Undominated members insert directly with
        ``use_kernel_tries=True`` so their eviction queries go through the
        tries seeded by earlier merges; admitted members' tries are seeded
        for the merges after them.
        """
        members = list(members)
        code_list: list = list(codes) if codes is not None else [None] * len(
            members
        )
        trie_list: list = (
            list(kernel_tries)
            if kernel_tries is not None
            else [None] * len(members)
        )
        keys = self._engine.canonical_key_many(members)
        for member, member_codes, kernel_codes, canonical in zip(
            members, code_list, trie_list, keys
        ):
            key = ("iso", canonical) if canonical is not None else None
            if member_codes is not None:
                hit, _ = self._refinement_index.find_refinement(member_codes)
                if hit:
                    self._stats.dominance_memo_hits += 1
                    self._stats.dominated_without_search += 1
                    if key is not None:
                        self._dominated_keys.add(key)
                    continue
            trie: RefinementTrie | None = None
            if kernel_codes is not None:
                trie = RefinementTrie()
                for entry in kernel_codes:
                    trie.add(tuple(entry))
            admitted = False
            if trie is None:
                admitted = self.add(member, member_codes, key=key)
            else:
                cached = self.cached_dominance(key)
                decided: bool | None = None
                if cached is None:
                    member_code_map = self._codes
                    if all(
                        id(existing) in member_code_map
                        for existing in self.members
                    ):
                        decided = any(
                            trie.find_coarsening(
                                member_code_map[id(existing)]
                            )[0]
                            for existing in self.members
                        )
                        self._stats.kernel_trie_merge_hits += 1
                if cached is True or decided is True:
                    if decided is True:
                        self._stats.dominated_without_search += 1
                        if key is not None:
                            self._dominated_keys.add(key)
                elif cached is False or decided is False:
                    self.insert(member, member_codes, use_kernel_tries=True)
                    admitted = True
                else:
                    admitted = self.add(member, member_codes, key=key)
            if admitted:
                if member_codes is not None:
                    self._refinement_index.add(member_codes, member)
                if trie is not None:
                    self._kernel_tries[id(member)] = (member, trie)
        return self


# ----------------------------------------------------------------- the driver


def _base_orbit_data(
    tableau: Tableau, stats: PipelineStats
) -> list[list[int]] | None:
    """Derive the base tableau's automorphism/orbit data, counted.

    The one place the pipeline runs the endomorphism scan behind stage 1's
    orbit pruning: the driver calls it once per run and threads the result
    through every candidate source — including shard task contexts, so pool
    workers never re-derive it (``stats.orbit_derivations`` pins that).
    """
    stats.orbit_derivations += 1
    return base_automorphism_inverses(tableau)


def _candidate_source(
    tableau: Tableau,
    cls: QueryClass,
    *,
    max_extra_atoms: int,
    allow_fresh: bool,
    shard: tuple[int, int] | None = None,
    automorphisms: list[list[int]] | None = None,
    generation: str = "canonical",
) -> Iterator:
    """Stage 1: the class-appropriate candidate stream.

    Graph classes — and hypergraph classes with the extension space switched
    off — consume the lazy integer-form quotient stream; extension-space
    runs consume the integer-form extension stream (extension atoms over
    block + fresh ids, orbit-pruned per quotient family) — every class the
    pipeline supports now shares the same lazy fast path.  ``automorphisms``
    is the precomputed base orbit data from :func:`_base_orbit_data`;
    ``generation`` is the stage-1 regime (see
    :func:`_resolve_generation_mode`).
    """
    if getattr(cls, "kind", None) == "graph" or max_extra_atoms <= 0:
        return iter_quotient_candidates(
            tableau,
            shard=shard,
            automorphisms=automorphisms,
            generation=generation,
        )
    return iter_extended_candidates(
        tableau,
        max_extra_atoms=max_extra_atoms,
        allow_fresh=allow_fresh,
        shard=shard,
        automorphisms=automorphisms,
        generation=generation,
    )


def _deferred_class_key(candidate, stats: PipelineStats):
    """The ``late_key`` hook for :meth:`Frontier.resolve`.

    Returns a zero-argument callable producing the candidate's fact-level
    canonical key: the stage-1 key when the enumerator computed one, else —
    for raw/orbit candidates — the same :func:`canonical_key_indexed` form
    computed on demand (counted in ``stats.late_canonizations``).  ``None``
    for candidates without integer facts (the materialized fallback path),
    whose repeats are absorbed by the engine-level memos instead.
    """

    def compute():
        key = getattr(candidate, "key", None)
        if key is None:
            facts = candidate.facts()
            if facts is None:
                return None
            stats.late_canonizations += 1
            key = canonical_key_indexed(
                candidate.block_count, list(facts), candidate.distinguished
            )
        return key

    return compute


def _budget_gate(candidates, budget: RunBudget, stats: PipelineStats):
    """Stop drawing stage-1 candidates once the budget trips.

    The earliest possible stop: nothing downstream of the gate sees another
    candidate, so buffering reducers stop growing their buffer.
    The candidate cap is enforced against ``stats.generated``, which the
    consumer increments — exact on lazy (one-in-one-out) streams; during a
    fine-to-coarse buffering phase only the deadline and the memory ceiling
    can truncate the buffer, and the cap binds in the reduction loop
    instead.
    """
    for candidate in candidates:
        if budget.exceeded(stats) is not None:
            return
        yield candidate


def _note_exhaustion(budget: RunBudget | None, stats: PipelineStats) -> None:
    """Mark the run exhausted if its budget tripped (idempotent)."""
    if budget is not None and budget.reason is not None:
        stats.exhausted = True
        if not stats.exhaustion_reason:
            stats.exhaustion_reason = budget.reason


class _CheckpointSession:
    """One run's binding of a checkpoint manager to pipeline state.

    Tracks the *cursor* — how many stage-3 candidates (in reduction order)
    have been fully processed — and snapshots ``(cursor, frontier, stats)``
    at the manager's cadence.  On resume the frontier and stats are
    restored, the stream is regenerated in full (generation is cheap next
    to checks) and its first ``cursor`` candidates are skipped.  The stream
    is a function of the run key alone, so the skipped prefix is exactly
    the processed one, under every generation regime and admission order.
    """

    __slots__ = ("manager", "run_key", "stats", "cursor")

    def __init__(
        self, manager: CheckpointManager, run_key: tuple, stats: PipelineStats
    ) -> None:
        self.manager = manager
        self.run_key = run_key
        self.stats = stats
        self.cursor = 0

    def load(self) -> dict | None:
        return self.manager.load(self.run_key)

    def _payload(self, frontier: Frontier) -> dict:
        return {
            "cursor": self.cursor,
            "frontier": frontier.snapshot(),
            "stats": self.stats.as_dict(),
        }

    def restore(self, payload: dict, frontier: Frontier) -> None:
        self.cursor = payload["cursor"]
        frontier.restore(payload["frontier"])
        for name, value in payload["stats"].items():
            if name in PipelineStats.__dataclass_fields__:
                setattr(self.stats, name, value)
        # Exhaustion is a property of the run that *saved* the snapshot
        # (e.g. a tripped budget); the resumed run decides its own.
        self.stats.exhausted = False
        self.stats.exhaustion_reason = ""
        self.stats.resumed_candidates = self.cursor

    def after_candidate(self, frontier: Frontier) -> None:
        self.cursor += 1
        if self.manager.maybe_save(
            self.run_key, lambda: self._payload(frontier)
        ):
            self.stats.checkpoints_written += 1

    def save_now(self, frontier: Frontier) -> None:
        self.manager.save(self.run_key, self._payload(frontier))
        self.stats.checkpoints_written += 1

    def finalize(self) -> None:
        self.manager.finalize()


def _mark_family_dominated(candidate) -> None:
    """Record that the frontier now holds a member mapping into ``candidate``.

    Only meaningful for quotient candidates (potential family parents):
    once a quotient is found dominated, or is a member
    offered to the frontier (then a member maps into it afterwards — itself
    if admitted, its dominator or evictor otherwise, since the →-minimal
    frontier only descends), its whole extension family is dominated.  The
    flag feeds back into :func:`~repro.core.quotients.
    iter_extended_candidates`, which skips the family at the source.
    Candidates without the feedback slot (plain tableau adapters) are
    ignored.
    """
    if getattr(candidate, "extensions_dominated", None) is False:
        candidate.extensions_dominated = True


def _reduce_inline(
    candidates: Iterable[Tableau],
    cls: QueryClass,
    stats: PipelineStats,
    *,
    order: str = "insertion",
    budget: RunBudget | None = None,
    checkpoint: _CheckpointSession | None = None,
    resume: dict | None = None,
) -> Frontier:
    """Stages 2+3 in one process, check-first.

    Each candidate's class check runs before its dominance scan (zero-cost
    dominance evidence is still consulted first, see
    :meth:`Frontier.resolve`).  The order only decides which work is spent,
    not the result: a dominated candidate can never join nor evict.

    ``order="fine_to_coarse"`` replays the candidate stream finest-first
    (:func:`~repro.core.quotients.coarseness_ordered`): a quotient is then
    reduced before any coarsening of it, so most dominance verdicts resolve
    through the coarsening fast path with zero engine searches, and
    representative repair plus a final generation-order sort keep the
    result **bit-identical** to the insertion-order reduction.  Meant for
    streams without generator feedback (plain quotient streams): the
    stream is buffered in full, so ``extensions_dominated`` flags never
    reach the enumerator.
    """
    tester = MembershipTester(cls, stats)
    reorder = order == "fine_to_coarse"
    frontier = Frontier(stats=stats, ordered=reorder)
    if budget is not None:
        budget.start()
        budget.register_probe(frontier.tracked_entries)
        budget.register_probe(lambda: len(tester._memo))
        if reorder and checkpoint is None:
            # Fine-to-coarse buffers the whole stream before reducing, so
            # the deadline/memory stop must reach stage 1 directly.  Under
            # checkpointing the gate stays off: a truncated buffer would
            # reorder differently from the full stream, breaking the
            # cursor's alignment on resume — budget stops then align to
            # stage-3 candidate boundaries instead.
            candidates = _budget_gate(candidates, budget, stats)
    if resume is not None and checkpoint is not None:
        checkpoint.restore(resume, frontier)
    if reorder:
        candidates = chain.from_iterable(coarseness_buckets(candidates))
    if checkpoint is not None and checkpoint.cursor:
        candidates = islice(candidates, checkpoint.cursor, None)
    for candidate in candidates:
        if budget is not None and budget.exceeded(stats) is not None:
            break
        stats.generated += 1
        calls_before = stats.hom_le_calls
        status = frontier.resolve(
            candidate,
            key=dominance_key(candidate),
            generation=getattr(candidate, "generation", None),
            membership=lambda: tester(candidate),
            late_key=_deferred_class_key(candidate, stats),
        )
        if status != "rejected":
            _mark_family_dominated(candidate)
            if reorder and stats.hom_le_calls == calls_before:
                stats.admissions_resolved_by_order += 1
        if checkpoint is not None:
            checkpoint.after_candidate(frontier)
    _note_exhaustion(budget, stats)
    # The same quantity the budget's tracked-size probe watches: frontier
    # state plus the membership memo.  Recorded as a per-process peak
    # (max-absorbed across shards), it is the footprint a per-worker
    # memory ceiling binds on — the number that must *shrink* as workers
    # are added for a fixed ceiling to admit larger instances.
    stats.peak_tracked_entries = max(
        stats.peak_tracked_entries,
        frontier.tracked_entries() + len(tester._memo),
    )
    if checkpoint is not None:
        if stats.exhausted:
            # A budget stop keeps the snapshot (and refreshes it): rerun
            # with a bigger budget and the run resumes where it stopped.
            checkpoint.save_now(frontier)
        else:
            checkpoint.finalize()
    if reorder:
        frontier.restore_generation_order()
    return frontier


#: Per-worker shard context: ``(base_data, cls, max_extra_atoms,
#: allow_fresh, automorphisms, order, generation, budget_spec)``,
#: installed once per local slot process by its
#: initializer.  Shipping the base tableau and its orbit data with the
#: *context* instead of every task payload serializes them once per worker
#: and spares each worker the startup endomorphism scan.
_SHARD_CONTEXT: tuple | None = None


def _install_shard_context(context: tuple) -> None:
    global _SHARD_CONTEXT
    _SHARD_CONTEXT = context


def _partition_codes(quotient: QuotientCandidate) -> tuple[int, ...]:
    """The restricted growth string of a stream quotient's partition.

    Stream quotients carry it as ``codes``; the isolated-element fallback
    leaves ``codes`` unset, so it is rebuilt from the partition over the
    base's element order (``repr``-sorted, as the stream enumerates it).
    """
    if quotient.codes is not None:
        return quotient.codes
    block_of = {
        element: block_id
        for block_id, block in enumerate(quotient.partition)
        for element in block
    }
    return tuple(
        block_of[element]
        for element in sorted(quotient.base.structure.domain, key=repr)
    )


def _stream_positions(candidates: Iterable, positions: list) -> Iterator:
    """Record each candidate's stream position, in stream order.

    A stream position is ``(codes, rank)``: the partition codes of the
    candidate's quotient and its rank within that quotient's family — 0
    for the quotient, then 1, 2, ... for its extended candidates in
    enumeration order.  An extended candidate takes its ``parent``'s
    codes (the parent itself may have been suppressed from the stream); a
    parentless one (the tableau-level extension fallback) belongs to the
    last quotient.  Partition codes are restricted growth strings, whose
    lexicographic order is the order of the unsharded stream, and a
    family never spans shards — so positions from different shards never
    tie and sort into serial stream order.  Each candidate's
    ``generation`` is set to its index in ``positions``.
    """
    family, codes, rank = None, None, 0
    for candidate in candidates:
        parent = getattr(candidate, "parent", None)
        if parent is None and candidate.partition:
            family, codes, rank = candidate, _partition_codes(candidate), 0
        else:
            owner = family if parent is None else parent
            if owner is not family:
                family, codes, rank = owner, _partition_codes(owner), 0
            rank += 1
        candidate.generation = len(positions)
        positions.append((codes, rank))
        yield candidate


def run_shard(
    context: tuple, shard: tuple[int, int]
) -> tuple[tuple[tuple, ...], dict]:
    """The full pipeline loop on one shard slice, reentrant.

    The shared body behind the local slot task, the fabric worker's
    ``shard`` op (:mod:`repro.fabric.worker`) and the coordinator's
    last attempt in the driver — the slot path installs ``context`` once
    per process, the others thread it per call, all run the same code.
    Shard workers share the driver's admission order and generation
    regime: plain quotient slices are reduced fine-to-coarse
    (coarseness-ordered shard iteration — the buffered slice is one
    shard, not the whole stream), extension slices in generation order.  Each returned member ships as ``(encoded tableau,
    partition codes, kernel codes, stream position)`` — codes over the
    shared base element order (``None`` off the integer path), kernel
    codes the member's built kernel index flattened by
    :meth:`Frontier.kernel_exports` (``None`` when never built), and the
    position from :func:`_stream_positions` — so the driver's merge can
    replay the union of shards in serial stream order, route cross-shard
    admissions through the refinement index, and decide dominance through
    the shipped kernels instead of re-answering reverse queries per shard.
    """
    (
        base_data,
        cls,
        max_extra_atoms,
        allow_fresh,
        automorphisms,
        order,
        generation,
        budget_spec,
    ) = context
    base = decode_tableau(base_data)
    stats = PipelineStats()
    # Budgets apply per shard: each worker rebuilds the spec (the remaining
    # deadline and the caps are frozen at dispatch time), so a shard that
    # exhausts its slice of the budget returns its partial frontier and the
    # driver's absorb ORs the ``exhausted`` flags together.
    budget = RunBudget(**budget_spec) if budget_spec is not None else None
    positions: list = []
    candidates = _candidate_source(
        base,
        cls,
        max_extra_atoms=max_extra_atoms,
        allow_fresh=allow_fresh,
        shard=shard,
        automorphisms=automorphisms,
        generation=generation,
    )
    frontier = _reduce_inline(
        _stream_positions(candidates, positions),
        cls,
        stats,
        order=order,
        budget=budget,
    )
    kernels = frontier.kernel_exports()
    return (
        tuple(
            (
                encode_tableau(member),
                frontier._codes.get(id(member)),
                kernel,
                positions[frontier._generation[id(member)]],
            )
            for member, kernel in zip(frontier.members, kernels)
        ),
        stats.as_dict(),
    )


def _shard_task(shard: tuple[int, int]) -> tuple[tuple[tuple, ...], dict]:
    """Local slot task: :func:`run_shard` on the process-installed context."""
    return run_shard(_SHARD_CONTEXT, shard)


def _merge_shards(frontier: Frontier, shard_members: Iterable) -> None:
    """Fold the union of shard frontiers into ``frontier`` in stream order.

    ``shard_members`` holds each shard's :func:`run_shard` member tuples.
    Sorted by stream position, the union replays in the order the serial
    stream generated its members, so :meth:`Frontier.merge`'s online
    reduction keeps the first-generated member of each →-minimal class —
    the serial representative — and lists the survivors in serial order.
    """
    members = sorted(chain.from_iterable(shard_members), key=lambda m: m[3])
    frontier.merge(
        [decode_tableau(data) for data, _, _, _ in members],
        [codes for _, codes, _, _ in members],
        [kernel for _, _, kernel, _ in members],
    )


def _run_shards(
    context: tuple,
    shard_count: int,
    stats: PipelineStats,
    *,
    fabric: tuple[str, ...],
    heartbeat_interval: float,
    shard_timeout: float | None,
) -> tuple[list, list]:
    """Run every shard through one coordinator: ``(members, faults)``.

    The slots are the ``fabric`` worker addresses or, without any, one
    local process per shard (:class:`~repro.parallel.ProcessExecutor`).
    A lost shard is retried; one that fails on every attempt, the
    driver's own included, is skipped and counted in ``stats.quarantined``.
    """
    from repro.fabric.coordinator import FabricCoordinator

    shards = [(index, shard_count) for index in range(shard_count)]
    pool = (
        nullcontext()
        if fabric
        else ProcessExecutor(
            shard_count,
            _shard_task,
            initializer=_install_shard_context,
            initargs=(context,),
            timeout=shard_timeout,
        )
    )
    with pool:
        coordinator = FabricCoordinator(
            fabric or pool.slots,
            context,
            heartbeat_interval=heartbeat_interval,
            shard_timeout=shard_timeout,
            # Local slots are alike: a slow one holds a bigger slice, not
            # a slower host, so re-running it elsewhere only doubles work.
            speculation_after=None if fabric else math.inf,
            local_runner=run_shard,
        )
        outcomes = (
            coordinator.run(shards)
            if fabric
            else pool.imap(coordinator.run, shards)
        )
        results: dict[int, tuple] = {}
        for shard_index, members, shard_stats in outcomes:
            if shard_index in results:
                # A speculative or re-dispatched duplicate of a shard
                # already received: the same slice gives the same members,
                # and its stats would double-count.
                stats.duplicate_results += 1
                continue
            results[shard_index] = members
            stats.absorb(PipelineStats(**shard_stats))
    if not fabric:
        stats.pool_respawns += pool.respawns
    stats.shard_retries += coordinator.retries
    stats.speculative_dispatches += coordinator.speculations
    stats.workers_blacklisted += coordinator.blacklisted
    stats.heartbeat_misses += coordinator.heartbeat_misses
    stats.fabric_local_shards += coordinator.local_shards
    stats.quarantined += coordinator.quarantined
    return list(results.values()), list(coordinator.faults)


#: Dashed spellings of the admission orders, as ``benchmarks/e2e/solve.py``
#: passes them: ``generation`` (stream generation order) for what the
#: internals call insertion order, and dashes where they use underscores.
_ADMISSION_ORDER_ALIASES = {
    "generation": "insertion",
    "fine-to-coarse": "fine_to_coarse",
}


def _resolve_admission_order(
    admission_order: str, cls: QueryClass, max_extra_atoms: int
) -> str:
    """The effective stage-3 admission order for a pipeline run.

    ``"auto"`` picks fine-to-coarse exactly for *plain quotient* streams
    (graph classes, and hypergraph classes with the extension space off) —
    the streams without generator feedback, where buffering is sound.
    Extension-space runs stay in generation order: their reducer feeds
    dominance verdicts back into the (lazy) enumerator, which a buffered
    replay would silence.  The dashed spellings ``"generation"`` and
    ``"fine-to-coarse"`` are accepted as aliases.
    """
    admission_order = _ADMISSION_ORDER_ALIASES.get(
        admission_order, admission_order
    )
    if admission_order not in {"auto", "fine_to_coarse", "insertion"}:
        raise ValueError(f"unknown admission order {admission_order!r}")
    if admission_order != "auto":
        return admission_order
    plain_stream = getattr(cls, "kind", None) == "graph" or max_extra_atoms <= 0
    return "fine_to_coarse" if plain_stream else "insertion"


def _resolve_generation_mode(generation: str, order: str) -> str:
    """The effective stage-1 generation regime for a pipeline run.

    ``"auto"`` resolves by the admission order alone.  Fine-to-coarse
    streams (by default the plain quotient streams, serially and in every
    shard worker) go ``"orbit"``: their reduction is deferred until the
    stream is buffered, and the reducer canonicalizes at the point of need
    (``late_key``) — only candidates the dominance memo, the refinement
    index and a memoized class check all missed pay a canonization, so the
    stream pays at most what canonical generation pays.  The orbit filter
    stays on because on symmetric bases (cycles: ~10x duplication) it
    prunes the flood with an O(n·aut) integer test, and on rigid bases it
    costs nothing.  Every other stream — insertion-order plain streams and
    the extension space, whose quotients and extensions share one dedup
    keyspace — goes ``"canonical"``.  Explicit regimes are used as given.
    """
    if generation == "auto":
        return "orbit" if order == "fine_to_coarse" else "canonical"
    if generation not in GENERATION_MODES:
        raise ValueError(f"unknown generation mode {generation!r}")
    return generation


def run_pipeline(
    tableau: Tableau,
    cls: QueryClass,
    *,
    workers: int = 1,
    max_extra_atoms: int = 1,
    allow_fresh: bool = True,
    admission_order: str = "auto",
    generation: str = "auto",
    budget: RunBudget | None = None,
    checkpoint: CheckpointManager | str | None = None,
    fabric: Iterable[str] | None = None,
    heartbeat_interval: float = 2.0,
    shard_timeout: float | None = None,
) -> PipelineResult:
    """Run the three-stage pipeline and return the →-minimal frontier.

    ``workers <= 1`` runs everything inline (bit-identical to the historic
    serial algorithm); ``workers > 1`` splits the stream into one shard
    per local slot process and merges the shard frontiers in
    stream order, bit-identical to the serial run (see the module
    docstring).  ``admission_order`` selects stage 3's reduction order
    (:func:`_resolve_admission_order`): ``"auto"`` (the default) reduces
    plain quotient streams fine-to-coarse — bit-identical to
    ``"insertion"``, the historical generation order, via representative
    repair — and extension streams in generation order.  ``generation``
    selects stage 1's dedup regime (:func:`_resolve_generation_mode`):
    ``"auto"`` replays fine-to-coarse streams orbit-pruned
    (canonicalization deferred to the reducer's point of need) and
    deduplicates every other stream canonically; ``"canonical"``,
    ``"orbit"`` and ``"raw"`` pin the regime.  Results are invariant
    across all generation regimes and worker counts: stage-1 dedup only
    ever prunes candidates isomorphic to earlier stream elements, and the
    reducer's representative repair restores the first-generated member of
    each class whatever survives.

    ``budget`` (a :class:`~repro.runtime.budget.RunBudget`) turns the run
    *anytime*: when a budget dimension trips, stage 1 stops producing and
    the best-so-far frontier is returned with ``stats.exhausted`` set —
    every member still a sound C-overapproximation, only
    minimality/completeness forfeited.  With ``workers > 1`` or ``fabric``
    the budget applies per shard (remaining deadline and caps frozen at
    dispatch).  ``checkpoint`` (a
    :class:`~repro.runtime.checkpoint.CheckpointManager` or a path) enables
    periodic snapshot/resume — serial plain-quotient-stream runs only,
    under any generation regime and admission order (the stream is a
    function of the run key, so a resume replays it exactly).
    Sharded runs, local or ``fabric``, all go through one
    :class:`~repro.fabric.coordinator.FabricCoordinator`: a lost shard is
    re-dispatched with capped exponential backoff (at-least-once — a
    duplicate result of a shard is dropped), repeatedly-failing slots are
    blacklisted, and when no slot is left the remaining shards run in the
    driver.  A retried shard returns what the lost attempt would have, so
    a run with recovered faults is still ``==`` serial.  Only a shard that
    fails on every attempt, the driver's included, is skipped: a sound
    omission counted in ``stats.quarantined``.  Each fault is a
    :class:`~repro.fabric.coordinator.ShardFault` in ``result.faults``.

    ``shard_timeout`` is the per-shard deadline of both transports: a
    local slot process over it is killed and respawned, a fabric shard
    over it abandoned, and either way the shard is retried.

    ``fabric`` — a list of worker addresses (``"host:port"`` or a unix
    socket path) — dispatches two shards per address to *network* shard
    workers (``repro worker``) instead of local slot processes.
    Heartbeats (``heartbeat_interval``) detect hung workers, and
    stragglers are speculatively re-executed on idle workers (first
    result wins).  ``fabric`` overrides ``workers``.
    """
    order = _resolve_admission_order(admission_order, cls, max_extra_atoms)
    generation = _resolve_generation_mode(generation, order)
    checkpoint_manager = (
        CheckpointManager(checkpoint)
        if isinstance(checkpoint, (str, os.PathLike))
        else checkpoint
    )
    fabric_addresses = tuple(fabric) if fabric is not None else ()
    sharded = bool(fabric_addresses) or effective_workers(workers) > 1
    if checkpoint_manager is not None:
        if sharded:
            raise ValueError("checkpointing requires a serial run (workers=1)")
        plain_stream = (
            getattr(cls, "kind", None) == "graph" or max_extra_atoms <= 0
        )
        if not plain_stream:
            raise ValueError(
                "checkpointing requires a plain quotient stream (the "
                "extension enumerator's dominance feedback makes its stream "
                "non-resumable); set max_extra_atoms=0"
            )
    stats = PipelineStats()
    if budget is not None:
        budget.start()
    automorphisms = _base_orbit_data(tableau, stats)

    if sharded:
        if fabric_addresses:
            shard_count = len(fabric_addresses) * _FABRIC_SHARDS_PER_WORKER
        else:
            shard_count = effective_workers(workers)
        stats.shards = shard_count
        budget_spec = None
        if budget is not None:
            remaining = budget.remaining_deadline()
            budget_spec = {
                # An already-expired deadline still ships as a (tiny)
                # positive allowance: each shard trips on its first check.
                "deadline": max(remaining, 1e-9) if remaining is not None else None,
                "memory_limit": budget.memory_limit,
                "max_candidates": budget.max_candidates,
                "max_checks": budget.max_checks,
            }
        context = (
            encode_tableau(tableau),
            cls,
            max_extra_atoms,
            allow_fresh,
            automorphisms,
            order,
            generation,
            budget_spec,
        )
        shard_members, faults = _run_shards(
            context,
            shard_count,
            stats,
            fabric=fabric_addresses,
            heartbeat_interval=heartbeat_interval,
            shard_timeout=shard_timeout,
        )
        frontier = Frontier(stats=stats)
        _merge_shards(frontier, shard_members)
        _note_exhaustion(budget, stats)
        stats.peak_tracked_entries = max(
            stats.peak_tracked_entries, frontier.tracked_entries()
        )
        return PipelineResult(frontier.members, stats, faults)

    session = None
    resume = None
    if checkpoint_manager is not None:
        run_key = (
            "pipeline-checkpoint-v1",
            encode_tableau(tableau),
            cls.name,
            max_extra_atoms,
            allow_fresh,
            order,
            generation,
        )
        session = _CheckpointSession(checkpoint_manager, run_key, stats)
        resume = session.load()
    candidates = _candidate_source(
        tableau,
        cls,
        max_extra_atoms=max_extra_atoms,
        allow_fresh=allow_fresh,
        automorphisms=automorphisms,
        generation=generation,
    )
    frontier = _reduce_inline(
        candidates,
        cls,
        stats,
        order=order,
        budget=budget,
        checkpoint=session,
        resume=resume,
    )
    return PipelineResult(frontier.members, stats)
