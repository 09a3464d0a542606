"""Staged, parallel approximation pipeline (Corollary 4.3 as a dataflow).

The exact approximation algorithm is a generate → filter → reduce loop.
This module makes the three stages explicit and independently scalable::

      stage 1 — GENERATE          stage 2 — FILTER            stage 3 — REDUCE
    ┌──────────────────────┐    ┌──────────────────────┐    ┌──────────────────────┐
    │ iter_quotient_       │    │ class-membership     │    │ →-minimal frontier   │
    │   candidates /       │ →  │   checks             │ →  │ (Frontier)           │
    │ iter_extended_       │    │ · key-memoized: for  │    │ · dominance scan via │
    │   candidates         │    │   graph (hypergraph) │    │   hom_le(memo=False) │
    │ · canonical dedup or │    │   classes the verdict│    │ · candidate → member │
    │   orbit pruning,     │    │   depends only on    │    │   queries through    │
    │   fixed per run by   │    │   G(Q) (H(Q)), so    │    │   the member's hom-  │
    │   the stream's shape │    │   candidates sharing │    │   kernel index; the  │
    │                      │    │   a (hyper)graph     │    │   engine only where  │
    │ · extension atoms    │    │   share one check    │    │   it cannot decide   │
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
local worker, two per fabric address.  The encoded base tableau reaches
each local slot process once, through its initializer, rather than once
per task.  Each shard derives the base's orbit data itself, by a bounded
search over its decoded copy, whose element order is the driver's.  One
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

Stage 3 is one *dominance-aware reducer* for every stream.  Corollary
4.3's frontier, the →-minimal set of the bounded candidate space, does not
depend on the order candidates arrive in, so the reducer does not either:
its refinement index — a trie over the partitions already found dominated
or admitted — decides a dominance verdict with no search whenever a
recorded partition refines the candidate's (the quotient map carries the
dominating member on), and after every dominance scan it asks once
whether the candidate maps back into its witness, recording the partition
in the index and, when it does not, marking the candidate
``strictly_dominated``.  The reverse question, whether a candidate maps
into a member (that query, eviction, repair), is answered by the member's
kernel index: one bounded enumeration of the member's homomorphisms from
the base, then a trie walk per candidate — and, for an extended
candidate, a check of its atoms against the images of the homs the walk
finds.  What the order changes is how much of that fires.  On plain
quotient streams (graph classes, and hypergraph classes with the
extension space off) stage 1 walks the partition lattice
**fine-to-coarse** — by descending block count, each level in
growth-string order — so a quotient is reduced before any coarsening of
it: the index then resolves most admissions with **zero** ``hom_le``
searches (``PipelineStats.admissions_resolved_by_order``), and the
``strictly_dominated`` marks stop the walk below every quotient some
member maps into and not back, so those subtrees are never generated.
The walk stays bit-identical to the generation-order stream through
**forward representative repair**: walked candidates carry their
generation index, a candidate found equivalent to a later-generated
member replaces it (``representative_repairs``), and the surviving
members are sorted back into generation order at the end — a no-op on a
stream listed in generation order.  Extension-space runs are listed in
generation order: their reducer feeds dominance back into the lazy
enumerator, which skips the extension family of every quotient the
frontier already dominates, and stage 2 feeds its memo back, so an
extended candidate the memo already rejects is dropped before it is
canonized.

Stage 1's dedup regime (``run_pipeline``'s ``generation`` knob) is fixed
per run by the shape of the stream, never by measurements: fine-to-coarse
plain streams are orbit-pruned and canonicalized only at the reducer's
point of need (the refinement index absorbs most repeats for free), and
every other stream is canonically deduplicated at the source.  The serial
reducer always runs the class check before the dominance scan.

Determinism: the candidate stream is a function of the query, the class,
the knobs and the walk's strictness marks, which are deterministic too, and
so is every counter of a run — no decision reads a clock (the only clock
reads feed ``check_seconds`` and ``dominance_seconds``), so two runs do the
same work and a checkpoint replays the same stream (its snapshot carries
the marks and the frontier state they are read from).  The serial path is
bit-identical to the pre-pipeline implementation, and sharded runs are
bit-identical to the serial path for any worker count.  Every regime prunes
only candidates isomorphic to an earlier stream element, the walk only
strictly dominated ones and the extension stream's memo lookup only
rejected ones, so frontiers are identical across regimes and
admission orders — the first-generated member of each →-minimal class is
never pruned, and representative repair converges on exactly it whatever
else survives.

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
from itertools import chain
from typing import Iterable, Iterator

from repro.core.classes import QueryClass
from repro.homomorphism.signatures import canonical_key_indexed
from repro.core.quotients import (
    GENERATION_MODES,
    QuotientCandidate,
    # Unused here since the lattice walk replaced the buffered replay;
    # benchmarks/e2e/trace.py patches both names on this module, until the
    # trace ledger of ROADMAP open item 4 lets it stop patching by name.
    coarseness_buckets,
    coarseness_ordered,
    iter_extended_candidates,
    iter_quotient_candidates,
    row_mask,
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


def candidate_check_key(cls: QueryClass, candidate) -> tuple | None:
    """The membership-memo key of a stage-1 candidate.

    Graph-based classes (Section 4) are by definition determined by the
    graph ``G(Q)`` and hypergraph-based classes (Section 6) by ``H(Q)``, so
    candidates with equal (hyper)graphs share one verdict — and the
    candidate stream is full of such coincidences that survive isomorphism
    dedup (e.g. quotients differing only in edge orientation, or extension
    atoms permuting the same variable set).  The key is label-free: the
    (hyper)graph as bitmasks over the candidate's integer ids
    (:func:`_integer_masks`), so equal keys mean isomorphic (hyper)graphs.
    ``None`` for classes of unknown kind, which disables memoization for
    them.
    """
    masks = _integer_masks(cls, candidate.block_count, candidate.facts())
    if masks is None:
        return None
    return (cls.name, candidate.block_count, masks)


def dominance_key(candidate) -> tuple:
    """A key under which stage-1 candidates are isomorphic *as tableaux*.

    Unlike :func:`candidate_check_key` this keeps the relational layout and
    the distinguished tuple: equal keys mean the identity on block ids is an
    isomorphism, so frontier verdicts transfer between the candidates (of
    one base, whose relation ids they share).
    """
    return (candidate.block_count, candidate.facts(), candidate.distinguished)


def _integer_masks(cls: QueryClass, block_count: int, facts: tuple):
    """``H(Q)`` or ``G(Q)`` of integer facts as bitmasks (block ``i`` is bit
    ``i``; fresh extension ids are blocks too).

    Hypergraph classes get the frozenset of row masks — equal exactly when
    the edge sets are equal; graph classes get the tuple of loop-free
    neighbor masks, one per block.  ``None`` for other kinds.
    """
    kind = getattr(cls, "kind", None)
    if kind == "hypergraph":
        return frozenset(row_mask(row) for _, row in facts)
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

    #: Candidates stage 1 yielded to the reducer.  The extension stream
    #: does not yield a candidate the check memo already rejects
    #: (:meth:`MembershipTester.known_rejected`); such a skip counts as a
    #: ``check_memo_hit`` only.
    generated: int = 0
    checks_run: int = 0
    #: Canonical keys computed *at reduction time* (``Frontier._class_key``)
    #: for a candidate that reaches the class-status memo without a stage-1
    #: ``key``: any candidate of the orbit and raw streams, and on canonical
    #: streams the identity quotient, candidates past the canonizer's effort
    #: cap and wrapped tableaux (``QuotientCandidate.from_tableau``).  Such
    #: a candidate survived the free absorption checks — the dominance
    #: memo, the refinement index, and (check-first) a memoized membership
    #: rejection — and is keyed just before its dominance scan, so
    #: isomorphic repeats the stream did not deduplicate still skip their
    #: searches through the class-status memo.  This is the stage-1
    #: canonicalization tax moved behind the absorption filters:
    #: member-heavy streams barely pay it at all, and rejected candidates
    #: never do.
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
    #: Engine-backed order queries issued by the frontier (dominance scans,
    #: and the eviction and repair queries no kernel index decided).
    #: Coarsening fast paths, kernel-index answers and dominance-memo hits
    #: do not count — the counter is the wall-clock-free
    #: guard for the fine-to-coarse admission order, which exists precisely
    #: to resolve admissions without engine searches.
    hom_le_calls: int = 0
    #: "Dominated" verdicts that needed no dominance scan: dominance-memo,
    #: refinement-index and class-status hits, and the merge's drops
    #: (decided by :meth:`Frontier._maps_into`, through the incoming
    #: member's kernel index wherever one was shipped).
    dominated_without_search: int = 0
    #: Stage-3 resolutions (dominance verdict plus any repair and eviction
    #: work) that completed with zero engine ``hom_le`` calls.  Counted only
    #: while the fine-to-coarse admission order is active: under it a
    #: coarser candidate usually meets a strictly finer recorded partition
    #: that refines its own, so the refinement index decides the
    #: admission outright.
    admissions_resolved_by_order: int = 0
    #: Frontier representatives swapped back to an earlier-generated
    #: equivalent candidate (:meth:`Frontier._repair`) — the forward
    #: repair that keeps reordered reductions bit-identical to the serial
    #: generation-order baseline.
    representative_repairs: int = 0
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
    #: Candidate → member queries answered by a member's kernel index
    #: (:meth:`Frontier._maps_into`): eviction, representative repair, the
    #: forced reverse query and the merge's dominance check against
    #: shard-shipped tries, each decided by one trie walk and no search
    #: (an extended candidate's also by its atoms against the kept images).
    kernel_trie_hits: int = 0
    #: Pinned homomorphisms enumerated to build members' kernel indexes
    #: (:meth:`Frontier._kernel_trie`), a capped-out scan counted up to
    #: one past ``Frontier._KERNEL_HOM_CAP``; sharded runs build one per
    #: shipped member.
    kernel_homs_scanned: int = 0
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

    Accepts stage-1 candidates, all in integer form: a class with a
    mask-level entry point checks them straight off their integer facts, so
    a non-member is rejected without ever materializing a ``Structure``.
    Verdicts are memoized under :func:`candidate_check_key`.  The extension
    stream reads the memo too, before it keys a candidate
    (:meth:`known_rejected`), so a run builds its tester before its stream.
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
        verdict = _check_integer_candidate(
            self._cls, candidate.block_count, candidate.facts()
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

    def known_rejected(self, block_count: int, edge_masks: frozenset) -> bool:
        """Whether the memo already rejects the integer hypergraph candidate
        with ``H(Q)`` = ``edge_masks`` (row bitmasks over ``block_count``
        ids).

        A memo-only lookup under the candidate's exact
        :func:`candidate_check_key`: no check runs, and only a memoized
        ``False`` answers ``True``, counted as the ``check_memo_hit`` the
        candidate's own check would have scored.  For a hypergraph class
        that is the candidate's own verdict, so
        :func:`~repro.core.quotients.iter_extended_candidates` drops it
        unkeyed.  For other kinds the memo never holds such a key.
        """
        if self._memo.get((self._cls.name, block_count, edge_masks)) is not False:
            return False
        self._stats.check_memo_hits += 1
        return True


def iter_membership(
    candidates: Iterable[Tableau],
    cls: QueryClass,
    *,
    stats: PipelineStats | None = None,
) -> Iterator[tuple[Tableau, bool]]:
    """Stage 2 as a reusable stream over plain tableaux.

    For callers that hold tableaux (e.g. the syntactic overapproximation
    search): yields ``(tableau, is_member)`` in input order, each tableau
    checked as its own identity quotient
    (:meth:`~repro.core.quotients.QuotientCandidate.from_tableau`), verdicts
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

    One reducer serves every stream, walked or listed: the →-minimal set
    does not depend on the order candidates arrive in, and nothing here
    asks for it — the order only decides how often the free evidence
    below fires.  :meth:`resolve` is the update for stage-1 candidates;
    ``add`` the plain one for tableaux: a candidate dominated by (or
    equivalent to) a member is dropped; otherwise it evicts every member
    it maps into and joins.  The two directions of an order query are
    asked differently.  "Does some member map into the candidate?" is the
    dominance scan: one ``hom_le(memo=False)`` per member, in admission
    order — a streamed candidate meets the frontier exactly once, so
    canonical memo keys for the pair would cost more than the
    (signature-guarded) search they try to avoid.  "Does the candidate map
    into member ``w``?" — eviction, representative repair, the reverse
    query after a dominance scan and the merge's dominance check against
    shipped kernel tries — goes through one helper, :meth:`_maps_into`,
    which answers same-base quotients, and the extended candidates over
    them, from ``w``'s kernel index (the pinned homs ``base → w``) and asks
    the engine only for what that index cannot decide.

    Candidates from one quotient stream carry their partition ``codes``
    (restricted-growth strings over the shared ``base``).  Partition
    coarsening is then a sound positive fast path: if ``codes(b)``
    coarsens ``codes(a)`` the quotient map ``T/a → T/b`` *is* a
    homomorphism, deciding ``a → b`` in O(n) integer comparisons with no
    search.  The same fact drives the refinement index, a trie over the
    codes of candidates already found dominated or admitted: a recorded
    partition refining a candidate's settles it "dominated" with no scan.

    Dominance verdicts are memoized under the candidate's integer-form
    key (see :func:`dominance_key`): candidates with equal keys are
    isomorphic, and since the frontier only descends in the →-order, a
    "dominated" verdict stays valid for the rest of the run — a member
    that mapped into the candidate can only ever be replaced by something
    lower, which maps in too.

    Members of a walked stream carry a ``generation`` index (their
    position in the generation-order stream).  When a dominance verdict
    finds a candidate equivalent to a *later-generated* member — which
    only the fine-to-coarse walk produces — the representative is
    repaired back to the earlier-generated candidate (:meth:`_repair`).
    Together with :meth:`restore_generation_order` this makes the walked
    reduction bit-identical to the generation-order one: both end with
    the first-generated class member of each →-minimal equivalence class,
    listed in generation order.

    ``merge`` folds another frontier's members through the same update;
    since the →-minimal set is unique up to homomorphic equivalence,
    merging is associative and commutative *up to equivalence of
    representatives*, which is what lets per-shard frontiers combine in
    any grouping.
    """

    __slots__ = (
        "members",
        "_base",
        "_base_elements",
        "_codes",
        "_generation",
        "_dominated_keys",
        "_refinement_index",
        "_repair_forward",
        "_class_status",
        "_kernel_tries",
        "_engine",
        "_stats",
    )

    #: Cap on homomorphisms scanned while building one member's kernel
    #: index (:meth:`_kernel_trie`); a member beyond it falls back to
    #: per-candidate engine queries.  Loop-heavy members can absorb very
    #: many homomorphisms, and a capped-out enumeration is pure waste, so
    #: the cap is deliberately modest — such members are exactly the ones
    #: whose engine queries resolve fast anyway.
    _KERNEL_HOM_CAP = 512

    def __init__(
        self,
        *,
        base: Tableau | None = None,
        stats: PipelineStats | None = None,
    ) -> None:
        self.members: list[Tableau] = []
        #: The tableau the candidates are quotients of; partition codes are
        #: over its ``repr``-sorted element order.  Without it no kernel
        #: index is built and reverse queries go to the engine.
        self._base = base
        self._base_elements = (
            None if base is None else sorted(base.structure.domain, key=repr)
        )
        self._codes: dict[int, tuple[int, ...]] = {}
        self._generation: dict[int, int] = {}
        #: Dominated key → whether it was recorded as *strictly* dominated
        #: (a member maps in, the candidate does not map back).  Strictness
        #: holds for isomorphic copies and survives the frontier's descent.
        self._dominated_keys: dict = {}
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
        #: key → "admitted"/"dominated"/"strict").  :meth:`resolve` consults
        #: it just before a dominance scan, so unabsorbed isomorphic repeats
        #: skip their searches; outcomes transfer because the frontier only
        #: descends (a member mapping into the first copy maps into every
        #: repeat).
        self._class_status: dict[tuple, str] = {}
        #: Per-member kernel index, keyed by ``id(member)`` — the value
        #: pins the member tableau alive so ids cannot be reused.
        #: ``(member, trie)`` with a
        #: :class:`~repro.util.partitions.RefinementTrie` of hom kernels,
        #: or ``(member, None)`` when the hom scan capped out.
        self._kernel_tries: dict[int, tuple[Tableau, RefinementTrie | None]] = {}
        self._engine = default_engine()
        self._stats = stats if stats is not None else PipelineStats()

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
        if dominance_key(candidate) in self._dominated_keys:
            return True
        codes = candidate.codes
        if codes is not None and self._refinement_index.find_refinement(codes)[0]:
            return True
        return candidate.key is not None and candidate.key in self._class_status

    def _search(self, source: Tableau, target: Tableau) -> bool:
        """One engine-backed order query, counted in ``hom_le_calls``."""
        self._stats.hom_le_calls += 1
        return self._engine.hom_le(source, target, memo=False)

    def _scan_dominance(self, candidate: Tableau) -> Tableau | None:
        """The timed member scan behind :meth:`dominated` and
        :meth:`resolve`: the first member that maps into ``candidate``,
        ``None`` when none does.

        The witness is what representative repair needs.  Which member
        witnesses a positive verdict is immaterial: if the candidate has
        an equivalent member, that member is the unique one mapping into
        it, so any witness found is the right one.
        """
        started = time.perf_counter()
        witness = next(
            (member for member in self.members if self._search(member, candidate)),
            None,
        )
        self._stats.dominance_tests += 1
        self._stats.dominance_seconds += time.perf_counter() - started
        if witness is not None:
            self._stats.dominated += 1
        return witness

    def dominated(self, candidate: Tableau) -> bool:
        """Whether some member maps into ``candidate``."""
        return self._scan_dominance(candidate) is not None

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
        if codes is not None:
            self._refinement_index.add(codes, witness)

    def _kernel_trie(self, member: Tableau) -> RefinementTrie | None:
        """The member's kernel index: the kernels of every pinned
        homomorphism ``base → member``, as partition codes over the base
        element order, in a :class:`~repro.util.partitions.RefinementTrie`
        whose payload at a kernel is the list of those homs' images (each
        a tuple of member elements over the base element order).

        A quotient ``c`` of the base maps into the member iff some hom
        ``base → member`` is constant on ``c``'s blocks — i.e. iff ``c``'s
        partition refines one of these kernels — so one
        :meth:`~repro.util.partitions.RefinementTrie.find_coarsening` walk
        answers ``c → member`` exactly; the images answer the extended
        candidates over such quotients (:meth:`_extension_maps_into`).
        Built on the member's first query (or seeded by :meth:`merge` from
        a shard's export, which ships kernels without images) and kept
        while the member is on the frontier.  ``None`` when the
        enumeration exceeded ``_KERNEL_HOM_CAP`` or the frontier has no
        base.  An empty trie is exact: no pinned hom exists, so nothing
        maps in.
        """
        cached = self._kernel_tries.get(id(member))
        if cached is not None:
            return cached[1]
        base = self._base
        if base is None:
            return None
        trie: RefinementTrie | None = RefinementTrie()
        pin = pin_for(base, member)
        if pin is not None:
            elements = self._base_elements
            images: dict[tuple[int, ...], list[tuple]] = {}
            scanned = 0
            for hom in self._engine.iter_homomorphisms(
                base.structure, member.structure, pin=pin
            ):
                scanned += 1
                if scanned > self._KERNEL_HOM_CAP:
                    trie = None
                    break
                image = tuple(hom[element] for element in elements)
                label: dict = {}
                kernel = tuple(label.setdefault(value, len(label)) for value in image)
                images.setdefault(kernel, []).append(image)
            self._stats.kernel_homs_scanned += scanned
            if trie is not None:
                for kernel, kept in images.items():
                    trie.add(kernel, kept)
        self._kernel_tries[id(member)] = (member, trie)
        return trie

    @staticmethod
    def _extension_maps_into(
        extension: tuple, trie: RefinementTrie, member: Tableau
    ) -> bool | None:
        """``Q/π + atoms → member`` from the member's kernel homs.

        ``extension`` is an :class:`~repro.core.quotients.
        ExtensionCandidate`'s ``(codes of π, atoms)``.  The candidate maps
        into the member iff some pinned hom ``base → member`` is constant
        on π's blocks — a kernel the trie finds coarsening π — and sends
        every atom onto a fact of the member.  A fresh position occurs in
        its atom only, so it matches anything and each atom is matched on
        its block positions alone, independently of the others.  ``None``
        when a kernel carries no images (a shard-shipped trie): the
        caller asks the engine.
        """
        codes, atoms = extension
        first: list[int] = []
        for index, block in enumerate(codes):
            if block == len(first):
                first.append(index)
        checks = []
        for name, row in atoms:
            positions = [i for i, value in enumerate(row) if isinstance(value, int)]
            targets = {
                tuple(fact[i] for i in positions)
                for fact in member.structure.tuples(name)
            }
            checks.append(([first[row[i]] for i in positions], targets))
        for images in trie.coarsenings(codes):
            if images is None:
                return None
            for image in images:
                if all(
                    tuple(image[i] for i in indexes) in targets
                    for indexes, targets in checks
                ):
                    return True
        return False

    def _maps_into(
        self, source, codes: tuple[int, ...] | None, member: Tableau
    ) -> bool:
        """``source → member``: every candidate → member question.

        ``source`` is a tableau or a stage-1 candidate (materialized only
        if the engine is asked), ``codes`` its partition codes over the
        base (``None`` for an extended candidate).  Decided, in order, by
        partition coarsening (``codes`` refine the member's own codes) and
        the member's kernel index (:meth:`_kernel_trie`): a trie walk for
        any quotient of the base, the kept homs' images for an extended
        candidate (its ``extension``, :meth:`_extension_maps_into`).  Both
        are exact.  The engine answers the rest: plain tableaux (merged
        members), members whose hom scan capped out, and extended
        candidates against a shard-shipped trie.  One bounded enumeration
        per member replaces a search per candidate.
        """
        if codes is not None:
            if code_coarsens(codes, self._codes.get(id(member))):
                return True
            trie = self._kernel_trie(member)
            if trie is not None:
                self._stats.kernel_trie_hits += 1
                hit, _ = trie.find_coarsening(codes)
                return hit
        else:
            extension = getattr(source, "extension", None)
            trie = None if extension is None else self._kernel_trie(member)
            if trie is not None:
                answer = self._extension_maps_into(extension, trie, member)
                if answer is not None:
                    self._stats.kernel_trie_hits += 1
                    return answer
        if not isinstance(source, Tableau):
            source = source.materialize()
        return self._search(source, member)

    def _repair(
        self, candidate, witness, membership, *, equivalent=None
    ) -> bool | None:
        """Swap ``witness`` for the earlier-generated equivalent ``candidate``.

        The lattice walk can put a later-generated member on the frontier
        before an earlier-generated equivalent candidate arrives.  When a
        dominance verdict then finds that candidate dominated by such a
        member (the witness's generation exceeds ``candidate.generation``),
        the representative set is repaired *forward*: if the candidate maps
        back into the witness (hom-equivalence — the witness already maps
        into the candidate) and is itself a class member (``membership``;
        equivalence does not preserve class membership, so it must be
        verified), it replaces the witness — the frontier converges on the
        first-generated member of each equivalence class, exactly what the
        generation-order stream keeps.  On a stream listed in generation
        order no witness is ever later than its candidate (a serial one
        stamps no generation at all), so nothing is repaired.  The swap
        exchanges hom-equivalent tableaux, so every memoized dominance
        verdict and the witness's kernel index stay valid.  ``equivalent``
        short-circuits the reverse query when the caller already computed
        it.  Returns the reverse query's answer (``None`` when the
        generations did not call for it): ``False`` proves the candidate
        strictly dominated by the witness.
        """
        generation = candidate.generation
        if generation is None:
            return None
        witness_generation = self._generation.get(id(witness))
        if witness_generation is None or witness_generation <= generation:
            return None
        codes = candidate.codes
        if equivalent is None:
            equivalent = self._maps_into(candidate, codes, witness)
        if not equivalent:
            return False
        if membership is not None and not membership():
            return True
        tableau = candidate.materialize()
        position = next(
            i for i, member in enumerate(self.members) if member is witness
        )
        self.members[position] = tableau
        self._codes.pop(id(witness), None)
        if codes is not None:
            self._codes[id(tableau)] = codes
        self._generation.pop(id(witness), None)
        self._generation[id(tableau)] = generation
        kernel = self._kernel_tries.pop(id(witness), None)
        if kernel is not None:
            self._kernel_tries[id(tableau)] = (tableau, kernel[1])
        self._repair_forward[id(witness)] = tableau
        self._stats.representative_repairs += 1
        return True

    def _class_key(self, candidate) -> tuple | None:
        """The candidate's fact-level canonical key: stage 1's ``key`` when
        the stream computed one, else :func:`canonical_key_indexed` on the
        integer form, counted in ``late_canonizations`` (``None`` past the
        canonizer's budget)."""
        if candidate.key is not None:
            return candidate.key
        self._stats.late_canonizations += 1
        return canonical_key_indexed(
            candidate.block_count, list(candidate.facts()), candidate.distinguished
        )

    def resolve(self, candidate, membership=None) -> str:
        """The frontier update for one stage-1 candidate.

        Returns ``"dominated"`` (some member maps into the candidate —
        after attempting representative repair), ``"rejected"``
        (``membership`` vetoed the candidate), or ``"admitted"``.
        ``membership`` is a zero-argument callable deciding class
        membership, consulted at most once; pass ``None`` when the
        candidate is already known to be a member.  ``candidate`` is a
        stage-1 candidate, materialized only when a search or admission
        needs the tableau; three things are read off it: its
        :func:`dominance_key`, its ``generation`` (see :meth:`_repair`) and
        its class key (:meth:`_class_key`).

        Evidence is consulted cheapest first.  The dominance memo (keys of
        candidates already found dominated) and the refinement index (a
        recorded partition refining the candidate's) settle a candidate
        "dominated" before its class check, since a free verdict beats any
        check.  Then the class check, then the class key — computed only
        here, on the brink of a dominance scan, so candidates the free
        evidence or a memoized check settles never pay a canonization —
        against the class-status memo: an isomorphic candidate's earlier
        outcome settles this one with no search ("admitted"/"dominated"
        transfer because the frontier only descends; equal keys share a
        block count, so under either order the earlier copy had the lower
        generation and any repair already happened there, as for the
        dominance memo).  Only then the dominance scan.  A scan that finds
        a witness is followed by the reverse query (does the candidate map
        back into the witness?), asked once whatever the generations: the
        answer records the partition in the refinement index with the
        witness, or with ``None`` when the candidate is strictly dominated,
        so later index hits through the entry know for certain whether
        repair can ever apply — a ``None`` witness is a proof, not a guess.

        The candidate is marked ``strictly_dominated`` (the lattice walk's
        feedback, see :func:`~repro.core.quotients.
        iter_quotient_candidates`) wherever strictness is known at no extra
        query: an index hit whose witness is ``None``, a repair or reverse
        query coming back non-equivalent, or a memo hit on a key recorded
        as strict.  Repair stays exact on index hits: if the candidate were
        equivalent to a current member, that member would be the *unique*
        member mapping into it, hence also the unique member behind the
        index entry's witness chain — so repairing against the resolved
        witness (or skipping repair when the entry's class provably left
        the frontier) reproduces exactly what a full scan would have done.
        """
        key = dominance_key(candidate)
        if key in self._dominated_keys:
            # An isomorphic candidate resolved "dominated" earlier, and any
            # repair already happened there (see above).  Memo hits leave
            # `dominated`/`dominance_tests` alone: those two counters
            # describe *searched* verdicts only.
            self._stats.dominance_memo_hits += 1
            self._stats.dominated_without_search += 1
            if self._dominated_keys[key]:
                _mark_strict(candidate)
            return "dominated"
        codes = candidate.codes
        if codes is not None:
            hit, hit_witness = self._refinement_lookup(codes)
            if hit:
                self._stats.dominance_memo_hits += 1
                self._stats.dominated_without_search += 1
                self._dominated_keys.setdefault(key, False)
                # A ``None`` witness: the entry's class is off the frontier,
                # so a member maps into the entry and not back, hence into
                # this coarsening of it and not back either.  Otherwise the
                # repair's reverse query, when the generations call for it,
                # tells whether the candidate maps back into the witness.
                if (
                    hit_witness is None
                    or self._repair(candidate, hit_witness, membership) is False
                ):
                    self._note_strict(candidate, key)
                return "dominated"
        if membership is not None and not membership():
            return "rejected"
        class_key = self._class_key(candidate)
        status = self._class_status.get(class_key)
        if status is not None:
            # "admitted", "dominated" or "strict": either way a member maps
            # into the earlier isomorphic copy, hence into this candidate —
            # no scan needed.
            self._stats.class_status_hits += 1
            self._stats.dominated_without_search += 1
            self._dominated_keys.setdefault(key, False)
            if status == "strict":
                self._note_strict(candidate, key)
            return "dominated"
        witness = self._scan_dominance(candidate.materialize())
        if witness is not None:
            self._dominated_keys.setdefault(key, False)
            equivalent = self._maps_into(candidate, codes, witness)
            if equivalent:
                self._repair(candidate, witness, None, equivalent=True)
                status = "dominated"
            else:
                self._note_strict(candidate, key)
                status = "strict"
            self._record_refinement(codes, witness if equivalent else None)
            self._set_class_status(class_key, status)
            return "dominated"
        tableau = candidate.materialize()
        self.insert(tableau, codes, generation=candidate.generation, source=candidate)
        self._record_refinement(codes, tableau)
        self._set_class_status(class_key, "admitted")
        return "admitted"

    def _set_class_status(self, class_key: tuple | None, status: str) -> None:
        if class_key is not None:
            self._class_status[class_key] = status

    def _note_strict(self, candidate, key: tuple) -> None:
        """Record that ``candidate`` (and every copy under ``key``) is
        strictly dominated."""
        self._dominated_keys[key] = True
        _mark_strict(candidate)

    def insert(
        self,
        candidate: Tableau,
        codes: tuple[int, ...] | None = None,
        *,
        generation: int | None = None,
        source=None,
    ) -> None:
        """Admit a known-undominated class member, evicting every member
        it maps into (each eviction query through :meth:`_maps_into`,
        asked of ``source`` — the stage-1 candidate ``candidate`` was
        materialized from — when given)."""
        query = candidate if source is None else source
        survivors = [
            member
            for member in self.members
            if not self._maps_into(query, codes, member)
        ]
        self._stats.evicted += len(self.members) - len(survivors)
        self._stats.admitted += 1
        survivors.append(candidate)
        if len(survivors) != len(self.members) + 1:
            kept = set(map(id, survivors))
            for table in (self._codes, self._generation, self._kernel_tries):
                for stale in [key for key in table if key not in kept]:
                    del table[stale]
        self.members = survivors
        if codes is not None:
            self._codes[id(candidate)] = codes
        if generation is not None:
            self._generation[id(candidate)] = generation

    def add(
        self, candidate: Tableau, codes: tuple[int, ...] | None = None
    ) -> bool:
        """The online frontier update; returns whether the candidate joined."""
        if self.dominated(candidate):
            return False
        self.insert(candidate, codes)
        return True

    def restore_generation_order(self) -> None:
        """Sort members back into generation order.

        The fine-to-coarse walk admits members out of stream order; the
        generation-order stream lists survivors in generation order, so
        every reduction sorts once at the end — a no-op on a stream already
        listed in that order.  Members without a recorded generation (those
        of a serial listed stream, or directly ``merge``-d ones) keep their
        relative position at the front.
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
            + len(self._class_status)
            + len(self._refinement_index)
        )

    def snapshot(self) -> dict:
        """The frontier's resumable state, picklable.

        ``members``: the members in admission order, each with its
        partition codes and generation stamp; ``dominated``, ``class_status``
        and ``index``: the state that decides which evidence is free — the
        dominated keys with their strict flags, the class-status memo and
        the refinement index, whose witnesses are resolved to member
        positions (``None`` once off the frontier).  On a walked stream the
        ``strictly_dominated`` marks read from that state prune the walk,
        so a restore without it would prune differently and generate a
        different stream.  The kernel tries and the check memo only decide
        how an answer is found, never which, and are not captured: a
        restore without them changes counters, never the frontier or the
        stream.
        """
        position = {id(member): i for i, member in enumerate(self.members)}
        index = []
        for codes, witness in self._refinement_index.codes():
            while witness is not None and id(witness) not in position:
                witness = self._repair_forward.get(id(witness))
            index.append((codes, None if witness is None else position[id(witness)]))
        return {
            "members": [
                (
                    encode_tableau(member),
                    self._codes.get(id(member)),
                    self._generation.get(id(member)),
                )
                for member in self.members
            ],
            "dominated": dict(self._dominated_keys),
            "class_status": dict(self._class_status),
            "index": index,
        }

    def restore(self, snapshot: dict) -> None:
        """Rebuild the state :meth:`snapshot` captured (only valid on an
        empty frontier)."""
        if self.members:
            raise ValueError("restore() needs an empty frontier")
        for encoded, codes, generation in snapshot["members"]:
            member = decode_tableau(encoded)
            self.members.append(member)
            if codes is not None:
                self._codes[id(member)] = codes
            if generation is not None:
                self._generation[id(member)] = generation
        self._dominated_keys.update(snapshot["dominated"])
        self._class_status.update(snapshot["class_status"])
        for codes, position in snapshot["index"]:
            self._refinement_index.add(
                codes, None if position is None else self.members[position]
            )

    def kernel_exports(self) -> list[tuple[tuple[int, ...], ...] | None]:
        """Per-member kernel indexes as plain code tuples, members order.

        The shard-result counterpart of :meth:`snapshot`: each entry is
        the member's kernel trie (:meth:`_kernel_trie`) flattened to a
        tuple of partition codes, ``None`` when the hom scan capped out at
        ``_KERNEL_HOM_CAP``.  Every member is indexed, not only those whose
        reverse queries already built a trie: the merge decides an
        incoming member's dominance by one trie walk per current member
        instead of an engine scan.  Plain nested tuples of ints are cheaply
        picklable, so shard workers ship them with their frontiers and
        :meth:`merge` rebuilds the tries coordinator-side.
        """
        exports: list[tuple[tuple[int, ...], ...] | None] = []
        for member in self.members:
            trie = self._kernel_trie(member)
            exports.append(
                None
                if trie is None
                else tuple(prefix for prefix, _ in trie.codes())
            )
        return exports

    def merge(
        self,
        members: Iterable[Tableau],
        codes: Iterable[tuple[int, ...] | None] | None = None,
        kernel_tries: Iterable | None = None,
    ) -> "Frontier":
        """Fold another frontier (or member list) into this one, in order.

        Each incoming member meets the frontier through :meth:`_maps_into`,
        in both directions: it is dropped when some current member maps
        into it, and otherwise admitted by :meth:`insert`, evicting every
        member it maps into.  ``codes`` optionally carries each member's
        partition codes over the *shared base element order*, and
        ``kernel_tries`` each member's :meth:`kernel_exports` entry (shard
        workers return both with their frontiers).  The shipped trie is
        seeded as the incoming member's kernel index, so "does a current
        member map into it?" is one trie walk per current member with
        codes, and the members merged after it ask their eviction queries
        the same way.  Merging an empty frontier is a no-op, and
        re-merging a shard's members drops every one of them as dominated
        by its earlier copy — the idempotence the fabric's at-least-once
        re-dispatch relies on.
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
        for member, member_codes, kernel_codes in zip(
            members, code_list, trie_list
        ):
            if kernel_tries is not None:
                # Seeded even when the shard's scan capped out (``None``),
                # so the member is never scanned again here.
                trie = None
                if kernel_codes is not None:
                    trie = RefinementTrie()
                    for entry in kernel_codes:
                        trie.add(tuple(entry))
                self._kernel_tries[id(member)] = (member, trie)
            if member_codes is not None:
                self._codes[id(member)] = member_codes
            if any(
                self._maps_into(existing, self._codes.get(id(existing)), member)
                for existing in self.members
            ):
                self._stats.dominated_without_search += 1
                self._codes.pop(id(member), None)
                self._kernel_tries.pop(id(member), None)
            else:
                self.insert(member, member_codes)
        return self


# ----------------------------------------------------------------- the driver


def _plain_stream(cls: QueryClass, max_extra_atoms: int) -> bool:
    """Whether a run's stream is the plain quotient stream — graph classes,
    and hypergraph classes with the extension space off — rather than the
    extension stream."""
    return getattr(cls, "kind", None) == "graph" or max_extra_atoms <= 0


def _candidate_source(
    tableau: Tableau,
    cls: QueryClass,
    *,
    max_extra_atoms: int,
    allow_fresh: bool,
    shard: tuple[int, int] | None = None,
    generation: str = "canonical",
    order: str = "insertion",
    known_rejected=None,
) -> Iterator:
    """Stage 1: the class-appropriate candidate stream.

    Graph classes — and hypergraph classes with the extension space switched
    off — consume the lazy integer-form quotient stream, walked over the
    partition lattice fine-to-coarse when ``order`` is ``"fine_to_coarse"``;
    extension-space runs consume the integer-form extension stream
    (extension atoms over block + fresh ids, orbit-pruned per quotient
    family) — every class the pipeline supports now shares the same lazy
    fast path.  Each stream derives the base's orbit data itself;
    ``generation`` is the stage-1 regime (see
    :func:`_resolve_generation_mode`).  ``known_rejected`` is the run's
    :meth:`MembershipTester.known_rejected`; only the extension stream
    consults it, to drop memoized rejections before keying them.
    """
    if _plain_stream(cls, max_extra_atoms):
        return iter_quotient_candidates(
            tableau,
            shard=shard,
            generation=generation,
            fine_to_coarse=order == "fine_to_coarse",
        )
    return iter_extended_candidates(
        tableau,
        max_extra_atoms=max_extra_atoms,
        allow_fresh=allow_fresh,
        shard=shard,
        generation=generation,
        known_rejected=known_rejected,
    )


def _note_exhaustion(budget: RunBudget | None, stats: PipelineStats) -> None:
    """Mark the run exhausted if its budget tripped (idempotent)."""
    if budget is not None and budget.reason is not None:
        stats.exhausted = True
        if not stats.exhaustion_reason:
            stats.exhaustion_reason = budget.reason


class _CheckpointSession:
    """One run's binding of a checkpoint manager to pipeline state.

    Tracks the *cursor* — how many stage-3 candidates (in reduction order)
    have been fully processed — and the generation stamps of those the
    reducer marked ``strictly_dominated``, and snapshots ``(cursor, strict,
    frontier, stats)`` at the manager's cadence.  On resume the frontier
    and stats are restored and the stream is regenerated from the start
    (generation is cheap next to checks): :meth:`replay` skips its first
    ``cursor`` candidates and puts the recorded marks back on them, so the
    lattice walk prunes exactly the subtrees it pruned before the stop.
    The stream is a function of the run key and those marks, so the
    skipped prefix is exactly the processed one and the rest of the stream
    is the uninterrupted run's, under every generation regime and
    admission order.
    """

    __slots__ = ("manager", "run_key", "stats", "cursor", "strict")

    def __init__(
        self, manager: CheckpointManager, run_key: tuple, stats: PipelineStats
    ) -> None:
        self.manager = manager
        self.run_key = run_key
        self.stats = stats
        self.cursor = 0
        self.strict: list[int] = []

    def load(self) -> dict | None:
        return self.manager.load(self.run_key)

    def _payload(self, frontier: Frontier) -> dict:
        return {
            "cursor": self.cursor,
            "strict": list(self.strict),
            "frontier": frontier.snapshot(),
            "stats": self.stats.as_dict(),
        }

    def restore(self, payload: dict, frontier: Frontier) -> None:
        self.cursor = payload["cursor"]
        self.strict = list(payload["strict"])
        frontier.restore(payload["frontier"])
        for name, value in payload["stats"].items():
            if name in PipelineStats.__dataclass_fields__:
                setattr(self.stats, name, value)
        # Exhaustion is a property of the run that *saved* the snapshot
        # (e.g. a tripped budget); the resumed run decides its own.
        self.stats.exhausted = False
        self.stats.exhaustion_reason = ""
        self.stats.resumed_candidates = self.cursor

    def replay(self, candidates: Iterable) -> Iterator:
        """``candidates`` without its first ``cursor`` elements, whose
        strictness marks are restored as the walk passes them."""
        strict = set(self.strict)
        skip = self.cursor
        for candidate in candidates:
            if skip:
                skip -= 1
                if candidate.generation in strict:
                    _mark_strict(candidate)
                continue
            yield candidate

    def after_candidate(self, frontier: Frontier, candidate) -> None:
        self.cursor += 1
        # Only the walk reads the marks, and only walked candidates carry
        # the generation stamp they are recorded under.
        if candidate.generation is not None and candidate.strictly_dominated:
            self.strict.append(candidate.generation)
        if self.manager.maybe_save(
            self.run_key, lambda: self._payload(frontier)
        ):
            self.stats.checkpoints_written += 1

    def save_now(self, frontier: Frontier) -> None:
        self.manager.save(self.run_key, self._payload(frontier))
        self.stats.checkpoints_written += 1

    def finalize(self) -> None:
        self.manager.finalize()


def _mark_strict(candidate) -> None:
    """Set a walked candidate's ``strictly_dominated`` mark (extended
    candidates lack the slot: they are never walked, and are ignored)."""
    if getattr(candidate, "strictly_dominated", None) is False:
        candidate.strictly_dominated = True


def _mark_family_dominated(candidate) -> None:
    """Record that the frontier now holds a member mapping into ``candidate``.

    Only meaningful for quotient candidates (potential family parents):
    once a quotient is found dominated, or is a member
    offered to the frontier (then a member maps into it afterwards — itself
    if admitted, its dominator or evictor otherwise, since the →-minimal
    frontier only descends), its whole extension family is dominated.  The
    flag feeds back into :func:`~repro.core.quotients.
    iter_extended_candidates`, which skips the family at the source.
    Extended candidates lack the feedback slot and are ignored.
    """
    if getattr(candidate, "extensions_dominated", None) is False:
        candidate.extensions_dominated = True


def _reduce_inline(
    candidates: Iterable[Tableau],
    cls: QueryClass,
    stats: PipelineStats,
    *,
    base: Tableau | None = None,
    order: str = "insertion",
    budget: RunBudget | None = None,
    checkpoint: _CheckpointSession | None = None,
    resume: dict | None = None,
    tester: MembershipTester | None = None,
) -> Frontier:
    """Stages 2+3 in one process, check-first.

    Each candidate's class check runs before its dominance scan (zero-cost
    dominance evidence is still consulted first, see
    :meth:`Frontier.resolve`).  The order only decides which work is spent,
    not the result: a dominated candidate can never join nor evict.

    Every stream goes through the same :class:`Frontier`, walked or
    listed.  On the lattice walk (``iter_quotient_candidates(
    fine_to_coarse=True)``) a quotient is reduced before any coarsening of
    it, so most dominance verdicts resolve through the refinement index
    with zero engine searches, the frontier's ``strictly_dominated`` marks
    reach the walk between two candidates (strictly dominated subtrees are
    never generated), and representative repair plus the final
    :meth:`Frontier.restore_generation_order` keep the result
    **bit-identical** to the generation-order reduction; on a listed
    stream that sort is a no-op.  ``order`` names the stream's order and
    only decides whether such zero-search resolutions are counted in
    ``stats.admissions_resolved_by_order`` (under ``"fine_to_coarse"``).
    The budget is checked once per candidate, before the candidate is
    reduced: nothing is buffered, so that is the earliest stop.  ``base``
    is the tableau the candidates are quotients of; it lets the frontier
    build its members' kernel indexes.

    ``tester`` is the stage-2 tester whose
    :meth:`~MembershipTester.known_rejected` the stream was built with
    (:func:`_candidate_source`); the extension stream then never yields a
    candidate the memo already rejects, so ``stats.generated`` counts what
    the stream yields and the skipped rejections count as
    ``check_memo_hits``.  Without one a fresh tester is used.
    """
    if tester is None:
        tester = MembershipTester(cls, stats)
    count_by_order = order == "fine_to_coarse"
    frontier = Frontier(base=base, stats=stats)
    if budget is not None:
        budget.start()
        budget.register_probe(frontier.tracked_entries)
        budget.register_probe(lambda: len(tester._memo))
    if resume is not None and checkpoint is not None:
        checkpoint.restore(resume, frontier)
    if checkpoint is not None and checkpoint.cursor:
        candidates = checkpoint.replay(candidates)
    for candidate in candidates:
        if budget is not None and budget.exceeded(stats) is not None:
            break
        stats.generated += 1
        calls_before = stats.hom_le_calls
        status = frontier.resolve(candidate, lambda: tester(candidate))
        if status != "rejected":
            _mark_family_dominated(candidate)
            if count_by_order and stats.hom_le_calls == calls_before:
                stats.admissions_resolved_by_order += 1
        if checkpoint is not None:
            checkpoint.after_candidate(frontier, candidate)
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
    frontier.restore_generation_order()
    return frontier


#: Per-worker shard context: ``(base_data, cls, max_extra_atoms,
#: allow_fresh, order, generation, budget_spec)``, installed once per local
#: slot process by its initializer.  Shipping the encoded base tableau with
#: the *context* instead of every task payload serializes it once per
#: worker; the orbit data is not shipped, each shard's stream derives it.
_SHARD_CONTEXT: tuple | None = None


def _install_shard_context(context: tuple) -> None:
    global _SHARD_CONTEXT
    _SHARD_CONTEXT = context


def _stream_positions(candidates: Iterable, positions: dict) -> Iterator:
    """Record each candidate's stream position under its generation stamp.

    A stream position is ``(codes, rank)``: the partition codes of the
    candidate's quotient and its rank within that quotient's family — 0
    for the quotient, then 1, 2, ... for its extended candidates in
    enumeration order.  An extended candidate takes its ``parent``'s
    codes (the parent itself may have been suppressed from the stream).
    Partition codes are restricted growth strings, whose lexicographic
    order is the order of the unsharded stream, and a family never spans
    shards — so positions from different shards never tie and sort into
    serial stream order.  A walked candidate keeps the
    growth-string rank the walk stamped; any other gets its arrival index.
    """
    family, codes, rank = None, None, 0
    for candidate in candidates:
        parent = getattr(candidate, "parent", None)
        if parent is None:
            family, codes, rank = candidate, candidate.codes, 0
        elif parent is family:
            rank += 1
        else:
            family, codes, rank = parent, parent.codes, 1
        if candidate.generation is None:
            candidate.generation = len(positions)
        positions[candidate.generation] = (codes, rank)
        yield candidate


def run_shard(
    context: tuple, shard: tuple[int, int]
) -> tuple[tuple[tuple, ...], dict]:
    """The full pipeline loop on one shard slice, reentrant.

    The shared body behind the local slot task, the fabric worker's
    ``shard`` op (:mod:`repro.fabric.worker`) and the coordinator's
    last attempt in the driver — the slot path installs ``context`` once
    per process, the others thread it per call, all run the same code.
    The context carries no orbit data: the shard's stream derives the
    base's automorphisms from the decoded base, whose element names — and
    so its integer form — are the driver's.  Shard workers share the
    driver's admission order and generation regime: plain quotient slices
    are walked fine-to-coarse from the shard's prefix roots (pruning only
    on what the shard's own frontier knows), extension slices run in
    generation order.  Each returned
    member ships as ``(encoded tableau, partition codes, kernel codes,
    stream position)`` — codes over the
    shared base element order (``None`` for an extended candidate), kernel
    codes the member's kernel index flattened by
    :meth:`Frontier.kernel_exports` (``None`` when its hom scan capped
    out), and the
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
        order,
        generation,
        budget_spec,
    ) = context
    base = decode_tableau(base_data)
    stats = PipelineStats()
    # Budgets apply per shard: each worker rebuilds the spec (the remaining
    # deadline and the caps are frozen at dispatch time), so a shard that
    # exhausts its slice of the budget returns its partial frontier and the
    # driver's absorb ORs the ``exhausted`` flags together.  A spec with a
    # ``started_at`` (local shards: the driver's monotonic clock reading
    # when it froze the deadline) anchors the deadline there, so pool
    # start-up and dispatch are charged to the run.
    budget = None
    if budget_spec is not None:
        spec = dict(budget_spec)
        started_at = spec.pop("started_at", None)
        budget = RunBudget(**spec)
        budget.start(started_at)
    positions: dict = {}
    tester = MembershipTester(cls, stats)
    candidates = _candidate_source(
        base,
        cls,
        max_extra_atoms=max_extra_atoms,
        allow_fresh=allow_fresh,
        shard=shard,
        generation=generation,
        order=order,
        known_rejected=tester.known_rejected,
    )
    frontier = _reduce_inline(
        _stream_positions(candidates, positions),
        cls,
        stats,
        base=base,
        order=order,
        budget=budget,
        tester=tester,
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
    (graph classes, and hypergraph classes with the extension space off),
    which stage 1 walks over the partition lattice.  Extension-space runs
    stay in generation order: the extension enumerator bypasses the walk,
    and its reducer feeds family dominance back to it per quotient.  The
    dashed spellings ``"generation"`` and ``"fine-to-coarse"`` are
    accepted as aliases.
    """
    admission_order = _ADMISSION_ORDER_ALIASES.get(
        admission_order, admission_order
    )
    if admission_order not in {"auto", "fine_to_coarse", "insertion"}:
        raise ValueError(f"unknown admission order {admission_order!r}")
    if admission_order != "auto":
        return admission_order
    return "fine_to_coarse" if _plain_stream(cls, max_extra_atoms) else "insertion"


def _resolve_generation_mode(generation: str, order: str) -> str:
    """The effective stage-1 generation regime for a pipeline run.

    ``"auto"`` resolves by the admission order alone.  Fine-to-coarse
    streams (by default the plain quotient streams, serially and in every
    shard worker) go ``"orbit"``: the reducer canonicalizes at the point of
    need (:meth:`Frontier.resolve`) — only candidates the dominance memo,
    the refinement index and a memoized class check all missed pay a
    canonization, so the stream pays at most what canonical generation
    pays.  The orbit filter
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
    ``"auto"`` walks fine-to-coarse streams orbit-pruned
    (canonicalization deferred to the reducer's point of need) and
    deduplicates every other stream canonically; ``"canonical"``,
    ``"orbit"`` and ``"raw"`` pin the regime.  Results are invariant
    across all generation regimes and worker counts: stage-1 dedup only
    ever prunes candidates isomorphic to earlier stream elements, and the
    reducer's representative repair restores the first-generated member of
    each class whatever survives.

    ``budget`` (a :class:`~repro.runtime.budget.RunBudget`) turns the run
    *anytime*: when a budget dimension trips, the reduction stops before
    its next candidate and
    the best-so-far frontier is returned with ``stats.exhausted`` set —
    every member still a sound C-overapproximation, only
    minimality/completeness forfeited.  With ``workers > 1`` or ``fabric``
    the budget applies per shard (remaining deadline and caps frozen at
    dispatch; local shards count the deadline from that instant, fabric
    workers from their own start).  ``checkpoint`` (a
    :class:`~repro.runtime.checkpoint.CheckpointManager` or a path) enables
    periodic snapshot/resume — serial plain-quotient-stream runs only,
    under any generation regime and admission order (the stream is a
    function of the run key and of the walk's strictness marks, which the
    snapshot carries, so a resume replays it exactly).
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
        if not _plain_stream(cls, max_extra_atoms):
            raise ValueError(
                "checkpointing requires a plain quotient stream (the "
                "extension enumerator's dominance feedback makes its stream "
                "non-resumable); set max_extra_atoms=0"
            )
    stats = PipelineStats()
    if budget is not None:
        budget.start()

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
            if not fabric_addresses:
                # Local slots share this host's monotonic clock: they
                # count the deadline from now, not from their own start.
                # Fabric workers on other hosts keep the relative deadline.
                budget_spec["started_at"] = time.monotonic()
        context = (
            encode_tableau(tableau),
            cls,
            max_extra_atoms,
            allow_fresh,
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
        frontier = Frontier(base=tableau, stats=stats)
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
            "pipeline-checkpoint-v6",
            encode_tableau(tableau),
            cls.name,
            max_extra_atoms,
            allow_fresh,
            order,
            generation,
        )
        session = _CheckpointSession(checkpoint_manager, run_key, stats)
        resume = session.load()
    tester = MembershipTester(cls, stats)
    candidates = _candidate_source(
        tableau,
        cls,
        max_extra_atoms=max_extra_atoms,
        allow_fresh=allow_fresh,
        generation=generation,
        order=order,
        known_rejected=tester.known_rejected,
    )
    frontier = _reduce_inline(
        candidates,
        cls,
        stats,
        base=tableau,
        order=order,
        budget=budget,
        checkpoint=session,
        resume=resume,
        tester=tester,
    )
    return PipelineResult(frontier.members, stats)
