"""Candidate tableaux for the approximation search.

Theorem 4.1 shows that every graph-based C-approximation of ``Q`` is
equivalent to one whose tableau is a homomorphic image of ``(T_Q, x̄)`` —
i.e. a quotient of the tableau by a partition of its variables.  This module
enumerates those quotients.

For hypergraph-based classes quotients alone are not enough: acyclic
hypergraphs are not closed under subhypergraphs, and Claim 6.2 repairs
quotients by *adding* bounded extension atoms (possibly with fresh padding
variables; see Example 6.6's third approximation, which has more atoms than
the query it approximates).  ``iter_extended_tableaux`` enumerates quotients
together with bounded sets of extension atoms; its deduplicated form runs on
``iter_extended_candidates``, which enumerates extension atoms directly over
the integer-form quotient (block ids plus a fresh-id namespace starting at
``block_count``), prunes extension sets that are equivalent modulo the
quotient's automorphism orbits before any key or ``Structure`` exists, and
keys the survivors with the same fact-level canonical form as the plain
quotient stream — so an extended candidate that happens to be isomorphic to
an earlier plain quotient (or to an earlier extended candidate of another
quotient) is deduplicated too.

Both enumerators accept ``dedup=True``: candidates are then deduplicated by
canonical form (:func:`repro.homomorphism.signatures.canonical_key`).
Distinct partitions of a symmetric tableau routinely produce isomorphic
quotients (a directed ``n``-cycle has ``Bell(n)`` partitions but far fewer
quotients up to isomorphism), and every downstream consumer —
class-membership tests, the frontier's ``hom_le`` churn, core computation —
is isomorphism-invariant, so deduplication changes nothing up to homomorphic
equivalence while shrinking the candidate stream several-fold.

Every isomorphism class is represented in the deduplicated output exactly
once, except that structures beyond the canonizer's effort cap pass through
unkeyed (and so may repeat).  The default stays ``dedup=False``: the raw
stream is in bijection with set partitions, which ``quotient_count`` and
several callers rely on.

``iter_quotient_candidates`` takes a ``generation`` regime, fixed for the
whole stream: ``"canonical"`` (full fact-level dedup), ``"orbit"``
(automorphism-orbit pruning only) or ``"raw"`` (no stage-1 dedup;
downstream memos and the refinement index absorb the repeats).  Every
regime prunes only candidates isomorphic to an earlier stream element.

With ``fine_to_coarse=True`` the quotient stream is not listed but *walked*:
a reverse search (Avis–Fukuda) over the partition lattice from the finest
partition down, one level per block count, each level in
restricted-growth-string order.  The canonical parent of a partition splits
off, as a singleton, the largest element that sits in a non-singleton
block, so every partition is reached exactly once.  The consumer marks a
candidate ``strictly_dominated`` when it already knows that some frontier
member maps into the quotient and not back; the walk then skips the
candidate's subtree, coarsenings of it, which are strictly dominated too.
The stream is then a function of the tableau and of those marks, which are
deterministic.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from repro.cq.structure import Structure
from repro.cq.tableau import Tableau
from repro.homomorphism.engine import default_engine
from repro.homomorphism.signatures import canonical_key_indexed
from repro.util.naming import fresh_names
from repro.util.partitions import (
    _blocks_of,
    bell_number,
    partition_to_mapping,
    rgs_codes,
    rgs_prefixes,
)


#: The per-candidate generation regimes of the quotient stream.
GENERATION_MODES = ("canonical", "orbit", "raw")


def _shard_prefixes(
    n_elements: int, shard: tuple[int, int] | None
) -> list[tuple[int, ...]] | None:
    """The restricted-growth-string prefixes selecting one shard's slice.

    ``shard=(index, count)`` splits the partition stream into ``count``
    disjoint slices by fixing a prefix of the growth string: the prefix depth
    is grown until there are at least ``4 * count`` prefixes, and prefixes
    are assigned largest first to the shard with the fewest partitions so
    far, so every shard gets close to an equal share of the stream (dealing
    them round-robin by rank left one of two 8-element shards with 58% of
    it).  A shard lists its prefixes in lexicographic order, the order of
    the unsharded stream.  ``None`` means "the whole stream" (no sharding,
    or a single shard).
    """
    if shard is None:
        return None
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"invalid shard {shard!r}")
    if count == 1:
        return None
    depth = 2
    while depth < n_elements and bell_number(depth) < 4 * count:
        depth += 1
    depth = min(depth, n_elements)
    prefixes = rgs_prefixes(depth)
    completions = _completion_counts(n_elements - depth, depth)
    sizes = [completions[max(prefix) + 1] for prefix in prefixes]
    loads = [0] * count
    owner = [0] * len(prefixes)
    for rank in sorted(range(len(prefixes)), key=lambda rank: -sizes[rank]):
        owner[rank] = loads.index(min(loads))
        loads[owner[rank]] += sizes[rank]
    return [prefix for rank, prefix in enumerate(prefixes) if owner[rank] == index]


def _completion_counts(remaining: int, blocks: int) -> list[int]:
    """``counts[k]``: the partitions extending a growth-string prefix that
    opened ``k`` blocks by ``remaining`` more elements, for ``k <= blocks``
    (each new element joins one of the ``k`` blocks or opens the next)."""
    counts = [1] * (blocks + remaining + 1)
    for _ in range(remaining):
        counts = [k * counts[k] + counts[k + 1] for k in range(len(counts) - 1)]
    return counts


def _rank_table(n_elements: int) -> list[list[int]]:
    """``table[r][k]``: completions of a growth-string prefix that opened
    ``k`` blocks by ``r`` more elements (:func:`_completion_counts` per
    ``r``), the counts behind :func:`_rgs_rank`."""
    return [_completion_counts(r, n_elements) for r in range(n_elements + 1)]


def _rgs_rank(code: tuple[int, ...], table: list[list[int]]) -> int:
    """The position of ``code`` among all restricted growth strings of its
    length in lexicographic order — the partition's index in the unsharded
    raw stream.  Each value ``v`` at position ``i`` passes over ``v``
    smaller values, each of which keeps the blocks opened so far."""
    n = len(code)
    rank = opened = 0
    for i, value in enumerate(code):
        if value:
            rank += value * table[n - i - 1][opened]
        if value == opened:
            opened += 1
    return rank


def _lattice_levels(
    n_elements: int,
    prefixes: list[tuple[int, ...]] | None,
    table: list[list[int]],
    pruned: set[int],
) -> Iterator[tuple[int, dict[int, tuple]]]:
    """The partition lattice, finest level first, as a reverse search.

    Yields ``(block_count, level)`` with ``level`` mapping each node's
    :func:`_rgs_rank` to ``(code, start)``.  The roots are the shard
    prefixes (one empty prefix for the whole stream), each followed by
    singletons.  A node's children merge one singleton element ``e >=
    start`` into an earlier block, whose largest element is then below
    ``e``; ``start`` is one past the last element in a non-singleton block
    (at least the prefix length), so ``e`` becomes the largest element in a
    non-singleton block and the node is the child's canonical parent.
    Every partition extending a prefix is therefore reached exactly once,
    and the prefix walks of a shard split tile its slice.

    Before asking for the next level the caller adds to ``pruned`` the
    ranks whose children must not be generated; the walk clears it once
    the level is expanded.  Elements after ``start`` are singletons with
    consecutive labels, so a child's code and rank follow from its
    parent's in O(n): merging ``e`` (label ``opened``, the blocks before
    it) into block ``b`` moves the rank from the largest completion of
    ``code[:e]`` to the largest completion of ``code[:e] + (b,)``.
    """
    levels: dict[int, dict[int, tuple]] = {}
    for prefix in [()] if prefixes is None else prefixes:
        opened = max(prefix, default=-1) + 1
        count = opened + n_elements - len(prefix)
        code = prefix + tuple(range(opened, count))
        levels.setdefault(count, {})[_rgs_rank(code, table)] = (code, len(prefix))
    while levels:
        count = max(levels)
        level = levels.pop(count)
        yield count, level
        children: dict[int, tuple] = {}
        for rank, (code, start) in level.items():
            if rank in pruned:
                continue
            for e in range(start, n_elements):
                opened = code[e]
                step = table[n_elements - e - 1][opened]
                first = rank - table[n_elements - e][opened] + step
                head = code[:e]
                tail = tuple(range(opened, opened + n_elements - e - 1))
                for b in range(opened):
                    children[first + b * step] = (head + (b,) + tail, e + 1)
        pruned.clear()
        if children:
            levels.setdefault(count - 1, {}).update(children)


def shard_prefixes(
    n_elements: int, shard: tuple[int, int] | None
) -> list[tuple[int, ...]] | None:
    """Public face of the shard slicing, for dispatch-side introspection.

    The fabric coordinator and its benches use this to reason about a
    shard's slice — how many growth-string prefixes it owns and which —
    without running the enumeration; the pipeline itself calls the same
    logic through :func:`_candidate_source`.  Returns ``None`` for "the
    whole stream" (``shard`` is ``None`` or the single shard of one).
    """
    return _shard_prefixes(n_elements, shard)


def _partition_stream(
    n_elements: int, prefixes: list[tuple[int, ...]] | None
) -> Iterable[tuple[int, ...]]:
    """The growth-string codes of all partitions of ``n_elements``
    elements, or of one shard's disjoint slice, in listing order."""
    if prefixes is None:
        return rgs_codes(n_elements)
    return itertools.chain.from_iterable(
        rgs_codes(n_elements, prefix=prefix) for prefix in prefixes
    )


def _automorphism_inverses(
    tableau: Tableau,
    elements: list,
    index_of: dict,
    *,
    cap: int = 512,
) -> list[list[int]] | None:
    """Non-identity automorphisms of the base tableau, as inverse index
    permutations (distinguished elements fixed point-wise).

    Bijective endomorphisms of a finite structure are automorphisms, so the
    engine's endomorphism enumeration suffices; if more than ``cap``
    endomorphisms are scanned the search is abandoned and ``None`` disables
    orbit pruning (rare — the bases here have a handful of endomorphisms).
    """
    structure = tableau.structure
    pin = {element: element for element in tableau.distinguished}
    n = len(elements)
    inverses: list[list[int]] = []
    scanned = 0
    for endo in default_engine().iter_homomorphisms(structure, structure, pin=pin):
        scanned += 1
        if scanned > cap:
            return None
        if len(set(endo.values())) != n:
            continue
        inverse = [0] * n
        is_identity = True
        for i, element in enumerate(elements):
            j = index_of[endo[element]]
            inverse[j] = i
            if j != i:
                is_identity = False
        if not is_identity:
            inverses.append(inverse)
    return inverses


#: Sentinel for "derive the base automorphisms in here" (the default).  The
#: pipeline passes precomputed data instead — derived once per run and, for
#: the shard strategy, shipped to the workers with the task context — while
#: ``None`` means "derivation was attempted but capped out" and disables
#: orbit pruning.
_DERIVE = object()


def base_automorphism_inverses(
    tableau: Tableau, *, cap: int = 512
) -> list[list[int]] | None:
    """The base tableau's orbit data in shippable (picklable) form.

    Non-identity automorphisms as inverse permutations of the sorted-element
    index space — exactly what :func:`iter_quotient_candidates` derives
    internally, exposed so one derivation can be reused across shards and
    pool workers (the index space depends only on the element names, which
    :func:`repro.core.pipeline.decode_tableau` preserves).  ``None`` when
    the endomorphism scan exceeds ``cap`` (orbit pruning is then off).
    """
    elements = sorted(tableau.structure.domain, key=repr)
    index_of = {element: index for index, element in enumerate(elements)}
    return _automorphism_inverses(tableau, elements, index_of, cap=cap)


def _orbit_minimal(code: list[int], n: int, inverses: list[list[int]]) -> bool:
    """Whether the partition's growth string is lex-minimal in its orbit.

    Applying an automorphism ``σ`` to a partition yields an isomorphic
    quotient, so only the lex-minimal restricted-growth string per orbit
    needs canonization — the rest are skipped outright.
    """
    for inverse in inverses:
        relabel: dict[int, int] = {}
        for j in range(n):
            label = relabel.setdefault(code[inverse[j]], len(relabel))
            if label != code[j]:
                if label < code[j]:
                    return False
                break
    return True


class _CanonicalSeen:
    """Tracks canonical forms; tableaux without a computable form pass through."""

    def __init__(self) -> None:
        self._seen: set[tuple] = set()

    def first_sighting(self, tableau: Tableau) -> bool:
        # The engine's canonical-form cache is shared with the hom_le memo
        # keys, so keys computed here are reused by the frontier's order
        # queries on the surviving candidates.
        key = default_engine().canonical_key(tableau)
        if key is None:
            return True
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


class QuotientCandidate:
    """A quotient described without building it (the pipeline's stage-1 unit).

    Carries the partition plus the quotient's facts in integer-indexed form
    (elements replaced by block ids, relations by ids into :attr:`names`).
    The actual :class:`~repro.cq.tableau.Tableau` is built only on demand by
    :meth:`materialize` — class-membership checks for graph/hypergraph
    classes need nothing beyond the integer facts, so non-members of the
    approximation pipeline never pay for ``Structure`` construction.
    Integer facts are themselves computed lazily (:meth:`facts`) so pure
    tableau consumers skip them when dedup decided not to canonize.

    Two candidates of the same stream with equal ``(block_count, facts(),
    distinguished)`` are isomorphic via the induced block bijection — the
    integer form is itself a useful (label-free) memo key for class checks.
    ``key`` carries the fact-level canonical form when the enumerator
    computed one for dedup (``None`` otherwise: the identity quotient, the
    orbit and raw regimes, canonizer effort caps) — the extension
    stream uses it to recognize a quotient that repeats an earlier extended
    candidate's isomorphism class.

    ``generation`` orders the candidate like the unreordered stream: the
    lattice walk stamps the partition's growth-string rank (an int, so it
    indexes shard stream positions and goes into checkpoints as is), and
    :func:`coarseness_ordered` the position in the stream it buffers.  The
    dominance-aware reducer uses it to repair frontier representatives
    back to the first-generated member of each equivalence class and to
    restore generation order in its output, which is what keeps the
    fine-to-coarse reduction bit-identical to the serial baseline.  ``None``
    on streams that are consumed in generation order.

    ``strictly_dominated`` is the reducer's feedback to the lattice walk:
    set when the frontier already knows, at no extra cost, that a member
    maps into the quotient and the quotient does not map back.  Then every
    coarsening is strictly dominated as well (the quotient map carries the
    member on, and a map back from a coarsening would give one from the
    quotient), and stays so as the frontier descends, so the walk skips
    the candidate's children.

    ``extensions_dominated`` is consumer feedback to the extension stream:
    the quotient map embeds into every member of the quotient's extension
    family (adding facts preserves homomorphisms, so the identity inclusion
    ``quotient ↪ quotient + atoms`` is a tableau homomorphism).  Hence once
    a frontier holds a member mapping into the quotient — because the
    quotient was admitted, evicted by something lower, or found dominated —
    every extended candidate of its family is dominated forever, and the
    reducer records that here.  :func:`iter_extended_candidates` reads the
    flag when it resumes after the yield and skips the whole family; every
    skipped candidate would have been dropped by the frontier anyway, so
    results are unchanged down to the bit.
    """

    __slots__ = (
        "partition",
        "codes",
        "block_count",
        "distinguished",
        "_base",
        "_base_facts",
        "names",
        "key",
        "generation",
        "extensions_dominated",
        "strictly_dominated",
        "_facts",
        "_tableau",
    )

    def __init__(
        self,
        partition: tuple[tuple, ...],
        codes: tuple[int, ...] | None,
        block_count: int,
        distinguished: tuple[int, ...] | None,
        base: Tableau,
        base_facts: list[tuple[int, tuple[int, ...]]] | None,
        names: tuple[str, ...],
        *,
        facts: tuple[tuple[int, tuple[int, ...]], ...] | None = None,
        tableau: Tableau | None = None,
        key: tuple | None = None,
    ) -> None:
        self.partition = partition
        self.codes = codes
        self.block_count = block_count
        self.distinguished = distinguished
        self._base = base
        self._base_facts = base_facts
        self.names = names
        self.key = key
        self.generation = None
        self.extensions_dominated = False
        self.strictly_dominated = False
        self._facts = facts
        self._tableau = tableau

    @property
    def base(self) -> Tableau:
        """The base tableau this candidate is a quotient of (the reducer's
        kernel-index equivalence tests factor homomorphisms through it)."""
        return self._base

    @classmethod
    def from_tableau(cls, tableau: Tableau) -> "QuotientCandidate":
        """Adapter giving a plain tableau the stage-1 candidate interface.

        No integer form (``facts()`` is ``None``, ``codes`` is ``None``), so
        class checks and dominance fall back to the materialized structure —
        the entry point for callers that hold tableaux rather than
        partitions: the serial stage-2 stream
        :func:`repro.core.pipeline.iter_membership` (the syntactic
        overapproximation search) and the extension stream's non-integer
        fallback.
        """
        return cls((), None, 0, None, tableau, None, (), tableau=tableau)

    def facts(self) -> tuple[tuple[int, tuple[int, ...]], ...] | None:
        """The quotient's facts over block ids (``None`` if unavailable —
        the isolated-element fallback path, where only the materialized
        tableau is authoritative)."""
        if self._facts is None and self.codes is not None:
            code = self.codes
            self._facts = tuple(
                sorted(
                    {
                        (relation_id, tuple(code[value] for value in row))
                        for relation_id, row in self._base_facts
                    }
                )
            )
        return self._facts

    def materialize(self) -> Tableau:
        """The quotient tableau (built once, identical to the historical
        ``tableau.rename(partition_to_mapping(partition))``)."""
        if self._tableau is None:
            self._tableau = self._base.rename(
                partition_to_mapping(self.partition)
            )
        return self._tableau


def iter_quotient_candidates(
    tableau: Tableau,
    *,
    shard: tuple[int, int] | None = None,
    automorphisms: list[list[int]] | None | object = _DERIVE,
    seen_keys: set | None = None,
    generation: str = "canonical",
    fine_to_coarse: bool = False,
) -> Iterator[QuotientCandidate]:
    """The quotient candidate stream in lazy (unmaterialized) form.

    This is the stage-1 engine behind ``iter_quotient_tableaux(dedup=True)``
    and the approximation pipeline: one candidate per surviving partition,
    in restricted-growth-string order.  ``shard=(index, count)`` restricts
    enumeration to one of ``count`` disjoint partition-prefix slices (dedup
    state is shard-local, so cross-shard duplicates survive and must be
    absorbed downstream).

    ``generation`` selects the regime for the whole stream: ``"canonical"``
    (orbit pruning plus fact-level canonical-key dedup), ``"orbit"``
    (automorphic repeats dropped by an O(n·aut) integer test, no
    canonization) or ``"raw"`` (every partition emitted).  Orbit and raw
    candidates carry codes and lazy facts but no canonical ``key``; their
    isomorphic repeats must be absorbed downstream (the pipeline's memos
    and refinement index do).  Every pruned candidate is isomorphic to an
    earlier stream element, so downstream frontiers are invariant —
    including bit-identical serial results — across the regimes.

    ``fine_to_coarse=True`` walks the partition lattice instead
    (:func:`_lattice_levels`): by descending block count, each level in
    growth-string order — the order :func:`coarseness_ordered` gives the
    listed stream — with ``generation`` stamped to the growth-string rank.
    After each yield the walk reads the candidate's ``strictly_dominated``
    mark and, when it is set, generates none of the candidate's children.
    A repeat the regime does not emit keeps its children: pruning it with
    its marked copy pruned under 1% more on the benchmark queries, and
    finding an orbit repeat's copy cost more than the walk it saved.

    ``automorphisms`` takes precomputed base orbit data (the result of
    :func:`base_automorphism_inverses`) so repeated or distributed runs skip
    the endomorphism scan; the default derives it here.  ``seen_keys`` lets
    a caller observe the canonical keys of the emitted quotients (the
    extension stream checks its fact-level keys against them); the set is
    only ever *added to* — quotient-level pruning stays quotient-vs-quotient,
    because skipping a quotient also skips its whole extension family, which
    is only sound when the surviving isomorphic copy grows the same family.
    """
    if generation not in GENERATION_MODES:
        raise ValueError(f"unknown generation mode {generation!r}")
    elements = sorted(tableau.structure.domain, key=repr)
    n_elements = len(elements)
    prefixes = _shard_prefixes(n_elements, shard)
    structure = tableau.structure
    index_of = {element: index for index, element in enumerate(elements)}
    names = tuple(
        sorted(name for name, rows in structure.relations.items() if rows)
    )
    base_facts = [
        (relation_id, tuple(index_of[value] for value in row))
        for relation_id, name in enumerate(names)
        for row in structure.relations[name]
    ]
    covered = {value for _, row in base_facts for value in row}
    covered.update(index_of[d] for d in tableau.distinguished)
    if len(covered) < n_elements:
        # Isolated elements (possible only with an explicitly enlarged
        # domain) would defeat the integer fast path's refinement; fall back
        # to tableau-level canonical forms, which handle them.  Candidates
        # on this path are pre-materialized and carry no integer facts.
        seen = _CanonicalSeen()

        def candidate_at(code: tuple[int, ...]):
            partition = _blocks_of(elements, code)
            quotient = tableau.rename(partition_to_mapping(partition))
            if not seen.first_sighting(quotient):
                return None
            return QuotientCandidate(
                partition,
                None,
                len(partition),
                None,
                tableau,
                None,
                names,
                tableau=quotient,
            )

    else:
        distinguished_idx = tuple(index_of[d] for d in tableau.distinguished)
        if automorphisms is _DERIVE:
            automorphisms = _automorphism_inverses(tableau, elements, index_of)
        orbit = automorphisms if generation != "raw" else None
        if seen_keys is None:
            seen_keys = set()
        identity = tuple(range(n_elements))
        identity_facts = tuple(sorted(set(base_facts)))

        def candidate_at(code: tuple[int, ...]):
            if code == identity:
                # The identity quotient: the only partition with |domain|
                # blocks, and isomorphism preserves block count, so it
                # cannot duplicate (or be duplicated by) anything — skip
                # the canonization.
                return QuotientCandidate(
                    _blocks_of(elements, code),
                    code,
                    n_elements,
                    distinguished_idx,
                    tableau,
                    base_facts,
                    names,
                    facts=identity_facts,
                )
            if orbit and not _orbit_minimal(code, n_elements, orbit):
                return None
            partition = _blocks_of(elements, code)
            mapped_distinguished = tuple(code[value] for value in distinguished_idx)
            if generation != "canonical":
                return QuotientCandidate(
                    partition,
                    code,
                    len(partition),
                    mapped_distinguished,
                    tableau,
                    base_facts,
                    names,
                )
            mapped_facts = tuple(
                sorted(
                    {
                        (relation_id, tuple(code[value] for value in row))
                        for relation_id, row in base_facts
                    }
                )
            )
            key = canonical_key_indexed(
                len(partition), list(mapped_facts), mapped_distinguished
            )
            if key is not None:
                if key in seen_keys:
                    return None
                seen_keys.add(key)
            return QuotientCandidate(
                partition,
                code,
                len(partition),
                mapped_distinguished,
                tableau,
                base_facts,
                names,
                facts=mapped_facts,
                key=key,
            )

    if not fine_to_coarse:
        for code in _partition_stream(n_elements, prefixes):
            candidate = candidate_at(code)
            if candidate is not None:
                yield candidate
        return

    pruned: set[int] = set()
    levels = _lattice_levels(n_elements, prefixes, _rank_table(n_elements), pruned)
    for _, level in levels:
        for rank in sorted(level):
            candidate = candidate_at(level[rank][0])
            if candidate is None:
                continue
            candidate.generation = rank
            yield candidate
            if candidate.strictly_dominated:
                pruned.add(rank)


def coarseness_ordered(candidates: Iterable) -> Iterator:
    """Replay a stage-1 candidate stream finest-first (fine-to-coarse).

    Buffers the whole stream, stamps each candidate's ``generation`` (its
    position in the unreordered stream), and yields candidates bucketed by
    *descending* ``block_count`` — block count is free in integer form, and
    a partition with more blocks can never be a coarsening of one with
    fewer, so every candidate meets the frontier only after every strictly
    finer candidate.  Within one bucket the original (generation) order is
    preserved, so candidates of equal coarseness — in particular isomorphic
    ones, which always share a block count — still arrive first-generated
    first.

    Sound only for streams without generator feedback: the stream is fully
    consumed before anything is yielded, so feedback flags set during the
    reduction would never reach the (exhausted) enumerator.  The pipeline
    no longer buffers: its fine-to-coarse streams come from the lattice
    walk (``iter_quotient_candidates(fine_to_coarse=True)``), which yields
    this order without listing what it prunes.
    """
    for bucket in coarseness_buckets(candidates):
        yield from bucket


def coarseness_buckets(candidates: Iterable) -> list[list]:
    """The buffered fine-to-coarse buckets behind :func:`coarseness_ordered`.

    Same contract (full buffering, ``generation`` stamps, descending
    ``block_count``, generation order within a bucket), returned as a list
    of buckets: the whole stream is buffered in this one call.
    """
    buckets: dict[int, list] = {}
    for generation, candidate in enumerate(candidates):
        candidate.generation = generation
        buckets.setdefault(candidate.block_count or 0, []).append(candidate)
    return [buckets[count] for count in sorted(buckets, reverse=True)]


def iter_quotient_tableaux(
    tableau: Tableau,
    *,
    dedup: bool = False,
    shard: tuple[int, int] | None = None,
) -> Iterator[Tableau]:
    """All quotients of a tableau, one per set partition of its domain.

    The identity quotient (the tableau itself) is included.  The number of
    quotients is ``bell_number(|domain|)``; with ``dedup=True`` isomorphic
    quotients are pruned by canonical form, which can leave far fewer.

    The dedup path delegates to :func:`iter_quotient_candidates`, which
    canonizes straight off the partition — facts mapped to integer block
    ids, no ``Structure`` built — so duplicated quotients cost one
    canonical-form computation and nothing else.  ``shard`` is documented
    there and works on both streams.
    """
    if not dedup:
        elements = sorted(tableau.structure.domain, key=repr)
        prefixes = _shard_prefixes(len(elements), shard)
        for code in _partition_stream(len(elements), prefixes):
            yield tableau.rename(partition_to_mapping(_blocks_of(elements, code)))
        return
    for candidate in iter_quotient_candidates(tableau, shard=shard):
        yield candidate.materialize()


def quotient_count(tableau: Tableau) -> int:
    return bell_number(len(tableau.structure.domain))


def iter_extension_atoms(
    structure: Structure,
    *,
    allow_fresh: bool = True,
    min_cover: int = 2,
) -> Iterator[tuple[str, tuple]]:
    """Candidate extension atoms over a quotient's domain.

    Each candidate is a fact ``R(t)`` whose entries are existing elements or
    fresh padding variables (marked as ``("fresh", i)`` placeholders, later
    renamed).  Mirroring Claim 6.2's extension tuples we require the atom to
    cover at least ``min_cover`` existing elements — extension atoms exist to
    cover (hyper-)edges, and covers of fewer than two elements cannot change
    the hypergraph's cyclicity.
    """
    domain = sorted(structure.domain, key=repr)
    for name in sorted(structure.vocabulary):
        arity = structure.arity(name)
        pool: list = list(domain)
        if allow_fresh:
            pool = pool + [None]  # None = a fresh element at this position
        for pattern in itertools.product(pool, repeat=arity):
            concrete = [value for value in pattern if value is not None]
            if len(set(concrete)) < min_cover:
                continue
            fresh_index = itertools.count()
            row = tuple(
                ("fresh", next(fresh_index)) if value is None else value
                for value in pattern
            )
            if row in structure.tuples(name):
                continue
            yield name, row


def _with_extensions(
    base: Tableau, extras: tuple[tuple[str, tuple], ...]
) -> Tableau:
    """Attach extension atoms, renaming fresh markers to real fresh names."""
    namer = fresh_names(
        {str(value) for value in base.structure.domain}, prefix="z"
    )
    facts = []
    for name, row in extras:
        concrete_row = tuple(
            next(namer) if isinstance(value, tuple) and value and value[0] == "fresh"
            else value
            for value in row
        )
        facts.append((name, concrete_row))
    return Tableau(base.structure.add_facts(facts), base.distinguished)


class ExtensionCandidate:
    """An extended candidate (quotient + extension atoms) in lazy integer
    form — the stage-1 unit of hypergraph extension-space runs.

    ``block_count`` counts quotient blocks *plus* fresh padding variables:
    fresh elements occupy the id namespace ``quotient.block_count ..
    block_count - 1``, so the integer facts describe the full extended
    structure and the pipeline's membership/dominance keys and integer
    class checks work unchanged.  The tableau is built on demand only
    (:meth:`materialize`), through the same ``_with_extensions`` path as
    the historical enumerator, so surviving candidates are bit-identical
    to the pre-stream implementation while rejected ones never build a
    ``Structure``.  ``key`` is the fact-level canonical form the enumerator
    deduplicated the candidate under (``None`` beyond the canonizer's
    effort cap).  ``parent`` is the family's quotient candidate (possibly
    one the stream suppressed as a repeat): sharded runs order the child
    by its parent's partition codes, and since the quotient embeds into
    each of its extensions, the family is skipped once the reducer flags
    the parent (``QuotientCandidate.extensions_dominated``).
    """

    __slots__ = (
        "block_count",
        "distinguished",
        "parent",
        "key",
        "generation",
        "_atoms",
        "_names",
        "_facts",
        "_tableau",
    )

    #: Extended candidates are not quotients of the base, so partition-code
    #: coarsening is no homomorphism witness for them (in either direction
    #: of a frontier query) — they carry no codes.
    codes = None

    def __init__(
        self,
        quotient: QuotientCandidate,
        atoms: tuple[tuple[int, tuple], ...],
        names: tuple[str, ...],
        facts: tuple[tuple[int, tuple[int, ...]], ...],
        block_count: int,
        distinguished: tuple[int, ...],
        key: tuple | None,
    ) -> None:
        self.parent = quotient
        self.key = key
        self.generation = None
        self._atoms = atoms
        self._names = names
        self._facts = facts
        self.block_count = block_count
        self.distinguished = distinguished
        self._tableau: Tableau | None = None

    def facts(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The extended candidate's facts over block + fresh ids."""
        return self._facts

    def materialize(self) -> Tableau:
        """The extended tableau, identical to the historical
        ``_with_extensions(quotient, extras)`` construction (block ids are
        resolved to block representatives, fresh ids to fresh markers that
        ``_with_extensions`` names ``z0, z1, ...`` in atom order)."""
        if self._tableau is None:
            partition = self.parent.partition
            extras = tuple(
                (
                    self._names[relation_id],
                    tuple(
                        partition[value][0] if isinstance(value, int) else value
                        for value in row
                    ),
                )
                for relation_id, row in self._atoms
            )
            self._tableau = _with_extensions(self.parent.materialize(), extras)
        return self._tableau


def _integer_automorphisms(
    n: int,
    facts: tuple[tuple[int, tuple[int, ...]], ...],
    distinguished: tuple[int, ...],
    *,
    node_cap: int = 4096,
) -> list[list[int]]:
    """Non-identity automorphisms of an integer-form quotient.

    Returned as image permutations (``perm[v]`` is the image of block
    ``v``) that map the fact set onto itself and fix distinguished elements
    pointwise — the orbit data of one extension family.  A direct
    fact-level backtracker: candidate images are confined to elements with
    equal (distinguished-position, slot-profile) colors, and every fact is
    verified the moment its largest element is assigned.  The search stops
    at ``node_cap`` nodes and returns what it found: orbit pruning with a
    *subset* of the automorphisms is still sound — a pruned extension set
    is mapped to a lexicographically earlier one, whose own pruning chain
    terminates at a kept representative, and compositions of automorphisms
    are automorphisms.
    """
    if n <= 1 or not facts:
        return []
    distinguished_positions: list[tuple[int, ...]] = [() for _ in range(n)]
    for position, element in enumerate(distinguished):
        distinguished_positions[element] += (position,)
    profiles: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for relation_id, row in facts:
        for position, element in enumerate(row):
            profiles[element].append((relation_id, position))
    colors = [
        (distinguished_positions[v], tuple(sorted(profiles[v]))) for v in range(n)
    ]
    fact_set = set(facts)
    triggers: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for fact in facts:
        triggers[max(fact[1])].append(fact)

    perms: list[list[int]] = []
    image = [-1] * n
    used = [False] * n
    nodes = 0

    def assign(v: int) -> bool:
        """Extend the partial map at element ``v``; False aborts (cap)."""
        nonlocal nodes
        if v == n:
            if any(image[i] != i for i in range(n)):
                perms.append(list(image))
            return True
        for w in range(n):
            if used[w] or colors[w] != colors[v]:
                continue
            nodes += 1
            if nodes > node_cap:
                return False
            image[v] = w
            used[w] = True
            consistent = all(
                (relation_id, tuple(image[value] for value in row)) in fact_set
                for relation_id, row in triggers[v]
            )
            if consistent and not assign(v + 1):
                used[w] = False
                image[v] = -1
                return False
            used[w] = False
        image[v] = -1
        return True

    assign(0)
    return perms


def _integer_extension_pool(
    names: tuple[str, ...],
    arities: tuple[int, ...],
    block_count: int,
    quotient_facts: tuple[tuple[int, tuple[int, ...]], ...],
    allow_fresh: bool,
) -> list[tuple[int, tuple]]:
    """Candidate extension atoms over a quotient's block ids.

    The integer mirror of :func:`iter_extension_atoms`, in the same
    enumeration order — relation ids ascending (= sorted relation names),
    block ids ascending (= the quotient's block representatives sorted by
    repr, since blocks are ordered by their first element), the fresh
    marker last.  Each atom is ``(relation_id, row)`` with entries block
    ids or per-atom ``("fresh", i)`` markers; atoms must cover at least two
    existing blocks (Claim 6.2's ``min_cover``) and not duplicate a
    quotient fact.
    """
    fact_set = set(quotient_facts)
    pool: list[tuple[int, tuple]] = []
    for relation_id in range(len(names)):
        values: list = list(range(block_count))
        if allow_fresh:
            values.append(None)
        for pattern in itertools.product(values, repeat=arities[relation_id]):
            concrete = [value for value in pattern if value is not None]
            if len(set(concrete)) < 2:
                continue
            if (relation_id, pattern) in fact_set:
                continue
            fresh_index = itertools.count()
            pool.append(
                (
                    relation_id,
                    tuple(
                        ("fresh", next(fresh_index)) if value is None else value
                        for value in pattern
                    ),
                )
            )
    return pool


def iter_extended_candidates(
    tableau: Tableau,
    *,
    max_extra_atoms: int = 1,
    allow_fresh: bool = True,
    shard: tuple[int, int] | None = None,
    automorphisms: list[list[int]] | None | object = _DERIVE,
    generation: str = "canonical",
) -> Iterator[QuotientCandidate | ExtensionCandidate]:
    """The deduplicated extension-space stream in lazy integer form.

    Stage 1 of hypergraph-class pipeline runs (Theorem 6.1 / Claim 6.2):
    every deduplicated quotient candidate, each followed by its family of
    candidates with up to ``max_extra_atoms`` extension atoms.  Extension
    atoms are enumerated straight over the quotient's integer form — fresh
    padding variables take the ids ``block_count, block_count + 1, ...`` —
    so a rejected extended candidate never builds a ``Structure``.

    Dedup is incremental and fact-level, with the per-family work computed
    once from the quotient's integer facts:

    * the quotient's automorphisms (:func:`_integer_automorphisms`) turn
      into permutations of the extension-atom pool; an extension set that
      some automorphism maps to a lexicographically earlier one is pruned
      *before any key or structure exists* — its orbit representative is
      already in the stream;
    * orbit-unique survivors are keyed with
      :func:`~repro.homomorphism.signatures.canonical_key_indexed` over the
      combined integer facts, in a keyspace shared with the quotient
      stream's own keys, so an extended candidate isomorphic to an earlier
      plain quotient — the historical blind spot — or to an earlier
      extended candidate of a *different* quotient deduplicates too.

    Like the quotient stream the dedup prunes only candidates isomorphic to
    an earlier stream element, which keeps downstream frontiers
    bit-identical.  Quotient-level pruning remains quotient-vs-quotient
    (extension keys never suppress a quotient): skipping a quotient skips
    its whole extension family, which is only sound when the surviving
    isomorphic copy grows the same family.

    ``shard`` splits at the quotient level, so each quotient's extension
    family stays in its shard; ``automorphisms`` is the *base* tableau's
    orbit data as in :func:`iter_quotient_candidates`; ``generation`` is
    the quotient layer's regime (a repeat the orbit or raw regime lets
    through re-grows a family whose members are each dominated or
    isomorphic to an earlier candidate, so results stay bit-identical
    across regimes here too).  Bases outside the integer fast path (isolated domain elements,
    vocabulary relations without facts) fall back to the historical
    tableau-level enumeration, wrapped via
    :meth:`QuotientCandidate.from_tableau`.
    """
    if max_extra_atoms <= 0:
        yield from iter_quotient_candidates(
            tableau,
            shard=shard,
            automorphisms=automorphisms,
            generation=generation,
        )
        return
    structure = tableau.structure
    names = tuple(
        sorted(name for name, rows in structure.relations.items() if rows)
    )
    covered = {
        value
        for rows in structure.relations.values()
        for row in rows
        for value in row
    }
    covered.update(tableau.distinguished)
    if len(names) != len(structure.vocabulary) or len(covered) < len(
        structure.domain
    ):
        yield from _iter_extended_candidates_fallback(
            tableau,
            max_extra_atoms=max_extra_atoms,
            allow_fresh=allow_fresh,
            shard=shard,
            automorphisms=automorphisms,
            generation=generation,
        )
        return
    arities = tuple(structure.arity(name) for name in names)
    quotient_keys: set = set()
    extension_keys: set = set()
    for candidate in iter_quotient_candidates(
        tableau,
        shard=shard,
        automorphisms=automorphisms,
        seen_keys=quotient_keys,
        generation=generation,
    ):
        if candidate.key is None or candidate.key not in extension_keys:
            yield candidate
        # else: the quotient repeats an earlier extended candidate's
        # isomorphism class — suppress it, but still grow its extension
        # family (whose members dedup individually against the shared
        # keyspace; the suppressed copy's family exists nowhere else).
        if candidate.extensions_dominated:
            # Consumer feedback set while this generator was suspended: the
            # frontier already holds a member mapping into the quotient, so
            # the whole family is dominated — skip it before any key or
            # structure exists.  (Later candidates isomorphic to a skipped
            # one lose the dedup hit but are dominated for the same reason.)
            continue
        quotient_facts = candidate.facts()
        block_count = candidate.block_count
        distinguished = candidate.distinguished
        pool = _integer_extension_pool(
            names, arities, block_count, quotient_facts, allow_fresh
        )
        if not pool:
            continue
        perms = _integer_automorphisms(block_count, quotient_facts, distinguished)
        pool_perms: list[tuple[int, ...]] = []
        if perms:
            pool_index = {atom: position for position, atom in enumerate(pool)}
            for perm in perms:
                # An automorphism maps non-facts to non-facts, preserves
                # relations, concrete coverage, and fresh positions — so it
                # permutes the pool.
                pool_perms.append(
                    tuple(
                        pool_index[
                            (
                                relation_id,
                                tuple(
                                    perm[value] if isinstance(value, int) else value
                                    for value in row
                                ),
                            )
                        ]
                        for relation_id, row in pool
                    )
                )
        for count in range(1, max_extra_atoms + 1):
            for combo in itertools.combinations(range(len(pool)), count):
                if pool_perms and any(
                    tuple(sorted(p[i] for i in combo)) < combo for p in pool_perms
                ):
                    continue
                next_fresh = block_count
                extension_facts = []
                for i in combo:
                    relation_id, row = pool[i]
                    mapped = []
                    for value in row:
                        if isinstance(value, int):
                            mapped.append(value)
                        else:
                            mapped.append(next_fresh)
                            next_fresh += 1
                    extension_facts.append((relation_id, tuple(mapped)))
                facts = tuple(
                    sorted(itertools.chain(quotient_facts, extension_facts))
                )
                key = canonical_key_indexed(next_fresh, list(facts), distinguished)
                if key is not None:
                    if key in extension_keys or key in quotient_keys:
                        continue
                    extension_keys.add(key)
                yield ExtensionCandidate(
                    candidate,
                    tuple(pool[i] for i in combo),
                    names,
                    facts,
                    next_fresh,
                    distinguished,
                    key,
                )


def _iter_extended_candidates_fallback(
    tableau: Tableau,
    *,
    max_extra_atoms: int,
    allow_fresh: bool,
    shard: tuple[int, int] | None,
    automorphisms: list[list[int]] | None | object,
    generation: str,
) -> Iterator[QuotientCandidate]:
    """Tableau-level extension stream (the historical path) as candidates.

    Used when the base has no integer form: quotient-level dedup through
    the candidate stream, extension-level dedup through engine canonical
    forms, extended candidates wrapped without integer facts.
    """
    seen = _CanonicalSeen()
    for candidate in iter_quotient_candidates(
        tableau, shard=shard, automorphisms=automorphisms, generation=generation
    ):
        yield candidate
        if candidate.extensions_dominated:
            continue
        quotient = candidate.materialize()
        extension_pool = list(
            iter_extension_atoms(quotient.structure, allow_fresh=allow_fresh)
        )
        for count in range(1, max_extra_atoms + 1):
            for extras in itertools.combinations(extension_pool, count):
                extended = _with_extensions(quotient, extras)
                if seen.first_sighting(extended):
                    yield QuotientCandidate.from_tableau(extended)


def iter_extended_tableaux(
    tableau: Tableau,
    *,
    max_extra_atoms: int = 1,
    allow_fresh: bool = True,
    dedup: bool = False,
    shard: tuple[int, int] | None = None,
) -> Iterator[Tableau]:
    """Quotients plus up to ``max_extra_atoms`` extension atoms each.

    This is the hypergraph-class candidate space (Theorem 6.1 / Claim 6.2),
    truncated by ``max_extra_atoms``: the paper's bound on extension tuples
    is polynomial in ``|Q|``, and the enumeration cost grows steeply, so the
    cap is an explicit knob.  With ``max_extra_atoms=0`` this degenerates to
    plain quotients.

    ``dedup=True`` delegates to :func:`iter_extended_candidates` and
    materializes each survivor: isomorphic candidates are pruned at the
    quotient level, within each quotient's extension family
    (automorphism-orbit pruning), and across the whole stream through one
    shared fact-level keyspace — including extended candidates isomorphic
    to plain quotients, which the historical tableau-level dedup never
    cross-checked.  ``shard`` mirrors :func:`iter_quotient_tableaux`:
    sharding splits at the quotient level (each quotient's whole extension
    family stays in its shard).
    """
    if not dedup:
        for quotient in iter_quotient_tableaux(tableau, dedup=False, shard=shard):
            yield quotient
            if max_extra_atoms <= 0:
                continue
            extension_pool = list(
                iter_extension_atoms(quotient.structure, allow_fresh=allow_fresh)
            )
            for count in range(1, max_extra_atoms + 1):
                for extras in itertools.combinations(extension_pool, count):
                    yield _with_extensions(quotient, extras)
        return
    for candidate in iter_extended_candidates(
        tableau,
        max_extra_atoms=max_extra_atoms,
        allow_fresh=allow_fresh,
        shard=shard,
    ):
        yield candidate.materialize()
