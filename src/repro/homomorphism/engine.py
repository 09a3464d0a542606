"""The indexed, memoizing homomorphism engine.

Every operation of the library — CQ containment, cores, the approximation
frontier of Theorem 4.1, query evaluation — reduces to homomorphism search,
and the exact algorithm of Corollary 4.3 issues Bell-many of those searches
per query.  :class:`HomEngine` centralizes the machinery that makes this
feasible:

* **Inverted target indexes.**  Each target structure is indexed once:
  tuples bucketed by ``(relation, position, value)``.  Support computation
  during propagation reads the bucket of the most constrained position
  instead of rescanning whole relations.  Indexes live in a bounded LRU
  cache (``index_cache_size``), so — unlike the unbounded ``lru_cache`` it
  replaces — the engine never keeps strong references to more than a fixed
  number of structures.

* **Trailing propagation.**  The backtracker shrinks candidate domains in
  place and records removed values on a trail, undoing them on backtrack,
  instead of deep-copying every domain dict at every branch.

* **Signature fast paths.**  Cheap necessary conditions (fact counts,
  equality patterns, slot profiles — see
  :mod:`repro.homomorphism.signatures`) refute most non-homomorphisms
  without any search.

* **Memoized ``hom_le``.**  Order queries between tableaux are cached under
  canonical (isomorphism-invariant) keys, so the frontier construction of
  ``approximation_frontier`` never re-decides an order between isomorphic
  candidates; equal canonical keys short-circuit to ``True`` outright.

The module-level functions in :mod:`repro.homomorphism.search`,
``.orders`` and ``.cores`` are thin wrappers over :data:`DEFAULT_ENGINE`,
so the public API is unchanged.  Construct a private ``HomEngine`` to
isolate cache behavior (e.g. in benchmarks).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Hashable, Iterable, Iterator, Mapping

from repro.cq.structure import Structure
from repro.cq.tableau import Tableau, pin_for
from repro.homomorphism.signatures import (
    StructureSignature,
    canonical_key,
    refutes_hom,
    structure_signature,
)

Element = Hashable
Assignment = dict[Element, Element]


class _BoundedCache(OrderedDict):
    """A tiny LRU: reads refresh recency, writes evict the oldest entry."""

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize

    def lookup(self, key, default=None):
        try:
            self.move_to_end(key)
        except KeyError:
            return default
        return self[key]

    def store(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)


class _TargetIndex:
    """Per-target access structures, built once and cached."""

    __slots__ = ("rows", "buckets", "domain", "value_rank")

    def __init__(self, target: Structure) -> None:
        self.rows: dict[str, tuple[tuple, ...]] = {
            name: tuple(rows) for name, rows in target.relations.items()
        }
        buckets: dict[tuple[str, int, Element], list[tuple]] = {}
        for name, rows in self.rows.items():
            for row in rows:
                for position, value in enumerate(row):
                    buckets.setdefault((name, position, value), []).append(row)
        self.buckets: dict[tuple[str, int, Element], tuple[tuple, ...]] = {
            key: tuple(rows) for key, rows in buckets.items()
        }
        self.domain = target.domain
        # Deterministic branching order, precomputed so the backtracker sorts
        # candidate values by integer rank instead of calling repr per value.
        self.value_rank: dict[Element, int] = {
            value: rank
            for rank, value in enumerate(sorted(target.domain, key=repr))
        }


class _SourcePlan:
    """Per-source search plan (facts, incidence), built once and cached."""

    __slots__ = ("facts", "facts_of", "variable_order")

    def __init__(self, source: Structure) -> None:
        self.facts: list[tuple[str, tuple]] = list(source.facts())
        self.facts_of: dict[Element, list[int]] = {}
        for fact_index, (_, row) in enumerate(self.facts):
            for value in set(row):
                self.facts_of.setdefault(value, []).append(fact_index)
        self.variable_order: list[Element] = sorted(source.domain, key=repr)


class HomEngine:
    """Indexed, memoizing homomorphism search (see module docstring).

    Parameters
    ----------
    index_cache_size:
        Bound on cached target indexes (the fix for the unbounded
        ``_target_index`` cache: eviction is LRU, memory is O(bound)).
    signature_cache_size:
        Bound on cached refutation signatures.
    memo_size:
        Bound on memoized ``hom_le`` verdicts.
    canon_max_domain / canon_branch_budget:
        Size/effort caps of canonical-form computation; structures beyond
        them skip canonical memoization (still correct, just uncached
        across isomorphic — not identical — arguments).
    """

    def __init__(
        self,
        *,
        index_cache_size: int = 256,
        signature_cache_size: int = 1024,
        memo_size: int = 16384,
        canon_max_domain: int = 16,
        canon_branch_budget: int = 3000,
    ) -> None:
        self._indexes: _BoundedCache = _BoundedCache(index_cache_size)
        self._plans: _BoundedCache = _BoundedCache(index_cache_size)
        self._signatures: _BoundedCache = _BoundedCache(signature_cache_size)
        self._canon_keys: _BoundedCache = _BoundedCache(memo_size)
        self._hom_le_memo: _BoundedCache = _BoundedCache(memo_size)
        self.canon_max_domain = canon_max_domain
        self.canon_branch_budget = canon_branch_budget
        self.stats = {
            "searches": 0,
            "refuted": 0,
            "memo_hits": 0,
            "iso_fast_paths": 0,
        }

    def _index_for(self, target: Structure) -> _TargetIndex:
        index = self._indexes.lookup(target)
        if index is None:
            index = _TargetIndex(target)
            self._indexes.store(target, index)
        return index

    def _plan_for(self, source: Structure) -> _SourcePlan:
        plan = self._plans.lookup(source)
        if plan is None:
            plan = _SourcePlan(source)
            self._plans.store(source, plan)
        return plan

    def signature(self, structure: Structure) -> StructureSignature:
        sig = self._signatures.lookup(structure)
        if sig is None:
            sig = structure_signature(structure)
            self._signatures.store(structure, sig)
        return sig

    def canonical_key(self, tableau: Tableau) -> tuple | None:
        """The tableau's canonical form (``None`` beyond the effort caps)."""
        cache_key = (tableau.structure, tableau.distinguished)
        key = self._canon_keys.lookup(cache_key, default=False)
        if key is False:
            key = canonical_key(
                tableau.structure,
                tableau.distinguished,
                max_domain=self.canon_max_domain,
                branch_budget=self.canon_branch_budget,
            )
            self._canon_keys.store(cache_key, key)
        return key

    def canonical_key_many(
        self, tableaux: Iterable[Tableau]
    ) -> list[tuple | None]:
        """:meth:`canonical_key` of many tableaux, in order.

        Nothing in the library calls it; ``benchmarks/e2e/trace.py``
        patches it by name.
        """
        return [self.canonical_key(tableau) for tableau in tableaux]

    # ------------------------------------------------------------- search

    def iter_homomorphisms(
        self,
        source: Structure,
        target: Structure,
        *,
        pin: Mapping[Element, Element] | None = None,
        candidates: Mapping[Element, Iterable[Element]] | None = None,
    ) -> Iterator[Assignment]:
        """Yield every homomorphism from ``source`` to ``target``.

        Semantics match the original ad-hoc search exactly: ``pin`` forces
        images (unknown pinned elements raise ``ValueError``), ``candidates``
        restricts candidate sets.
        """
        return self._homomorphisms(source, target, pin, candidates, refute=True)

    def _homomorphisms(
        self,
        source: Structure,
        target: Structure,
        pin: Mapping[Element, Element] | None,
        candidates: Mapping[Element, Iterable[Element]] | None,
        *,
        refute: bool,
    ) -> Iterator[Assignment]:
        """:meth:`iter_homomorphisms`; ``refute=False`` skips the signature
        refutation for callers that already ran it on the same pair and
        pin (:meth:`hom_le`), so a refuted query is counted once."""
        index = self._index_for(target)
        plan = self._plan_for(source)
        facts = plan.facts
        facts_of = plan.facts_of

        domains: dict[Element, set[Element]] = {}
        for element in source.domain:
            if candidates is not None and element in candidates:
                domains[element] = set(candidates[element]) & set(index.domain)
            else:
                domains[element] = set(index.domain)
        if pin:
            for element, image in pin.items():
                if element not in domains:
                    raise ValueError(
                        f"pinned element {element!r} not in source domain"
                    )
                domains[element] &= {image}
        if any(not values for values in domains.values()):
            return
        if refute and refutes_hom(self.signature(source), self.signature(target), pin):
            self.stats["refuted"] += 1
            return
        self.stats["searches"] += 1
        if not self._propagate(
            facts, index, domains, set(range(len(facts))), facts_of, None
        ):
            return

        order_hint = plan.variable_order
        value_rank = index.value_rank

        def search() -> Iterator[Assignment]:
            unassigned = [v for v in order_hint if len(domains[v]) > 1]
            if not unassigned:
                yield {v: next(iter(values)) for v, values in domains.items()}
                return
            variable = min(unassigned, key=lambda v: len(domains[v]))
            for value in sorted(domains[variable], key=value_rank.__getitem__):
                trail: list[tuple[Element, Element]] = [
                    (variable, other)
                    for other in domains[variable]
                    if other != value
                ]
                domains[variable].intersection_update((value,))
                queue = set(facts_of.get(variable, ()))
                if self._propagate(facts, index, domains, queue, facts_of, trail):
                    yield from search()
                for trailed_variable, removed in trail:
                    domains[trailed_variable].add(removed)

        yield from search()

    def _candidate_rows(
        self,
        index: _TargetIndex,
        name: str,
        row: tuple,
        domains: Mapping[Element, set[Element]],
    ) -> Iterable[tuple]:
        """Rows worth checking as supports: read the tightest bucket."""
        rows = index.rows.get(name, ())
        if not rows:
            return ()
        position, variable = min(
            enumerate(row), key=lambda pv: len(domains[pv[1]])
        )
        domain = domains[variable]
        if len(domain) == 1:
            (value,) = domain
            return index.buckets.get((name, position, value), ())
        if len(domain) >= len(rows):
            return rows
        out: list[tuple] = []
        for value in domain:
            out.extend(index.buckets.get((name, position, value), ()))
        return out

    def _propagate(
        self,
        facts: list[tuple[str, tuple]],
        index: _TargetIndex,
        domains: dict[Element, set[Element]],
        queue: set[int],
        facts_of: Mapping[Element, list[int]],
        trail: list[tuple[Element, Element]] | None,
    ) -> bool:
        """Generalized arc consistency; trail-recorded, undoable shrinking."""
        while queue:
            fact_index = queue.pop()
            name, row = facts[fact_index]
            support = []
            for candidate in self._candidate_rows(index, name, row, domains):
                seen: dict[Element, Element] = {}
                for src, dst in zip(row, candidate):
                    if dst not in domains[src]:
                        break
                    if seen.setdefault(src, dst) != dst:
                        break
                else:
                    support.append(candidate)
            if not support:
                return False
            for position, variable in enumerate(row):
                domain = domains[variable]
                projected = {candidate[position] for candidate in support}
                if not domain <= projected:
                    removed = domain - projected
                    domain &= projected
                    if trail is not None:
                        trail.extend((variable, value) for value in removed)
                    if not domain:
                        return False
                    queue.update(facts_of.get(variable, ()))
        return True

    def find_homomorphism(
        self,
        source: Structure,
        target: Structure,
        *,
        pin: Mapping[Element, Element] | None = None,
        candidates: Mapping[Element, Iterable[Element]] | None = None,
    ) -> Assignment | None:
        for hom in self.iter_homomorphisms(
            source, target, pin=pin, candidates=candidates
        ):
            return hom
        return None

    def homomorphism_exists(
        self,
        source: Structure,
        target: Structure,
        *,
        pin: Mapping[Element, Element] | None = None,
        candidates: Mapping[Element, Iterable[Element]] | None = None,
    ) -> bool:
        return (
            self.find_homomorphism(source, target, pin=pin, candidates=candidates)
            is not None
        )

    def count_homomorphisms(
        self,
        source: Structure,
        target: Structure,
        *,
        pin: Mapping[Element, Element] | None = None,
        candidates: Mapping[Element, Iterable[Element]] | None = None,
    ) -> int:
        return sum(
            1
            for _ in self.iter_homomorphisms(
                source, target, pin=pin, candidates=candidates
            )
        )

    # ------------------------------------------------- the tableau preorder

    def _memo_key(self, source: Tableau, target: Tableau) -> tuple:
        source_key = self.canonical_key(source)
        target_key = self.canonical_key(target)
        if source_key is not None and target_key is not None:
            return ("canon", source_key, target_key)
        return ("exact", source, target)

    def hom_le(self, source: Tableau, target: Tableau, *, memo: bool = True) -> bool:
        """Memoized ``source → target`` with signature/isomorphism fast paths.

        ``memo=False`` skips the canonical-key memo entirely — no key
        computation, no lookup, no store.  The verdict is identical; the
        point is cost: building the memo key canonizes both tableaux, which
        outweighs the search itself when a pair is only ever compared once.
        The pipeline's frontier uses this for its candidate-stream dominance
        tests (each streamed candidate meets the frontier exactly once),
        while repeat-heavy callers (greedy descent, equivalence sweeps) keep
        the default.
        """
        pin = pin_for(source, target)
        if pin is None:
            return False
        if (
            source.structure == target.structure
            and source.distinguished == target.distinguished
        ):
            return True
        if refutes_hom(
            self.signature(source.structure), self.signature(target.structure), pin
        ):
            self.stats["refuted"] += 1
            return False
        if not memo:
            return self._searched(source, target, pin)
        key = self._memo_key(source, target)
        cached = self._hom_le_memo.lookup(key)
        if cached is not None:
            self.stats["memo_hits"] += 1
            return cached
        if key[0] == "canon" and key[1] == key[2]:
            self.stats["iso_fast_paths"] += 1
            result = True  # isomorphic tableaux: the isomorphism is a hom
        else:
            result = self._searched(source, target, pin)
        self._hom_le_memo.store(key, result)
        return result

    def _searched(self, source: Tableau, target: Tableau, pin) -> bool:
        """Whether the search finds a pinned hom, after :meth:`hom_le` has
        already run the refutation."""
        homs = self._homomorphisms(
            source.structure, target.structure, pin, None, refute=False
        )
        return next(homs, None) is not None

    def hom_le_many(
        self,
        source: Tableau,
        targets: Iterable[Tableau],
        *,
        memo: bool = False,
    ) -> list[bool]:
        """:meth:`hom_le` of one source against many targets, in order.

        The source's refutation signature and search plan are cached, so
        the batch shares them across its targets.  Nothing in the library
        calls it; ``benchmarks/e2e/trace.py`` patches it by name.
        """
        return [self.hom_le(source, target, memo=memo) for target in targets]

    def tableau_hom(self, source: Tableau, target: Tableau) -> Assignment | None:
        """An actual tableau homomorphism (not just the memoized verdict)."""
        pin = pin_for(source, target)
        if pin is None:
            return None
        if self._hom_le_memo.lookup(self._memo_key(source, target)) is False:
            self.stats["memo_hits"] += 1
            return None
        hom = self.find_homomorphism(source.structure, target.structure, pin=pin)
        self._hom_le_memo.store(self._memo_key(source, target), hom is not None)
        return hom

    def hom_equivalent(self, a: Tableau, b: Tableau) -> bool:
        return self.hom_le(a, b) and self.hom_le(b, a)

    def strictly_below(self, a: Tableau, b: Tableau) -> bool:
        """``a → b`` but not ``b → a`` (the paper's strict order ``⥮``)."""
        return self.hom_le(a, b) and not self.hom_le(b, a)

    # --------------------------------------------------------------- cores

    def core(
        self, structure: Structure, *, pinned: tuple[Element, ...] = ()
    ) -> tuple[Structure, dict[Element, Element]]:
        """The core of ``structure`` and a retraction onto it.

        Same contract as :func:`repro.homomorphism.cores.core`; every
        endomorphism search runs through the engine's indexed backtracker.
        """
        pin = {element: element for element in pinned}
        current = structure
        retraction: dict[Element, Element] = {
            value: value for value in structure.domain
        }
        shrunk = True
        while shrunk:
            shrunk = False
            removable = sorted(current.domain - set(pinned), key=repr)
            for element in removable:
                endo = self.find_homomorphism(
                    current, current.without(element), pin=pin
                )
                if endo is None:
                    continue
                current = current.rename(dict(endo))
                retraction = {
                    origin: endo[target] for origin, target in retraction.items()
                }
                shrunk = True
                break
        return current, retraction

    def is_core(
        self, structure: Structure, *, pinned: tuple[Element, ...] = ()
    ) -> bool:
        pin = {element: element for element in pinned}
        for element in sorted(structure.domain - set(pinned), key=repr):
            if self.find_homomorphism(structure, structure.without(element), pin=pin):
                return False
        return True

    def core_tableau(self, tableau: Tableau) -> Tableau:
        cored, retraction = self.core(
            tableau.structure, pinned=tuple(dict.fromkeys(tableau.distinguished))
        )
        return Tableau(cored, tuple(retraction[x] for x in tableau.distinguished))


#: The process-wide engine behind the module-level wrapper functions.
DEFAULT_ENGINE = HomEngine()

#: Owner of :data:`DEFAULT_ENGINE` — engines are per-process handles.
_ENGINE_PID = os.getpid()


def default_engine() -> HomEngine:
    """The shared engine instance used by the thin module-level wrappers.

    Engine handles are per-process: a forked pipeline worker that inherits
    the parent's engine would start from a snapshot of the parent's caches
    (stale recency order, memory already near the bounds) and the two copies
    would silently diverge.  The pid check rebuilds a fresh engine the first
    time a new process asks for one, which is also what keeps engines out of
    pickled task payloads — workers never receive an engine, they construct
    their own.
    """
    global DEFAULT_ENGINE, _ENGINE_PID
    pid = os.getpid()
    if pid != _ENGINE_PID:
        DEFAULT_ENGINE = HomEngine()
        _ENGINE_PID = pid
    return DEFAULT_ENGINE
