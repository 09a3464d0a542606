"""k-consistency — the existential pebble-game relaxation of homomorphism.

The paper's tractability landscape rests on the CSP connection of Kolaitis
and Vardi [30, 31]: the existential (k+1)-pebble game characterizes
bounded-treewidth evaluation, and *establishing k-consistency* is its
algorithmic side.  The procedure maintains the set of partial
homomorphisms on at most ``k+1`` source elements closed under restriction
and extension:

* if the closure becomes empty (some ``≤ k``-subset has no viable partial
  map), **no homomorphism exists** — a sound refutation;
* if the source has treewidth at most ``k``, survival of the closure is
  also *complete*: a homomorphism exists (the bags of a decomposition can
  be glued along the surviving family).

This yields a polynomial no-certificate that complements the exact engines
(the backtracking `search`, and `bounded_tw`, which evaluates the source as
a CQ by variable elimination), and it is the algorithm underlying the
*minimal TW(k) overapproximation* in the follow-up literature.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Mapping

from repro.cq.structure import Structure

Element = Hashable
Partial = tuple[tuple[Element, Element], ...]  # sorted (source, target) pairs


def _compatible(partial: dict, source: Structure, target: Structure) -> bool:
    """Whether a partial map violates no fact fully inside its domain."""
    scope = set(partial)
    for name, row in source.facts():
        if set(row) <= scope:
            mapped = tuple(partial[v] for v in row)
            if mapped not in target.tuples(name):
                return False
    return True


def k_consistency(
    source: Structure,
    target: Structure,
    k: int,
    *,
    pin: Mapping[Element, Element] | None = None,
) -> bool:
    """Establish k-consistency; ``False`` certifies ``source ↛ target``.

    ``True`` means the closure survived — a homomorphism *may* exist, and
    does exist whenever ``source`` has treewidth ≤ k.  Runs in time
    polynomial in ``|target|^(k+1)`` for fixed ``k``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    elements = sorted(source.domain, key=repr)
    if not elements:
        return True
    pin = dict(pin or {})

    def candidate_maps(subset: tuple[Element, ...]):
        pools = []
        for v in subset:
            pools.append([pin[v]] if v in pin else sorted(target.domain, key=repr))
        for values in itertools.product(*pools):
            partial = dict(zip(subset, values))
            if _compatible(partial, source, target):
                yield tuple(sorted(partial.items(), key=repr))

    # H[subset] = surviving partial homomorphisms on that subset.
    subsets: list[tuple[Element, ...]] = []
    for size in range(1, min(k + 1, len(elements)) + 1):
        subsets.extend(itertools.combinations(elements, size))
    families: dict[tuple[Element, ...], set[Partial]] = {
        subset: set(candidate_maps(subset)) for subset in subsets
    }
    if any(not family for family in families.values()):
        return False

    def restriction_survives(partial: Partial, subset: tuple[Element, ...]) -> bool:
        """Down-closure: every restriction must itself survive."""
        mapping = dict(partial)
        for smaller_size in range(1, len(subset)):
            for smaller in itertools.combinations(subset, smaller_size):
                restricted = tuple(
                    sorted(((v, mapping[v]) for v in smaller), key=repr)
                )
                if restricted not in families[smaller]:
                    return False
        return True

    def extension_survives(partial: Partial, subset: tuple[Element, ...]) -> bool:
        """Forth condition: every ≤ k-subset extends to any extra element."""
        if len(subset) > k:
            return True
        mapping = dict(partial)
        for extra in elements:
            if extra in subset:
                continue
            bigger = tuple(sorted((*subset, extra), key=repr))
            extended = False
            for candidate in families[bigger]:
                candidate_map = dict(candidate)
                if all(candidate_map[v] == mapping[v] for v in subset):
                    extended = True
                    break
            if not extended:
                return False
        return True

    changed = True
    while changed:
        changed = False
        for subset in subsets:
            survivors = {
                partial
                for partial in families[subset]
                if restriction_survives(partial, subset)
                and extension_survives(partial, subset)
            }
            if survivors != families[subset]:
                families[subset] = survivors
                changed = True
                if not survivors:
                    return False
    return True


def pebble_refutes(source: Structure, target: Structure, k: int) -> bool:
    """Whether the k-pebble relaxation refutes ``source → target``."""
    return not k_consistency(source, target, k)
