"""A definition-level reference for approximation frontiers.

Corollary 4.3: the C-approximations of a CQ are, up to equivalence, the
→-minimal quotients of its tableau that lie in C; for hypergraph classes
Theorem 6.1 and Claim 6.2 widen the candidates to quotients plus extension
atoms.  This module computes that set by brute force from the definitions,
sharing no code with the pipeline, the engine or the width solvers:

* every set partition of the variables is listed (restricted growth
  strings), so tableaux are capped at :data:`MAX_VARIABLES`, each quotient
  with every single extension atom if asked (:func:`extensions`);
* membership is decided on the quotient's (hyper)graph: TW(k) by
  elimination orders, AC (= HTW(1) = GHTW(1)) by the GYO reduction, GHTW(k)
  by edge covers of the bags of elimination orders (Gottlob–Leone–Scarcello,
  arXiv:cs/9812022: every tree decomposition contains the bags of one from
  an elimination order, and edge covers shrink with their bags);
* homomorphisms are found by a plain backtracking search.

A structure is ``(n, facts, head)``: elements ``0..n-1``, facts a set of
``(relation, row)`` pairs, ``head`` the distinguished tuple.
"""

from __future__ import annotations

import itertools
import re

#: The largest tableau the reference enumerates (Bell(6) = 203 quotients).
MAX_VARIABLES = 6


def structure_of(tableau) -> tuple[int, frozenset, tuple]:
    """A tableau as ``(n, facts, head)``, elements numbered in repr order."""
    elements = sorted(tableau.structure.domain, key=repr)
    index = {element: i for i, element in enumerate(elements)}
    facts = frozenset(
        (name, tuple(index[value] for value in row))
        for name, rows in tableau.structure.relations.items()
        for row in rows
    )
    return len(elements), facts, tuple(index[d] for d in tableau.distinguished)


def partitions(n: int, code: tuple = ()):
    """Every restricted growth string of length ``n`` (extending ``code``)."""
    if len(code) == n:
        yield code
        return
    for value in range(max(code, default=-1) + 2):
        yield from partitions(n, code + (value,))


def quotient(structure, code) -> tuple[int, frozenset, tuple]:
    """The quotient of ``structure`` by the partition ``code`` codes."""
    _, facts, head = structure
    mapped = frozenset((name, tuple(code[v] for v in row)) for name, row in facts)
    return max(code, default=-1) + 1, mapped, tuple(code[d] for d in head)


def extensions(structure, allow_fresh: bool):
    """The quotient plus one Claim 6.2 extension atom, for every atom: a
    relation of the quotient over its elements and, with ``allow_fresh``, a
    fresh element in any position, covering two or more elements and not
    already a fact."""
    n, facts, head = structure
    values = list(range(n)) + [None] * allow_fresh
    for name, arity in sorted({(name, len(row)) for name, row in facts}):
        for pattern in itertools.product(values, repeat=arity):
            if len(set(pattern) - {None}) < 2 or (name, pattern) in facts:
                continue
            fresh = itertools.count(n)
            row = tuple(next(fresh) if v is None else v for v in pattern)
            yield n + pattern.count(None), facts | {(name, row)}, head


def maps_into(source, target) -> bool:
    """Whether a homomorphism ``source → target`` maps head onto head."""
    n, facts, head = source
    m, target_facts, target_head = target
    image: dict[int, int] = {}
    for element, value in zip(head, target_head):
        if image.setdefault(element, value) != value:
            return False
    order = [v for v in range(n) if v not in image]
    due: dict[int, list] = {}  # facts by their last free element (-1: none)
    for name, row in facts:
        free = [v for v in row if v not in image]
        due.setdefault(max(free, default=-1), []).append((name, row))

    def holds(fact) -> bool:
        name, row = fact
        return (name, tuple(image[v] for v in row)) in target_facts

    def assign(position: int) -> bool:
        if position == len(order):
            return True
        element = order[position]
        for value in range(m):
            image[element] = value
            if all(holds(f) for f in due.get(element, ())) and assign(position + 1):
                return True
        del image[element]
        return False

    return all(holds(fact) for fact in due.get(-1, ())) and assign(0)


def _primal(n: int, edges) -> dict[int, frozenset]:
    adjacency = {v: set() for v in range(n)}
    for edge in edges:
        for u in edge:
            adjacency[u] |= edge - {u}
    return {v: frozenset(neighbors) for v, neighbors in adjacency.items()}


def _eliminates(adjacency: dict, bag_ok) -> bool:
    """Whether some elimination order has every bag (a vertex with its
    remaining neighbors) accepted by ``bag_ok``.  The graph left after
    eliminating a vertex set does not depend on the order, so a failed
    remaining set is never searched twice."""
    failed: set = set()

    def search(adjacency: dict) -> bool:
        if not adjacency:
            return True
        key = frozenset(adjacency)
        if key in failed:
            return False
        for v, neighbors in adjacency.items():
            if bag_ok(neighbors | {v}):
                rest = {
                    u: (others | neighbors) - {u, v} if u in neighbors else others
                    for u, others in adjacency.items()
                    if u != v
                }
                if search(rest):
                    return True
        failed.add(key)
        return False

    return search(adjacency)


def treewidth_at_most(n: int, edges, k: int) -> bool:
    return _eliminates(_primal(n, edges), lambda bag: len(bag) <= k + 1)


def acyclic(edges) -> bool:
    """The GYO reduction: drop vertices in a single edge and edges inside
    another edge; the hypergraph is acyclic iff nothing is left."""
    edges = [set(edge) for edge in edges]
    while edges:
        for edge in edges:
            edge -= {v for v in edge if sum(v in other for other in edges) == 1}
        redundant = [
            i
            for i, edge in enumerate(edges)
            if not edge or any(j != i and edge <= e for j, e in enumerate(edges))
        ]
        if not redundant:
            return False
        del edges[redundant[0]]
    return True


def ghw_at_most(n: int, edges, k: int) -> bool:
    covers = [
        frozenset().union(*cover)
        for size in range(1, k + 1)
        for cover in itertools.combinations(list(edges), size)
    ]
    return _eliminates(_primal(n, edges), lambda bag: any(bag <= c for c in covers))


def member(class_name: str, structure) -> bool:
    """Membership of a quotient in TW(k), AC, HTW(1) or GHTW(k)."""
    n, facts, _ = structure
    edges = {frozenset(row) for _, row in facts}
    kind, width = re.fullmatch(r"(GHTW|HTW|TW|AC)\(?(\d*)\)?", class_name).groups()
    if kind == "TW":
        return treewidth_at_most(n, edges, int(width))
    if kind == "AC" or (kind, width) in {("HTW", "1"), ("GHTW", "1")}:
        return acyclic(edges)
    if kind == "GHTW":
        return ghw_at_most(n, edges, int(width))
    raise ValueError(f"no reference definition for {class_name}")


def reference_frontier(
    tableau, class_name: str, *, extra_atoms: int = 0, allow_fresh: bool = False
) -> list[tuple]:
    """One candidate per →-minimal equivalence class of the candidates in
    the class, as ``(n, facts, head)`` structures.  The candidates are the
    quotients, and with ``extra_atoms=1`` each quotient's extensions too."""
    base = structure_of(tableau)
    if base[0] > MAX_VARIABLES or extra_atoms not in (0, 1):
        raise ValueError(f"the reference takes {MAX_VARIABLES} variables, one extra atom")
    frontier: list[tuple] = []
    for code in partitions(base[0]):
        plain = quotient(base, code)
        extended = extensions(plain, allow_fresh) if extra_atoms else ()
        for candidate in itertools.chain([plain], extended):
            if not member(class_name, candidate) or any(
                maps_into(kept, candidate) for kept in frontier
            ):
                continue
            frontier = [k for k in frontier if not maps_into(candidate, k)]
            frontier.append(candidate)
    return frontier


def equivalent_frontiers(left, right) -> bool:
    """Whether two frontiers match one-to-one up to hom-equivalence."""
    return len(left) == len(right) and all(
        sum(maps_into(a, b) and maps_into(b, a) for b in right) == 1 for a in left
    )


def strictly_dominated(frontier, target) -> bool:
    """Whether some frontier member maps into ``target`` and not back."""
    return any(maps_into(m, target) and not maps_into(target, m) for m in frontier)
