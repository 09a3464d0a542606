"""Choosers: the combinatorial hearts of the Theorem 4.12 reduction.

An ``(i, j)``-chooser (Definition 8.7) is a digraph with nodes ``a, b`` such
that homomorphisms into the target tree ``T`` force ``h(a) ∈ {t1, t2}``,
forbid exactly ``(h(a), h(b)) = (t1, t_i)`` and ``(t2, t_j)``, and realize
every other combination.

Choosers are assembled from *chains of blocks*.  A block ``T_X`` is a
path-shaped gadget of height 25 mapping into exactly the rails named by
``X ⊆ {1..5}`` (Claims 8.5/8.6, verified computationally in the tests).
Because every block visits level 0 only at its hub-side endpoint and level
25 only at its tip-side endpoint, a homomorphism into ``T`` confines each
block to a single rail, so chains behave like walks in a small *rail
automaton*:

* descending through ``X`` from tip ``t_i``: to the root ``v`` if
  ``i ∈ X``, to the leaf ``u_i`` if ``5 ∈ X``;
* ascending through ``X``: from ``v`` to any tip ``t_m`` with ``m ∈ X``,
  from ``u_i`` back to ``t_i`` if ``5 ∈ X``.

The paper draws its choosers in Figure 15 (following Hell–Nešetřil–Zhu);
the figure does not survive the text dump, so this module *synthesizes*
choosers instead.  Interestingly, pairs of parallel tip-to-tip chains
(which is what Figure 15 appears to depict) provably cannot express the
chooser relations over this target: a hybrid-path argument shows that any
chain whose relation covers both rows of ``R_ij`` also contains a forbidden
pair.  Gadgets with *interior* intersections do work, and a closed search
over the relation algebra generated by the atoms

    C(X, Y)  — a hub with blocks ``T_X``/``T_Y`` to two tips
               (relation ``(X∩{1..4}) × (Y∩{1..4})``, plus the diagonal
               when ``5 ∈ X∩Y``),
    D(X)     — a dangler ``T_X`` on a single tip (a unary filter),

under composition (gluing at an interior tip) and meet (gluing two gadgets
in parallel at both ends) finds small expression trees for all three
relations; they are hard-coded below and *verified against Definition 8.7*
with the homomorphism engine in the test suite.  All blocks involved avoid
rail 4, so the realizing homomorphisms stay inside ``Z = Z1∪Z2∪Z3`` —
exactly what Corollary 8.12 requires.

The extended choosers of Claim 8.9 (``S̃21 = T12·T125⁻¹·T345`` and
``S̃34 = T12·T25⁻¹·T35·T15⁻¹·T245·T35⁻¹·T15``) are fully specified in the
text and built verbatim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.cq.structure import Structure
from repro.graphs.appendix_qstar import t_block

Element = Hashable

#: Every block index set available from Claims 8.5/8.6 (plus the rails).
BLOCK_ALPHABET: tuple[frozenset[int], ...] = tuple(
    frozenset(x)
    for x in [
        {1}, {2}, {3}, {4}, {5},
        {1, 5}, {2, 5}, {3, 5}, {1, 2}, {1, 3}, {2, 3},
        {1, 2, 5}, {2, 4, 5}, {3, 4, 5},
    ]
)

TIPS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Chain:
    """A chain of blocks glued end to end, with its junction nodes.

    ``junctions[0]`` is the starting node and ``junctions[-1]`` the final
    one; blocks alternate orientation along the chain.
    """

    structure: Structure
    junctions: tuple[Element, ...]
    blocks: tuple[frozenset[int], ...]


def build_chain(
    blocks: Sequence[frozenset[int]],
    *,
    start_at_tip: bool,
    tag: str = "",
) -> Chain:
    """Build a chain of fresh block copies.

    ``start_at_tip=True`` means the first block is *descended*: the chain's
    start node is the block's tip-side (terminal) endpoint; orientations
    then alternate.  ``start_at_tip=False`` starts at a hub-side endpoint.
    """
    structure: Structure | None = None
    junctions: list[Element] = []
    descending = start_at_tip
    for index, block_set in enumerate(blocks):
        block = t_block(block_set, tag=f"{tag}_blk{index}")
        outer, inner = (
            (block.terminal, block.initial)
            if descending
            else (block.initial, block.terminal)
        )
        if structure is None:
            structure = block.structure
            junctions.append(outer)
        else:
            glued = block.structure.rename({outer: junctions[-1]})
            structure = structure.union(glued)
        junctions.append(inner)
        descending = not descending
    if structure is None:
        raise ValueError("a chain needs at least one block")
    return Chain(structure, tuple(junctions), tuple(blocks))


def chooser_relation(i: int, j: int) -> frozenset[tuple[int, int]]:
    """The target relation of an ``(i, j)``-chooser over ``X = {1, 2, 3}``."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("chooser indices range over {1, 2, 3}")
    return frozenset(
        {(1, k) for k in (1, 2, 3) if k != i}
        | {(2, k) for k in (1, 2, 3) if k != j}
    )


# Expression trees found by the relation-algebra search (see module doc).
#   ("C", X, Y)   — hub atom;      ("D", X) — dangler atom;
#   ("comp", l, r) — glue r's start onto l's end (interior tip);
#   ("meet", l, r) — glue both endpoints (parallel).
_CHOOSER_EXPRESSIONS: dict[tuple[int, int], tuple] = {
    (1, 3): (
        "comp",
        ("meet", ("C", {1, 5}, {3, 5}), ("C", {1, 2}, {2, 3})),
        ("comp", ("C", {2, 5}, {1, 5}), ("C", {3, 5}, {2, 5})),
    ),
    (2, 1): (
        "comp",
        ("D", {1, 2}),
        ("C", {1, 2, 5}, {3, 5}),
    ),
    (3, 2): (
        "comp",
        ("meet", ("C", {2, 5}, {3, 5}), ("C", {1, 2}, {1, 3})),
        ("comp", ("C", {1, 5}, {2, 5}), ("C", {3, 5}, {1, 5})),
    ),
}


def expression_relation(expr: tuple) -> frozenset[tuple[int, int]]:
    """Evaluate an expression tree in the rail automaton (for validation)."""
    kind = expr[0]
    if kind == "C":
        _, x, y = expr
        pairs = {
            (i, j)
            for i in frozenset(x) & {1, 2, 3, 4}
            for j in frozenset(y) & {1, 2, 3, 4}
        }
        if 5 in x and 5 in y:
            pairs |= {(t, t) for t in TIPS}
        return frozenset(pairs)
    if kind == "D":
        return frozenset((t, t) for t in frozenset(expr[1]) & {1, 2, 3, 4})
    if kind == "comp":
        left, right = expression_relation(expr[1]), expression_relation(expr[2])
        return frozenset(
            (i, j) for i, k in left for k2, j in right if k == k2
        )
    if kind == "meet":
        return expression_relation(expr[1]) & expression_relation(expr[2])
    raise ValueError(f"unknown expression {expr!r}")


def build_expression_gadget(
    expr: tuple, tag: str = ""
) -> tuple[Structure, Element, Element]:
    """Build the digraph of an expression tree; returns ``(G, a, b)``."""
    counter = itertools.count()

    def build(node: tuple) -> tuple[Structure, Element, Element]:
        index = next(counter)
        kind = node[0]
        if kind == "C":
            _, x, y = node
            hub = f"h{tag}_{index}"
            left_block = t_block(frozenset(x), tag=f"{tag}_l{index}")
            right_block = t_block(frozenset(y), tag=f"{tag}_r{index}")
            structure = left_block.structure.rename({left_block.initial: hub})
            structure = structure.union(
                right_block.structure.rename({right_block.initial: hub})
            )
            return structure, left_block.terminal, right_block.terminal
        if kind == "D":
            _, x = node
            hub = f"h{tag}_{index}"
            block = t_block(frozenset(x), tag=f"{tag}_d{index}")
            structure = block.structure.rename({block.initial: hub})
            return structure, block.terminal, block.terminal
        if kind == "comp":
            s1, a1, b1 = build(node[1])
            s2, a2, b2 = build(node[2])
            glued = s2.rename({a2: b1})
            end = b1 if a2 == b2 else b2
            return s1.union(glued), a1, end
        if kind == "meet":
            s1, a1, b1 = build(node[1])
            s2, a2, b2 = build(node[2])
            glued = s2.rename({a2: a1, b2: b1})
            return s1.union(glued), a1, b1
        raise ValueError(f"unknown expression {node!r}")

    return build(expr)


@dataclass(frozen=True)
class Chooser:
    """A synthesized chooser with its two distinguished nodes."""

    structure: Structure
    a: Element
    b: Element
    relation: frozenset[tuple[int, int]]


def chooser(i: int, j: int, tag: str = "") -> Chooser:
    """A verifiable ``(i, j)``-chooser built from its expression tree."""
    expr = _CHOOSER_EXPRESSIONS.get((i, j))
    if expr is None:
        raise ValueError(f"no synthesized chooser for ({i}, {j})")
    target = chooser_relation(i, j)
    assert expression_relation(expr) == target
    structure, a, b = build_expression_gadget(expr, tag=f"{tag}_ch{i}{j}")
    return Chooser(structure, a, b, target)


# ------------------------------------------------------- extended choosers


@dataclass(frozen=True)
class ExtendedChooser:
    """An extended chooser (Claim 8.9): one chain, ``a`` inside it."""

    structure: Structure
    start: Element
    a: Element
    b: Element
    relation: frozenset[tuple[int, int]]


def _extended_relation(i: int, j: int) -> frozenset[tuple[int, int]]:
    return frozenset(
        {(1, k) for k in (1, 2, 3, 4) if k != i}
        | {(2, k) for k in (1, 2, 3, 4) if k != j}
    )


def extended_chooser_21(tag: str = "") -> ExtendedChooser:
    """``S̃21 = T12 · T125⁻¹ · T345`` — an extended (2,1)-chooser."""
    chain = build_chain(
        [frozenset({1, 2}), frozenset({1, 2, 5}), frozenset({3, 4, 5})],
        start_at_tip=False,
        tag=f"{tag}_s21",
    )
    return ExtendedChooser(
        chain.structure,
        chain.junctions[0],
        chain.junctions[1],
        chain.junctions[-1],
        _extended_relation(2, 1),
    )


def extended_chooser_34(tag: str = "") -> ExtendedChooser:
    """``S̃34 = T12 · T25⁻¹ · T35 · T15⁻¹ · T245 · T35⁻¹ · T15``."""
    chain = build_chain(
        [
            frozenset({1, 2}),
            frozenset({2, 5}),
            frozenset({3, 5}),
            frozenset({1, 5}),
            frozenset({2, 4, 5}),
            frozenset({3, 5}),
            frozenset({1, 5}),
        ],
        start_at_tip=False,
        tag=f"{tag}_s34",
    )
    return ExtendedChooser(
        chain.structure,
        chain.junctions[0],
        chain.junctions[1],
        chain.junctions[-1],
        _extended_relation(3, 4),
    )


# ------------------------------------------------------------- T' and T̃


@dataclass(frozen=True)
class TPrime:
    """The digraph ``T'`` (Claim 8.10): three choosers sharing ``b``."""

    structure: Structure
    a_nodes: tuple[Element, Element, Element]
    b: Element


def t_prime(tag: str = "") -> TPrime:
    parts = [
        chooser(1, 3, tag=f"{tag}_q1"),
        chooser(2, 1, tag=f"{tag}_q2"),
        chooser(3, 2, tag=f"{tag}_q3"),
    ]
    b = f"b{tag}"
    structure = Structure({"E": []}, vocabulary={"E": 2}, domain=[b])
    a_nodes = []
    for part in parts:
        structure = structure.union(part.structure.rename({part.b: b}))
        a_nodes.append(part.a)
    return TPrime(structure, tuple(a_nodes), b)


@dataclass(frozen=True)
class TTilde:
    """The main gadget ``T̃`` (Figure 19) with its nodes ``p`` and ``q``."""

    structure: Structure
    p: Element
    q: Element


def t_tilde(tag: str = "") -> TTilde:
    """Assemble ``T̃``: two copies of ``T'`` wired through extended choosers.

    Three copies of ``S̃21`` share their ``a``-nodes with the first ``T'``'s
    chooser-``a`` nodes; their ``b``-ends go to ``p, p, q``.  Three copies
    of ``S̃34`` do the same with the second ``T'``.
    """
    p, q = f"p{tag}", f"q{tag}"
    first = t_prime(tag=f"{tag}_t1")
    second = t_prime(tag=f"{tag}_t2")
    structure = first.structure.union(second.structure)

    ends = [p, p, q]
    for index in range(3):
        s21 = extended_chooser_21(tag=f"{tag}_e21_{index}")
        structure = structure.union(
            s21.structure.rename(
                {s21.a: first.a_nodes[index], s21.b: ends[index]}
            )
        )
        s34 = extended_chooser_34(tag=f"{tag}_e34_{index}")
        structure = structure.union(
            s34.structure.rename(
                {s34.a: second.a_nodes[index], s34.b: ends[index]}
            )
        )
    return TTilde(structure, p, q)
