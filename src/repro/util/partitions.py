"""Set partitions, enumerated via restricted growth strings.

The approximation algorithms of the paper enumerate homomorphic images of a
tableau.  Every homomorphic image of a structure is (isomorphic to) a quotient
by the kernel of the homomorphism, so enumerating images amounts to
enumerating set partitions of the domain (Theorem 4.1 of the paper).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Sequence


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    """Number of set partitions of an ``n``-element set.

    Computed with the Bell triangle.  ``bell_number(0) == 1``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    row = [1]
    for _ in range(n):
        new_row = [row[-1]]
        for value in row:
            new_row.append(new_row[-1] + value)
        row = new_row
    return row[0]


def rgs_codes(
    n: int, *, prefix: Sequence[int] = ()
) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length ``n`` in lexicographic order.

    A restricted growth string satisfies ``a[0] = 0`` and
    ``a[i] <= max(a[0..i-1]) + 1``; strings of length ``n`` are in bijection
    with set partitions of an ``n``-element set.  With ``prefix`` the first
    ``len(prefix)`` positions are held fixed and only the completions are
    enumerated — this is the sharding primitive of the parallel approximation
    pipeline: distinct prefixes enumerate disjoint slices of the partition
    stream, and the union over all prefixes of a given depth is the full
    stream, still in global lexicographic order when prefixes are visited in
    lexicographic order.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    prefix = tuple(prefix)
    if len(prefix) > n:
        raise ValueError(f"prefix of length {len(prefix)} exceeds n={n}")
    for i, code in enumerate(prefix):
        bound = max(prefix[:i], default=-1) + 1
        if code < 0 or code > bound:
            raise ValueError(f"{prefix!r} is not a restricted growth string")
    if n == 0:
        yield ()
        return
    fixed = len(prefix)
    codes = list(prefix) + [0] * (n - fixed)
    while True:
        yield tuple(codes)
        # Advance the free suffix to the next restricted growth string.
        i = n - 1
        while i > fixed - 1 and i > 0:
            bound = max(codes[:i]) + 1
            if codes[i] < bound:
                codes[i] += 1
                for j in range(i + 1, n):
                    codes[j] = 0
                break
            i -= 1
        else:
            return


def rgs_prefixes(depth: int) -> list[tuple[int, ...]]:
    """All restricted growth strings of length ``depth``, lexicographically.

    There are ``bell_number(depth)`` of them; they shard the partitions of
    any set with at least ``depth`` elements into disjoint slices.
    """
    return list(rgs_codes(depth))


def _blocks_of(
    items: Sequence[Hashable], codes: Sequence[int]
) -> tuple[tuple[Hashable, ...], ...]:
    block_count = max(codes, default=-1) + 1
    blocks: list[list[Hashable]] = [[] for _ in range(block_count)]
    for item, code in zip(items, codes):
        blocks[code].append(item)
    return tuple(tuple(block) for block in blocks)


def set_partitions(
    items: Sequence[Hashable], *, prefix: Sequence[int] | None = None
) -> Iterator[tuple[tuple[Hashable, ...], ...]]:
    """Yield every set partition of ``items`` as a tuple of blocks.

    Partitions are produced in restricted-growth-string order; each block is a
    tuple preserving the original order of ``items``, and blocks are ordered
    by their first element.  The number of partitions is ``bell_number(n)``.
    With ``prefix`` (a restricted growth string over the first ``len(prefix)``
    items) only the partitions extending that prefix are produced — see
    :func:`rgs_codes`.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        if prefix:
            raise ValueError("non-empty prefix for an empty item sequence")
        yield ()
        return
    for codes in rgs_codes(n, prefix=prefix or ()):
        yield _blocks_of(items, codes)


def code_coarsens(
    fine: Sequence[int] | None, coarse: Sequence[int] | None
) -> bool:
    """Whether the partition coded by ``fine`` refines the one by ``coarse``.

    Both arguments are restricted growth strings over the same element
    order.  ``fine`` refines ``coarse`` when every block of ``fine`` lies
    inside a single block of ``coarse`` — equivalently, the block map
    ``fine[i] → coarse[i]`` is well defined.  When it is, the quotient map
    ``T/fine → T/coarse`` is a homomorphism of the quotient tableaux, which
    is what makes this an O(n) positive fast path for the frontier's order
    queries.  ``None`` on either side means "no code available" and answers
    ``False``.
    """
    if fine is None or coarse is None:
        return False
    image: dict[int, int] = {}
    for f, c in zip(fine, coarse):
        if image.setdefault(f, c) != c:
            return False
    return True


class RefinementTrie:
    """A trie over restricted-growth-string partition codes answering
    "does some stored code refine this one?" in sublinear time.

    Stored codes share one length (one base element order).  The trie
    branches on code positions: a node at depth ``d`` keeps one child per
    block id ever seen at position ``d`` below it.  A query walks the trie
    with the candidate code ``c``, maintaining the partial block map of
    :func:`code_coarsens` — since stored codes are restricted growth
    strings, the blocks of a stored code appear in order ``0, 1, 2, …``,
    so the partial map is just a list ``assigned`` with ``assigned[v]``
    the ``c``-block that stored block ``v`` must land in.  A child ``v``
    is compatible iff it is the next fresh block (``v == len(assigned)``,
    which may land anywhere) or its assigned ``c``-block equals ``c[d]``.
    Only compatible paths are explored, so a lookup touches the stored
    codes sharing a compatible prefix instead of scanning every entry —
    the linear antichain scan this structure replaces paid
    ``O(entries · n)`` per query.

    Each stored code carries a payload (the frontier's repair witness).
    Any hit is as good as any other for the caller — see
    :meth:`repro.core.pipeline.Frontier._refinement_lookup`'s uniqueness
    argument — so the walk returns the first complete match it finds.

    Nodes are plain dicts held in memory.  :meth:`codes` exports the trie
    as picklable ``(code, payload)`` pairs and :meth:`add` rebuilds it,
    which is how shard workers ship their kernel tries to the driver.
    """

    __slots__ = ("_root", "_size")

    #: Leaf key for the payload — no block id is negative, so it can never
    #: collide with a child edge.
    _LEAF = -1

    def __init__(self) -> None:
        self._root: dict = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, codes: Sequence[int], payload: object = None) -> None:
        """Store ``codes`` with ``payload`` (overwriting an equal code)."""
        node = self._root
        for value in codes:
            child = node.get(value)
            if child is None:
                child = node[value] = {}
            node = child
        if self._LEAF not in node:
            self._size += 1
        node[self._LEAF] = payload

    def codes(self) -> Iterator[tuple[tuple[int, ...], object]]:
        """Yield every stored ``(code, payload)`` pair.

        The export side of shipping a trie across a process or network
        boundary as plain picklable tuples: the receiver rebuilds with
        :meth:`add`.  Pairs come depth-first in each node's child order,
        so re-adding them in this order rebuilds every node's children in
        the same order, and lookups surface the same hits as before.
        """
        stack: list[tuple[dict, tuple[int, ...]]] = [(self._root, ())]
        while stack:
            node, prefix = stack.pop()
            for value, child in reversed(node.items()):
                if value == self._LEAF:
                    yield prefix, child
                else:
                    stack.append((child, prefix + (value,)))

    def find_refinement(
        self, codes: Sequence[int]
    ) -> tuple[bool, object | None]:
        """``(hit, payload)`` for some stored code refining ``codes``."""
        codes = tuple(codes)
        n = len(codes)
        # Depth-first over compatible children; each stack frame is
        # (node, depth, assigned-prefix).  ``assigned`` is shared copy-on-
        # extend: fresh blocks append, so sibling branches need their own
        # tuple — kept small by the restricted-growth structure.
        stack: list[tuple[dict, int, tuple[int, ...]]] = [(self._root, 0, ())]
        while stack:
            node, depth, assigned = stack.pop()
            if depth == n:
                if self._LEAF in node:
                    return True, node[self._LEAF]
                continue
            c_block = codes[depth]
            fresh = len(assigned)
            for value, child in node.items():
                if value == self._LEAF:
                    continue
                if value == fresh:
                    stack.append((child, depth + 1, assigned + (c_block,)))
                elif value < fresh and assigned[value] == c_block:
                    stack.append((child, depth + 1, assigned))
        return False, None

    def find_coarsening(
        self, codes: Sequence[int]
    ) -> tuple[bool, object | None]:
        """``(hit, payload)`` for some stored code that ``codes`` refines.

        The dual of :meth:`find_refinement`: a hit means every block of
        ``codes`` lies inside a block of some stored code.  The walk
        maintains the map *query-block → stored-block* instead — a child
        is compatible when the query block at this position is unbound or
        already bound to exactly this stored block.  (``codes`` need not be
        a restricted growth string here; only its equality pattern
        matters.)
        """
        codes = tuple(codes)
        n = len(codes)
        hit: list = [None]

        def walk(node: dict, depth: int, image: dict) -> bool:
            if depth == n:
                if self._LEAF in node:
                    hit[0] = node[self._LEAF]
                    return True
                return False
            query_block = codes[depth]
            bound = image.get(query_block)
            for value, child in node.items():
                if value == self._LEAF:
                    continue
                if bound is None:
                    image[query_block] = value
                    if walk(child, depth + 1, image):
                        return True
                    del image[query_block]
                elif bound == value:
                    if walk(child, depth + 1, image):
                        return True
            return False

        if walk(self._root, 0, {}):
            return True, hit[0]
        return False, None


def partition_to_mapping(
    partition: Iterable[Sequence[Hashable]],
) -> dict[Hashable, Hashable]:
    """Map every element of every block to the block's first element.

    The resulting mapping realizes the quotient by the partition, using block
    representatives as the quotient's domain.
    """
    mapping: dict[Hashable, Hashable] = {}
    for block in partition:
        block = tuple(block)
        if not block:
            raise ValueError("partition blocks must be non-empty")
        representative = block[0]
        for element in block:
            if element in mapping:
                raise ValueError(f"element {element!r} occurs in two blocks")
            mapping[element] = representative
    return mapping


def canonical_partition(
    partition: Iterable[Sequence[Hashable]],
) -> frozenset[frozenset[Hashable]]:
    """A hashable, order-insensitive form of a partition."""
    return frozenset(frozenset(block) for block in partition)


def refinements(
    partition: Sequence[Sequence[Hashable]],
) -> Iterator[tuple[tuple[Hashable, ...], ...]]:
    """Yield all proper refinements of ``partition``.

    A refinement splits at least one block into smaller blocks; the trivial
    refinement (the partition itself) is not produced.  Used by the greedy
    descent of the approximation search.
    """
    blocks = [tuple(block) for block in partition]

    def sub_partitions(block: tuple[Hashable, ...]) -> list[tuple[tuple[Hashable, ...], ...]]:
        return list(set_partitions(block))

    choices = [sub_partitions(block) for block in blocks]

    def recurse(index: int, acc: list[tuple[Hashable, ...]], proper: bool) -> Iterator[
        tuple[tuple[Hashable, ...], ...]
    ]:
        if index == len(blocks):
            if proper:
                yield tuple(acc)
            return
        for option in choices[index]:
            yield from recurse(
                index + 1, acc + list(option), proper or len(option) > 1
            )

    yield from recurse(0, [], False)
