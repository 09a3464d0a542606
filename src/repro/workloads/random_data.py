"""Random database generators for the evaluation benchmarks.

The small generators (``random_digraph_db``, ``random_database``) build the
tuple sets eagerly — fine for unit-test sizes.  The ``scaled_*`` family
targets the multi-million-tuple instances of the columnar benchmarks: rows
are drawn with ``random.choices`` in batches, one column per call, and each
relation goes to :class:`~repro.cq.structure.Structure` as one int64
``(rows, arity)`` array built straight from those batches
(:func:`stream_matrix`), so no row ever exists as a python tuple and the
structure stores the array as its relation.  Without numpy the same draws
arrive as a tuple stream (:func:`stream_tuples`).  A ``skew`` knob draws
values Zipfian-distributed (rank ``r`` has weight ``1/r^skew``) to model the
heavy-hitter joins where hash kernels matter.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Iterator

from repro.cq.structure import Structure
from repro.cq.vocabulary import Vocabulary

try:  # optional: without numpy the scaled generators hand over tuples
    import numpy as np
except ImportError:  # pragma: no cover - depends on the environment
    np = None

#: Rows drawn per ``random.choices`` call in the streaming generators.
_STREAM_BATCH = 1 << 14


def _zipf_cum_weights(domain_size: int, skew: float) -> list[float] | None:
    """Cumulative Zipf(``skew``) weights over ``range(domain_size)``.

    ``skew <= 0`` means uniform — signalled as ``None`` so ``choices`` can
    take its faster uniform path.
    """
    if skew <= 0:
        return None
    weights = (1.0 / rank**skew for rank in range(1, domain_size + 1))
    return list(accumulate(weights))


def _column_batches(
    arity: int, count: int, domain_size: int, skew: float, rng: random.Random, batch: int
) -> Iterator[list[list[int]]]:
    """Up to ``batch`` rows at a time, as ``arity`` lists of column values."""
    population = range(domain_size)
    cum_weights = _zipf_cum_weights(domain_size, skew)
    remaining = count
    while remaining > 0:
        take = min(batch, remaining)
        yield [
            rng.choices(population, cum_weights=cum_weights, k=take)
            for _ in range(arity)
        ]
        remaining -= take


def stream_tuples(
    arity: int,
    count: int,
    domain_size: int,
    *,
    skew: float = 0.0,
    rng: random.Random,
    batch: int = _STREAM_BATCH,
) -> Iterator[tuple]:
    """Yield up to ``count`` random tuples without materializing them.

    Duplicates may repeat in the stream (the consuming ``Structure``
    collapses them), so the resulting relation holds *up to* ``count``
    distinct rows — the right trade for benchmark-scale instances, where an
    exact count is irrelevant but a rejection loop is not affordable.
    """
    for columns in _column_batches(arity, count, domain_size, skew, rng, batch):
        yield from zip(*columns)


def stream_matrix(
    arity: int,
    count: int,
    domain_size: int,
    *,
    skew: float = 0.0,
    rng: random.Random,
    batch: int = _STREAM_BATCH,
):
    """The rows :func:`stream_tuples` yields, as one int64 ``(count, arity)`` array.

    Makes the same ``rng`` draws in the same order, duplicates included.
    Without numpy it returns the :func:`stream_tuples` generator itself.
    """
    if np is None:
        return stream_tuples(
            arity, count, domain_size, skew=skew, rng=rng, batch=batch
        )
    blocks = [
        np.array(columns, dtype=np.int64).T
        for columns in _column_batches(arity, count, domain_size, skew, rng, batch)
    ]
    if not blocks:
        return np.empty((0, arity), dtype=np.int64)
    return np.concatenate(blocks)


def chain_join_query(num_relations: int, *, head_size: int = 1):
    """The acyclic chain ``Q(x0) :- R0(x0,x1), ..., R{n-1}(x{n-1},x{n})``.

    ``head_size`` keeps the first ``head_size`` chain variables in the head
    (1 by default: answers stay linear in the data, the Yannakakis regime).
    """
    from repro.cq import parse_query

    head = ", ".join(f"x{i}" for i in range(head_size))
    body = ", ".join(
        f"R{i}(x{i}, x{i + 1})" for i in range(num_relations)
    )
    return parse_query(f"Q({head}) :- {body}")


def chain_join_db(
    num_relations: int,
    tuples_per_relation: int,
    domain_size: int,
    *,
    skew: float = 0.0,
    seed: int | None = None,
) -> Structure:
    """A streamed instance for :func:`chain_join_query` at benchmark scale."""
    rng = random.Random(seed)
    vocabulary = {f"R{i}": 2 for i in range(num_relations)}
    relations = {
        name: stream_matrix(
            2, tuples_per_relation, domain_size, skew=skew, rng=rng
        )
        for name in vocabulary
    }
    return Structure(relations, vocabulary=vocabulary, domain=range(domain_size))


def scaled_database(
    vocabulary: Vocabulary | dict[str, int],
    domain_size: int,
    tuples_per_relation: int,
    *,
    skew: float = 0.0,
    seed: int | None = None,
) -> Structure:
    """Streaming, skew-aware counterpart of :func:`random_database`."""
    vocabulary = Vocabulary(vocabulary)
    rng = random.Random(seed)
    relations = {
        name: stream_matrix(
            vocabulary[name],
            tuples_per_relation,
            domain_size,
            skew=skew,
            rng=rng,
        )
        for name in sorted(vocabulary)
    }
    return Structure(relations, vocabulary=vocabulary, domain=range(domain_size))


def scaled_digraph_db(
    num_nodes: int,
    num_edges: int,
    *,
    skew: float = 0.0,
    seed: int | None = None,
) -> Structure:
    """Streaming, skew-aware counterpart of :func:`random_digraph_db`."""
    rng = random.Random(seed)
    return Structure(
        {"E": stream_matrix(2, num_edges, num_nodes, skew=skew, rng=rng)},
        vocabulary={"E": 2},
        domain=range(num_nodes),
    )


def random_digraph_db(
    num_nodes: int, num_edges: int, *, seed: int | None = None, loops: bool = False
) -> Structure:
    """A random directed graph database over relation ``E``."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    attempts = 0
    while len(edges) < num_edges and attempts < 50 * num_edges + 100:
        attempts += 1
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v and not loops:
            continue
        edges.add((u, v))
    return Structure({"E": edges}, vocabulary={"E": 2}, domain=range(num_nodes))


def random_database(
    vocabulary: Vocabulary | dict[str, int],
    domain_size: int,
    tuples_per_relation: int,
    *,
    seed: int | None = None,
) -> Structure:
    """A random database over an arbitrary vocabulary."""
    vocabulary = Vocabulary(vocabulary)
    rng = random.Random(seed)
    relations: dict[str, set[tuple]] = {}
    for name in sorted(vocabulary):
        arity = vocabulary[name]
        rows: set[tuple] = set()
        attempts = 0
        while len(rows) < tuples_per_relation and attempts < 50 * tuples_per_relation + 100:
            attempts += 1
            rows.add(tuple(rng.randrange(domain_size) for _ in range(arity)))
        relations[name] = rows
    return Structure(relations, vocabulary=vocabulary, domain=range(domain_size))


def social_network_db(
    num_people: int,
    avg_degree: float = 4.0,
    *,
    seed: int | None = None,
    communities: int = 4,
) -> Structure:
    """A community-structured "follows" graph (the intro's motivating shape).

    People mostly follow within their community with a few cross links —
    producing the skewed, locally dense graphs on which cyclic pattern
    queries are expensive and acyclic approximations shine.
    """
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    target = int(num_people * avg_degree)
    membership = [rng.randrange(communities) for _ in range(num_people)]
    by_community: dict[int, list[int]] = {}
    for person, community in enumerate(membership):
        by_community.setdefault(community, []).append(person)
    attempts = 0
    while len(edges) < target and attempts < 50 * target + 100:
        attempts += 1
        u = rng.randrange(num_people)
        if rng.random() < 0.85:
            pool = by_community[membership[u]]
            v = rng.choice(pool)
        else:
            v = rng.randrange(num_people)
        if u != v:
            edges.add((u, v))
    return Structure({"E": edges}, vocabulary={"E": 2}, domain=range(num_people))


def path_heavy_db(
    num_nodes: int, *, branches: int = 3, seed: int | None = None
) -> Structure:
    """Long chains with light branching: many paths, few cycles."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(num_nodes - 1)]
    for _ in range(branches * max(num_nodes // 10, 1)):
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u != v:
            edges.append((u, v))
    return Structure({"E": edges}, vocabulary={"E": 2}, domain=range(num_nodes))


def union_with_pattern(db: Structure, pattern: Structure, *, tag: str = "w") -> Structure:
    """Plant a disjoint copy of ``pattern`` into ``db`` (a witness)."""
    renamed = pattern.rename({v: (tag, v) for v in pattern.domain})
    return db.union(renamed)
