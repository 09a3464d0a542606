"""Finite relational structures (databases).

A structure ``D = <U, R_1, ..., R_l>`` has a finite universe ``U`` and one
finite relation per symbol of its vocabulary (Section 2).  Structures here are
immutable; all "mutation" helpers return new structures.  As in the paper, the
universe defaults to the active domain, but an explicit larger domain can be
supplied (isolated digraph vertices, for instance).

A relation has one of two storage forms, fixed at construction by the data:

* **int64 arrays**, when numpy is importable and the universe is non-empty
  and consists of plain ``int`` values in ``[-2**62, 2**62)``: each relation
  is a read-only column-major int64 ``(rows, arity)`` matrix, sorted and
  deduplicated once, and the universe's ``(min, max)`` is recorded as
  :attr:`Structure.int_span`.  The columnar evaluation kernels slice these
  matrices directly (:meth:`Structure.matrix`).  The frozenset-of-tuples view
  is built from them at most once, on the first tuple-level access
  (:attr:`~Structure.relations`, :meth:`~Structure.tuples`, equality,
  hashing, printing, the derived-structure constructors).
* **frozensets of tuples** for everything else: strings, bools, big or
  mixed values, empty universes, and so every query tableau.

Both forms answer every method identically; only the cost differs.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from repro.cq.vocabulary import Vocabulary

try:  # optional: without numpy every structure keeps frozensets of tuples
    import numpy as _np
except ImportError:  # pragma: no cover - depends on the environment
    _np = None

Element = Hashable
Tuple_ = tuple  # a row of a relation

#: Array storage holds ints in ``[-_INT_LIMIT, _INT_LIMIT)``: far enough
#: inside int64 that the difference of any two stored values is an int64.
_INT_LIMIT = 2**62


def _small_ints(values: Iterable[Element]) -> bool:
    """Whether every value is a plain (non-bool) int inside the int64 bound."""
    return all(
        type(value) is int and -_INT_LIMIT <= value < _INT_LIMIT
        for value in values
    )


def _int_rows(block: list, new_values: set) -> bool:
    """Whether a list of rows holds only plain ints inside the int64 bound.

    Every entry's type is checked, not only the distinct values: ``True``
    and ``1.0`` hash and compare equal to ``1`` and would hide in a set.
    ``new_values`` are the block's values not bound-checked before.
    """
    return _small_ints(new_values) and set(
        map(type, chain.from_iterable(block))
    ) <= {int}


def _materialize(rows):
    """A relation's rows as an integer matrix (array input) or a list of tuples.

    Only a 2-D integer array whose values lie inside the int64 bound stays
    an array; any other input is read row by row into tuples, as always.
    """
    if (
        _np is not None
        and isinstance(rows, _np.ndarray)
        and rows.ndim == 2
        and rows.dtype.kind in "iu"
    ):
        if not rows.size or (
            int(rows.min()) >= -_INT_LIMIT and int(rows.max()) < _INT_LIMIT
        ):
            return rows
        return list(map(tuple, rows.tolist()))
    return list(map(tuple, rows))


def _check_arity(name: str, block, arities: dict[str, int]) -> None:
    """Record the arity of ``name`` from its rows; raise on a mismatch."""
    if not len(block):
        return
    if isinstance(block, list):
        expected = arities.setdefault(name, len(block[0]))
        bad = None
        if set(map(len, block)) != {expected}:
            bad = next(row for row in block if len(row) != expected)
    else:
        expected = arities.setdefault(name, block.shape[1])
        bad = tuple(block[0].tolist()) if block.shape[1] != expected else None
    if bad is not None:
        raise ValueError(
            f"tuple {bad!r} has length {len(bad)}, but {name!r} has arity {expected}"
        )


def _values(block) -> set[Element]:
    """The distinct values of a block of rows."""
    if isinstance(block, list):
        return set(chain.from_iterable(block))
    return set(block.ravel().tolist())


def _as_frozenset(block) -> frozenset[Tuple_]:
    if isinstance(block, frozenset):
        return block
    if isinstance(block, list):
        return frozenset(block)
    return frozenset(map(tuple, block.tolist()))


def _int_matrix(block, arity: int):
    """The rows as a read-only F-order int64 matrix, sorted and deduplicated."""
    if isinstance(block, list):
        block = _np.fromiter(
            chain.from_iterable(block), dtype=_np.int64, count=len(block) * arity
        ).reshape(len(block), arity)
    if len(block) > 1 and arity:
        block = _sorted_distinct_rows(block.astype(_np.int64, copy=False))
    matrix = _np.array(block, dtype=_np.int64, order="F")
    matrix.flags.writeable = False
    return matrix


def _sorted_distinct_rows(block):
    """The distinct rows of an int64 matrix in lexicographic order.

    Rows pack into one mixed-radix int64 key when the value span allows,
    so the sort is a single 1-D sort; wider spans take ``np.unique`` over
    whole rows, several times slower.
    """
    low = int(block.min())
    radix = int(block.max()) - low + 1
    if radix ** block.shape[1] > _INT_LIMIT:
        return _np.unique(block, axis=0)
    key = block[:, 0] - low
    for column in block.T[1:]:
        key *= radix
        key += column - low
    key.sort()
    keep = _np.empty(len(key), dtype=bool)
    keep[0] = True
    _np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    rows = _np.empty((len(key), block.shape[1]), dtype=_np.int64, order="F")
    for position in range(block.shape[1] - 1, 0, -1):
        key, rows[:, position] = _np.divmod(key, radix)
    rows[:, 0] = key
    return rows + low


class Structure:
    """An immutable finite relational structure.

    Parameters
    ----------
    relations:
        Mapping from relation names to iterables of tuples, or to 2-D
        integer numpy arrays with one row per tuple.  All tuples of a
        relation must have the same length (the relation's arity).
    vocabulary:
        Optional explicit vocabulary.  Needed to give an arity to relations
        with no tuples; inferred from the data otherwise.
    domain:
        Optional explicit universe; the active domain is always included.
    """

    __slots__ = ("_relations", "_arrays", "_span", "_domain", "_vocabulary", "_hash")

    def __init__(
        self,
        relations: Mapping[str, Iterable[Tuple_]],
        *,
        vocabulary: Vocabulary | Mapping[str, int] | None = None,
        domain: Iterable[Element] = (),
    ) -> None:
        arities: dict[str, int] = dict(vocabulary) if vocabulary is not None else {}
        active: set[Element] = set(domain)
        as_arrays = _np is not None and _small_ints(active)
        stored: dict = {}
        for name, rows in relations.items():
            block = _materialize(rows)
            _check_arity(name, block, arities)
            values = _values(block)
            if (
                as_arrays
                and isinstance(block, list)
                and not _int_rows(block, values - active)
            ):
                as_arrays = False
                stored = {key: _as_frozenset(rows) for key, rows in stored.items()}
            active |= values
            if as_arrays:
                stored[name] = _int_matrix(block, arities.get(name, 0))
            else:
                stored[name] = _as_frozenset(block)
        self._vocabulary = Vocabulary(arities)
        self._domain = frozenset(active)
        self._hash: int | None = None
        if as_arrays and active:
            for name in arities:
                if name not in stored:
                    stored[name] = _int_matrix([], arities[name])
            self._arrays = stored
            self._relations = None
            self._span = (min(active), max(active))
        else:
            frozen = {key: _as_frozenset(rows) for key, rows in stored.items()}
            for name in arities:
                frozen.setdefault(name, frozenset())
            self._arrays = None
            self._relations = frozen
            self._span = None

    def __getstate__(self):
        # The tuple view and the hash are rebuilt on demand after unpickling.
        stored = self._arrays if self._arrays is not None else self._relations
        return stored, self._span, self._domain, self._vocabulary

    def __setstate__(self, state) -> None:
        stored, self._span, self._domain, self._vocabulary = state
        self._hash = None
        if self._span is None:
            self._arrays, self._relations = None, stored
        else:
            for matrix in stored.values():
                matrix.flags.writeable = False
            self._arrays, self._relations = stored, None

    # ------------------------------------------------------------------ views

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def domain(self) -> frozenset[Element]:
        return self._domain

    @property
    def int_span(self) -> tuple[int, int] | None:
        """``(min, max)`` of the universe when relations are int64 arrays.

        ``None`` when the structure keeps frozensets of tuples.
        """
        return self._span

    def matrix(self, name: str):
        """Relation ``name`` as its read-only int64 ``(rows, arity)`` matrix.

        Only defined when :attr:`int_span` is not ``None``; an unknown name
        gives an empty ``(0, 0)`` matrix.  The matrix is the stored data
        itself, so callers slice it and never write to it.
        """
        if self._arrays is None:
            raise ValueError("this structure stores no int64 arrays")
        matrix = self._arrays.get(name)
        return matrix if matrix is not None else _int_matrix([], 0)

    @property
    def relations(self) -> Mapping[str, frozenset[Tuple_]]:
        if self._relations is None:
            self._relations = {
                name: _as_frozenset(matrix) for name, matrix in self._arrays.items()
            }
        return self._relations

    def tuples(self, name: str) -> frozenset[Tuple_]:
        """All tuples of relation ``name`` (empty if the name is unknown)."""
        relations = self._relations
        if relations is None:
            if name not in self._arrays:
                return frozenset()
            relations = self.relations
        return relations.get(name, frozenset())

    def arity(self, name: str) -> int:
        return self._vocabulary[name]

    def facts(self) -> Iterator[tuple[str, Tuple_]]:
        """Iterate over all facts ``(relation name, tuple)``."""
        relations = self.relations
        for name in sorted(relations):
            for row in sorted(relations[name], key=repr):
                yield name, row

    @property
    def total_tuples(self) -> int:
        """Total number of facts, written ``|D|`` in complexity bounds."""
        stored = self._arrays if self._arrays is not None else self._relations
        return sum(len(rows) for rows in stored.values())

    def __len__(self) -> int:
        """Number of elements of the universe."""
        return len(self._domain)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Structure):
            return self._domain == other._domain and self.relations == other.relations
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._domain, tuple(sorted((k, v) for k, v in self.relations.items())))
            )
        return self._hash

    def __repr__(self) -> str:
        relations = self.relations
        parts = []
        for name in sorted(relations):
            rows = ",".join(repr(row) for row in sorted(relations[name], key=repr))
            parts.append(f"{name}={{{rows}}}")
        return f"Structure(|dom|={len(self._domain)}, {'; '.join(parts)})"

    # ------------------------------------------------------------- containment

    def is_contained_in(self, other: "Structure") -> bool:
        """Database containment: every relation of ``self`` is a subset."""
        return all(
            rows <= other.tuples(name) for name, rows in self.relations.items()
        )

    def is_strictly_contained_in(self, other: "Structure") -> bool:
        """Containment with at least one strictly smaller relation."""
        if not self.is_contained_in(other):
            return False
        return any(
            self.tuples(name) < rows for name, rows in other.relations.items()
        )

    # ------------------------------------------------------------ constructors

    def induced(self, elements: Iterable[Element]) -> "Structure":
        """The substructure induced by ``elements``.

        Keeps exactly the tuples all of whose entries lie in ``elements``.
        """
        keep = frozenset(elements)
        return Structure(
            {
                name: (row for row in rows if all(value in keep for value in row))
                for name, rows in self.relations.items()
            },
            vocabulary=self._vocabulary,
            domain=keep & self._domain,
        )

    def without(self, element: Element) -> "Structure":
        """The substructure induced by dropping one element."""
        return self.induced(self._domain - {element})

    def rename(self, mapping: Mapping[Element, Element] | Callable[[Element], Element]) -> "Structure":
        """Apply a function to every element; the homomorphic image of ``self``.

        If ``mapping`` is injective this is a renaming; otherwise it is a
        quotient (tuples are mapped pointwise and duplicates collapse).
        """
        if callable(mapping) and not isinstance(mapping, Mapping):
            func = mapping
        else:
            table = dict(mapping)
            func = lambda x: table.get(x, x)  # noqa: E731 - tiny adapter
        return Structure(
            {
                name: (tuple(func(value) for value in row) for row in rows)
                for name, rows in self.relations.items()
            },
            vocabulary=self._vocabulary,
            domain=(func(value) for value in self._domain),
        )

    quotient = rename  # a quotient is a rename by a non-injective map

    def add_facts(self, facts: Iterable[tuple[str, Tuple_]]) -> "Structure":
        """A new structure with extra facts added."""
        extended: dict[str, set[Tuple_]] = {
            name: set(rows) for name, rows in self.relations.items()
        }
        for name, row in facts:
            extended.setdefault(name, set()).add(tuple(row))
        return Structure(extended, domain=self._domain)

    def remove_facts(self, facts: Iterable[tuple[str, Tuple_]]) -> "Structure":
        """A new structure with the given facts removed (domain preserved)."""
        trimmed: dict[str, set[Tuple_]] = {
            name: set(rows) for name, rows in self.relations.items()
        }
        for name, row in facts:
            trimmed.get(name, set()).discard(tuple(row))
        return Structure(trimmed, vocabulary=self._vocabulary, domain=self._domain)

    def union(self, other: "Structure") -> "Structure":
        """Relation-wise union (shared elements are identified)."""
        vocabulary = self._vocabulary.merge(other._vocabulary)
        names = set(self.relations) | set(other.relations)
        return Structure(
            {name: self.tuples(name) | other.tuples(name) for name in names},
            vocabulary=vocabulary,
            domain=self._domain | other._domain,
        )

    def disjoint_union(
        self, other: "Structure", *, tags: tuple[str, str] = ("L", "R")
    ) -> tuple["Structure", dict[Element, Element], dict[Element, Element]]:
        """Disjoint union; returns the union plus the two injection maps."""
        left = {value: (tags[0], value) for value in self._domain}
        right = {value: (tags[1], value) for value in other._domain}
        return (
            self.rename(left).union(other.rename(right)),
            left,
            right,
        )

    def relabel_canonically(self, prefix: str = "v") -> tuple["Structure", dict[Element, Element]]:
        """Rename elements to ``v0, v1, ...`` in a deterministic order."""
        ordered = sorted(self._domain, key=repr)
        mapping = {value: f"{prefix}{index}" for index, value in enumerate(ordered)}
        return self.rename(mapping), mapping
