"""Named-column relations (sets of variable bindings) and their algebra.

The evaluation algorithms manipulate *bindings relations*: relations whose
columns are query variables.  The module provides the relational-algebra
kernel — selection of an atom pattern against a database, natural join,
semijoin and projection — all hash-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.cq.query import Atom
from repro.cq.structure import Structure
from repro.evaluation.stats import EvalStats

Value = Hashable
Row = tuple


@dataclass(frozen=True)
class Bindings:
    """A relation over named columns (query variables)."""

    columns: tuple[str, ...]
    rows: frozenset[Row]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate columns in {self.columns!r}")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row arity does not match columns")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def column_index(self) -> dict[str, int]:
        return {column: i for i, column in enumerate(self.columns)}

    def values_of(self, column: str) -> set[Value]:
        index = self.column_index()[column]
        return {row[index] for row in self.rows}


def unit() -> Bindings:
    """The relation with no columns and a single empty row (join identity)."""
    return Bindings((), frozenset({()}))


def empty(columns: Sequence[str] = ()) -> Bindings:
    return Bindings(tuple(columns), frozenset())


def atom_bindings(db: Structure, atom: Atom, stats: EvalStats | None = None) -> Bindings:
    """The bindings of one atom against the database.

    Handles repeated variables (``E(x, x)`` selects the diagonal).  Columns
    are the atom's distinct variables in order of first occurrence.
    """
    columns = tuple(dict.fromkeys(atom.args))
    rows: set[Row] = set()
    scanned = 0
    for fact in db.tuples(atom.relation):
        scanned += 1
        binding: dict[str, Value] = {}
        for variable, value in zip(atom.args, fact):
            if binding.setdefault(variable, value) != value:
                break
        else:
            rows.add(tuple(binding[c] for c in columns))
    if stats is not None:
        stats.tuples_scanned += scanned
        stats.saw_intermediate(len(rows))
    return Bindings(columns, frozenset(rows))


def project(b: Bindings, columns: Sequence[str], stats: EvalStats | None = None) -> Bindings:
    """Project onto the given columns (which must exist)."""
    columns = tuple(columns)
    index = b.column_index()
    missing = [c for c in columns if c not in index]
    if missing:
        raise ValueError(f"cannot project onto absent columns {missing!r}")
    positions = [index[c] for c in columns]
    rows = frozenset(tuple(row[p] for p in positions) for row in b.rows)
    if stats is not None:
        stats.saw_intermediate(len(rows))
    return Bindings(columns, rows)


def join(a: Bindings, b: Bindings, stats: EvalStats | None = None) -> Bindings:
    """Natural (hash) join on the shared columns."""
    shared = [c for c in a.columns if c in set(b.columns)]
    a_index = a.column_index()
    b_index = b.column_index()
    b_extra = [c for c in b.columns if c not in a_index]

    table: dict[Row, list[Row]] = {}
    for row in b.rows:
        key = tuple(row[b_index[c]] for c in shared)
        table.setdefault(key, []).append(row)

    out_columns = a.columns + tuple(b_extra)
    rows: set[Row] = set()
    for row in a.rows:
        key = tuple(row[a_index[c]] for c in shared)
        for match in table.get(key, ()):
            rows.add(row + tuple(match[b_index[c]] for c in b_extra))
    if stats is not None:
        stats.joins += 1
        stats.tuples_scanned += len(a.rows) + len(b.rows)
        stats.saw_intermediate(len(rows))
    return Bindings(out_columns, frozenset(rows))


def semijoin(a: Bindings, b: Bindings, stats: EvalStats | None = None) -> Bindings:
    """``a ⋉ b``: the rows of ``a`` that join with some row of ``b``."""
    shared = [c for c in a.columns if c in set(b.columns)]
    if not shared:
        if b.is_empty:
            return empty(a.columns)
        return a
    a_index = a.column_index()
    b_index = b.column_index()
    keys = {tuple(row[b_index[c]] for c in shared) for row in b.rows}
    rows = frozenset(
        row for row in a.rows if tuple(row[a_index[c]] for c in shared) in keys
    )
    if stats is not None:
        stats.semijoins += 1
        stats.tuples_scanned += len(a.rows) + len(b.rows)
    return Bindings(a.columns, rows)


def project_answer(b: Bindings, head: Sequence[str]) -> frozenset[Row]:
    """Project rows onto a head tuple that may repeat variables.

    Unlike :func:`project` this returns raw rows (not a relation), since a
    relation cannot have duplicate columns.
    """
    index = b.column_index()
    missing = [c for c in head if c not in index]
    if missing:
        raise ValueError(f"head variables {missing!r} not present")
    positions = [index[c] for c in head]
    return frozenset(tuple(row[p] for p in positions) for row in b.rows)


def product_extend(
    b: Bindings,
    new_columns: Sequence[str],
    candidates: dict[str, set[Value]],
    stats: EvalStats | None = None,
) -> Bindings:
    """Extend a relation with unconstrained columns over candidate values.

    Used by the bounded-treewidth evaluator for bag variables not covered by
    any atom assigned to the bag; the blow-up is bounded by ``|adom|^(k+1)``,
    which is exactly the theoretical cost of treewidth-``k`` evaluation.
    """
    result = b
    for column in new_columns:
        values = candidates[column]
        rows = frozenset(
            row + (value,) for row in result.rows for value in values
        )
        result = Bindings(result.columns + (column,), rows)
        if stats is not None:
            stats.saw_intermediate(len(rows))
    return result
