"""Column-major relations and hash-based operator kernels.

The tuple-at-a-time :class:`~repro.evaluation.relation.Bindings` stores a
relation as a ``frozenset`` of row tuples — fine for unit tests, hopeless
past ~10^4 tuples: every join probes a dict one row at a time through the
interpreter.  This module stores a relation as *parallel value columns*
(:class:`ColumnarBindings`) and implements ``join`` / ``semijoin`` /
``project`` as batched hash kernels:

* **numpy backend** (optional extra ``repro[fast]``): columns are int64
  arrays (values dictionary-encoded unless the active domain is already
  int64-safe).  Multi-column keys pack into one int64 mixed-radix key
  (first column most significant, digits ``col - base``, with ``base``
  and ``radix`` fixed once per kernel from the database's domain, so
  every relation packs alike); only a domain whose span would overflow
  ``2**62`` falls back to a void view over the contiguous row matrix.
  Each relation is flattened once per kernel into an int64 row matrix
  that every atom over it slices.  Deduplication sorts and keeps
  the first of each run of equal neighbours (:func:`_unique`), and
  per-side group indexes (``np.unique(..., return_inverse=True)``) are
  cached on the relation so repeated semijoins against the same key —
  the Yannakakis sweeps — hash each side once.  Join emission is the
  classic argsort/bincount/offsets/``np.repeat`` gather; no python-level
  loop touches a row.
* **python backend**: columns are plain lists and the cached per-key
  index is a ``dict key -> row indexes``.  Same operator semantics,
  identical answers — the differential suite pins both backends to the
  tuple oracle bit for bit.

Deduplication discipline: ``scan`` (atom bindings over a set of facts)
and ``project`` are the only dedup points.  Joins of duplicate-free
inputs are duplicate-free, so join/semijoin never pay a dedup pass.
"""

from __future__ import annotations

from itertools import chain

from .backend import active_numpy
from .stats import EvalStats


def _unique(np_, keys):
    """Sorted distinct values of a 1-D key array, like ``np.unique(keys)``.

    Sorts and keeps each value that differs from its left neighbour:
    numpy's ``np.unique`` takes a far slower hash path on int64 input.
    Void keys (the multi-column fallback) still go through ``np.unique``.
    """
    if keys.dtype.kind == "V":
        return np_.unique(keys)
    ordered = np_.sort(keys)
    if len(ordered) < 2:
        return ordered
    keep = np_.empty(len(ordered), dtype=bool)
    keep[0] = True
    np_.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class ValueCodec:
    """Dictionary encoding between domain values and dense int codes.

    Only instantiated when the database domain is not already int64-safe
    (strings, tuples, bools, big ints); the common integer-domain case
    skips encoding entirely and the arrays hold the values themselves.
    """

    __slots__ = ("encode", "decode")

    def __init__(self) -> None:
        self.encode: dict = {}
        self.decode: list = []

    def code(self, value) -> int:
        got = self.encode.get(value)
        if got is None:
            got = len(self.decode)
            self.encode[value] = got
            self.decode.append(value)
        return got


class ColumnarBindings:
    """A relation as parallel value columns plus lazy per-key indexes.

    ``data[i]`` holds the values of ``columns[i]`` for every row; rows are
    duplicate-free.  ``length`` is explicit so zero-column relations (the
    unit relation and boolean intermediates) keep their cardinality.
    ``_indexes`` caches hash/group indexes keyed by column subset — built
    on first use by a kernel, reused across the up/down semijoin sweeps.
    """

    __slots__ = ("columns", "data", "length", "_indexes")

    def __init__(self, columns, data, length: int) -> None:
        self.columns = tuple(columns)
        self.data = list(data)
        self.length = length
        self._indexes: dict = {}

    def __len__(self) -> int:
        return self.length

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    def column_index(self) -> dict:
        return {name: pos for pos, name in enumerate(self.columns)}


class ColumnarKernel:
    """Operator kernels over :class:`ColumnarBindings`.

    The backend (numpy vs pure python) is fixed at construction from
    :func:`repro.evaluation.backend.active_numpy`.  One kernel serves one
    evaluation over one database: the first database it scans binds it,
    and :meth:`atom_bindings` raises ``ValueError`` on any other.  Per
    kernel it owns the value codec (or the identity-encoding decision),
    the key-packing ``base`` and ``radix``, and on the numpy backend one
    int64 ``(rows, arity)`` matrix per relation, flattened on the first
    scan of that relation and sliced by every later atom over it.  All of
    it dies with the kernel, so every evaluation reads its database cold.
    """

    engine = "columnar"

    #: Magnitude bound under which raw ints are stored without encoding,
    #: and the bound on a packed multi-column key.
    _INT64_LIMIT = 2**62

    def __init__(self, stats: EvalStats | None = None) -> None:
        self.stats = stats
        self._np = active_numpy()
        #: The database this kernel serves; None until the first scan.
        self._db = None
        #: Dictionary encoding, or None for identity int64 encoding.
        self._codec: ValueCodec | None = None
        #: Mixed-radix packing of multi-column keys: every stored value
        #: lies in ``[base, base + radix)``.
        self._base = 0
        self._radix = 1
        #: Relation name -> read-only int64 ``(rows, arity)`` matrix.
        self._matrices: dict = {}

    # ------------------------------------------------------------------
    # encoding

    def _bind(self, db) -> None:
        """Bind the kernel to ``db`` on first use; refuse any other."""
        if self._db is None:
            self._db = db
            self._decide_encoding(db)
        elif db is not self._db:
            raise ValueError(
                "a ColumnarKernel serves one database; make a new kernel "
                "for another"
            )

    def _decide_encoding(self, db) -> None:
        if self._np is None:
            # python backend stores raw values; no encoding ever needed
            return
        limit = self._INT64_LIMIT
        domain = db.domain
        identity = True
        for value in domain:
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or not -limit <= value < limit
            ):
                identity = False
                break
        if not identity:
            self._codec = ValueCodec()
            self._radix = max(len(domain), 1)
        elif domain:
            self._base = min(domain)
            self._radix = max(domain) - self._base + 1

    def _encode_value(self, value):
        if self._codec is not None:
            return self._codec.code(value)
        return value

    def _decode_column(self, column) -> list:
        values = column.tolist() if self._np is not None else list(column)
        if self._codec is not None:
            decode = self._codec.decode
            return [decode[code] for code in values]
        return values

    # ------------------------------------------------------------------
    # constructors

    def unit(self) -> ColumnarBindings:
        return ColumnarBindings((), [], 1)

    def empty(self, columns=()) -> ColumnarBindings:
        np_ = self._np
        if np_ is not None:
            data = [np_.empty(0, dtype=np_.int64) for _ in columns]
        else:
            data = [[] for _ in columns]
        return ColumnarBindings(columns, data, 0)

    def atom_bindings(self, db, atom) -> ColumnarBindings:
        """Scan one atom's facts into columns, filtering repeated variables."""
        self._bind(db)
        rows = db.tuples(atom.relation)
        scanned = len(rows)
        if self.stats is not None:
            self.stats.tuples_scanned += scanned
        arity = len(atom.args)
        columns = tuple(dict.fromkeys(atom.args))
        first = {}
        for pos, var in enumerate(atom.args):
            first.setdefault(var, pos)
        repeats = [
            (first[var], pos)
            for pos, var in enumerate(atom.args)
            if first[var] != pos
        ]
        if arity == 0:
            out = ColumnarBindings((), [], 1 if scanned else 0)
        elif scanned == 0:
            out = self.empty(columns)
        elif self._np is not None:
            matrix = self._relation_matrix(atom.relation, rows, arity)
            out = self._scan_np(matrix, columns, first, repeats)
        else:
            out = self._scan_py(rows, columns, first, repeats)
        if self.stats is not None:
            self.stats.record_op("scan", scanned=scanned, emitted=out.length)
            self.stats.saw_intermediate(out.length)
        return out

    def _relation_matrix(self, name, rows, arity):
        """The relation's rows as an int64 matrix, flattened once per kernel.

        Stored column-major and read-only, so an atom without repeated
        variables takes its columns as views.
        """
        matrix = self._matrices.get(name)
        if matrix is not None:
            return matrix
        np_ = self._np
        count = len(rows)
        if self._codec is not None:
            code = self._codec.code
            flat = np_.fromiter(
                (code(value) for row in rows for value in row),
                dtype=np_.int64,
                count=count * arity,
            )
        else:
            flat = np_.fromiter(
                chain.from_iterable(rows), dtype=np_.int64, count=count * arity
            )
        matrix = np_.asfortranarray(flat.reshape(count, arity))
        matrix.flags.writeable = False
        self._matrices[name] = matrix
        return matrix

    def _scan_np(self, matrix, columns, first, repeats) -> ColumnarBindings:
        if not repeats:
            data = [matrix[:, first[name]] for name in columns]
            return ColumnarBindings(columns, data, matrix.shape[0])
        mask = None
        for first_pos, pos in repeats:
            eq = matrix[:, first_pos] == matrix[:, pos]
            mask = eq if mask is None else mask & eq
        data = [matrix[mask, first[name]] for name in columns]
        return ColumnarBindings(columns, data, len(data[0]))

    def _scan_py(self, rows, columns, first, repeats) -> ColumnarBindings:
        data = [[] for _ in columns]
        positions = [first[name] for name in columns]
        for row in rows:
            if repeats and any(row[a] != row[b] for a, b in repeats):
                continue
            for out, pos in zip(data, positions):
                out.append(row[pos])
        return ColumnarBindings(columns, data, len(data[0]) if data else 0)

    # ------------------------------------------------------------------
    # key indexes

    def _packs(self, width: int) -> bool:
        """Whether ``width``-column keys fit one int64 mixed-radix key."""
        return self._radix**width <= self._INT64_LIMIT

    def _pack(self, arrays):
        """One int64 key per row, first column most significant."""
        base, radix = self._base, self._radix
        key = arrays[0] - base
        for col in arrays[1:]:
            key *= radix
            key += col - base
        return key

    def _unpack(self, keys, width: int) -> list:
        """The ``width`` columns of packed ``keys`` (inverse of ``_pack``)."""
        np_ = self._np
        base, radix = self._base, self._radix
        data = []
        for _ in range(width - 1):
            keys, digit = np_.divmod(keys, radix)
            data.append(digit + base)
        data.append(keys + base)
        data.reverse()
        return data

    def _key1d(self, rel: ColumnarBindings, cols: tuple):
        """Collapse the key columns to one 1-D array.

        Multi-column keys pack into one int64 (:meth:`_pack`) unless the
        domain's span overflows, and fall back to a void view then.
        """
        np_ = self._np
        index = rel.column_index()
        arrays = [rel.data[index[name]] for name in cols]
        if len(arrays) == 1:
            return arrays[0]
        if self._packs(len(arrays)):
            return self._pack(arrays)
        stacked = np_.ascontiguousarray(np_.stack(arrays, axis=1))
        void = np_.dtype((np_.void, stacked.dtype.itemsize * len(arrays)))
        return stacked.view(void).reshape(-1)

    def _groups_np(self, rel: ColumnarBindings, cols: tuple):
        """Cached ``(unique_keys, inverse, built_rows)`` for the numpy path.

        ``built_rows`` is ``rel.length`` when this call built the index and
        0 on a cache hit — callers charge it as ``rows_hashed``.
        """
        cache_key = ("groups", cols)
        got = rel._indexes.get(cache_key)
        if got is not None:
            return got[0], got[1], 0
        uniq, inverse = self._np.unique(self._key1d(rel, cols), return_inverse=True)
        got = (uniq, inverse.reshape(-1))
        rel._indexes[cache_key] = got
        return got[0], got[1], rel.length

    def _uniq_np(self, rel: ColumnarBindings, cols: tuple):
        """Cached ``(unique_keys, built_rows)`` — the semijoin build side.

        Cheaper than :meth:`_groups_np` (no inverse array); reuses a full
        group index when one is already cached for the same key.
        """
        groups = rel._indexes.get(("groups", cols))
        if groups is not None:
            return groups[0], 0
        cache_key = ("uniq", cols)
        got = rel._indexes.get(cache_key)
        if got is not None:
            return got, 0
        uniq = _unique(self._np, self._key1d(rel, cols))
        rel._indexes[cache_key] = uniq
        return uniq, rel.length

    #: Largest direct-address table span relative to the keyed row count.
    _LUT_SPAN_FACTOR = 16
    _LUT_SPAN_MIN = 1 << 20

    def _lut_span_ok(self, base: int, high: int, length: int) -> bool:
        span = high - base
        return span <= max(self._LUT_SPAN_MIN, self._LUT_SPAN_FACTOR * length)

    def _member_table_np(self, rel: ColumnarBindings, cols: tuple):
        """Cached key-membership structure for the semijoin build side.

        Single-column integer keys with a bounded value span get a
        direct-address boolean table (O(rows) scatter, O(1) probes — no
        sort anywhere); everything else falls back to sorted unique keys.
        Returns ``(("lut", base, table) | ("sorted", uniq), built_rows)``.
        """
        cache_key = ("member", cols)
        got = rel._indexes.get(cache_key)
        if got is not None:
            return got, 0
        np_ = self._np
        keys = self._key1d(rel, cols)
        entry = None
        if keys.dtype.kind == "i":
            base = int(keys.min())
            high = int(keys.max())
            if self._lut_span_ok(base, high, rel.length):
                table = np_.zeros(high - base + 1, dtype=bool)
                table[keys - base] = True
                entry = ("lut", base, table)
        if entry is None:
            uniq, _ = self._uniq_np(rel, cols)
            entry = ("sorted", uniq, None)
        rel._indexes[cache_key] = entry
        return entry, rel.length

    def _probe_membership_np(self, entry, keys):
        """Boolean mask of ``keys`` present in a ``_member_table_np`` entry."""
        np_ = self._np
        kind, first, second = entry
        if kind == "lut":
            base, table = first, second
            offsets = keys - base
            in_range = (offsets >= 0) & (offsets < len(table))
            return in_range & table[np_.clip(offsets, 0, len(table) - 1)]
        # Probing in sorted order keeps the binary searches cache-friendly.
        uniq = first
        order = np_.argsort(keys)
        ordered = keys[order]
        pos = np_.minimum(np_.searchsorted(uniq, ordered), len(uniq) - 1)
        mask = np_.empty(len(keys), dtype=bool)
        mask[order] = uniq[pos] == ordered
        return mask

    def _hash_index_py(self, rel: ColumnarBindings, cols: tuple):
        """Cached ``(dict key -> row indexes, built_rows)`` for python."""
        cache_key = ("hash", cols)
        got = rel._indexes.get(cache_key)
        if got is not None:
            return got, 0
        index = rel.column_index()
        arrays = [rel.data[index[name]] for name in cols]
        got = {}
        for row, key in enumerate(zip(*arrays)):
            got.setdefault(key, []).append(row)
        rel._indexes[cache_key] = got
        return got, rel.length

    # ------------------------------------------------------------------
    # operators

    def join(self, a: ColumnarBindings, b: ColumnarBindings) -> ColumnarBindings:
        a_cols = set(a.columns)
        shared = tuple(name for name in a.columns if name in set(b.columns))
        b_extra = tuple(name for name in b.columns if name not in a_cols)
        out_columns = a.columns + b_extra
        stats = self.stats
        if stats is not None:
            stats.joins += 1
        hashed = 0
        if a.length == 0 or b.length == 0:
            out = self.empty(out_columns)
        elif not shared:
            out = self._cross(a, b, b_extra, out_columns)
        elif self._np is not None:
            out, hashed = self._join_np(a, b, shared, b_extra, out_columns)
        else:
            out, hashed = self._join_py(a, b, shared, b_extra, out_columns)
        if stats is not None:
            stats.record_op(
                "join",
                scanned=a.length + b.length,
                hashed=hashed,
                emitted=out.length,
            )
            stats.saw_intermediate(out.length)
        return out

    def _cross(self, a, b, b_extra, out_columns) -> ColumnarBindings:
        b_index = b.column_index()
        np_ = self._np
        if np_ is not None:
            data = [np_.repeat(col, b.length) for col in a.data]
            data += [np_.tile(b.data[b_index[name]], a.length) for name in b_extra]
        else:
            data = [
                [value for value in col for _ in range(b.length)] for col in a.data
            ]
            data += [b.data[b_index[name]] * a.length for name in b_extra]
        return ColumnarBindings(out_columns, data, a.length * b.length)

    def _join_np(self, a, b, shared, b_extra, out_columns):
        np_ = self._np
        keys_a = self._key1d(a, shared)
        uniq_b, inv_b, hashed = self._groups_np(b, shared)
        # Probe a's rows directly against b's group index: only the build
        # side pays for sorting.  Integer keys with a bounded span probe
        # through a direct-address group table instead of binary search.
        b_group_of_a = None
        if uniq_b.dtype.kind == "i" and len(uniq_b):
            cache_key = ("grouplut", shared)
            lut_entry = b._indexes.get(cache_key)
            if lut_entry is None:
                base = int(uniq_b[0])
                high = int(uniq_b[-1])
                if self._lut_span_ok(base, high, len(uniq_b)):
                    table = np_.full(high - base + 1, -1, dtype=np_.intp)
                    table[uniq_b - base] = np_.arange(len(uniq_b))
                    lut_entry = (base, table)
                    b._indexes[cache_key] = lut_entry
            if lut_entry is not None:
                base, table = lut_entry
                offsets = keys_a - base
                in_range = (offsets >= 0) & (offsets < len(table))
                b_group_of_a = np_.where(
                    in_range, table[np_.clip(offsets, 0, len(table) - 1)], -1
                )
        if b_group_of_a is None:
            pos = np_.searchsorted(uniq_b, keys_a)
            pos_c = np_.minimum(pos, len(uniq_b) - 1)
            valid = uniq_b[pos_c] == keys_a
            b_group_of_a = np_.where(valid, pos_c, -1)
        order = np_.argsort(inv_b, kind="stable")
        counts = np_.bincount(inv_b, minlength=len(uniq_b))
        offsets = np_.concatenate(([0], np_.cumsum(counts)[:-1]))
        safe_group = np_.maximum(b_group_of_a, 0)
        per_a = np_.where(b_group_of_a >= 0, counts[safe_group], 0)
        total = int(per_a.sum())
        if total == 0:
            return self.empty(out_columns), hashed
        left = np_.repeat(np_.arange(a.length), per_a)
        starts = np_.repeat(offsets[safe_group], per_a)
        cum = np_.concatenate(([0], np_.cumsum(per_a)[:-1]))
        within = np_.arange(total) - np_.repeat(cum, per_a)
        right = order[starts + within]
        b_index = b.column_index()
        data = [col[left] for col in a.data]
        data += [b.data[b_index[name]][right] for name in b_extra]
        return ColumnarBindings(out_columns, data, total), hashed

    def _join_py(self, a, b, shared, b_extra, out_columns):
        index, hashed = self._hash_index_py(b, shared)
        a_index = a.column_index()
        key_cols = [a.data[a_index[name]] for name in shared]
        left_rows = []
        right_rows = []
        for row, key in enumerate(zip(*key_cols)):
            matches = index.get(key)
            if matches:
                for other in matches:
                    left_rows.append(row)
                    right_rows.append(other)
        b_index = b.column_index()
        data = [[col[i] for i in left_rows] for col in a.data]
        data += [
            [b.data[b_index[name]][j] for j in right_rows] for name in b_extra
        ]
        return ColumnarBindings(out_columns, data, len(left_rows)), hashed

    def semijoin(self, a: ColumnarBindings, b: ColumnarBindings) -> ColumnarBindings:
        shared = tuple(name for name in a.columns if name in set(b.columns))
        stats = self.stats
        if stats is not None:
            stats.semijoins += 1
        hashed = 0
        if not shared:
            out = self.empty(a.columns) if b.length == 0 else a
        elif a.length == 0:
            out = a
        elif b.length == 0:
            out = self.empty(a.columns)
        elif self._np is not None:
            out, hashed = self._semijoin_np(a, b, shared)
        else:
            out, hashed = self._semijoin_py(a, b, shared)
        if stats is not None:
            stats.record_op(
                "semijoin",
                scanned=a.length,
                hashed=hashed,
                emitted=out.length,
            )
            stats.saw_intermediate(out.length)
        return out

    def _semijoin_np(self, a, b, shared):
        keys_a = self._key1d(a, shared)
        entry, hashed = self._member_table_np(b, shared)
        mask = self._probe_membership_np(entry, keys_a)
        total = int(mask.sum())
        if total == a.length:
            return a, hashed
        data = [col[mask] for col in a.data]
        return ColumnarBindings(a.columns, data, total), hashed

    def _semijoin_py(self, a, b, shared):
        index, hashed = self._hash_index_py(b, shared)
        a_index = a.column_index()
        key_cols = [a.data[a_index[name]] for name in shared]
        keep = [
            row for row, key in enumerate(zip(*key_cols)) if key in index
        ]
        if len(keep) == a.length:
            return a, hashed
        data = [[col[i] for i in keep] for col in a.data]
        return ColumnarBindings(a.columns, data, len(keep)), hashed

    def project(self, rel: ColumnarBindings, columns) -> ColumnarBindings:
        columns = tuple(columns)
        index = rel.column_index()
        missing = [name for name in columns if name not in index]
        if missing:
            raise ValueError(f"cannot project onto absent columns {missing!r}")
        stats = self.stats
        if not columns:
            out = ColumnarBindings((), [], 1 if rel.length else 0)
        elif rel.length == 0:
            out = self.empty(columns)
        elif self._np is not None:
            np_ = self._np
            width = len(columns)
            uniq = _unique(np_, self._key1d(rel, columns))
            if width == 1:
                data = [uniq]
            elif uniq.dtype.kind == "i":
                data = self._unpack(uniq, width)
            else:
                rows = uniq.view(np_.int64).reshape(-1, width)
                data = [np_.ascontiguousarray(rows[:, i]) for i in range(width)]
            out = ColumnarBindings(columns, data, len(data[0]))
        else:
            arrays = [rel.data[index[name]] for name in columns]
            rows = set(zip(*arrays))
            if rows:
                data = [list(col) for col in zip(*rows)]
            else:
                data = [[] for _ in columns]
            out = ColumnarBindings(columns, data, len(rows))
        if stats is not None:
            stats.record_op("project", scanned=rel.length, emitted=out.length)
            stats.saw_intermediate(out.length)
        return out

    def product_extend(self, rel: ColumnarBindings, new_columns, candidates):
        """Extend with the cross product of candidate values per new column."""
        np_ = self._np
        out_columns = list(rel.columns)
        data = list(rel.data)
        length = rel.length
        stats = self.stats
        for name in new_columns:
            if name in out_columns:
                raise ValueError(f"column {name!r} already bound")
            values = [self._encode_value(value) for value in candidates[name]]
            width = len(values)
            scanned = length
            if np_ is not None:
                column = np_.asarray(values, dtype=np_.int64)
                data = [np_.repeat(col, width) for col in data]
                data.append(np_.tile(column, length))
            else:
                data = [
                    [value for value in col for _ in range(width)] for col in data
                ]
                data.append(values * length)
            out_columns.append(name)
            length *= width
            if stats is not None:
                stats.record_op("extend", scanned=scanned, emitted=length)
                stats.saw_intermediate(length)
        return ColumnarBindings(tuple(out_columns), data, length)

    def project_answer(self, rel: ColumnarBindings, head) -> frozenset:
        """Decode the head columns into the answer set of python tuples."""
        head = tuple(head)
        if not head:
            answers = frozenset({()}) if rel.length else frozenset()
        elif rel.length == 0:
            answers = frozenset()
        else:
            index = rel.column_index()
            decoded = [self._decode_column(rel.data[index[name]]) for name in head]
            answers = frozenset(zip(*decoded))
        if self.stats is not None:
            self.stats.record_op(
                "project", scanned=rel.length, emitted=len(answers)
            )
        return answers

    def values_of(self, rel: ColumnarBindings, column: str) -> set:
        values = rel.data[rel.column_index()[column]]
        if self._np is not None:
            values = _unique(self._np, values)
        return set(self._decode_column(values))
