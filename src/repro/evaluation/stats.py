"""Instrumentation counters for the evaluation engine.

The benchmarks of the reproduction report these counters alongside wall-clock
time: they expose the ``|D|^O(|Q|)`` vs ``O(|D| · |Q'|)`` shapes of the
introduction's complexity comparison independently of interpreter noise.

The columnar engine reports *per-operator* row counters on top of the
legacy totals: every kernel invocation records how many rows it scanned
(read from inputs), hashed (pushed through a hash/group index build), and
emitted (wrote to its output) under its operator name (``scan``, ``join``,
``semijoin``, ``project``) — the machine-readable shape of a query plan
profile, surfaced by ``repro evaluate --stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The per-operator counter names tracked by :meth:`EvalStats.record_op`.
OP_COUNTERS = ("calls", "rows_scanned", "rows_hashed", "rows_emitted")


@dataclass
class EvalStats:
    """Mutable counters filled in by the evaluation algorithms."""

    tuples_scanned: int = 0
    intermediate_max: int = 0
    joins: int = 0
    semijoins: int = 0
    #: Rows pushed through a hash-index / group-code build across all
    #: operators (the probe-side rows of every hash join and semijoin).
    rows_hashed: int = 0
    #: Rows written to operator outputs across all operators.
    rows_emitted: int = 0
    #: Per-operator breakdown: operator name -> counter dict
    #: (``calls``/``rows_scanned``/``rows_hashed``/``rows_emitted``).
    operators: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def saw_intermediate(self, size: int) -> None:
        if size > self.intermediate_max:
            self.intermediate_max = size

    def record_op(
        self,
        op: str,
        *,
        scanned: int = 0,
        hashed: int = 0,
        emitted: int = 0,
    ) -> None:
        """Charge one operator invocation to the per-operator ledgers.

        Updates the operator's bucket and the cross-operator totals
        (``rows_hashed``/``rows_emitted``); the legacy totals
        (``tuples_scanned``, ``joins``, ``semijoins``, ``intermediate_max``)
        stay the callers' responsibility so historical counting semantics
        are untouched.
        """
        bucket = self.operators.setdefault(op, dict.fromkeys(OP_COUNTERS, 0))
        bucket["calls"] += 1
        bucket["rows_scanned"] += scanned
        bucket["rows_hashed"] += hashed
        bucket["rows_emitted"] += emitted
        self.rows_hashed += hashed
        self.rows_emitted += emitted

    def merge(self, other: "EvalStats") -> None:
        self.tuples_scanned += other.tuples_scanned
        self.intermediate_max = max(self.intermediate_max, other.intermediate_max)
        self.joins += other.joins
        self.semijoins += other.semijoins
        self.rows_hashed += other.rows_hashed
        self.rows_emitted += other.rows_emitted
        for op, theirs in other.operators.items():
            bucket = self.operators.setdefault(op, dict.fromkeys(OP_COUNTERS, 0))
            for name in OP_COUNTERS:
                bucket[name] += theirs.get(name, 0)
        self.notes.extend(other.notes)

    def as_dict(self) -> dict:
        """A JSON-ready snapshot (the CLI's ``--stats`` payload)."""
        return {
            "tuples_scanned": self.tuples_scanned,
            "intermediate_max": self.intermediate_max,
            "joins": self.joins,
            "semijoins": self.semijoins,
            "rows_hashed": self.rows_hashed,
            "rows_emitted": self.rows_emitted,
            "operators": {
                op: dict(bucket) for op, bucket in sorted(self.operators.items())
            },
            "notes": list(self.notes),
        }
