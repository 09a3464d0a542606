"""Engine selection: the columnar kernels vs the tuple-at-a-time oracle.

Every evaluator routes its relational algebra through a *kernel* object —
either :class:`~repro.evaluation.columnar.ColumnarKernel` (column-major
batches, hash semi-joins, optional numpy fast path; the default) or
:class:`TupleKernel`, a thin wrapper over the original
:mod:`repro.evaluation.relation` set-of-tuples algebra.  The tuple path is
kept as a second implementation of every operator: the columnar engine
must produce bit-equal answers on every query/database.  It runs the same
algorithm, so the differential suite also pins every evaluator, on both
columnar backends, to ``hom_evaluate``, which shares no operator with it.
"""

from __future__ import annotations

from repro.evaluation import relation
from repro.evaluation.columnar import ColumnarBindings, ColumnarKernel
from repro.evaluation.stats import EvalStats

ENGINES = ("columnar", "tuple")

#: The engine evaluators use when none is requested.
DEFAULT_ENGINE = "columnar"


class TupleKernel:
    """The original set-of-tuples algebra behind the kernel interface.

    Delegates to :mod:`repro.evaluation.relation` (leaving its legacy
    counter semantics untouched) and layers the per-operator
    ``record_op`` ledger on top, so ``--stats`` output is comparable
    across engines.
    """

    engine = "tuple"

    def __init__(self, stats: EvalStats | None = None) -> None:
        self.stats = stats

    def unit(self):
        return relation.unit()

    def atom_bindings(self, db, atom):
        scanned = len(db.tuples(atom.relation))
        out = relation.atom_bindings(db, atom, self.stats)
        if self.stats is not None:
            self.stats.record_op("scan", scanned=scanned, emitted=len(out))
        return out

    def join(self, a, b):
        out = relation.join(a, b, self.stats)
        if self.stats is not None:
            self.stats.record_op(
                "join",
                scanned=len(a) + len(b),
                hashed=len(b),
                emitted=len(out),
            )
        return out

    def semijoin(self, a, b):
        out = relation.semijoin(a, b, self.stats)
        if self.stats is not None:
            self.stats.record_op(
                "semijoin",
                scanned=len(a),
                hashed=len(b),
                emitted=len(out),
            )
        return out

    def project(self, rel, columns):
        out = relation.project(rel, columns, self.stats)
        if self.stats is not None:
            self.stats.record_op("project", scanned=len(rel), emitted=len(out))
        return out

    def project_answer(self, rel, head):
        out = relation.project_answer(rel, head)
        if self.stats is not None:
            self.stats.record_op("project", scanned=len(rel), emitted=len(out))
        return out


def make_kernel(engine: str = DEFAULT_ENGINE, stats: EvalStats | None = None):
    """Instantiate the kernel for ``engine`` (``"columnar"``/``"tuple"``)."""
    if engine == "columnar":
        return ColumnarKernel(stats)
    if engine == "tuple":
        return TupleKernel(stats)
    raise ValueError(f"unknown engine {engine!r} (use one of {ENGINES})")


__all__ = [
    "ColumnarBindings",
    "ColumnarKernel",
    "DEFAULT_ENGINE",
    "ENGINES",
    "TupleKernel",
    "make_kernel",
]
