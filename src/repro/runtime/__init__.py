"""Runtime budget and checkpoint infrastructure for long pipeline runs.

The enumeration pipeline explores a Bell-number-sized candidate space, so a
run without guard rails can outlive any practical deadline or memory
allowance.  This package supplies the two guard rails:

* :mod:`repro.runtime.budget` — :class:`RunBudget`, a cheap per-candidate
  budget monitor (wall-clock deadline, memory ceiling, candidate/check
  caps).  When a budget trips, the pipeline stops admitting new work,
  drains what is in flight, and returns the best-so-far frontier marked
  ``exhausted=True``.  Every member of a partial frontier is still a sound
  C-overapproximation — stopping early forfeits only minimality and
  completeness, never soundness.
* :mod:`repro.runtime.checkpoint` — :class:`CheckpointManager`, periodic
  atomic snapshots of the frontier, the stream cursor with the
  strictly-dominated marks the lattice walk pruned by, and the pipeline
  stats, so a run killed mid-enumeration resumes to a bit-identical final
  frontier over the same candidate stream.

:mod:`repro.runtime.persist` holds the atomic write/fail-closed read
primitives both the checkpoint store and the serving result cache
(:mod:`repro.serve.cache`) build on.

The memory ceiling binds on the process's resident set: the budget's RSS
probe, with the frontier's tracked-entry count as a deterministic floor
under it.  All frontier state stays in memory for the whole run, and the
Corollary 4.3 search is bounded by ``exact_limit``.
"""

from repro.runtime.budget import RunBudget
from repro.runtime.checkpoint import CheckpointManager, CheckpointMismatch
from repro.runtime.persist import (
    PersistError,
    atomic_pickle,
    atomic_write_bytes,
    load_pickle,
)

__all__ = [
    "RunBudget",
    "CheckpointManager",
    "CheckpointMismatch",
    "PersistError",
    "atomic_pickle",
    "atomic_write_bytes",
    "load_pickle",
]
