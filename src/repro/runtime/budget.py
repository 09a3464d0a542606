"""Run budgets: wall-clock deadlines, memory ceilings, and count caps.

A :class:`RunBudget` is consulted once per candidate on the pipeline's hot
loops, so the check has to be nearly free: one monotonic-clock read per
call, counter comparisons against the pipeline's own
:class:`~repro.core.pipeline.PipelineStats` counters (no duplicate
bookkeeping), and a memory probe only every
:data:`MEMORY_PROBE_INTERVAL` calls.  The verdict is *sticky*: once any
budget trips, :meth:`RunBudget.exceeded` keeps returning the same reason,
so callers at different pipeline seams (stage-1 generation, stage-3
admission, each pool or fabric shard) all observe one consistent exhaustion
event.

The memory ceiling combines two signals:

* an ``rss`` probe — ``/proc/self/statm`` where available, falling back to
  ``resource.getrusage``'s high-water mark — which sees the process as the
  OS does, and
* registered *tracked-entry* probes (frontier members, memo entries,
  refinement-trie nodes) scaled by a conservative per-entry byte estimate,
  which see the pipeline's own growth even when the allocator has not yet
  returned pages or ``ru_maxrss`` has gone stale.

Both the clock and the rss probe are injectable, which is what makes
deadline and simulated-OOM behavior deterministically testable (see
:mod:`repro.testing.faults`).
"""

from __future__ import annotations

import os
import time
from typing import Callable

__all__ = ["RunBudget", "read_rss", "MEMORY_PROBE_INTERVAL"]

#: Consult the (comparatively expensive) memory probes once per this many
#: ``exceeded()`` calls.  At 256 the probe cost is amortized well below the
#: per-candidate work it guards.
MEMORY_PROBE_INTERVAL = 256

#: Conservative per-tracked-entry size estimate (bytes).  Frontier members,
#: memo entries, and trie nodes are small tuples/dicts of ints; 512 bytes
#: per entry overestimates all of them, which is the safe direction for a
#: ceiling.
TRACKED_ENTRY_BYTES = 512

_PAGE_SIZE = None


def read_rss() -> int:
    """Best-effort resident-set size of this process, in bytes.

    Prefers ``/proc/self/statm`` (current RSS, cheap, Linux); falls back to
    ``resource.getrusage`` (high-water mark, POSIX); returns 0 when neither
    is available so the tracked-entry probes carry the ceiling alone.
    """
    global _PAGE_SIZE
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        if _PAGE_SIZE is None:
            _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - platform without getrusage
        return 0


class RunBudget:
    """Budget monitor for one pipeline run.

    Parameters
    ----------
    deadline:
        Wall-clock allowance in seconds, measured from :meth:`start` (which
        :meth:`exceeded` calls implicitly on first use).  ``None`` disables.
    memory_limit:
        Ceiling in bytes on ``max(rss probe, tracked-entry estimate)``.
        ``None`` disables.
    max_candidates / max_checks:
        Caps on ``stats.generated`` / ``stats.checks_run``.  ``None``
        disables.
    clock / rss_probe:
        Injectable time and memory sources for deterministic tests; default
        to :func:`time.monotonic` and :func:`read_rss`.
    """

    __slots__ = (
        "deadline",
        "memory_limit",
        "max_candidates",
        "max_checks",
        "_clock",
        "_rss_probe",
        "_entry_probes",
        "_started_at",
        "_calls",
        "_reason",
    )

    def __init__(
        self,
        *,
        deadline: float | None = None,
        memory_limit: int | None = None,
        max_candidates: int | None = None,
        max_checks: int | None = None,
        clock: Callable[[], float] | None = None,
        rss_probe: Callable[[], int] | None = None,
    ) -> None:
        for name, value in (
            ("deadline", deadline),
            ("memory_limit", memory_limit),
            ("max_candidates", max_candidates),
            ("max_checks", max_checks),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        self.deadline = deadline
        self.memory_limit = memory_limit
        self.max_candidates = max_candidates
        self.max_checks = max_checks
        self._clock = clock if clock is not None else time.monotonic
        self._rss_probe = rss_probe if rss_probe is not None else read_rss
        self._entry_probes: list[Callable[[], int]] = []
        self._started_at: float | None = None
        self._calls = 0
        self._reason: str | None = None

    @property
    def active(self) -> bool:
        """Whether any budget dimension is actually set."""
        return (
            self.deadline is not None
            or self.memory_limit is not None
            or self.max_candidates is not None
            or self.max_checks is not None
        )

    @property
    def reason(self) -> str | None:
        """The sticky exhaustion reason, or ``None`` while within budget."""
        return self._reason

    def start(self) -> None:
        """Anchor the deadline clock (idempotent)."""
        if self._started_at is None:
            self._started_at = self._clock()

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 if never started)."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def remaining_deadline(self) -> float | None:
        """Seconds left on the deadline, floored at 0 (``None`` if unset)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.elapsed())

    def register_probe(self, probe: Callable[[], int]) -> None:
        """Register a tracked-entry counter (e.g. frontier/memo sizes).

        The sum of all registered probes, times a conservative per-entry
        byte estimate, is compared against ``memory_limit`` alongside the
        rss probe.
        """
        self._entry_probes.append(probe)

    def tracked_bytes(self) -> int:
        """Estimated bytes held by registered tracked-entry structures."""
        if not self._entry_probes:
            return 0
        return sum(probe() for probe in self._entry_probes) * TRACKED_ENTRY_BYTES

    def exceeded(self, stats=None) -> str | None:
        """Return the exhaustion reason, or ``None`` while within budget.

        The verdict is sticky: the first tripped dimension is remembered
        and returned on every subsequent call.  ``stats`` supplies the
        candidate/check counters; passing ``None`` skips the count caps for
        call sites that have no stats handle.
        """
        if self._reason is not None:
            return self._reason
        self._calls += 1
        if self.deadline is not None:
            if self._started_at is None:
                self._started_at = self._clock()
            elif self._clock() - self._started_at >= self.deadline:
                self._reason = f"deadline ({self.deadline:g}s) exceeded"
                return self._reason
        if stats is not None:
            if (
                self.max_candidates is not None
                and stats.generated >= self.max_candidates
            ):
                self._reason = f"candidate budget ({self.max_candidates}) exhausted"
                return self._reason
            if self.max_checks is not None and stats.checks_run >= self.max_checks:
                self._reason = f"check budget ({self.max_checks}) exhausted"
                return self._reason
        if self.memory_limit is not None and (
            self._calls == 1 or self._calls % MEMORY_PROBE_INTERVAL == 0
        ):
            usage = max(self._rss_probe(), self.tracked_bytes())
            if usage >= self.memory_limit:
                self._reason = (
                    f"memory ceiling ({self.memory_limit} bytes) reached "
                    f"at {usage} bytes"
                )
                return self._reason
        return None
