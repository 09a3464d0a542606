"""Deterministic fault injection at the pipeline's stage-2 seam.

The robustness machinery (shard retries, slot-process respawn,
checkpoint/resume, budget stops) is about what happens when something
*external* goes wrong — a worker OOM-killed, a check that hangs, a process
that dies mid-run.  To test it deterministically, this module wraps a
:class:`~repro.core.classes.QueryClass` in a :class:`FaultyClass` whose
membership tests fire a scripted fault (:class:`FaultPlan`) the *n*-th
time they run:

* ``kind="kill"`` — ``SIGKILL`` to the current process.  Inside a local
  slot process this is a lost shard the coordinator retries on a
  respawned process; in the driver it simulates process death for
  checkpoint/resume tests.
* ``kind="delay"`` — sleep ``delay`` seconds, simulating a hung check for
  the per-shard timeout path.
* ``kind="raise"`` — raise :class:`FaultInjected`, the poisoned-task
  path.
* ``kind="corrupt"`` — damage a file on disk (truncate to half, or garble
  a byte span, per ``corrupt_mode``).  This one is *not* fired through
  :class:`FaultyClass`: the serving result cache
  (:mod:`repro.serve.cache`) counts its disk-entry writes and corrupts
  the *n*-th entry just after writing it, so the cache-recovery path
  (quarantine + recompute, never a crash) is exercised deterministically
  — exactly once across processes, like every other kind.

The shard fabric (:mod:`repro.fabric`) adds three *network* kinds fired
at the worker's response seam rather than through :class:`FaultyClass`
(the serving daemon reuses the same kinds at *its* response seam — the
``at_check``-th work-op response — so the fleet router's retry and
hedging paths are drilled with the same discipline):

* ``kind="drop-connection"`` — the worker closes the connection instead
  of answering, simulating a crash/partition mid-shard (the
  coordinator's re-dispatch path).
* ``kind="delay-response"`` — the worker sleeps ``delay`` seconds before
  answering, simulating a straggler (heartbeat/speculation paths).
* ``kind="garble-frame"`` — the worker answers with bytes that are not a
  protocol frame, simulating a corrupted stream (the coordinator must
  treat it like a lost shard, never crash).

Faults fire **exactly once across processes**: the plan claims a *token
file* with ``O_CREAT | O_EXCL`` — an atomic filesystem test-and-set every
fork shares — before firing, so a retried shard (which reaches the same
n-th check again) does not re-fire and the run can complete.  The same discipline covers fabric workers: a re-dispatched
shard reaching the same seam in another worker process finds the token
taken.  Everything is picklable, so a ``FaultyClass`` travels to shard
workers exactly like a real class.

Simulated OOM needs no wrapper: inject an ``rss_probe`` returning an
over-limit figure into :class:`~repro.runtime.budget.RunBudget`.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

__all__ = ["FaultInjected", "FaultPlan", "FaultyClass", "NETWORK_KINDS"]

#: Fault kinds fired at a fabric worker's response seam (not through
#: :class:`FaultyClass`): the worker consults its plan just before
#: writing a shard response and, on a successful claim, drops the
#: connection, delays the response, or garbles the frame.
NETWORK_KINDS = ("drop-connection", "delay-response", "garble-frame")


class FaultInjected(RuntimeError):
    """The scripted exception of a ``kind="raise"`` fault."""


@dataclass(frozen=True)
class FaultPlan:
    """A scripted fault: fire ``kind`` on the ``at_check``-th check.

    ``at_check`` counts seam invocations (1-based) *in the process where
    the count is reached* — membership tests for :class:`FaultyClass`
    (each slot process counts its own checks, so on a sharded run the
    fault fires in whichever process reaches the count first), disk-entry writes
    for the result cache's ``kind="corrupt"`` seam.  The token file keeps
    any plan to one firing overall; ``token_path`` must point into a
    fresh per-test directory.
    """

    kind: str  # "kill" | "delay" | "raise" | "corrupt" | a NETWORK_KINDS
    at_check: int
    token_path: str
    delay: float = 0.0
    corrupt_mode: str = "truncate"  # "truncate" | "garble"

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "delay", "raise", "corrupt") + NETWORK_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at_check < 1:
            raise ValueError("at_check is 1-based and must be >= 1")
        if self.corrupt_mode not in ("truncate", "garble"):
            raise ValueError(f"unknown corrupt mode {self.corrupt_mode!r}")

    def claim(self) -> bool:
        """Atomically claim the single firing (False: already fired)."""
        try:
            fd = os.open(self.token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def fire(self, path: str | None = None) -> None:
        if self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.kind == "delay":
            time.sleep(self.delay)
        elif self.kind == "corrupt":
            if path is None:
                raise ValueError("corrupt faults need the target file path")
            self.corrupt_file(path)
        elif self.kind in NETWORK_KINDS:
            # Network kinds need connection context; the fabric worker's
            # and serving daemon's response seams interpret them
            # themselves after claim().
            raise ValueError(
                f"{self.kind!r} fires at a response seam, not through fire()"
            )
        else:
            raise FaultInjected(
                f"scripted fault at check #{self.at_check} "
                f"(pid {os.getpid()})"
            )

    def corrupt_file(self, path: str) -> None:
        """Damage ``path`` in place, simulating torn/garbled disk state.

        ``"truncate"`` cuts the file to half its size (a torn write that
        an atomic-rename store should have made impossible — which is
        exactly why the *reader* must still survive it: the file may come
        from an older tool, a different filesystem, or a byte-flipping
        disk).  ``"garble"`` overwrites a span in the middle with a
        repeating marker, leaving the length intact so only content
        validation can catch it.
        """
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            if self.corrupt_mode == "truncate":
                handle.truncate(size // 2)
            else:
                span = max(1, min(64, size // 2))
                handle.seek(max(0, size // 2 - span // 2))
                handle.write(b"\xde\xad" * ((span + 1) // 2))
            handle.flush()
            os.fsync(handle.fileno())


class FaultyClass:
    """A query-class wrapper whose membership tests run a fault plan.

    Delegates ``kind``/``name`` and every membership entry point to the
    wrapped class, counting invocations; when the count hits the plan's
    ``at_check`` and the plan's token is successfully claimed, the fault
    fires *before* the real check runs.  The invocation count is
    per-process instance state (each worker's unpickled copy counts its
    own checks); the token file is the cross-process coordinator.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._checks = 0

    @property
    def kind(self):
        return self._inner.kind

    @property
    def name(self):
        return self._inner.name

    def _maybe_fire(self) -> None:
        self._checks += 1
        if self._checks == self._plan.at_check and self._plan.claim():
            self._plan.fire()

    def contains_tableau(self, tableau):
        self._maybe_fire()
        return self._inner.contains_tableau(tableau)

    def contains_structure(self, structure):
        self._maybe_fire()
        return self._inner.contains_structure(structure)

    def contains_graph(self, graph):
        self._maybe_fire()
        return self._inner.contains_graph(graph)

    def contains_hypergraph(self, hypergraph):
        self._maybe_fire()
        return self._inner.contains_hypergraph(hypergraph)

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def __getstate__(self):
        return {"inner": self._inner, "plan": self._plan, "checks": self._checks}

    def __setstate__(self, state):
        self._inner = state["inner"]
        self._plan = state["plan"]
        self._checks = state["checks"]
