"""Process-pool executor for the approximation pipeline's shards.

With ``workers > 1`` the pipeline runs one shard of its quotient stream per
local worker (:func:`repro.core.pipeline._run_pool_shards`), and those
shards are the pool's only tasks.  :class:`ProcessExecutor` wraps
``concurrent.futures.ProcessPoolExecutor`` so the pipeline never touches it
directly: :meth:`~ProcessExecutor.imap` submits every task at once and
yields the results in submission order.

Task functions must be picklable module-level callables and task payloads
must be compact picklable values.  State shared by *all* tasks — the
encoded base tableau plus its precomputed automorphism/orbit data — goes
through ``initializer``/``initargs``: the initializer runs once per worker
process at startup, so the shared payload is serialized per worker instead
of per task and expensive derivations (the base tableau's endomorphism
scan) run once in the driver instead of once per task.  Engine handles are
never shipped to workers: each worker process rebuilds its own
:class:`~repro.homomorphism.engine.HomEngine` on first use via the pid
check in :func:`repro.homomorphism.engine.default_engine`.

On POSIX the pool uses the ``fork`` start method explicitly — workers
inherit the imported library (no re-import cost) but, by the pid check
above, not the parent's engine handle.

Fault tolerance
---------------
A worker killed by the OOM killer (or a segfaulting native extension)
breaks the whole ``ProcessPoolExecutor``: every outstanding future raises
``BrokenProcessPool`` and the pool is unusable.  :meth:`ProcessExecutor.
imap` recovers transparently: it respawns the pool with capped exponential
backoff and resubmits every in-flight task *in submission order*, so the
result stream the consumer sees is unchanged — same tasks, same function,
same order — and determinism guarantees downstream are preserved.  After
``max_respawns`` pool deaths the executor gives up on processes and runs
the remaining tasks inline (serial fallback, with the initializer run once
in the driver first), which is slow but always completes.

Orthogonally, an optional per-task ``batch_timeout`` (the pipeline passes
its ``shard_timeout``) bounds how long ``imap`` blocks on the oldest
in-flight task.  On expiry the (possibly hung) pool is torn down, the
*head* task is quarantined as a structured :class:`BatchFault` record, and
the remaining in-flight tasks are resubmitted to a fresh pool.  A task that
raises ("poisoned") is likewise quarantined, without a respawn — the pool
itself is fine.  The :class:`BatchFault` takes the failed task's slot in
the result stream, so the consumer skips exactly the lost work instead of
losing the run.

The timeout clock starts when ``imap`` *blocks on* the head result, not
when the task was submitted: a hung worker is detected once the tasks ahead
of it are consumed plus the timeout — tight enough to bound drain latency,
cheap enough to need no watchdog thread.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, TypeVar

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Backoff schedule for pool respawns: ``RESPAWN_BACKOFF_BASE * 2**attempt``
#: seconds, capped at :data:`RESPAWN_BACKOFF_CAP`.
RESPAWN_BACKOFF_BASE = 0.1
RESPAWN_BACKOFF_CAP = 2.0


def backoff_delay(
    attempt: int,
    *,
    base: float = RESPAWN_BACKOFF_BASE,
    cap: float = RESPAWN_BACKOFF_CAP,
) -> float:
    """Capped exponential backoff: ``min(cap, base * 2**attempt)``.

    Shared by the pool-respawn path here and the fabric coordinator's
    shard-retry path, so both layers recover on the same schedule.
    ``attempt`` is 0-based (the first retry waits ``base`` seconds).
    """
    if attempt < 0:
        raise ValueError("attempt is 0-based and must be >= 0")
    return min(cap, base * (2.0 ** attempt))


def effective_workers(workers: int | None) -> int:
    """Normalize a worker-count knob: ``None``/``0`` → serial, ``-1`` → all
    CPUs, anything else is taken literally (also on machines with fewer
    cores — oversubscription is the caller's informed choice)."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return os.cpu_count() or 1
    return workers


@dataclass
class BatchFault:
    """Structured record of one quarantined task.

    ``kind`` is ``"timeout"`` (the per-task timeout expired while waiting
    on this task) or ``"error"`` (the task raised).  The original payload
    rides along so consumers can resolve exactly the work that was lost,
    and ``error`` holds the stringified cause for logs and
    :class:`~repro.core.pipeline.PipelineResult` fault reports.
    """

    kind: str
    task: Any
    error: str
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "error": self.error,
            "elapsed": round(self.elapsed, 6),
        }


class ProcessExecutor:
    """Ordered, fault-tolerant mapping over a process pool.

    ``batch_timeout`` and ``max_respawns`` configure the fault-tolerance
    behavior described in the module docstring; ``faults``, ``respawns``,
    ``timeouts`` and ``serial_fallback`` expose what happened for stats
    reporting.
    """

    def __init__(
        self,
        workers: int,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        batch_timeout: float | None = None,
        max_respawns: int = 3,
    ) -> None:
        if workers < 2:
            raise ValueError("ProcessExecutor needs at least 2 workers")
        if batch_timeout is not None and batch_timeout <= 0:
            raise ValueError("batch_timeout must be positive")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        self.workers = workers
        self.batch_timeout = batch_timeout
        self.max_respawns = max_respawns
        self._initializer = initializer
        self._initargs = initargs
        self._context = (
            multiprocessing.get_context("fork")
            if hasattr(os, "fork")
            else multiprocessing.get_context()
        )
        self.faults: list[BatchFault] = []
        self.respawns = 0
        self.timeouts = 0
        self._serial_fallback = False
        self._initializer_ran_inline = False
        self._pool: ProcessPoolExecutor | None = self._spawn_pool()

    @property
    def serial_fallback(self) -> bool:
        """Whether the respawn budget is spent and remaining work runs inline.

        Consumers (the pipeline's fault harvest, the serving layer's
        degradation reporting) read this to tell "the pool recovered" from
        "the pool is gone and this run degraded to serial".
        """
        return self._serial_fallback

    # ------------------------------------------------------------ pool mgmt

    def _spawn_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._context,
            initializer=self._initializer,
            initargs=self._initargs,
        )

    def _teardown_pool(self, *, kill: bool) -> None:
        """Release the current pool; ``kill`` terminates live workers first
        (needed when a worker is hung — ``shutdown`` alone would block on
        it forever)."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        if kill:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already-dead worker
                    pass
        try:
            pool.shutdown(wait=not kill, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pool cleanup
            pass

    def _respawn_pool(self, *, kill: bool) -> None:
        """Tear down and respawn the pool with capped exponential backoff;
        once the respawn budget is spent, flip into serial fallback."""
        self._teardown_pool(kill=kill)
        if self.respawns >= self.max_respawns:
            self._serial_fallback = True
            return
        delay = backoff_delay(self.respawns)
        self.respawns += 1
        time.sleep(delay)
        self._pool = self._spawn_pool()

    def _submit_all(self, pending: deque, fn) -> None:
        """(Re)submit every pending task in order.

        A pool that breaks mid-submission is respawned and the whole queue
        resubmitted; in serial fallback the futures are cleared (payloads
        kept) so the tasks run inline.
        """
        while not self._serial_fallback:
            try:
                for index, (task, _old_future) in enumerate(pending):
                    pending[index] = (task, self._pool.submit(fn, task))
                return
            except BrokenProcessPool:
                self._respawn_pool(kill=False)
        for index, (task, _old_future) in enumerate(pending):
            pending[index] = (task, None)

    def _quarantine(self, task, exc: Exception) -> BatchFault:
        fault = BatchFault(kind="error", task=task, error=repr(exc))
        self.faults.append(fault)
        return fault

    def _run_inline(self, fn, task):
        """Serial-fallback execution of one task (after pool give-up)."""
        if self._initializer is not None and not self._initializer_ran_inline:
            self._initializer(*self._initargs)
            self._initializer_ran_inline = True
        try:
            return fn(task)
        except Exception as exc:  # noqa: BLE001 - quarantine boundary
            return self._quarantine(task, exc)

    # ------------------------------------------------------------------ imap

    def imap(
        self, fn: Callable[[Task], Result], tasks: Iterable[Task]
    ) -> Iterator[Result | BatchFault]:
        """Map ``fn`` over ``tasks`` with submission-order results.

        Every task is submitted up front.  A task that raised or timed out
        yields a :class:`BatchFault` in its slot (see the module
        docstring).  Pool breakage is never surfaced — it is repaired by
        resubmission, which preserves the result stream exactly.
        """
        # (task, future) pairs: the payload is kept so in-flight work can be
        # resubmitted verbatim after a pool death.
        pending: deque = deque((task, None) for task in tasks)
        self._submit_all(pending, fn)
        while pending:
            yield self._resolve_head(pending, fn)

    def _resolve_head(self, pending: deque, fn):
        """Resolve the oldest in-flight task to a yieldable value.

        Loops until the head either produces a result, is quarantined, or
        (after repeated pool deaths) runs inline.
        """
        while True:
            task, future = pending[0]
            if future is None:
                pending.popleft()
                return self._run_inline(fn, task)
            started = time.monotonic()
            try:
                result = future.result(timeout=self.batch_timeout)
            except BrokenProcessPool:
                self._respawn_pool(kill=False)
                self._submit_all(pending, fn)
                continue
            except FutureTimeoutError:
                pending.popleft()
                self.timeouts += 1
                fault = BatchFault(
                    kind="timeout",
                    task=task,
                    error=f"task exceeded {self.batch_timeout:g}s timeout",
                    elapsed=time.monotonic() - started,
                )
                self.faults.append(fault)
                # The worker holding this task may be hung: kill the pool,
                # respawn, resubmit everything *except* the quarantined head.
                self._respawn_pool(kill=True)
                self._submit_all(pending, fn)
                return fault
            except Exception as exc:  # noqa: BLE001 - quarantine boundary
                pending.popleft()
                return self._quarantine(task, exc)
            pending.popleft()
            return result

    # ----------------------------------------------------------------- close

    def close(self, force: bool = False) -> None:
        """Release the pool.

        ``force`` skips waiting for outstanding work and cancels queued
        futures — the interrupt-safe path, used by ``__exit__`` when the
        block is being unwound by an exception (``KeyboardInterrupt``
        included) so an aborted run neither leaks worker processes nor
        hangs at interpreter exit.
        """
        self._teardown_pool(kill=force)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(force=exc_type is not None)
