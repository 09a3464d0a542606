"""Process-pool executor shim for the approximation pipeline.

The pipeline's shards (and the batched class checks of
:func:`repro.core.pipeline.iter_membership`) funnel through one tiny
interface so callers never touch ``concurrent.futures`` directly:

* :class:`SerialExecutor` — runs tasks inline, zero overhead, used whenever
  ``workers <= 1``.  The serial path therefore has no serialization, no
  processes, and no behavioral difference from calling the task function in
  a loop.
* :class:`ProcessExecutor` — a wrapper over
  ``concurrent.futures.ProcessPoolExecutor`` whose :meth:`~ProcessExecutor.
  imap` preserves submission order while keeping a bounded number of tasks
  in flight, so a lazy task stream overlaps generation with execution
  without buffering the whole stream.

Task functions must be picklable module-level callables and task payloads
must be compact picklable values (the pipeline serializes tableaux to
integer-indexed fact lists; see :mod:`repro.core.pipeline`).  State shared
by *all* tasks of one executor — the pipeline's shard strategy ships the
encoded base tableau plus its precomputed automorphism/orbit data this way —
goes through ``initializer``/``initargs``: the initializer runs once per
worker process at startup, so the shared payload is serialized per worker
instead of per task and expensive derivations (the base tableau's
endomorphism scan) run once in the driver instead of once per task.  Engine
handles are never shipped to workers: each worker process rebuilds its own
:class:`~repro.homomorphism.engine.HomEngine` on first use via the pid check
in :func:`repro.homomorphism.engine.default_engine`.

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
the remaining tasks inline (serial fallback), which is slow but always
completes.

Orthogonally, an optional per-task ``batch_timeout`` (the pipeline passes
its ``shard_timeout``) bounds how long ``imap``
blocks on the oldest in-flight task.  On expiry the (possibly hung) pool
is torn down, the *head* task is quarantined as a structured
:class:`BatchFault` record, and the remaining in-flight tasks are
resubmitted to a fresh pool.  A task that raises inside the worker
("poisoned") is likewise quarantined without a respawn — the pool itself
is fine.  With ``failures="yield"`` the :class:`BatchFault` takes the
failed task's slot in the result stream, letting consumers skip exactly
the lost work instead of losing the run; the default ``failures="raise"``
re-raises (timeouts raise the original ``TimeoutError``) for callers that
prefer fail-fast.

Note the timeout clock starts when ``imap`` *blocks on* the head result,
not when the task was submitted.  Under the bounded in-flight window the
head is always the oldest outstanding task, so a hung worker is detected
within one window's worth of consumption plus the timeout — tight enough
to bound drain latency, cheap enough to need no watchdog thread.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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
    on this task) or ``"error"`` (the task raised inside the worker).  The
    original payload rides along so consumers can resolve exactly the work
    that was lost, and ``error`` holds the stringified cause for logs and
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


class SerialExecutor:
    """Inline execution with the executor interface (the ``workers=1`` path)."""

    workers = 1

    def __init__(self) -> None:
        self.faults: list[BatchFault] = []
        self.respawns = 0
        self.timeouts = 0

    def imap(
        self,
        fn: Callable[[Task], Result],
        tasks: Iterable[Task],
        *,
        failures: str = "raise",
    ) -> Iterator[Result]:
        for task in tasks:
            if failures == "yield":
                try:
                    yield fn(task)
                except Exception as exc:  # noqa: BLE001 - quarantine boundary
                    fault = BatchFault(kind="error", task=task, error=repr(exc))
                    self.faults.append(fault)
                    yield fault
            else:
                yield fn(task)

    def close(self, force: bool = False) -> None:  # pragma: no cover - no-op
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessExecutor:
    """Ordered, bounded-lookahead, fault-tolerant mapping over a process pool.

    ``inflight`` (``workers + 2``) bounds how many tasks are submitted
    ahead of the consumer: it keeps every worker busy while the oldest
    result is being consumed, without pulling a lazy task stream
    arbitrarily far ahead of it.  Whenever the oldest submitted task has
    already finished, its result is yielded before the next task is
    pulled.

    ``batch_timeout`` and ``max_respawns`` configure the fault-tolerance
    behavior described in the module docstring; ``faults``, ``respawns``
    and ``timeouts`` expose what happened for stats reporting.
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
        self.inflight = workers + 2
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

    def _respawn_pool(self, *, kill: bool) -> bool:
        """Tear down and respawn the pool with capped exponential backoff.

        Returns ``False`` once the respawn budget is spent, flipping the
        executor into serial-fallback mode.
        """
        self._teardown_pool(kill=kill)
        if self.respawns >= self.max_respawns:
            self._serial_fallback = True
            return False
        delay = backoff_delay(self.respawns)
        self.respawns += 1
        time.sleep(delay)
        self._pool = self._spawn_pool()
        return True

    def _run_inline(self, fn, task, failures):
        """Serial-fallback execution of one task (after pool give-up)."""
        if self._initializer is not None and not self._initializer_ran_inline:
            self._initializer(*self._initargs)
            self._initializer_ran_inline = True
        if failures == "yield":
            try:
                return fn(task)
            except Exception as exc:  # noqa: BLE001 - quarantine boundary
                fault = BatchFault(kind="error", task=task, error=repr(exc))
                self.faults.append(fault)
                return fault
        return fn(task)

    # ------------------------------------------------------------------ imap

    def imap(
        self,
        fn: Callable[[Task], Result],
        tasks: Iterable[Task],
        *,
        failures: str = "raise",
    ) -> Iterator[Result]:
        """Map ``fn`` over ``tasks`` with submission-order results.

        At most ``inflight`` tasks are outstanding; finished head-of-queue
        results are yielded before the next task is pulled.

        ``failures="yield"`` substitutes a :class:`BatchFault` for the
        result of a task that raised or timed out (see the module
        docstring); the default re-raises.  Pool breakage is never surfaced
        either way — it is repaired transparently by resubmission, which
        preserves the result stream exactly.
        """
        if failures not in ("raise", "yield"):
            raise ValueError(f"failures must be 'raise' or 'yield', got {failures!r}")
        window = self.inflight
        # (task, future) pairs: the payload is kept so in-flight work can be
        # resubmitted verbatim after a pool death.
        pending: deque = deque()

        def submit(task):
            while True:
                if self._serial_fallback or self._pool is None:
                    return None
                try:
                    return self._pool.submit(fn, task)
                except BrokenProcessPool:
                    if not self._recover(pending, fn):
                        return None

        def consume_head():
            """Resolve the oldest in-flight task to a yieldable value.

            Loops until the head either produces a result, is quarantined,
            or (after repeated pool deaths) runs inline.
            """
            while True:
                if self._serial_fallback:
                    task, future = pending.popleft()
                    if future is None:
                        return self._run_inline(fn, task, failures)
                    # A future may survive from before the fallback flip.
                    try:
                        return future.result(timeout=0)
                    except Exception:
                        return self._run_inline(fn, task, failures)
                task, future = pending[0]
                started = time.monotonic()
                try:
                    result = future.result(timeout=self.batch_timeout)
                except BrokenProcessPool:
                    self._recover(pending, fn)
                    continue
                except FutureTimeoutError:
                    self.timeouts += 1
                    pending.popleft()
                    fault = BatchFault(
                        kind="timeout",
                        task=task,
                        error=f"task exceeded {self.batch_timeout:g}s timeout",
                        elapsed=time.monotonic() - started,
                    )
                    self.faults.append(fault)
                    # The worker holding this task may be hung: kill the
                    # pool, respawn, resubmit everything *except* the
                    # quarantined head.
                    self._recover(pending, fn, kill=True)
                    if failures == "yield":
                        return fault
                    raise
                except Exception as exc:  # noqa: BLE001 - quarantine boundary
                    pending.popleft()
                    if failures == "yield":
                        fault = BatchFault(kind="error", task=task, error=repr(exc))
                        self.faults.append(fault)
                        return fault
                    raise
                else:
                    pending.popleft()
                    return result

        for task in tasks:
            pending.append((task, submit(task)))
            while pending and (
                len(pending) >= window
                or self._serial_fallback
                or (pending[0][1] is not None and pending[0][1].done())
            ):
                yield consume_head()
        while pending:
            yield consume_head()

    def _recover(self, pending: deque, fn, *, kill: bool = False) -> bool:
        """Respawn the pool and resubmit all in-flight tasks in order.

        Returns whether a live pool exists afterwards; on ``False`` the
        in-flight futures are cleared (payloads kept) and the caller runs
        tasks inline via serial fallback.
        """
        alive = self._respawn_pool(kill=kill)
        if alive:
            for index, (task, _old_future) in enumerate(pending):
                pending[index] = (task, self._pool.submit(fn, task))
        else:
            for index, (task, _old_future) in enumerate(pending):
                pending[index] = (task, None)
        return alive

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


def make_executor(
    workers: int | None,
    *,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    batch_timeout: float | None = None,
    max_respawns: int = 3,
) -> SerialExecutor | ProcessExecutor:
    """The executor for a worker-count knob (serial for ``workers <= 1``).

    ``initializer(*initargs)`` installs per-worker shared state (see the
    module docstring); on the serial path it runs once inline, so task
    functions can rely on it unconditionally.
    """
    count = effective_workers(workers)
    if count <= 1:
        if initializer is not None:
            initializer(*initargs)
        return SerialExecutor()
    return ProcessExecutor(
        count,
        initializer=initializer,
        initargs=initargs,
        batch_timeout=batch_timeout,
        max_respawns=max_respawns,
    )
