"""The local shard transport, plus the backoff and worker-count helpers.

:class:`ProcessExecutor` supplies the local slots that
:class:`~repro.fabric.coordinator.FabricCoordinator` runs shards on when
``workers > 1``: one forked process each, with the shard context
installed once per process by ``initializer(*initargs)``.  A slot reports
each failure as a lost shard for the coordinator to retry — a raising
task as kind ``"error"``, a dead process as ``"connection"``, no answer
within ``timeout`` as ``"deadline"`` — and after a death or a timeout
kills and respawns its process.  The constructor forks every slot
process on the driver thread before any dispatcher thread starts (a fork
while another thread holds a lock can deadlock the child); a respawn
forks from its dispatcher thread, into a child that touches only its
pipe and the task.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
from typing import Any, Callable, Iterator


def backoff_delay(attempt: int, *, base: float = 0.1, cap: float = 2.0) -> float:
    """Capped exponential backoff ``min(cap, base * 2**attempt)``, 0-based
    ``attempt``: the coordinator's shard retries and the fleet's restarts."""
    if attempt < 0:
        raise ValueError("attempt is 0-based and must be >= 0")
    return min(cap, base * (2.0 ** attempt))


def effective_workers(workers: int | None) -> int:
    """Normalize a worker-count knob: ``None``/``0`` → serial, ``-1`` → all
    CPUs, anything else literally (oversubscription is the caller's call)."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return os.cpu_count() or 1
    return workers


def _slot_main(conn, fn, initializer, initargs) -> None:
    """A slot process: answer each task with ``(ok, result or error)``
    until the ``None`` stop sentinel or the driver's end closes."""
    if initializer is not None:
        initializer(*initargs)
    with contextlib.suppress(EOFError):  # the driver's end closed
        for task in iter(conn.recv, None):
            try:
                reply = (True, fn(task))
            except Exception as exc:  # noqa: BLE001 - reported to the driver
                reply = (False, repr(exc))
            conn.send(reply)


class _LocalSlot:
    """One local transport: a forked process running ``fn`` on one task."""

    def __init__(self, executor: "ProcessExecutor", index: int) -> None:
        self.name = f"local-{index}"
        self._executor = executor
        self._process, self._conn = executor._spawn()

    def run(self, task) -> Any:
        """``fn(task)`` in the slot process; ``_ShardLost`` on any failure."""
        from repro.fabric.coordinator import _ShardLost

        timeout = self._executor.timeout
        try:
            self._conn.send(task)
            reply = self._conn.recv() if self._conn.poll(timeout) else None
        except (EOFError, OSError) as exc:
            self._respawn()
            raise _ShardLost("connection", f"slot process died: {exc!r}") from None
        if reply is None:
            self._respawn()
            raise _ShardLost("deadline", f"shard exceeded {timeout:.1f}s")
        ok, value = reply
        if not ok:
            raise _ShardLost("error", value)
        return value

    def _respawn(self) -> None:
        self.stop(kill=True)
        executor = self._executor
        with executor._lock:
            if not executor._closed:
                self._process, self._conn = executor._spawn()
                executor.respawns += 1

    def stop(self, kill: bool) -> None:
        """End the process: ``kill`` it, or send the stop sentinel (a
        closed pipe alone is no EOF: sibling slot processes forked later
        hold copies of its driver end)."""
        if not kill:
            with contextlib.suppress(OSError):  # already dead
                self._conn.send(None)
            self._process.join(timeout=5.0)
        self._process.kill()  # a no-op once the process has exited
        self._process.join()
        self._conn.close()


class ProcessExecutor:
    """``workers`` forked slot processes running ``fn``, ``timeout``
    seconds (``None``: no limit) per task.  :attr:`slots` are the
    coordinator's transports, :meth:`imap` the driver thread's wait on
    them; :attr:`respawns` counts slot processes replaced."""

    def __init__(
        self,
        workers: int,
        fn: Callable[[Any], Any],
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        timeout: float | None = None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self._target = (fn, initializer, initargs)
        self._context = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else None
        )
        self._lock = threading.Lock()
        self._closed = False
        self.respawns = 0
        self.slots = [_LocalSlot(self, index) for index in range(workers)]

    def _spawn(self):
        parent, child = self._context.Pipe()
        process = self._context.Process(
            target=_slot_main, args=(child, *self._target), daemon=True
        )
        process.start()
        child.close()
        return process, parent

    def imap(self, run: Callable[[list], Iterator], tasks) -> Iterator:
        """Yield ``run(tasks)``, a coordinator's results over :attr:`slots`:
        the driver's wait, which ``benchmarks/e2e/trace.py`` times."""
        yield from run(tasks)

    def close(self, force: bool = False) -> None:
        """End every slot process; ``force`` kills them, as leaving the
        ``with`` block on an exception does, so no child outlives a run."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for slot in self.slots:
            slot.stop(kill=force)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(force=exc_type is not None)
