"""Shared atomic-persistence helpers.

Both durable stores in the system — the checkpoint snapshots of
:mod:`repro.runtime.checkpoint` and the disk tier of the serving result
cache (:mod:`repro.serve.cache`) — need the same two guarantees:

* **Atomic replacement.**  A write lands completely or not at all: the
  payload goes to a process-private temp file first (flushed and
  fsynced), then ``os.replace`` swaps it in.  A crash mid-write
  can never corrupt an existing file, and readers never observe a partial
  one.
* **Fail-closed reads.**  A file that cannot be read back — truncated,
  garbled, wrong pickle stream — raises :class:`PersistError` instead of
  returning garbage, so every caller decides explicitly what a corrupt
  entry means (the checkpoint manager refuses to run; the result cache
  quarantines the entry and treats it as a miss).

Payloads are pickled, not JSON: both stores round-trip nested tuples of
the pipeline's integer forms, which JSON would silently turn into lists.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from typing import Any, Iterator

try:  # POSIX only; the fleet's shared cache tier needs it, the rest degrades
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "PersistError",
    "atomic_write_bytes",
    "atomic_pickle",
    "file_lock",
    "load_pickle",
]


class PersistError(RuntimeError):
    """A persisted payload is unreadable (missing, truncated, garbled)."""


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives next to the target (same filesystem, so the rename
    is atomic) and carries the pid, so concurrent writers from different
    processes never collide on it.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    finally:
        # A failed write must not leave temp droppings behind.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass


@contextlib.contextmanager
def file_lock(path: str | os.PathLike) -> Iterator[None]:
    """An advisory cross-process mutex around a read-modify-write section.

    ``os.replace`` makes single-file writes atomic, but a *merge* — read
    the current file, fold in this process's contribution, write it back
    — is a critical section: two fleet workers flushing the shared cache
    index concurrently would otherwise lose one side's counters.  The
    lock file lives beside the protected file and is never deleted
    (deleting a lock file races its next locker).  Blocks until acquired;
    on platforms without :mod:`fcntl` it degrades to a no-op, which only
    costs merge fidelity, never correctness of the entries themselves.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    fd = os.open(os.fspath(path), os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


def atomic_pickle(path: str | os.PathLike, payload: Any) -> None:
    """Pickle ``payload`` and write it atomically to ``path``."""
    atomic_write_bytes(
        path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )


def load_pickle(path: str | os.PathLike) -> Any:
    """Unpickle ``path``, raising :class:`PersistError` on any failure.

    ``AttributeError``/``ImportError`` are in the net because unpickling
    resolves class references — a payload written by a different code
    version may name classes that no longer exist, which is corruption
    from the reader's point of view.
    """
    try:
        with open(os.fspath(path), "rb") as handle:
            return pickle.load(handle)
    except (
        OSError,
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        ValueError,
    ) as exc:
        raise PersistError(f"cannot read {os.fspath(path)!r}: {exc}") from exc
