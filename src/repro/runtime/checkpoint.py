"""Checkpoint/resume for long enumeration runs.

A :class:`CheckpointManager` periodically snapshots the pipeline's
resumable state — the stream cursor, the generation stamps of the
processed candidates the reducer marked strictly dominated, the frontier
(members in admission order with their refinement codes and generation
stamps, plus, on fine-to-coarse runs, the memos that decide which
strictness evidence is free), and the stats counters — to a single file,
written atomically (temp file + ``os.replace``) so a crash mid-write can
never corrupt an existing snapshot.

Snapshots are pickled, not JSON: the frontier serialization reuses the
pipeline's ``encode_tableau`` integer form, whose nested tuples must
round-trip exactly (JSON would silently turn them into lists).

Every snapshot embeds a *run key* — the encoded base tableau, target
class, and the stream-shaping knobs (``max_extra_atoms``, ``allow_fresh``,
admission order, generation regime).  :meth:`CheckpointManager.load`
refuses a snapshot whose run key differs from the current run's
(:class:`CheckpointMismatch`), because resuming a cursor into a different
stream would silently skip or duplicate candidates.

Resume soundness rests on the candidate stream being a function of the run
key and of the strictness marks the reducer feeds back to the fine-to-coarse
lattice walk (which skips the coarsenings of a strictly dominated quotient).
The resumed run regenerates the stream from the start, skips its first *k*
candidates (the processed prefix) and puts the recorded marks back on them
as it passes, so the walk prunes exactly what the interrupted run pruned and
the rest of the stream is the uninterrupted run's.  Replaying the prefix,
rather than skipping it at the source, also rebuilds the stateful
``"canonical"`` regime's seen-key set.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from repro.runtime.persist import PersistError, atomic_pickle, load_pickle

__all__ = ["CheckpointManager", "CheckpointMismatch", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1

#: Default snapshot cadence: at most once per this many admitted/seen
#: candidates, and at most once per this many seconds — whichever trips
#: first.  Both are coarse enough that snapshot cost disappears next to
#: the membership checks between snapshots.
DEFAULT_EVERY_CANDIDATES = 512
DEFAULT_EVERY_SECONDS = 5.0


class CheckpointMismatch(RuntimeError):
    """A snapshot on disk belongs to a different run configuration."""


class CheckpointManager:
    """Atomic periodic snapshots of resumable pipeline state.

    Parameters
    ----------
    path:
        Snapshot file location.  The manager owns this path: it overwrites
        it on :meth:`save` and deletes it on :meth:`finalize`.
    every_candidates / every_seconds:
        Snapshot cadence for :meth:`maybe_save`; either trips a save.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        every_candidates: int = DEFAULT_EVERY_CANDIDATES,
        every_seconds: float = DEFAULT_EVERY_SECONDS,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if every_candidates < 1:
            raise ValueError("every_candidates must be >= 1")
        if every_seconds <= 0:
            raise ValueError("every_seconds must be positive")
        self.path = os.fspath(path)
        self.every_candidates = every_candidates
        self.every_seconds = every_seconds
        self._clock = clock if clock is not None else time.monotonic
        self._since_save = 0
        self._last_save_at: float | None = None
        self.saves = 0

    # ------------------------------------------------------------------ load

    def load(self, run_key: tuple) -> dict[str, Any] | None:
        """Return the snapshot payload for ``run_key``, or ``None``.

        ``None`` means "no usable snapshot": the file is absent.  A present
        but unreadable/corrupt file raises ``CheckpointMismatch`` (the run
        should not silently restart from scratch while clobbering a file
        the operator pointed at), as does a snapshot from a different run
        configuration.
        """
        if not os.path.exists(self.path):
            return None
        try:
            payload = load_pickle(self.path)
        except PersistError as exc:
            raise CheckpointMismatch(
                f"checkpoint file {self.path!r} is unreadable: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointMismatch(
                f"checkpoint file {self.path!r} has unsupported version "
                f"{payload.get('version') if isinstance(payload, dict) else '?'!r}"
            )
        if payload.get("run_key") != run_key:
            raise CheckpointMismatch(
                f"checkpoint file {self.path!r} belongs to a different run "
                "configuration (base tableau, class, or stream knobs differ); "
                "delete it or point --checkpoint elsewhere"
            )
        return payload

    # ------------------------------------------------------------------ save

    def maybe_save(self, run_key: tuple, payload_fn: Callable[[], dict]) -> bool:
        """Save if the cadence says so; returns whether a save happened.

        ``payload_fn`` is only invoked when a save is due, so building the
        (comparatively expensive) frontier snapshot is skipped on the vast
        majority of calls.
        """
        self._since_save += 1
        now = self._clock()
        if self._last_save_at is None:
            self._last_save_at = now
        due = (
            self._since_save >= self.every_candidates
            or now - self._last_save_at >= self.every_seconds
        )
        if not due:
            return False
        self.save(run_key, payload_fn())
        return True

    def save(self, run_key: tuple, payload: dict[str, Any]) -> None:
        """Atomically write a snapshot (temp file + ``os.replace``)."""
        record = {"version": CHECKPOINT_VERSION, "run_key": run_key}
        record.update(payload)
        atomic_pickle(self.path, record)
        self._since_save = 0
        self._last_save_at = self._clock()
        self.saves += 1

    def finalize(self) -> None:
        """Remove the snapshot after a successful, complete run."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
