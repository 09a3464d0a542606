"""Tests for the shared atomic-persistence helpers (:mod:`repro.runtime.persist`).

The checkpoint snapshots and the serving cache's disk tier both rest on
these guarantees: a write replaces the target completely or not at all,
leaves no temp file behind, is fsynced before the rename, and a read of a
missing or damaged file raises :class:`PersistError` instead of returning
garbage.  :func:`file_lock` must exclude a second locker until released.
"""

from __future__ import annotations

import os
import pickle
import threading

import pytest

from repro.runtime import persist
from repro.runtime.persist import (
    PersistError,
    atomic_pickle,
    atomic_write_bytes,
    file_lock,
    load_pickle,
)


def _leftovers(directory) -> list[str]:
    return sorted(name for name in os.listdir(directory) if ".tmp." in name)


class TestAtomicWrites:
    def test_pickle_round_trip_keeps_nested_tuples(self, tmp_path):
        payload = {"frontier": ((0, 1, 0), (0, 1, 2)), "cursor": 17}
        target = tmp_path / "state.pkl"
        atomic_pickle(target, payload)
        loaded = load_pickle(target)
        assert loaded == payload
        # Tuples stay tuples (the reason payloads are pickled, not JSON).
        assert type(loaded["frontier"][0]) is tuple
        assert _leftovers(tmp_path) == []

    def test_write_replaces_existing_file(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"old contents, longer than the new")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"
        assert _leftovers(tmp_path) == []

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"committed")

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(persist.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(target, b"half-written replacement")
        assert target.read_bytes() == b"committed"
        assert _leftovers(tmp_path) == []

    def test_every_write_fsyncs_before_replace(self, tmp_path, monkeypatch):
        events: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def recording_replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(persist.os, "fsync", recording_fsync)
        monkeypatch.setattr(persist.os, "replace", recording_replace)
        atomic_write_bytes(tmp_path / "a", b"bytes")
        atomic_pickle(tmp_path / "b", ("pickled",))
        assert events == ["fsync", "replace", "fsync", "replace"]


class TestFailClosedReads:
    @pytest.mark.parametrize(
        "damage",
        ["missing", "empty", "garbled", "truncated"],
    )
    def test_unreadable_payload_raises_persist_error(self, tmp_path, damage):
        target = tmp_path / "state.pkl"
        whole = pickle.dumps(
            {"members": [(0, 1, 2)] * 50}, protocol=pickle.HIGHEST_PROTOCOL
        )
        if damage == "empty":
            target.write_bytes(b"")
        elif damage == "garbled":
            target.write_bytes(b"not a pickle stream")
        elif damage == "truncated":
            target.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(PersistError, match="cannot read"):
            load_pickle(target)


class TestFileLock:
    def test_second_locker_waits_for_release(self, tmp_path):
        lock_path = tmp_path / "index.lock"
        entered = threading.Event()

        def second_locker():
            with file_lock(lock_path):
                entered.set()

        with file_lock(lock_path):
            thread = threading.Thread(target=second_locker, daemon=True)
            thread.start()
            assert not entered.wait(0.2)
        assert entered.wait(10.0)
        thread.join(10.0)
        assert not thread.is_alive()
        # The lock file is kept (deleting it would race the next locker).
        assert lock_path.exists()

    def test_read_modify_write_loses_no_update(self, tmp_path):
        counter = tmp_path / "counter.pkl"
        atomic_pickle(counter, 0)
        lock_path = tmp_path / "counter.lock"

        def bump(times: int) -> None:
            for _ in range(times):
                with file_lock(lock_path):
                    value = load_pickle(counter)
                    atomic_pickle(counter, value + 1)

        threads = [threading.Thread(target=bump, args=(25,)) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert load_pickle(counter) == 100
