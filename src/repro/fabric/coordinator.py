"""The fabric coordinator: dispatch, detect, retry, speculate, degrade.

One dispatcher thread per worker pulls shards from a shared work state
and runs them remotely; the driver consumes results (including
duplicates) from a queue, keeps the first result of each shard, and
merges the shard frontiers in stream order
(:func:`repro.core.pipeline._merge_shards`).  The fault taxonomy, and
what answers each kind:

Connection fault (``kind="connection"``)
    The worker's stream died mid-shard — refused connect, EOF (a
    SIGKILL'd worker's kernel closes its sockets), or an unparseable
    frame (framing can no longer be trusted, so the shard is treated as
    lost).  The shard is re-queued for **at-least-once re-dispatch**
    after a capped exponential backoff
    (:func:`repro.parallel.backoff_delay`); a shard is a deterministic
    function of the context and its slice, so the driver drops duplicate
    completions and re-dispatching an actually-completed shard is safe.
Heartbeat fault (``kind="heartbeat"``)
    No response bytes within ``heartbeat_interval`` *and* a fresh-
    connection ``ping`` probe got no pong — the worker process is hung
    (e.g. SIGSTOP: the kernel still accepts connects, which is exactly
    why the probe waits for the pong, not the connect).  Treated like a
    lost shard.
Deadline fault (``kind="deadline"``)
    The shard exceeded ``shard_timeout`` even though the worker still
    answers probes.  Re-dispatched elsewhere; if the original completion
    arrives later anyway, it is dropped as a duplicate.
Straggler speculation
    An idle dispatcher (empty queue, undone shards in flight elsewhere
    past the speculation age) **re-executes** the oldest in-flight shard
    on its own worker — first result wins, the loser's arrival is
    dropped.  Counted in :attr:`speculations`, not faulted: nothing
    failed.
Blacklist and degradation
    ``blacklist_after`` *consecutive* failures retire a worker (its
    dispatcher exits; counted in :attr:`blacklisted`).  When every
    worker is retired, the remaining shards run **locally** through
    ``local_runner`` (the driver passes
    :func:`repro.core.pipeline.run_shard`) — the run completes with a
    degraded fabric rather than failing, mirroring the process pool's
    serial fallback one level up.

Every fault becomes a structured :class:`ShardFault` record; the driver
threads them into ``PipelineResult.faults``, as the local pool threads
its ``BatchFault`` records.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from queue import Empty, Queue

from repro.fabric.protocol import (
    FABRIC_MAX_LINE_BYTES,
    ProtocolError,
    create_connection,
    decode_blob,
    decode_message,
    encode_blob,
    encode_message,
    read_frame,
)
from repro.parallel import backoff_delay

__all__ = ["FabricCoordinator", "ShardFault"]


@dataclass(frozen=True)
class ShardFault:
    """One detected shard-level failure (see the module fault taxonomy)."""

    kind: str  # "connection" | "heartbeat" | "deadline"
    shard: tuple[int, int]
    worker: str
    error: str
    elapsed: float

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "shard": list(self.shard),
            "worker": self.worker,
            "error": self.error,
            "elapsed": self.elapsed,
        }


class _ShardLost(Exception):
    """Internal: a dispatch attempt failed; carries the fault kind."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


class _Worker:
    """Dispatcher-side bookkeeping for one worker address."""

    __slots__ = ("address", "failures")

    def __init__(self, address: str) -> None:
        self.address = address
        self.failures = 0


class FabricCoordinator:
    """Run a shard list over network workers, surviving their failures.

    ``context`` is the pickled-once shard context
    (:func:`repro.core.pipeline.run_shard`'s first argument).
    ``shard_timeout`` is the per-shard deadline (``None``: none);
    ``speculation_after`` the in-flight age before an idle worker
    re-executes a straggler (defaults to ``4 * heartbeat_interval``, or
    the shard timeout if smaller).  ``max_attempts`` caps total dispatch
    attempts per shard across all workers; a shard over the cap falls to
    the local runner.
    """

    def __init__(
        self,
        addresses,
        context: tuple,
        *,
        heartbeat_interval: float = 2.0,
        shard_timeout: float | None = None,
        blacklist_after: int = 3,
        speculation_after: float | None = None,
        max_attempts: int = 6,
        local_runner=None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        if not addresses:
            raise ValueError("the fabric needs at least one worker address")
        self._workers = [_Worker(address) for address in addresses]
        self._context_blob = encode_blob(context)
        self._context = context
        self.heartbeat_interval = heartbeat_interval
        self.shard_timeout = shard_timeout
        self.blacklist_after = blacklist_after
        if speculation_after is None:
            speculation_after = 4.0 * heartbeat_interval
            if shard_timeout is not None:
                speculation_after = min(speculation_after, shard_timeout)
        self.speculation_after = speculation_after
        self.max_attempts = max_attempts
        self._local_runner = local_runner
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap

        self._lock = threading.Condition()
        self._queue: deque = deque()  # shards awaiting (re-)dispatch
        self._done: set[int] = set()  # shard indexes with a result
        self._started: dict[int, float] = {}  # in-flight shard → start time
        self._attempts: dict[int, int] = {}  # shard → dispatch attempts
        self._running: dict[int, set[str]] = {}  # shard → workers running it
        self._results: Queue = Queue()
        self._live_dispatchers = 0
        self._total = 0

        self.faults: list[ShardFault] = []
        self.retries = 0
        self.speculations = 0
        self.blacklisted = 0
        self.heartbeat_misses = 0
        self.local_shards = 0

    # ------------------------------------------------------------ the driver

    def run(self, shards):
        """Yield ``(shard_index, encoded_members, stats_dict)`` until every
        shard has at least one result.

        Duplicate completions (speculation, a deadline-faulted shard
        finishing anyway) are yielded too — the caller drops and counts
        them.  Order is arrival order; the caller's stream-order merge
        makes the frontier independent of it.
        """
        shards = [tuple(shard) for shard in shards]
        self._total = len(shards)
        with self._lock:
            self._queue.extend(shards)
            self._live_dispatchers = len(self._workers)
        threads = [
            threading.Thread(
                target=self._dispatch_loop, args=(worker,), daemon=True
            )
            for worker in self._workers
        ]
        for thread in threads:
            thread.start()
        try:
            while True:
                with self._lock:
                    if len(self._done) >= self._total:
                        break  # graceful drain of in-flight losers below
                    degraded = self._live_dispatchers == 0
                    # Shards over their attempt budget with nobody running
                    # them will never complete remotely; once *every*
                    # undone shard is in that state the fabric has stalled
                    # even if dispatchers are alive — degrade those too.
                    stalled = not self._queue and all(
                        self._attempts.get(index, 0) >= self.max_attempts
                        and not self._running.get(index)
                        for index in range(self._total)
                        if index not in self._done
                    )
                if degraded or stalled:
                    yield from self._drain_results()
                    yield from self._run_remaining_locally()
                    return
                try:
                    item = self._results.get(timeout=0.1)
                except Empty:
                    continue
                yield item
            # Every shard has a result, but attempts may still be in
            # flight (speculation losers, deadline-faulted shards that
            # finish anyway).  Each terminates in bounded time — the read
            # loop's heartbeat/deadline detection sees to that — so wait
            # them out and absorb their results: duplicate counts and
            # fault records are then complete when ``run`` returns.
            while True:
                with self._lock:
                    pending = any(self._running.values())
                if not pending:
                    break
                try:
                    yield self._results.get(timeout=0.1)
                except Empty:
                    continue
            yield from self._drain_results()
        finally:
            with self._lock:
                self._done.update(range(self._total))  # stop dispatchers
                self._lock.notify_all()

    def _drain_results(self):
        while True:
            try:
                yield self._results.get_nowait()
            except Empty:
                return

    def _run_remaining_locally(self):
        """Degradation: every worker is blacklisted, finish the run here."""
        if self._local_runner is None:
            raise RuntimeError(
                "all fabric workers failed and no local runner is available"
            )
        with self._lock:
            remaining = [
                (index, count)
                for index, count in self._all_shards()
                if index not in self._done
            ]
        for shard in remaining:
            result = self._local_runner(self._context, shard)
            self.local_shards += 1
            with self._lock:
                self._done.add(shard[0])
            yield (shard[0], *result)

    def _all_shards(self):
        # Shard tuples are (index, count) with a shared count; recover
        # them from any bookkeeping that has seen the full set.
        count = self._total
        return [(index, count) for index in range(count)]

    # ------------------------------------------------------- dispatcher side

    def _next_task(self, worker: _Worker):
        """The worker's next shard: queued work first, then speculation.

        Blocks until work exists, every shard is done (returns ``None``),
        or the idle worker finds a straggler — an undone shard in flight
        elsewhere for longer than ``speculation_after`` that this worker
        is not already running.
        """
        with self._lock:
            while True:
                if len(self._done) >= self._total:
                    return None
                while self._queue:
                    shard = self._queue.popleft()
                    if shard[0] in self._done:
                        continue  # a duplicate completion beat the retry
                    self._mark_started(shard, worker)
                    return shard
                now = time.monotonic()
                straggler = None
                for index, started in sorted(
                    self._started.items(), key=lambda item: item[1]
                ):
                    if index in self._done:
                        continue
                    if worker.address in self._running.get(index, ()):
                        continue
                    if now - started >= self.speculation_after:
                        straggler = (index, self._total)
                        break
                if straggler is not None:
                    self.speculations += 1
                    self._mark_started(straggler, worker)
                    return straggler
                self._lock.wait(timeout=0.1)

    def _mark_started(self, shard, worker: _Worker) -> None:
        index = shard[0]
        self._started.setdefault(index, time.monotonic())
        self._attempts[index] = self._attempts.get(index, 0) + 1
        self._running.setdefault(index, set()).add(worker.address)

    def _release(self, shard, worker: _Worker, done: bool) -> None:
        with self._lock:
            index = shard[0]
            running = self._running.get(index)
            if running is not None:
                running.discard(worker.address)
            if done:
                self._done.add(index)
                self._started.pop(index, None)
            elif not running:
                self._started.pop(index, None)
            self._lock.notify_all()

    def _requeue(self, shard, worker: _Worker) -> None:
        """Put a lost shard back, unless its attempt budget ran out."""
        self._release(shard, worker, done=False)
        with self._lock:
            if shard[0] in self._done:
                return
            if self._attempts.get(shard[0], 0) >= self.max_attempts:
                # Over budget on every path: leave it for degradation —
                # the local runner picks up whatever never completed.
                return
            self.retries += 1
            self._queue.append(shard)
            self._lock.notify_all()

    def _dispatch_loop(self, worker: _Worker) -> None:
        try:
            while True:
                shard = self._next_task(worker)
                if shard is None:
                    return
                started = time.monotonic()
                try:
                    result = self._run_remote(worker, shard)
                except _ShardLost as lost:
                    elapsed = time.monotonic() - started
                    self.faults.append(
                        ShardFault(
                            lost.kind,
                            shard,
                            worker.address,
                            str(lost),
                            elapsed,
                        )
                    )
                    worker.failures += 1
                    self._requeue(shard, worker)
                    if worker.failures >= self.blacklist_after:
                        self.blacklisted += 1
                        return
                    time.sleep(
                        backoff_delay(
                            worker.failures - 1,
                            base=self._backoff_base,
                            cap=self._backoff_cap,
                        )
                    )
                else:
                    worker.failures = 0
                    self._results.put((shard[0], *result))
                    self._release(shard, worker, done=True)
        finally:
            with self._lock:
                self._live_dispatchers -= 1
                self._lock.notify_all()

    def _run_remote(self, worker: _Worker, shard) -> tuple:
        """One dispatch attempt; :class:`_ShardLost` on any failure."""
        deadline = (
            time.monotonic() + self.shard_timeout
            if self.shard_timeout is not None
            else None
        )
        try:
            sock = create_connection(
                worker.address, timeout=self.heartbeat_interval
            )
        except OSError as exc:
            raise _ShardLost("connection", f"connect failed: {exc}") from exc
        try:
            sock.sendall(
                encode_message(
                    {
                        "op": "shard",
                        "context": self._context_blob,
                        "shard": list(shard),
                    }
                )
            )
            buffer = bytearray()
            while True:
                if deadline is not None and time.monotonic() > deadline:
                    raise _ShardLost(
                        "deadline",
                        f"shard exceeded {self.shard_timeout:.1f}s",
                    )
                try:
                    frame = read_frame(sock, buffer)
                except socket.timeout:
                    # No bytes within a heartbeat: is the worker alive?
                    if self._probe(worker):
                        continue  # a straggler, not a corpse
                    self.heartbeat_misses += 1
                    raise _ShardLost(
                        "heartbeat",
                        f"no response and no pong within "
                        f"{self.heartbeat_interval:.1f}s",
                    ) from None
                except (OSError, ProtocolError) as exc:
                    raise _ShardLost(
                        "connection", f"stream failed: {exc}"
                    ) from exc
                if frame is None:
                    raise _ShardLost(
                        "connection", "connection closed before response"
                    )
                break
            try:
                response = parse_fabric_response(frame)
            except ProtocolError as exc:
                raise _ShardLost(
                    "connection", f"unparseable response: {exc}"
                ) from exc
            if not response.get("ok"):
                error = response.get("error") or {}
                raise _ShardLost(
                    "connection",
                    f"worker error: {error.get('message', 'unknown')}",
                )
            try:
                return decode_blob(response["result"])
            except (KeyError, ProtocolError) as exc:
                raise _ShardLost(
                    "connection", f"undecodable result: {exc}"
                ) from exc
        finally:
            sock.close()

    def _probe(self, worker: _Worker) -> bool:
        """Fresh-connection ping — the heartbeat's liveness verdict.

        A hung (SIGSTOP'd) worker still *accepts* connects — the kernel
        does that — so only an actual pong counts as alive.
        """
        try:
            sock = create_connection(
                worker.address, timeout=self.heartbeat_interval
            )
        except OSError:
            return False
        try:
            sock.sendall(encode_message({"op": "ping"}))
            buffer = bytearray()
            frame = read_frame(sock, buffer)
            if frame is None:
                return False
            return bool(parse_fabric_response(frame).get("ok"))
        except (OSError, ProtocolError, socket.timeout):
            return False
        finally:
            sock.close()


def parse_fabric_response(frame: bytes) -> dict:
    """Decode one response frame under the fabric's line cap."""
    return decode_message(frame, max_bytes=FABRIC_MAX_LINE_BYTES)
