"""The shard coordinator: dispatch, detect, retry, speculate, degrade.

Every sharded pipeline run goes through :class:`FabricCoordinator`.  It
keeps one dispatcher thread per *slot*; a slot is a transport that runs
one shard at a time and reports every failure as a lost shard:

* a fabric slot (built here from a worker address) sends the shard over
  a socket to a ``repro worker``, watching the stream with heartbeats;
* a local slot (:class:`repro.parallel.ProcessExecutor`) runs it in one
  forked process under ``shard_timeout``, killing and respawning the
  process after a timeout or a death.

Dispatchers pull shards from a shared work state; the driver consumes
results (duplicates included) from a queue, keeps the first result of
each shard, and merges the shard frontiers in stream order
(:func:`repro.core.pipeline._merge_shards`).  The fault taxonomy:

Connection fault (``kind="connection"``)
    The slot's stream died mid-shard: a refused connect, EOF (a killed
    worker or slot process), or an unparseable frame (framing can no
    longer be trusted).
Heartbeat fault (``kind="heartbeat"``)
    Fabric only: no response bytes within ``heartbeat_interval`` *and* a
    fresh-connection ``ping`` probe got no pong — the worker is hung
    (a SIGSTOP'd worker still accepts connects, which is exactly why the
    probe waits for the pong, not the connect).
Deadline fault (``kind="deadline"``)
    The shard exceeded ``shard_timeout``.  If a fabric worker's original
    completion arrives later anyway, it is dropped as a duplicate.
Error fault (``kind="error"``)
    The shard raised — in a slot process, on a fabric worker, or in the
    driver's own last attempt.

Every lost shard is re-queued for **at-least-once re-dispatch** after a
capped exponential backoff (:func:`repro.parallel.backoff_delay`).  A
shard is a deterministic function of the context and its slice, so a
retry returns exactly what the lost attempt would have, and the driver
drops duplicate completions.

Straggler speculation
    An idle dispatcher (empty queue, undone shards in flight elsewhere
    past the speculation age) **re-executes** the oldest in-flight shard
    on its own slot — first result wins, the loser's arrival is dropped.
    Counted in :attr:`speculations`, not faulted: nothing failed.
Blacklist and degradation
    ``blacklist_after`` *consecutive* failures retire a slot (its
    dispatcher exits; counted in :attr:`blacklisted`).  When every slot
    is retired, or every undone shard is out of attempts, the remaining
    shards run in the driver through ``local_runner`` (the driver passes
    :func:`repro.core.pipeline.run_shard`).  A shard that raises there
    too is given up: its slice is skipped, counted in
    :attr:`quarantined`, and the run returns the sound partial frontier
    of the other shards.

Every fault becomes a structured :class:`ShardFault` record; the driver
threads them into ``PipelineResult.faults``.
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

    kind: str  # "connection" | "heartbeat" | "deadline" | "error"
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
    """A slot's dispatch attempt failed; carries the fault kind."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


class FabricCoordinator:
    """Run a shard list over slots, surviving their failures.

    ``slots`` are worker addresses (each becomes a socket transport) or
    transport objects with a ``name`` and a ``run(shard)`` that returns
    :func:`repro.core.pipeline.run_shard`'s result or raises
    :class:`_ShardLost`, such as :attr:`repro.parallel.ProcessExecutor.
    slots`.  ``context`` is the shard context (``run_shard``'s first
    argument).  ``shard_timeout`` is the fabric slots' per-shard deadline
    (``None``: none; local slots enforce their own);
    ``speculation_after`` the in-flight age before an idle slot
    re-executes a straggler (defaults to ``4 * heartbeat_interval``, or
    the shard timeout if smaller).  ``max_attempts`` caps total dispatch
    attempts per shard across all slots; a shard over the cap falls to
    the local runner.
    """

    def __init__(
        self,
        slots,
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
        if not slots:
            raise ValueError("the coordinator needs at least one slot")
        blob = None
        self._slots = []
        for slot in slots:
            if isinstance(slot, str):
                if blob is None:
                    blob = encode_blob(context)
                slot = _RemoteSlot(slot, blob, heartbeat_interval, shard_timeout)
            self._slots.append(slot)
        self._context = context
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
        self._running: dict[int, set] = {}  # shard → slots running it
        self._results: Queue = Queue()
        self._live_dispatchers = 0
        self._total = 0

        self.faults: list[ShardFault] = []
        self.retries = 0
        self.speculations = 0
        self.blacklisted = 0
        self.heartbeat_misses = 0
        self.local_shards = 0
        self.quarantined = 0

    # ------------------------------------------------------------ the driver

    def run(self, shards):
        """Yield ``(shard_index, encoded_members, stats_dict)`` until every
        shard has a result or is given up.

        Duplicate completions (speculation, a deadline-faulted shard
        finishing anyway) are yielded too — the caller drops and counts
        them.  Order is arrival order; the caller's stream-order merge
        makes the frontier independent of it.
        """
        shards = [tuple(shard) for shard in shards]
        self._total = len(shards)
        with self._lock:
            self._queue.extend(shards)
            self._live_dispatchers = len(self._slots)
        threads = [
            threading.Thread(
                target=self._dispatch_loop, args=(slot,), daemon=True
            )
            for slot in self._slots
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
                    # undone shard is in that state the slots have stalled
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
        """Degradation: no slot can finish the run, so the driver does.

        A shard that raises here as well is given up — a sound omission
        recorded as an ``"error"`` fault and counted in ``quarantined``.
        """
        if self._local_runner is None:
            raise RuntimeError(
                "every slot failed and no local runner is available"
            )
        with self._lock:
            remaining = [
                (index, self._total)
                for index in range(self._total)
                if index not in self._done
            ]
        for shard in remaining:
            started = time.monotonic()
            try:
                result = self._local_runner(self._context, shard)
            except Exception as exc:  # noqa: BLE001 - the last attempt
                self.faults.append(
                    ShardFault(
                        "error",
                        shard,
                        "driver",
                        repr(exc),
                        time.monotonic() - started,
                    )
                )
                self.quarantined += 1
                result = None
            else:
                self.local_shards += 1
            with self._lock:
                self._done.add(shard[0])
            if result is not None:
                yield (shard[0], *result)

    # ------------------------------------------------------- dispatcher side

    def _next_task(self, slot):
        """The slot's next shard: queued work first, then speculation.

        Blocks until work exists, every shard is done (returns ``None``),
        or the idle slot finds a straggler — an undone shard in flight
        elsewhere for longer than ``speculation_after`` that this slot is
        not already running.
        """
        with self._lock:
            while True:
                if len(self._done) >= self._total:
                    return None
                while self._queue:
                    shard = self._queue.popleft()
                    if shard[0] in self._done:
                        continue  # a duplicate completion beat the retry
                    self._mark_started(shard, slot)
                    return shard
                now = time.monotonic()
                straggler = None
                for index, started in sorted(
                    self._started.items(), key=lambda item: item[1]
                ):
                    if index in self._done:
                        continue
                    if slot in self._running.get(index, ()):
                        continue
                    if now - started >= self.speculation_after:
                        straggler = (index, self._total)
                        break
                if straggler is not None:
                    self.speculations += 1
                    self._mark_started(straggler, slot)
                    return straggler
                self._lock.wait(timeout=0.1)

    def _mark_started(self, shard, slot) -> None:
        index = shard[0]
        self._started.setdefault(index, time.monotonic())
        self._attempts[index] = self._attempts.get(index, 0) + 1
        self._running.setdefault(index, set()).add(slot)

    def _release(self, shard, slot, done: bool) -> None:
        """Take ``slot`` off ``shard``; call with the lock held."""
        index = shard[0]
        running = self._running.get(index)
        if running is not None:
            running.discard(slot)
        if done:
            self._done.add(index)
            self._started.pop(index, None)
        elif not running:
            self._started.pop(index, None)
        self._lock.notify_all()

    def _requeue(self, shard, slot, fault: ShardFault) -> None:
        """Record ``fault`` and put the lost shard back, unless its
        attempt budget ran out."""
        with self._lock:
            self.faults.append(fault)
            if fault.kind == "heartbeat":
                self.heartbeat_misses += 1
            self._release(shard, slot, done=False)
            if shard[0] in self._done:
                return
            if self._attempts.get(shard[0], 0) >= self.max_attempts:
                # Over budget on every path: leave it for degradation —
                # the local runner picks up whatever never completed.
                return
            self.retries += 1
            self._queue.append(shard)

    def _dispatch_loop(self, slot) -> None:
        failures = 0  # consecutive
        try:
            while True:
                shard = self._next_task(slot)
                if shard is None:
                    return
                started = time.monotonic()
                try:
                    result = slot.run(shard)
                except _ShardLost as lost:
                    elapsed = time.monotonic() - started
                    self._requeue(
                        shard,
                        slot,
                        ShardFault(lost.kind, shard, slot.name, str(lost), elapsed),
                    )
                    failures += 1
                    if failures >= self.blacklist_after:
                        with self._lock:
                            self.blacklisted += 1
                        return
                    time.sleep(
                        backoff_delay(
                            failures - 1,
                            base=self._backoff_base,
                            cap=self._backoff_cap,
                        )
                    )
                else:
                    failures = 0
                    # One critical section for the result and the done
                    # mark: the driver never sees the shard done without
                    # its result queued, nor waits on a queued last result.
                    with self._lock:
                        self._results.put((shard[0], *result))
                        self._release(shard, slot, done=True)
        finally:
            with self._lock:
                self._live_dispatchers -= 1
                self._lock.notify_all()


class _RemoteSlot:
    """A fabric transport: one ``repro worker`` address."""

    def __init__(
        self,
        address: str,
        context_blob: str,
        heartbeat_interval: float,
        shard_timeout: float | None,
    ) -> None:
        self.name = address
        self._context_blob = context_blob
        self.heartbeat_interval = heartbeat_interval
        self.shard_timeout = shard_timeout

    def run(self, shard) -> tuple:
        """One dispatch attempt; :class:`_ShardLost` on any failure."""
        deadline = (
            time.monotonic() + self.shard_timeout
            if self.shard_timeout is not None
            else None
        )
        try:
            sock = create_connection(self.name, timeout=self.heartbeat_interval)
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
                    if self._probe():
                        continue  # a straggler, not a corpse
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
                    "error",
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

    def _probe(self) -> bool:
        """Fresh-connection ping — the heartbeat's liveness verdict.

        A hung (SIGSTOP'd) worker still *accepts* connects — the kernel
        does that — so only an actual pong counts as alive.
        """
        try:
            sock = create_connection(self.name, timeout=self.heartbeat_interval)
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
