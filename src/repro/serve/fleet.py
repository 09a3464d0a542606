"""The supervised serving fleet: crash-healing multi-process serving.

One ``repro fleet`` process runs N :class:`~repro.serve.server.
ApproximationServer` *worker* subprocesses over a single shared disk
cache tier, and fronts them with a router on the same front door the
workers listen on (:class:`~repro.serve.server.JsonLinesService`: one
listener, line loop, drain and ``bad-request`` discipline) — a client
cannot tell a fleet from a single server, except that the fleet
survives what kills a server.

**Supervision** reuses the fabric coordinator's liveness discipline:

* *death* is detected two ways — ``waitpid`` (a worker whose process
  exited is dead immediately) and the periodic health probe, where only
  a *pong* counts as alive: a ``SIGSTOP``'d worker still accepts
  connects, so the probe sends ``{"op": "health"}`` on a fresh
  connection and demands a response within the timeout.  Two consecutive
  probe misses convict the worker (it is ``SIGKILL``'d and treated as
  dead);
* *restart* follows :func:`repro.parallel.backoff_delay` —
  capped-exponential, so a worker that keeps dying backs off instead of
  spinning — behind a restart-storm circuit breaker: more than
  ``max_restarts`` deaths inside ``restart_window`` seconds flips the
  slot to a structured **degraded** mode (it is reported in ``stats``
  and never restarted again) rather than a silent crash loop.

**Routing** sends each request to a worker on a fresh connection (one
round-trip helper, shared with the health probe), balances by least
outstanding requests (deterministic slot-order tie-break), retries
connection-kind faults — refused connect, dropped connection, garbled
frame — on a *different* worker with backoff, and *hedges* stragglers:
a request outstanding longer than ``hedge_after`` is duplicated on
another worker and the first response wins.  Hedging is safe because results are idempotent under the
canonical result key — the loser's answer is dropped with its
connection, and both computations would have been bit-identical anyway.
Rejections are always data: a fleet with no live workers answers
``overloaded`` (retryable, flagged ``degraded``), never a dropped
connection.

**Drain** on ``SIGTERM`` (or the ``shutdown`` op) is rolling: the
listener closes, new work is refused ``shutting-down``, in-flight
requests complete, then each worker is ``SIGTERM``'d and awaited *one at
a time* — each flushes its own section of the shared cache index
(merged under the index lock, see :meth:`repro.serve.cache.ResultCache.
flush`) on its way out.

Chaos arming: ``worker_fault_plans`` maps a slot index to the
:class:`~repro.testing.faults.FaultPlan` drill of that slot's *first*
incarnation only — a restarted worker always comes back clean, which is
exactly the repair the drills assert.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field

from repro.parallel import backoff_delay
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)
from repro.serve.server import (
    FAULT_FLAGS,
    POLICY_FLAGS,
    SERVER_FLAGS,
    JsonLinesService,
    ServerConfig,
    flag_argv,
)
from repro.testing.faults import FaultPlan

__all__ = ["FleetConfig", "Fleet"]

logger = logging.getLogger("repro.serve.fleet")


@dataclass
class FleetConfig:
    """Knobs of one serving fleet (supervisor + router + N workers).

    Exactly one of ``socket_path`` (the router's unix socket) or ``host``
    must be set.  ``run_dir`` holds the per-worker unix sockets; it
    defaults to the router socket's directory.  ``worker`` is the
    :class:`~repro.serve.server.ServerConfig` every worker runs under its
    own socket; its ``cache_dir`` is the *shared* disk tier — every worker
    reads and writes the same entries, so a request recomputed after a
    crash usually lands warm.  ``workers`` is the number of worker
    processes, not ``worker.workers`` (the pool *inside* each request's
    pipeline).
    """

    workers: int = 2
    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    run_dir: str | None = None
    worker: ServerConfig = field(default_factory=ServerConfig)
    # ---- supervision ----
    health_interval: float = 0.5
    health_timeout: float = 2.0
    health_misses: int = 2
    restart_backoff_base: float = 0.2
    restart_backoff_cap: float = 5.0
    max_restarts: int = 5
    restart_window: float = 30.0
    worker_start_deadline: float = 60.0
    # ---- routing ----
    retry_attempts: int = 3
    retry_backoff_base: float = 0.05
    retry_backoff_cap: float = 1.0
    hedge_after: float | None = None
    # ---- chaos arming: slot index -> drill, first incarnation only
    # (restarts always spawn clean) ----
    worker_fault_plans: dict[int, FaultPlan] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.socket_path is None) == (self.host is None):
            raise ValueError("set exactly one of socket_path or host")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        worker = self.worker
        if (worker.socket_path, worker.host, worker.port, worker.fault_plan) != (
            None, None, 0, None
        ):
            raise ValueError(
                "worker takes no address or fault_plan: each slot binds its "
                "own socket, and worker_fault_plans arms the drills"
            )
        if self.run_dir is None:
            if self.socket_path is None:
                raise ValueError("a TCP-fronted fleet needs an explicit run_dir")
            self.run_dir = os.path.dirname(os.path.abspath(self.socket_path))
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        for name in ("health_interval", "restart_window", "hedge_after"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


class _Slot:
    """One supervised worker position: process, socket, restart history."""

    def __init__(self, index: int, socket_path: str) -> None:
        self.index = index
        self.socket_path = socket_path
        self.proc: subprocess.Popen | None = None
        self.generation = 0  # incarnations spawned (0 = never)
        self.ready = False
        self.restarting = False
        self.degraded = False
        self.degraded_reason: str | None = None
        self.outstanding = 0
        self.probe_misses = 0
        self.restart_times: deque[float] = deque()

    def alive(self) -> bool:
        return (
            self.ready
            and not self.degraded
            and not self.restarting
            and self.proc is not None
            and self.proc.poll() is None
        )

    def summary(self) -> dict:
        proc = self.proc
        return {
            "index": self.index,
            "socket": self.socket_path,
            "pid": proc.pid if proc is not None else None,
            "exited": proc.returncode if proc is not None else None,
            "generation": self.generation,
            "ready": self.ready,
            "restarting": self.restarting,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "outstanding": self.outstanding,
            "restarts_in_window": len(self.restart_times),
        }


class _ForwardFault(Exception):
    """A connection-kind failure of one forwarded request."""


class Fleet(JsonLinesService):
    """Supervisor + router over N serving worker processes."""

    role = "fleet"

    def __init__(self, config: FleetConfig) -> None:
        super().__init__()
        self.config = config
        assert config.run_dir is not None
        self.slots = [
            _Slot(i, os.path.join(config.run_dir, f"worker-{i}.sock"))
            for i in range(config.workers)
        ]
        self._monitor_task: asyncio.Task | None = None
        self._restart_tasks: set[asyncio.Task] = set()
        # Router/supervisor counters for the fleet stats endpoint.
        self.routed = 0
        self.router_retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.unrouteable = 0
        self.worker_deaths = 0
        self.worker_restarts = 0

    # -------------------------------------------------------------- lifecycle

    async def _start(self) -> None:
        """Spawn the workers, then listen once one of them is ready."""
        os.makedirs(self.config.run_dir, exist_ok=True)
        for slot in self.slots:
            self._spawn(slot)
        ready = await asyncio.gather(
            *(
                self._await_ready(slot, self.config.worker_start_deadline)
                for slot in self.slots
            )
        )
        if not any(ready):
            self._kill_all()
            raise RuntimeError("no fleet worker became ready")
        for slot, ok in zip(self.slots, ready):
            if not ok:
                self._schedule_restart(slot, "never became ready")
        self._bind(self.config.socket_path, self.config.host, self.config.port)
        print(
            f"repro fleet: router listening on {self.address} "
            f"({sum(1 for s in self.slots if s.alive())}/"
            f"{self.config.workers} workers ready)",
            file=sys.stderr,
        )
        self._monitor_task = asyncio.create_task(self._monitor())

    async def _stop(self) -> None:
        """Stop supervising, then drain the workers one at a time."""
        self._monitor_task.cancel()
        for task in list(self._restart_tasks):
            task.cancel()
        await self._shutdown_workers()
        print(
            f"repro fleet: drained (routed {self.routed}, retried "
            f"{self.router_retries}, hedged {self.hedges}, healed "
            f"{self.worker_restarts} worker death(s)); workers stopped",
            file=sys.stderr,
        )

    # ------------------------------------------------------------- supervisor

    def _worker_command(self, slot: _Slot) -> list[str]:
        cfg = self.config
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            slot.socket_path,
            *flag_argv(cfg.worker, POLICY_FLAGS + SERVER_FLAGS),
        ]
        plan = cfg.worker_fault_plans.get(slot.index)
        if plan is not None and slot.generation == 0:  # first incarnation only
            command += flag_argv(plan, FAULT_FLAGS)
        return command

    def _spawn(self, slot: _Slot) -> None:
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        try:
            os.unlink(slot.socket_path)
        except OSError:
            pass
        slot.proc = subprocess.Popen(
            self._worker_command(slot),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        slot.generation += 1
        slot.ready = False
        slot.probe_misses = 0

    async def _round_trip(self, slot: _Slot, request: dict) -> dict:
        """One request on a fresh connection to ``slot``'s worker; raises
        ``OSError`` on a lost answer, :class:`ProtocolError` on a garbled one."""
        reader, writer = await asyncio.open_unix_connection(
            slot.socket_path, limit=MAX_LINE_BYTES + 1024
        )
        try:
            writer.write(encode_message(request))
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError("worker closed the connection")
            return decode_message(line)
        finally:
            writer.close()

    async def _probe(self, slot: _Slot, op: str = "health") -> dict | None:
        """One liveness/stats probe on a fresh connection.

        Only a response counts as alive — a ``SIGSTOP``'d worker still
        *accepts* (the listener backlog is kernel state), so a connect is
        not a pong.  Returns the response payload, or ``None``.
        """
        try:
            response = await asyncio.wait_for(
                self._round_trip(slot, {"op": op}), self.config.health_timeout
            )
        except (OSError, asyncio.TimeoutError, ValueError):
            return None  # ValueError: a garbled or oversized frame
        return response if response.get("ok") else None

    async def _await_ready(self, slot: _Slot, deadline: float) -> bool:
        end = time.monotonic() + deadline
        delay = 0.02
        while time.monotonic() < end:
            if slot.proc is None or slot.proc.poll() is not None:
                return False  # died while starting
            if await self._probe(slot) is not None:
                slot.ready = True
                slot.probe_misses = 0
                return True
            await asyncio.sleep(delay)
            delay = min(0.3, delay * 1.5)
        return False

    async def _monitor(self) -> None:
        """Detect deaths (waitpid + probe) and schedule restarts."""
        while not self._draining:
            await asyncio.sleep(self.config.health_interval)
            for slot in self.slots:
                if self._draining:
                    return
                if slot.degraded or slot.restarting or slot.proc is None:
                    continue
                code = slot.proc.poll()
                if code is not None:
                    self._schedule_restart(slot, f"exited with code {code}")
                    continue
                if await self._probe(slot) is not None:
                    slot.probe_misses = 0
                    continue
                slot.probe_misses += 1
                if slot.probe_misses >= self.config.health_misses:
                    # Hung, not dead (SIGSTOP, wedged loop): convict it.
                    slot.ready = False
                    try:
                        slot.proc.kill()
                    except OSError:
                        pass
                    self._schedule_restart(
                        slot,
                        f"unresponsive ({slot.probe_misses} probe misses; "
                        "no pong within the timeout)",
                    )

    def _schedule_restart(self, slot: _Slot, reason: str) -> None:
        if slot.restarting or slot.degraded:
            return
        slot.restarting = True
        slot.ready = False
        task = asyncio.get_running_loop().create_task(
            self._restart(slot, reason)
        )
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart(self, slot: _Slot, reason: str) -> None:
        """Heal one dead/hung slot: reap, backoff, respawn, re-probe.

        Loops until the worker is back (counted in ``worker_restarts``),
        the restart-storm breaker trips (structured degraded mode), or
        the fleet drains.
        """
        loop = asyncio.get_running_loop()
        try:
            while not self._draining:
                self.worker_deaths += 1
                logger.warning(
                    "fleet worker %d (gen %d) down: %s",
                    slot.index,
                    slot.generation,
                    reason,
                )
                proc = slot.proc
                if proc is not None:
                    if proc.poll() is None:
                        try:
                            proc.kill()
                        except OSError:
                            pass
                    await loop.run_in_executor(None, proc.wait)
                now = time.monotonic()
                window = slot.restart_times
                while window and now - window[0] > self.config.restart_window:
                    window.popleft()
                if len(window) >= self.config.max_restarts:
                    # The circuit breaker: a crash-looping worker is
                    # retired loudly, never silently respun forever.
                    slot.degraded = True
                    slot.degraded_reason = (
                        f"{len(window)} restarts within "
                        f"{self.config.restart_window}s (last: {reason})"
                    )
                    logger.error(
                        "fleet worker %d degraded: %s",
                        slot.index,
                        slot.degraded_reason,
                    )
                    return
                window.append(now)
                await asyncio.sleep(
                    backoff_delay(
                        len(window) - 1,
                        base=self.config.restart_backoff_base,
                        cap=self.config.restart_backoff_cap,
                    )
                )
                if self._draining:
                    return
                self._spawn(slot)
                if await self._await_ready(
                    slot, self.config.worker_start_deadline
                ):
                    self.worker_restarts += 1
                    logger.info(
                        "fleet worker %d healed (gen %d, pid %s)",
                        slot.index,
                        slot.generation,
                        slot.proc.pid if slot.proc else None,
                    )
                    return
                reason = "respawned worker never became ready"
        finally:
            slot.restarting = False

    def _kill_all(self) -> None:
        for slot in self.slots:
            if slot.proc is not None and slot.proc.poll() is None:
                try:
                    slot.proc.kill()
                except OSError:
                    pass

    async def _shutdown_workers(self) -> None:
        """Rolling drain: SIGTERM + await each worker one at a time."""
        loop = asyncio.get_running_loop()
        for slot in self.slots:
            proc = slot.proc
            slot.ready = False
            if proc is None or proc.poll() is not None:
                continue
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:
                continue
            try:
                await asyncio.wait_for(
                    loop.run_in_executor(None, proc.wait), timeout=60.0
                )
            except asyncio.TimeoutError:
                logger.error(
                    "fleet worker %d did not drain; killing it", slot.index
                )
                proc.kill()
                await loop.run_in_executor(None, proc.wait)

    # ----------------------------------------------------------------- router

    async def _handle_request(
        self, writer: asyncio.StreamWriter, request: dict
    ) -> bool:
        request_id = request.get("id")
        op = request["op"]
        if op in ("stats", "health"):
            payload = await self.stats_payload(probe_workers=op == "stats")
            await self._send(writer, ok_response(request_id, **payload))
            return False
        return await self._serve_work(
            writer, request_id, lambda: self._dispatch(request)
        )

    def _pick_slot(self, avoid: frozenset[int] | set[int]) -> _Slot | None:
        """Least-outstanding live worker, lowest index breaking ties."""
        candidates = [
            slot
            for slot in self.slots
            if slot.alive() and slot.index not in avoid
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda slot: (slot.outstanding, slot.index))

    async def _forward_once(self, slot: _Slot, request: dict) -> dict:
        """One forwarded request on one fresh backend connection."""
        slot.outstanding += 1
        self.routed += 1
        try:
            return await self._round_trip(slot, request)
        finally:
            slot.outstanding -= 1

    async def _forward_hedged(self, primary_slot: _Slot, request: dict) -> dict:
        """Forward with straggler hedging; first response wins.

        Safe under the canonical result key: primary and hedge compute
        (or warm-hit) bit-identical answers, so dropping the loser loses
        nothing.  One hedge per attempt — fan-out is bounded at 2.
        """
        primary = asyncio.ensure_future(self._forward_once(primary_slot, request))
        tasks: dict[asyncio.Task, _Slot] = {primary: primary_slot}
        hedged = False
        last_error: Exception | None = None
        try:
            while tasks:
                timeout = (
                    self.config.hedge_after
                    if self.config.hedge_after is not None and not hedged
                    else None
                )
                done, _ = await asyncio.wait(
                    set(tasks),
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    # The primary is a straggler: duplicate it elsewhere.
                    hedged = True
                    other = self._pick_slot(
                        {slot.index for slot in tasks.values()}
                    )
                    if other is not None:
                        self.hedges += 1
                        tasks[
                            asyncio.ensure_future(
                                self._forward_once(other, request)
                            )
                        ] = other
                    continue
                for task in done:
                    tasks.pop(task)
                    try:
                        response = task.result()
                    except (ConnectionError, OSError, ProtocolError) as exc:
                        last_error = exc
                        continue
                    if hedged and task is not primary:
                        self.hedge_wins += 1
                    return response
            raise _ForwardFault(repr(last_error))
        finally:
            for task in tasks:
                task.cancel()
                task.add_done_callback(
                    lambda t: t.cancelled() or t.exception()
                )

    async def _dispatch(self, request: dict) -> dict:
        """Route one work op: balance, retry elsewhere, hedge stragglers."""
        request_id = request.get("id")
        avoid: set[int] = set()
        last_fault: _ForwardFault | None = None
        for attempt in range(self.config.retry_attempts):
            if attempt:
                self.router_retries += 1
                await asyncio.sleep(
                    backoff_delay(
                        attempt - 1,
                        base=self.config.retry_backoff_base,
                        cap=self.config.retry_backoff_cap,
                    )
                )
            # Prefer a worker this request has not failed on; a one-worker
            # fleet (or one mid-heal) may legitimately retry in place.
            slot = self._pick_slot(avoid) or self._pick_slot(frozenset())
            if slot is None:
                self.unrouteable += 1
                return error_response(
                    request_id,
                    kind="overloaded",
                    message=(
                        "no live fleet workers (supervisor healing or "
                        "degraded); retry later"
                    ),
                    degraded=all(
                        slot.degraded or not slot.alive()
                        for slot in self.slots
                    ),
                    retryable=True,
                )
            try:
                return await self._forward_hedged(slot, request)
            except _ForwardFault as fault:
                avoid.add(slot.index)
                last_fault = fault
        self.unrouteable += 1
        return error_response(
            request_id,
            kind="overloaded",
            message=(
                f"request failed on {self.config.retry_attempts} worker "
                f"attempt(s); last fault: {last_fault}"
            ),
            retryable=True,
        )

    # ------------------------------------------------------------------ stats

    async def stats_payload(self, probe_workers: bool = False) -> dict:
        live = sum(1 for slot in self.slots if slot.alive())
        payload = {
            "protocol": PROTOCOL_VERSION,
            "role": "fleet",
            "pid": os.getpid(),
            "uptime": round(time.time() - self.started_at, 3),
            "draining": self._draining,
            "workers_configured": self.config.workers,
            "live_workers": live,
            "degraded_workers": sum(1 for slot in self.slots if slot.degraded),
            "requests": self.requests,
            "routed": self.routed,
            "router_retries": self.router_retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "unrouteable": self.unrouteable,
            "refused_draining": self.refused_draining,
            "bad_requests": self.bad_requests,
            "worker_deaths": self.worker_deaths,
            "worker_restarts": self.worker_restarts,
            "slots": [slot.summary() for slot in self.slots],
        }
        if probe_workers:
            worker_stats: dict[str, dict] = {}
            for slot in self.slots:
                if not slot.alive():
                    continue
                stats = await self._probe(slot, op="stats")
                if stats is not None:
                    worker_stats[str(slot.index)] = {
                        name: stats.get(name)
                        for name in (
                            "pid",
                            "requests",
                            "served",
                            "queue_depth",
                            "cache",
                            "cache_disk_entries",
                            "cache_resident_bytes",
                            "cache_max_bytes",
                        )
                    }
            payload["worker_stats"] = worker_stats
        return payload
