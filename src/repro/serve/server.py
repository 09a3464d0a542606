"""The resident approximation daemon.

One process hosts one engine (the process-wide
:func:`~repro.homomorphism.engine.default_engine`, whose ``hom_le`` /
canonical-key / index memos therefore survive across requests) behind an
asyncio front end speaking the JSON-lines protocol of
:mod:`repro.serve.protocol` over a unix or TCP stream socket.

Fault isolation is the design center — this is PR 6's robustness substrate
lifted into a serving layer, where anything that goes wrong is scoped to
*one request*:

* a request whose pipeline raises gets a structured ``internal`` error,
  the server lives on;
* a request whose local slot processes die or hang past
  ``--shard-timeout`` is healed by the shard coordinator
  (:class:`~repro.fabric.coordinator.FabricCoordinator`: the process is
  respawned and the shard retried, or finally run in the daemon itself) —
  the answer stays complete and the server is never poisoned;
* a request that exhausts its :class:`~repro.runtime.budget.RunBudget`
  (derived per request from the server's deadline/memory policy) is served
  as an explicitly-partial sound frontier (``exhausted`` set);
* a corrupt disk-cache entry is quarantined and recomputed
  (:mod:`repro.serve.cache`), never raised.

Admission control bounds the request queue (``queue_limit`` admitted at
once); excess load is *shed* with a structured ``overloaded`` response —
data, not a dropped connection.  ``SIGTERM``/``SIGINT`` (or the
``shutdown`` op) starts a graceful drain: the listener closes, new work is
refused with ``shutting-down``, in-flight requests run to completion and
their responses are written, then the cache index is flushed and
:meth:`ApproximationServer.run` returns.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.core import (
    ApproximationConfig,
    DEFAULT_CONFIG,
    PipelineStats,
    all_approximations,
    approximate,
    class_from_name,
)
from repro.cq import ConjunctiveQuery, parse_query
from repro.cq.parser import CQParseError
from repro.serve.cache import (
    ResultCache,
    canonical_representative,
    canonical_result_key,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from repro.testing.faults import NETWORK_KINDS

__all__ = ["ServerConfig", "ApproximationServer"]


class _RequestError(Exception):
    """A request-scoped failure with a structured error kind."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


@dataclass
class ServerConfig:
    """Knobs of one serving daemon.

    Exactly one of ``socket_path`` (unix socket) or ``host`` must be set.
    ``queue_limit`` bounds *admitted* requests (queued plus running);
    ``concurrency`` sizes the executor actually running pipelines.  The
    policy knobs (``request_deadline``, ``memory_limit``,
    ``max_candidates``, ``workers``, ``shard_timeout``) become each
    request's :class:`~repro.core.ApproximationConfig` — a client may ask
    for a *shorter* deadline than the server policy, never a longer one.

    ``enable_test_ops`` adds the ``sleep`` op (a request of controllable
    duration, which the lifecycle tests and fault drills need);
    ``fault_plan`` injects a :class:`~repro.testing.faults.FaultPlan`:
    ``kind="corrupt"`` plans go to the disk cache's write seam, the
    :data:`~repro.testing.faults.NETWORK_KINDS` arm the *response seam*
    (the ``at_check``-th work-op response is dropped, delayed, or garbled
    — the fleet router's retry/hedge drills), and every other kind wraps
    each request's query class in a
    :class:`~repro.testing.faults.FaultyClass` (the worker-kill drill).
    """

    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    queue_limit: int = 32
    concurrency: int = 2
    request_deadline: float | None = None
    memory_limit: int | None = None
    max_candidates: int | None = None
    exact_limit: int = DEFAULT_CONFIG.exact_limit
    max_extra_atoms: int = DEFAULT_CONFIG.max_extra_atoms
    workers: int = 1
    shard_timeout: float | None = None
    cache_capacity: int = 1024
    cache_max_bytes: int | None = None
    cache_dir: str | None = None
    enable_test_ops: bool = False
    fault_plan: Any = None

    def __post_init__(self) -> None:
        if (self.socket_path is None) == (self.host is None):
            raise ValueError("set exactly one of socket_path or host")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


class ApproximationServer:
    """Resident engine + canonical result cache + admission control."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        plan = config.fault_plan
        corrupt_plan = plan if plan is not None and plan.kind == "corrupt" else None
        self._network_plan = (
            plan if plan is not None and plan.kind in NETWORK_KINDS else None
        )
        self._class_plan = (
            plan
            if plan is not None
            and plan.kind != "corrupt"
            and plan.kind not in NETWORK_KINDS
            else None
        )
        self._work_responses = 0
        self.cache = ResultCache(
            config.cache_capacity,
            config.cache_dir,
            max_bytes=config.cache_max_bytes,
            fault_plan=corrupt_plan,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.concurrency, thread_name_prefix="repro-serve"
        )
        self._active = 0
        self._draining = False
        self._shutdown_event: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._connections: set[asyncio.Task] = set()
        self.started_at = time.time()
        self.address: Any = None
        # Request-level counters for the stats/health endpoint.
        self.requests = 0
        self.served = 0
        self.load_shed = 0
        self.refused_draining = 0
        self.bad_requests = 0
        self.internal_errors = 0
        self.drained = 0
        self.fault_counters = {
            "pool_respawns": 0,
            "quarantined": 0,
            "shard_faults": 0,
        }

    # -------------------------------------------------------------- lifecycle

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe).

        From a non-event-loop thread, schedule it with
        ``loop.call_soon_threadsafe(server.request_shutdown)``.
        """
        self._draining = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def run(self) -> None:
        """Serve until a shutdown is requested, then drain and return."""
        loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        if self._draining:  # shutdown requested before start
            self._shutdown_event.set()
        limit = MAX_LINE_BYTES + 1024
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.config.socket_path, limit=limit
            )
            self.address = self.config.socket_path
        else:
            self._server = await asyncio.start_server(
                self._on_connection,
                host=self.config.host,
                port=self.config.port,
                limit=limit,
            )
            self.address = self._server.sockets[0].getsockname()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (tests/benchmarks hosting the server
                # in a background thread) or an unsupported platform; the
                # shutdown op and request_shutdown() still work.
                pass
        print(f"repro serve: listening on {self.address}", file=sys.stderr)
        try:
            await self._shutdown_event.wait()
            await self._drain()
        finally:
            self._executor.shutdown(wait=True)
            self.cache.flush()
            if self.config.socket_path is not None:
                try:
                    os.unlink(self.config.socket_path)
                except OSError:
                    pass
        print(
            f"repro serve: drained ({self.drained} request(s) completed "
            "during shutdown); cache index flushed",
            file=sys.stderr,
        )

    async def _drain(self) -> None:
        """Close the listener, let admitted requests finish, flush writers."""
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        while self._active:
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=2.0)

    # ------------------------------------------------------------ connections

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Stream limit overrun: framing is gone; answer once,
                    # then hang up.
                    await self._send(
                        writer,
                        error_response(
                            None,
                            kind="bad-request",
                            message=f"line exceeds {MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                fatal = await self._handle_line(writer, line)
                if fatal:
                    break
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(encode_message(payload))
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _handle_line(
        self, writer: asyncio.StreamWriter, line: bytes
    ) -> bool:
        """Dispatch one request line; returns whether to drop the connection."""
        self.requests += 1
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.bad_requests += 1
            await self._send(
                writer, error_response(None, kind=exc.kind, message=str(exc))
            )
            return exc.fatal
        request_id = request.get("id")
        op = request["op"]

        if op in ("stats", "health"):
            await self._send(writer, ok_response(request_id, **self.stats_payload()))
            return False

        if op == "shutdown":
            await self._send(writer, ok_response(request_id, draining=True))
            self.request_shutdown()
            return False

        if op == "sleep" and not self.config.enable_test_ops:
            self.bad_requests += 1
            await self._send(
                writer,
                error_response(
                    request_id,
                    kind="bad-request",
                    message="sleep is a test op (start the server with test ops enabled)",
                ),
            )
            return False

        # ---- admission control for the work-carrying ops ----
        if self._draining:
            self.refused_draining += 1
            await self._send(
                writer,
                error_response(
                    request_id,
                    kind="shutting-down",
                    message="server is draining; no new work is admitted",
                ),
            )
            return False
        if self._active >= self.config.queue_limit:
            self.load_shed += 1
            await self._send(
                writer,
                error_response(
                    request_id,
                    kind="overloaded",
                    message=(
                        f"request queue full ({self._active} admitted, "
                        f"limit {self.config.queue_limit}); retry later"
                    ),
                    queue_depth=self._active,
                    queue_limit=self.config.queue_limit,
                ),
            )
            return False

        self._active += 1
        try:
            loop = asyncio.get_running_loop()
            started = time.perf_counter()
            if op == "sleep":
                seconds = float(request.get("seconds", 0.1))
                await loop.run_in_executor(self._executor, time.sleep, seconds)
                response = ok_response(request_id, slept=seconds)
            else:  # approximate
                try:
                    fields = await loop.run_in_executor(
                        self._executor, self._serve_approximate, request
                    )
                    fields["seconds"] = round(time.perf_counter() - started, 6)
                    response = ok_response(request_id, **fields)
                    self.served += 1
                except _RequestError as exc:
                    if exc.kind == "bad-request":
                        self.bad_requests += 1
                    else:
                        self.internal_errors += 1
                    response = error_response(
                        request_id, kind=exc.kind, message=str(exc)
                    )
                except Exception as exc:  # fault isolation: request-scoped
                    self.internal_errors += 1
                    response = error_response(
                        request_id,
                        kind="internal",
                        message=f"{type(exc).__name__}: {exc}",
                    )
            fatal = await self._respond_work(writer, response)
            if self._draining:
                self.drained += 1
        finally:
            self._active -= 1
        return fatal

    async def _respond_work(
        self, writer: asyncio.StreamWriter, response: dict
    ) -> bool:
        """Write one work-op response — the armed network faults' seam.

        Mirrors the fabric worker's ``_respond_shard`` discipline: the
        ``at_check``-th work-op response, token-claimed so it fires once
        across the whole fleet, is dropped (connection closed instead of
        answered), delayed, or garbled.  Returns whether the connection
        must close.
        """
        plan = self._network_plan
        if plan is not None:
            self._work_responses += 1
            if self._work_responses == plan.at_check and plan.claim():
                if plan.kind == "drop-connection":
                    return True  # close instead of answering
                if plan.kind == "delay-response":
                    await asyncio.sleep(plan.delay)
                else:  # "garble-frame"
                    writer.write(b"\xde\xad\xbe\xef not a frame\n")
                    try:
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                    return True
        await self._send(writer, response)
        return False

    # --------------------------------------------------------------- serving

    def _request_config(self, request: dict) -> ApproximationConfig:
        deadline = self.config.request_deadline
        asked = request.get("deadline")
        if asked is not None:
            try:
                asked = float(asked)
            except (TypeError, ValueError):
                raise _RequestError("bad-request", f"bad deadline {asked!r}")
            if asked <= 0:
                raise _RequestError("bad-request", "deadline must be positive")
            deadline = asked if deadline is None else min(asked, deadline)
        return ApproximationConfig(
            exact_limit=self.config.exact_limit,
            max_extra_atoms=self.config.max_extra_atoms,
            workers=self.config.workers,
            shard_timeout=self.config.shard_timeout,
            deadline=deadline,
            memory_limit=self.config.memory_limit,
            max_candidates=self.config.max_candidates,
        )

    def _serve_approximate(self, request: dict) -> dict:
        """Answer one approximate op (runs on the executor thread pool).

        Cache policy: the key is the canonical representative of the
        request tableau (its core, canonically renamed) plus every
        result-shaping knob, and the pipeline runs *on the representative*,
        so every hom-equivalent phrasing of a query gets the same
        bit-identical answer — cold or warm.  Only complete results are
        stored — partial (exhausted or quarantined) answers are served,
        flagged, and recomputed next time; a run whose shard faults were
        all recovered by retries is complete.
        """
        query_text = request.get("query")
        if not isinstance(query_text, str):
            raise _RequestError("bad-request", "approximate needs a 'query' string")
        try:
            query = parse_query(query_text)
        except CQParseError as exc:
            raise _RequestError("bad-request", f"unparseable query: {exc}")
        try:
            cls = class_from_name(str(request.get("cls", "TW1")))
        except ValueError as exc:
            raise _RequestError("bad-request", str(exc))
        method = request.get("method", "auto")
        if method not in ("auto", "exact", "greedy"):
            raise _RequestError("bad-request", f"unknown method {method!r}")
        serve_all = bool(request.get("all", False))

        tableau = query.tableau()
        knobs = (
            method,
            serve_all,
            self.config.exact_limit,
            self.config.max_extra_atoms,
        )
        key = canonical_result_key(tableau, cls, knobs)
        cached = self.cache.get(key)
        if cached is not None:
            return dict(cached, cached=True)

        core = canonical_representative(tableau)
        core_query = ConjunctiveQuery.from_tableau(core, prefix="v")
        config = self._request_config(request)
        cls_obj = cls
        if self._class_plan is not None:
            from repro.testing.faults import FaultyClass

            cls_obj = FaultyClass(cls, self._class_plan)
        stats = PipelineStats()
        faults: list = []
        try:
            if serve_all:
                results = all_approximations(
                    core_query, cls_obj, config, stats=stats, faults=faults
                )
            else:
                results = [
                    approximate(
                        core_query,
                        cls_obj,
                        method=method,
                        config=config,
                        stats=stats,
                        faults=faults,
                    )
                ]
        except ValueError as exc:
            # Caps and empty candidate spaces are client-actionable.
            raise _RequestError("bad-request", str(exc))

        self.fault_counters["pool_respawns"] += stats.pool_respawns
        self.fault_counters["quarantined"] += stats.quarantined
        self.fault_counters["shard_faults"] += len(faults)

        complete = not stats.exhausted and not stats.quarantined
        value = {
            "approximations": [str(result) for result in results],
            "class": cls.name,
            "method": method,
            "all": serve_all,
            "exhausted": stats.exhausted,
            "quarantined": stats.quarantined,
            "pool_respawns": stats.pool_respawns,
            # A complete answer's recovered faults are history of this
            # run, not part of the answer (a retried shard returns what
            # the lost attempt would have): the ``stats`` op counts them,
            # and they stay out of the cached value a warm hit replays.
            "faults": (
                [] if complete else [fault.as_dict() for fault in faults]
            ),
        }
        if stats.exhausted:
            value["exhaustion_reason"] = stats.exhaustion_reason
        if complete:
            self.cache.put(key, value)
        return dict(value, cached=False)

    # ----------------------------------------------------------------- stats

    def stats_payload(self) -> dict:
        """The health/stats endpoint's body (also useful in-process)."""
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime": round(time.time() - self.started_at, 3),
            "draining": self._draining,
            "requests": self.requests,
            "served": self.served,
            "load_shed": self.load_shed,
            "refused_draining": self.refused_draining,
            "bad_requests": self.bad_requests,
            "internal_errors": self.internal_errors,
            "queue_depth": self._active,
            "queue_limit": self.config.queue_limit,
            "concurrency": self.config.concurrency,
            "cache": self.cache.stats.as_dict(),
            "cache_disk_entries": self.cache.disk_entries(),
            "cache_resident_bytes": self.cache.resident_bytes(),
            "cache_max_bytes": self.config.cache_max_bytes,
            "faults": dict(self.fault_counters),
        }
