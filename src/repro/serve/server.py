"""The JSON-lines front door, and the resident approximation daemon on it.

:class:`JsonLinesService` is the one asyncio server skeleton behind
``repro serve``, ``repro fleet`` and ``repro worker``: the listener, the
per-connection line loop, structured answers to malformed lines, the
``shutdown`` op, the drain and the network-fault response seam.

:class:`ApproximationServer` hosts one engine (the process-wide
:func:`~repro.homomorphism.engine.default_engine`, whose ``hom_le`` /
canonical-key / index memos therefore survive across requests) behind
that front door, speaking the protocol of :mod:`repro.serve.protocol`.
Fault isolation is its design center: anything that goes wrong is scoped
to *one request*:

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

import argparse
import asyncio
import contextlib
import os
import signal
import socket
import stat
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, NamedTuple

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
    KNOWN_OPS,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from repro.testing.faults import NETWORK_KINDS

__all__ = [
    "ApproximationServer",
    "FAULT_FLAGS",
    "Flag",
    "JsonLinesService",
    "POLICY_FLAGS",
    "SERVER_FLAGS",
    "ServerConfig",
    "add_flags",
    "flag_argv",
    "flag_values",
    "parse_bytes",
    "policy_config",
]


class JsonLinesService:
    """One JSON-lines server: bind, frame, reject, answer, drain.

    Each connection is one asyncio task reading request lines; each line
    gets exactly one response line, in order.  A line that does not parse
    as a request of ``ops`` is answered ``bad-request``; after a line over
    ``max_line_bytes`` framing is lost, so the connection closes once the
    error is written.  ``shutdown`` (or :meth:`request_shutdown`) drains:
    the listener closes, new work ops are refused ``shutting-down``,
    admitted work finishes and is answered, then every connection closes.

    Subclasses answer their ops in :meth:`_handle_request`, running work
    ops through :meth:`_serve_work`; :meth:`_start` binds (unless the
    constructor did) and :meth:`_stop` releases what the service holds.
    ``fault_plan`` of a :data:`~repro.testing.faults.NETWORK_KINDS` kind
    arms the response seam (:meth:`_respond`); other kinds are ignored
    here.
    """

    ops: tuple[str, ...] = KNOWN_OPS
    max_line_bytes = MAX_LINE_BYTES
    #: Names the service in its ``shutting-down`` refusals.
    role = "server"

    def __init__(self, fault_plan: Any = None) -> None:
        self._network_plan = (
            fault_plan
            if fault_plan is not None and fault_plan.kind in NETWORK_KINDS
            else None
        )
        self._work_responses = 0
        self._active = 0
        self._draining = False
        self._shutdown_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._listener: socket.socket | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._connections: set[asyncio.Task] = set()
        self.address: Any = None
        self.started_at = time.time()
        self.requests = 0
        self.bad_requests = 0
        self.refused_draining = 0

    # -------------------------------------------------------------- lifecycle

    def _bind(
        self, socket_path: str | None, host: str | None = None, port: int = 0
    ) -> None:
        """Open the listener on a unix ``socket_path`` or TCP ``host:port``
        (port 0 picks a free one; :attr:`address` reports what was bound)."""
        if (socket_path is None) == (host is None):
            raise ValueError("set exactly one of socket_path or host")
        if socket_path is None:
            family = socket.AF_INET6 if ":" in host else socket.AF_INET
            self._listener = socket.create_server((host, port), family=family)
            self.address = self._listener.getsockname()[:2]
            return
        with contextlib.suppress(FileNotFoundError):
            if stat.S_ISSOCK(os.stat(socket_path).st_mode):
                os.unlink(socket_path)  # left behind by a dead server
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(socket_path)
            listener.listen()
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self.address = socket_path

    async def _start(self) -> None:
        """Runs before serving; binds the listener if the constructor did not."""

    async def _stop(self) -> None:
        """Runs after the drain, or when serving failed."""

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe).

        From a non-event-loop thread, schedule it with
        ``loop.call_soon_threadsafe(service.request_shutdown)``.
        """
        self._draining = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def run(self) -> None:
        """Serve until a shutdown is requested, then drain and return."""
        loop = self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        if self._draining:  # shutdown requested before start
            self._shutdown_event.set()
        await self._start()
        listener = self._listener
        unix = listener.family == socket.AF_UNIX
        try:
            self._server = await (
                asyncio.start_unix_server if unix else asyncio.start_server
            )(self._on_connection, sock=listener, limit=self.max_line_bytes + 1024)
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError, ValueError):
                    # Not the main thread (tests and benchmarks host
                    # services on background threads) or an unsupported
                    # platform; shutdown and request_shutdown() still work.
                    pass
            await self._shutdown_event.wait()
            await self._drain()
        finally:
            listener.close()
            if unix:
                with contextlib.suppress(OSError):
                    os.unlink(self.address)
            await self._stop()

    async def _drain(self) -> None:
        """Close the listener, let admitted work finish, close connections."""
        self._server.close()
        while self._active:
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=2.0)
        await self._server.wait_closed()

    # ------------------------------------------------------------ connections

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
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
                            message=f"line exceeds {self.max_line_bytes} bytes",
                        ),
                    )
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                if line.strip() and await self._handle_line(writer, line):
                    break
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(encode_message(payload))
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _handle_line(
        self, writer: asyncio.StreamWriter, line: bytes
    ) -> bool:
        """Answer one request line; returns whether to drop the connection."""
        self.requests += 1
        try:
            request = parse_request(
                line, known_ops=self.ops, max_bytes=self.max_line_bytes
            )
        except ProtocolError as exc:
            self.bad_requests += 1
            await self._send(
                writer, error_response(None, kind=exc.kind, message=str(exc))
            )
            return exc.fatal
        if request["op"] == "shutdown":
            await self._send(writer, ok_response(request.get("id"), draining=True))
            self.request_shutdown()
            return False
        return await self._handle_request(writer, request)

    async def _handle_request(
        self, writer: asyncio.StreamWriter, request: dict
    ) -> bool:
        """Answer one parsed request of any op but ``shutdown``."""
        raise NotImplementedError

    async def _serve_work(
        self,
        writer: asyncio.StreamWriter,
        request_id: Any,
        work: Callable[[], Awaitable[dict]],
    ) -> bool:
        """Admit one work op, await ``work()``'s response and write it.

        While draining the op is refused ``shutting-down``; once admitted
        it counts as in flight, so the drain waits for its response.
        Returns whether the connection must close.
        """
        if self._draining:
            self.refused_draining += 1
            await self._send(
                writer,
                error_response(
                    request_id,
                    kind="shutting-down",
                    message=f"{self.role} is draining; no new work is admitted",
                ),
            )
            return False
        self._active += 1
        try:
            return await self._respond(writer, await work())
        finally:
            self._active -= 1

    async def _respond(self, writer: asyncio.StreamWriter, response: dict) -> bool:
        """Write one work-op response — the armed network faults' seam.

        The ``at_check``-th work-op response, token-claimed so it fires
        once across every process sharing the plan (a fleet's workers, a
        fabric's), is dropped (the connection closes instead of
        answering), delayed, or garbled.  Returns whether the connection
        must close.
        """
        plan = self._network_plan
        if plan is not None:
            self._work_responses += 1
            if self._work_responses == plan.at_check and plan.claim():
                if plan.kind == "drop-connection":
                    return True
                if plan.kind == "delay-response":
                    await asyncio.sleep(plan.delay)
                else:  # "garble-frame"; closing the writer flushes it
                    writer.write(b"\xde\xad\xbe\xef not a frame\n")
                    return True
        await self._send(writer, response)
        return False


class _RequestError(Exception):
    """A request-scoped failure with a structured error kind."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


@dataclass
class ServerConfig:
    """Knobs of one serving daemon.

    A server binds exactly one of ``socket_path`` (unix socket) or
    ``host``; a config with neither is a template, as a fleet's ``worker``
    is (each slot runs it under its own socket).  ``queue_limit`` bounds
    *admitted* requests (queued plus running); ``concurrency`` sizes the
    executor actually running pipelines.  The run-policy fields
    (:data:`POLICY_FLAGS`) become each request's
    :class:`~repro.core.ApproximationConfig` (:func:`policy_config`) — a
    client may ask for a *shorter* deadline than ``request_deadline``,
    never a longer one.

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
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


# ------------------------------------------------------------------ flags
#
# Each command-line flag of the run policy, the server and the fault
# drills is declared once, here: ``repro approximate``, ``serve``,
# ``fleet``, ``client`` and ``worker`` build their parsers from these
# tables (``add_flags``), read them back (``flag_values``), and a fleet
# writes its workers' ``repro serve`` argv from them (``flag_argv``).


class Flag(NamedTuple):
    """A flag, the config field it sets (its argparse ``dest``), and its
    argparse options."""

    flag: str
    field: str
    options: dict

    @property
    def default(self) -> Any:
        """The ``default`` option, else the :class:`ServerConfig` field's."""
        return self.options.get("default", getattr(ServerConfig, self.field, None))


def parse_bytes(text: str) -> int:
    """Bytes from a human-friendly size (plain bytes, or k/m/g suffix)."""
    text = text.strip().lower()
    multiplier = 1
    for suffix, scale in (("g", 1 << 30), ("m", 1 << 20), ("k", 1 << 10)):
        if text.endswith(suffix):
            text, multiplier = text[: -len(suffix)], scale
            break
    try:
        value = int(float(text) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (use bytes or a k/m/g suffix, e.g. 512m)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("size must be positive")
    return value


def _positive(kind: type) -> Callable[[str], Any]:
    """An argparse type: ``kind(text)``, refused unless positive."""

    def parse(text: str) -> Any:
        value = kind(text)
        if not value > 0:  # also refuses nan
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <name> value"
    return parse


POLICY_FLAGS = (
    Flag("--exact-limit", "exact_limit", dict(
        type=int,
        metavar="N",
        help="largest tableau (in elements) the exact Bell-number "
        "enumeration runs on",
    )),
    Flag("--max-extra-atoms", "max_extra_atoms", dict(
        type=int,
        metavar="N",
        help="cap on the extension atoms added to a quotient for the "
        "hypergraph classes",
    )),
    Flag("--workers", "workers", dict(
        type=int,
        metavar="N",
        help="process-pool size of each exact pipeline run (-1 = all CPUs, "
        "1 = serial); the candidate stream is split into one shard per "
        "worker, with the same answer as a serial run",
    )),
    Flag("--deadline", "request_deadline", dict(
        type=_positive(float),
        metavar="SECONDS",
        help="wall-clock budget of an exact run; on expiry it stops "
        "gracefully and returns the best-so-far (sound, possibly "
        "incomplete) frontier, marked exhausted — a server gives every "
        "request at most this deadline (clients may ask for less)",
    )),
    Flag("--memory-limit", "memory_limit", dict(
        type=parse_bytes,
        metavar="BYTES",
        help="memory ceiling of an exact run (bytes, k/m/g suffixes "
        "accepted, e.g. 512m): tracked frontier/memo sizes plus an RSS "
        "probe; exceeding it stops the run gracefully like --deadline",
    )),
    Flag("--max-candidates", "max_candidates", dict(
        type=_positive(int),
        metavar="N",
        help="cap on stage-1 candidates drawn by an exact run; the first N "
        "candidates are fully reduced and the partial frontier is "
        "returned marked exhausted",
    )),
    Flag("--shard-timeout", "shard_timeout", dict(
        type=_positive(float),
        metavar="SECONDS",
        help="per-shard deadline of a sharded run: a shard over it is "
        "abandoned (a local slot process is killed and respawned) and "
        "retried, so the answer stays complete",
    )),
)

SERVER_FLAGS = (
    Flag("--queue-limit", "queue_limit", dict(
        type=_positive(int),
        metavar="N",
        help="max requests admitted at once; excess load is shed",
    )),
    Flag("--concurrency", "concurrency", dict(
        type=_positive(int),
        metavar="N",
        help="request-executor threads (pipelines running at once)",
    )),
    Flag("--cache-dir", "cache_dir", dict(
        metavar="DIR",
        help="disk tier of the result cache (atomic per-entry files, "
        "shared by a fleet's workers); a restarted server answers warm "
        "from here",
    )),
    Flag("--cache-capacity", "cache_capacity", dict(
        type=_positive(int),
        metavar="N",
        help="in-memory LRU capacity (entries)",
    )),
    Flag("--cache-max-bytes", "cache_max_bytes", dict(
        type=parse_bytes,
        metavar="BYTES",
        help="byte budget of the in-memory cache tier (serialized entry "
        "sizes; k/m/g suffixes accepted) — evicts by bytes alongside "
        "--cache-capacity's entry count",
    )),
    Flag("--enable-test-ops", "enable_test_ops", dict(
        action="store_true",
        help="enable the 'sleep' op (lifecycle tests and fault drills)",
    )),
)

#: The drill flags; each sets the :class:`~repro.testing.faults.FaultPlan`
#: field it names.  A fabric worker takes all but the last.
FAULT_FLAGS = (
    Flag("--fault-kind", "kind", dict(
        choices=sorted(("kill", "delay", "raise", "corrupt") + NETWORK_KINDS),
        default=None,
        help="arm a deterministic fault drill (testing only): network kinds "
        "hit the response seam (the only kinds a fabric worker takes), "
        "corrupt hits the disk cache's write seam, the rest wrap each "
        "request's query class",
    )),
    Flag("--fault-at", "at_check", dict(
        type=int,
        default=1,
        metavar="N",
        help="fire the drill on the N-th seam invocation (default 1)",
    )),
    Flag("--fault-token", "token_path", dict(
        default=None,
        metavar="PATH",
        help="token file claimed exactly once across processes, so a "
        "retried, hedged or re-dispatched request cannot re-fire the drill",
    )),
    Flag("--fault-delay", "delay", dict(
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="sleep length for the delay/delay-response drills",
    )),
    Flag("--fault-corrupt-mode", "corrupt_mode", dict(
        choices=["truncate", "garble"],
        default="truncate",
        help="damage mode for the corrupt drill",
    )),
)


def add_flags(parser: argparse.ArgumentParser, flags) -> None:
    """Declare ``flags`` on ``parser``."""
    for flag in flags:
        parser.add_argument(
            flag.flag, dest=flag.field, **{**flag.options, "default": flag.default}
        )


def flag_values(args: argparse.Namespace, flags) -> dict:
    """The config fields ``flags`` set, read off parsed ``args``."""
    return {flag.field: getattr(args, flag.field) for flag in flags}


def flag_argv(config: Any, flags) -> list[str]:
    """The argv that sets ``config``'s fields under ``flags`` (fields at
    their default are left out)."""
    argv: list[str] = []
    for flag in flags:
        value = getattr(config, flag.field)
        if value == flag.default:
            continue
        argv += [flag.flag] if value is True else [flag.flag, str(value)]
    return argv


def policy_config(source: Any, **overrides: Any) -> ApproximationConfig:
    """The :class:`~repro.core.ApproximationConfig` of the run-policy
    fields of ``source`` (a :class:`ServerConfig` or parsed arguments);
    ``request_deadline`` is its ``deadline``."""
    fields = flag_values(source, POLICY_FLAGS)
    fields["deadline"] = fields.pop("request_deadline")
    return ApproximationConfig(**{**fields, **overrides})


class ApproximationServer(JsonLinesService):
    """Resident engine + canonical result cache + admission control."""

    # Defined on this class itself: the e2e benchmark's tracer
    # (benchmarks/e2e/trace.py) wraps the daemon's per-request span by
    # this name without touching the router's or the worker's.
    _handle_line = JsonLinesService._handle_line

    def __init__(self, config: ServerConfig) -> None:
        super().__init__(config.fault_plan)
        self.config = config
        plan = config.fault_plan
        corrupt_plan = plan if plan is not None and plan.kind == "corrupt" else None
        self._class_plan = (
            plan
            if plan is not None
            and plan.kind != "corrupt"
            and plan.kind not in NETWORK_KINDS
            else None
        )
        self.cache = ResultCache(
            config.cache_capacity,
            config.cache_dir,
            max_bytes=config.cache_max_bytes,
            fault_plan=corrupt_plan,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.concurrency, thread_name_prefix="repro-serve"
        )
        # Request-level counters for the stats/health endpoint.
        self.served = 0
        self.load_shed = 0
        self.internal_errors = 0
        self.drained = 0
        self.fault_counters = {
            "pool_respawns": 0,
            "quarantined": 0,
            "shard_faults": 0,
        }

    # -------------------------------------------------------------- lifecycle

    async def _start(self) -> None:
        self._bind(self.config.socket_path, self.config.host, self.config.port)
        print(f"repro serve: listening on {self.address}", file=sys.stderr)

    async def _stop(self) -> None:
        self._executor.shutdown(wait=True)
        self.cache.flush()
        print(
            f"repro serve: drained ({self.drained} request(s) completed "
            "during shutdown); cache index flushed",
            file=sys.stderr,
        )

    # ------------------------------------------------------------------- ops

    async def _handle_request(
        self, writer: asyncio.StreamWriter, request: dict
    ) -> bool:
        request_id = request.get("id")
        op = request["op"]
        if op in ("stats", "health"):
            await self._send(writer, ok_response(request_id, **self.stats_payload()))
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
        # Admission control; a draining server refuses in _serve_work.
        if not self._draining and self._active >= self.config.queue_limit:
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
        return await self._serve_work(
            writer, request_id, lambda: self._work(request)
        )

    async def _work(self, request: dict) -> dict:
        """Run one admitted ``approximate`` or ``sleep`` on the executor."""
        request_id = request.get("id")
        started = time.perf_counter()
        if request["op"] == "sleep":
            seconds = float(request.get("seconds", 0.1))
            await self._loop.run_in_executor(self._executor, time.sleep, seconds)
            response = ok_response(request_id, slept=seconds)
        else:  # approximate
            try:
                fields = await self._loop.run_in_executor(
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
        if self._draining:
            self.drained += 1
        return response

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
        return policy_config(self.config, deadline=deadline)

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
