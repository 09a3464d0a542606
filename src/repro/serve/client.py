"""A small synchronous client for the serving daemon.

The protocol is JSON lines over a stream socket, so the client is just a
socket, a buffered reader, and :mod:`repro.serve.protocol`'s codec — no
async machinery.  One :class:`ServeClient` holds one connection and may
issue any number of requests on it; tests, the ``repro client`` CLI
subcommand, and the serving benchmark's replay loop all go through it.

:class:`ServeError` carries the structured error object of a failed
request (``kind`` of ``"overloaded"``, ``"shutting-down"``,
``"bad-request"``, or ``"internal"``), so callers can distinguish a
load-shed rejection — resubmit later — from a request that can never
succeed.

Resilience is opt-in via :class:`RetryPolicy`: a client constructed with
one reconnects and resends on connection-kind faults (refused connect,
dropped connection, garbled frame, timeout) with capped-exponential
jittered backoff, and honors ``overloaded``/``shutting-down`` rejections
as retryable-with-delay.  Resending is safe because results are
idempotent under the canonical result key — a request that was actually
served before its response was lost recomputes (or warm-hits) the same
bit-identical answer.  ``bad-request``/``internal`` never retry: they
would fail the same way again.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
)

__all__ = [
    "RetryPolicy",
    "ServeClient",
    "ServeError",
    "connect",
    "wait_for_server",
]


class ServeError(RuntimeError):
    """A structured failure response from the server."""

    def __init__(self, error: dict, response: dict) -> None:
        kind = error.get("kind", "internal")
        message = error.get("message", "unknown error")
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.response = response


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`ServeClient` survives transient failures.

    ``max_attempts`` bounds total tries (first attempt included).
    Connection-kind faults reconnect before resending; ``retry_kinds``
    rejections (structured, so the connection is still good) just wait.
    The delay before attempt *n*'s resend is
    ``min(backoff_cap, backoff_base * 2**n)``, jittered by up to
    ``jitter`` of itself so a fleet's worth of retrying clients does not
    reconverge on the same instant.
    """

    max_attempts: int = 5
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    retry_kinds: tuple[str, ...] = ("overloaded", "shutting-down")
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        base = min(self.backoff_cap, self.backoff_base * (2**attempt))
        fraction = (rng or random).random()
        return base * (1.0 + self.jitter * fraction)


class ServeClient:
    """One connection to a serving daemon.

    Construct with either ``socket_path`` (unix socket) or ``host``/
    ``port``.  Usable as a context manager.  Not thread-safe — requests on
    one connection are strictly in-order; give each thread its own client.

    Without ``retry`` the constructor connects eagerly and any transport
    failure raises immediately (the historical contract, which
    :func:`wait_for_server` relies on).  With a :class:`RetryPolicy` the
    connection is lazy and every request runs the retry loop described in
    the module docstring.
    """

    def __init__(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        *,
        timeout: float | None = 60.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise ValueError("set exactly one of socket_path or host/port")
        if host is not None and port is None:
            raise ValueError("host needs a port")
        self._target = (socket_path, host, port)
        self._timeout = timeout
        self._retry = retry
        self._rng = random.Random()
        self._sock: socket.socket | None = None
        self._reader = None
        self.retries = 0  # connection-kind resends + retryable rejections
        if retry is None:
            self._connect()

    # ------------------------------------------------------------- transport

    def _connect(self) -> None:
        socket_path, host, port = self._target
        if socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self._timeout)
                sock.connect(socket_path)
            except BaseException:
                sock.close()  # a failed probe must not leak its socket
                raise
        else:
            sock = socket.create_connection((host, port), timeout=self._timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def _disconnect(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _request_once(self, payload: dict[str, Any]) -> dict:
        if self._sock is None:
            self._connect()
        assert self._sock is not None and self._reader is not None
        self._sock.sendall(encode_message(payload))
        line = self._reader.readline(MAX_LINE_BYTES + 1024)
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_message(line)

    def request(self, payload: dict[str, Any], *, check: bool = True) -> dict:
        """Send one request, block for its response line.

        With ``check`` (the default) a failure response raises
        :class:`ServeError`; without it, the raw response dict is returned
        either way (the benchmark's load-shed drill wants to *count*
        rejections, not catch them).  A retry policy is applied first in
        both modes — ``check=False`` still retries transport faults, it
        just does not raise on a final structured rejection.
        """
        policy = self._retry
        attempt = 0
        while True:
            try:
                response = self._request_once(payload)
            except (ProtocolError, ConnectionError, OSError):
                # Framing gone or peer gone: the connection is untrusted
                # either way.  Reconnect-and-resend is idempotence-safe.
                self._disconnect()
                if policy is None or attempt + 1 >= policy.max_attempts:
                    raise
                time.sleep(policy.delay(attempt, self._rng))
                attempt += 1
                self.retries += 1
                continue
            if not response.get("ok"):
                kind = response.get("error", {}).get("kind")
                if (
                    policy is not None
                    and kind in policy.retry_kinds
                    and attempt + 1 < policy.max_attempts
                ):
                    time.sleep(policy.delay(attempt, self._rng))
                    attempt += 1
                    self.retries += 1
                    continue
                if check:
                    raise ServeError(response.get("error", {}), response)
            return response

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ----------------------------------------------------------- convenience

    def approximate(
        self,
        query: str,
        cls: str = "TW1",
        *,
        all_: bool = False,
        method: str = "auto",
        deadline: float | None = None,
        request_id: Any = None,
        check: bool = True,
    ) -> dict:
        payload: dict[str, Any] = {
            "op": "approximate",
            "query": query,
            "cls": cls,
            "all": all_,
            "method": method,
        }
        if deadline is not None:
            payload["deadline"] = deadline
        if request_id is not None:
            payload["id"] = request_id
        return self.request(payload, check=check)

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def shutdown(self) -> dict:
        """Ask the server to drain (the in-band alternative to SIGTERM)."""
        return self.request({"op": "shutdown"})

    def sleep(self, seconds: float, *, check: bool = True) -> dict:
        """Occupy one executor slot for ``seconds`` (test servers only)."""
        return self.request(
            {"op": "sleep", "seconds": seconds}, check=check
        )


def connect(
    socket_path: str | None = None,
    host: str | None = None,
    port: int | None = None,
    *,
    timeout: float | None = 60.0,
    retry: RetryPolicy | None = None,
) -> ServeClient:
    """Alias for the :class:`ServeClient` constructor."""
    return ServeClient(socket_path, host, port, timeout=timeout, retry=retry)


def wait_for_server(
    socket_path: str | None = None,
    host: str | None = None,
    port: int | None = None,
    *,
    deadline: float = 10.0,
) -> None:
    """Block until a daemon accepts connections (tests/benchmarks starting
    one in a subprocess or thread race its listener coming up).

    Probes with capped-exponential *jittered* backoff rather than a fixed
    poll: a fleet supervisor waits on N workers at once, and fixed-period
    probers fire in lockstep against freshly-forked pythons — jitter
    spreads them, and the growing period stops a slow cold start from
    being hammered.
    """
    last: Exception | None = None
    rng = random.Random()
    delay = 0.01
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            client = ServeClient(socket_path, host, port, timeout=deadline)
        except (OSError, ConnectionError) as exc:
            last = exc
            time.sleep(delay * (0.5 + rng.random()))
            delay = min(0.25, delay * 1.6)
            continue
        client.close()
        return
    raise TimeoutError(f"no server at {socket_path or (host, port)}: {last}")
