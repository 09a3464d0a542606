"""Approximation-as-a-service: the resident serving layer.

``repro serve`` turns the one-shot approximation pipeline into a daemon:
a single long-lived process whose engine memos (``hom_le``, canonical
keys, refinement indexes) accumulate across requests, fronted by an
asyncio socket server and backed by a crash-safe canonical result cache.

**Protocol note** — the wire format is JSON lines over a unix or TCP
stream socket (:mod:`repro.serve.protocol`): each request is one JSON
object per ``\\n``-terminated line carrying ``op`` (``approximate``,
``stats``/``health``, ``shutdown``, test-only ``sleep``) and an optional
``id`` echoed on the response; each response is one JSON object with
``ok`` plus either op-specific payload fields or a structured
``error = {"kind", "message"}``.  Error kinds are part of the contract:
``overloaded`` (admission control shed the request), ``shutting-down``
(drain in progress), ``bad-request``, ``internal``.  Rejections are
always data on the wire — the server never expresses backpressure by
dropping a connection.

Layout:

* :mod:`repro.serve.protocol` — framing, envelope validation, response
  constructors;
* :mod:`repro.serve.cache` — the two-tier (memory LRU + atomic disk)
  result cache keyed by canonical core form, with quarantine-on-corruption;
* :mod:`repro.serve.server` — :class:`~repro.serve.server.
  JsonLinesService`, the one front door (listener, line loop,
  ``bad-request`` answers, drain, network-fault seam) of the daemon, the
  fleet router and the fabric worker; :class:`ApproximationServer`
  on it: admission control, per-request budgets, fault isolation; and
  the flag tables every ``repro`` command that runs the pipeline builds
  its parser from;
* :mod:`repro.serve.client` — the synchronous client used by the CLI,
  the tests, and the serving benchmark, with an opt-in
  :class:`RetryPolicy` (reconnect + capped jittered backoff on
  connection faults; ``overloaded``/``shutting-down`` retried after a
  delay);
* :mod:`repro.serve.fleet` — ``repro fleet``: a supervisor running N
  server worker processes over one shared disk cache tier (crash
  detection, capped-backoff restarts behind a restart-storm breaker)
  and an asyncio router (least-outstanding balancing, retry-elsewhere
  on connection faults, straggler hedging, rolling SIGTERM drain).
"""

from repro.serve.cache import (
    CACHE_VERSION,
    CacheStats,
    ResultCache,
    canonical_representative,
    canonical_result_key,
)
from repro.serve.client import (
    RetryPolicy,
    ServeClient,
    ServeError,
    connect,
    wait_for_server,
)
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from repro.serve.server import ApproximationServer, ServerConfig

__all__ = [
    "ApproximationServer",
    "CACHE_VERSION",
    "CacheStats",
    "Fleet",
    "FleetConfig",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ResultCache",
    "RetryPolicy",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "canonical_representative",
    "canonical_result_key",
    "connect",
    "decode_message",
    "encode_message",
    "error_response",
    "ok_response",
    "parse_request",
    "wait_for_server",
]
