"""The fabric wire dialect: the serving envelope with shard-sized frames.

The fabric reuses the serving protocol's JSON-lines envelope
(:mod:`repro.serve.protocol` — one request object per ``\\n``-terminated
line, one response line each, structured errors) with its own op
vocabulary (:data:`FABRIC_OPS`) and a much larger line cap
(:data:`FABRIC_MAX_LINE_BYTES`): shard requests carry the run's pickled
context (base tableau, query class, run knobs) and shard responses
carry pickled member tableaux with their partition and kernel codes —
payloads that dwarf query strings.  Binary payloads travel as base64
pickle *blobs* inside JSON string fields, keeping the framing pure JSON
(a frame is either parseable or provably garbage — the coordinator
treats the latter exactly like a lost shard).

Ops (see :mod:`repro.fabric` for the full protocol walk-through):

``hello``
    Handshake; answers protocol version and worker pid.
``ping``
    Liveness probe; answers immediately even while a shard is running
    (the worker computes shards on executor threads, off its event loop).
``shard``
    ``{"op": "shard", "context": <blob>, "shard": [index, count]}`` —
    run one shard slice through the shared pipeline body
    (:func:`repro.core.pipeline.run_shard`); answers
    ``{"ok": true, "result": <blob of (members, stats)>}``.  Workers
    cache the decoded context by blob digest, so re-sending the same
    context with every shard costs bandwidth, not re-unpickling.
``shutdown``
    Acknowledge, then drain: in-flight shards are answered, new ones
    refused ``shutting-down``.

Addresses are spelled ``"host:port"`` (TCP) or a filesystem path (unix
domain socket); :func:`parse_address`/:func:`create_connection` accept
both.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
import socket
from typing import Any

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)

__all__ = [
    "FABRIC_MAX_LINE_BYTES",
    "FABRIC_OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "blob_digest",
    "create_connection",
    "decode_blob",
    "decode_message",
    "encode_blob",
    "encode_message",
    "error_response",
    "ok_response",
    "parse_address",
    "read_frame",
]

#: The fabric's op vocabulary (see module docstring).
FABRIC_OPS = ("hello", "ping", "shard", "shutdown")

#: Line cap for fabric frames.  A shard response ships every member of a
#: per-shard frontier as a pickled tableau plus codes; 64 MiB bounds a
#: degenerate frontier without letting a garbled length-prefix-free
#: stream buffer unboundedly.
FABRIC_MAX_LINE_BYTES = 64 << 20


def encode_blob(payload: Any) -> str:
    """Pickle ``payload`` into a JSON-safe base64 string."""
    return base64.b64encode(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_blob(blob: str) -> Any:
    """Invert :func:`encode_blob`; :class:`ProtocolError` on junk."""
    try:
        return pickle.loads(base64.b64decode(blob.encode("ascii")))
    except Exception as exc:  # garbled base64 or pickle — one error class
        raise ProtocolError(f"undecodable blob: {exc}") from exc


def blob_digest(blob: str) -> str:
    """The worker's context-cache key for a blob (content digest)."""
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def parse_address(spec: str) -> tuple[str, Any]:
    """``("tcp", (host, port))`` or ``("unix", path)`` for an address spec.

    ``"host:port"`` (the last colon splits, so IPv6 literals in brackets
    work) is TCP; anything else is a unix-domain socket path.
    """
    if ":" in spec:
        host, _, port = spec.rpartition(":")
        try:
            return ("tcp", (host.strip("[]") or "127.0.0.1", int(port)))
        except ValueError:
            pass  # a path with a colon in it — fall through to unix
    return ("unix", spec)


def create_connection(spec: str, timeout: float | None = None) -> socket.socket:
    """Open a connected stream socket to ``spec`` (TCP or unix)."""
    family, target = parse_address(spec)
    if family == "tcp":
        return socket.create_connection(target, timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(target)
    except BaseException:
        sock.close()
        raise
    return sock


def read_frame(sock: socket.socket, buffer: bytearray) -> bytes | None:
    """Read one ``\\n``-terminated frame, carrying partial bytes in
    ``buffer`` across calls.

    Returns the frame without its terminator, or ``None`` on EOF with an
    empty buffer (clean close).  EOF with buffered bytes, an oversized
    buffer, and socket timeouts surface as the exceptions they are —
    framing trust is the caller's policy (the coordinator re-dispatches).
    """
    scanned = 0  # bytes already searched: each recv's bytes are scanned once
    while True:
        newline = buffer.find(b"\n", scanned)
        if newline >= 0:
            frame = bytes(buffer[:newline])
            del buffer[: newline + 1]
            return frame
        if len(buffer) > FABRIC_MAX_LINE_BYTES:
            raise ProtocolError(
                f"frame exceeds {FABRIC_MAX_LINE_BYTES} bytes", fatal=True
            )
        chunk = sock.recv(1 << 16)
        if not chunk:
            if buffer:
                raise ProtocolError("connection closed mid-frame", fatal=True)
            return None
        scanned = len(buffer)
        buffer.extend(chunk)
