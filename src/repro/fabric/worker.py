"""The stateless fabric shard worker: a threaded JSON-lines socket server.

A worker owns no run state: every ``shard`` request carries the full run
context (pickled, content-addressed — decoded once per distinct blob and
cached), so any worker can run any shard, any shard can be re-dispatched
to any surviving worker, and a worker that crashes loses nothing but the
shard it was running.  That statelessness is what makes the
coordinator's at-least-once retry discipline sound end to end: a shard
is a deterministic function of its context and slice, so the driver
keeps the first result of each shard, and the worker contributes by
never accumulating anything a replay could observe.

Each accepted connection is served on its own daemon thread; a shard
computes inline on its connection's thread, so ``ping`` probes arriving
on *other* connections are answered concurrently (Python's GIL
interleaves the probe's tiny handler with the shard's compute) — the
coordinator's liveness heartbeat works exactly because probing does not
queue behind the shard.

Deterministic network-fault drills: a :class:`~repro.testing.faults.
FaultPlan` whose kind is one of :data:`~repro.testing.faults.
NETWORK_KINDS` arms the *response seam* — the ``at_check``-th shard
response, token-file-claimed so re-dispatched shards reaching another
worker's seam cannot re-fire, is dropped (connection closed instead of
answered), delayed, or garbled (a non-protocol frame), exercising the
coordinator's re-dispatch, straggler, and framing-distrust paths in
isolation.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.core.pipeline import run_shard
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    blob_digest,
    decode_blob,
    encode_blob,
    encode_message,
    error_response,
    ok_response,
    parse_address,
    parse_fabric_request,
    read_frame,
)
from repro.testing.faults import NETWORK_KINDS, FaultPlan

__all__ = ["WorkerServer", "serve"]


class WorkerServer:
    """One fabric worker process: bind, accept, serve until shutdown.

    ``address`` is a ``"host:port"`` TCP spec (port 0 binds ephemerally;
    :attr:`address` reports the real one) or a unix socket path.
    ``fault_plan`` arms the deterministic network-fault seam (see module
    docstring); plans with non-network kinds are rejected here — they
    belong to the membership-check seam, not the wire.
    """

    def __init__(
        self, address: str, *, fault_plan: FaultPlan | None = None
    ) -> None:
        if fault_plan is not None and fault_plan.kind not in NETWORK_KINDS:
            raise ValueError(
                f"worker fault plans must use a network kind, "
                f"not {fault_plan.kind!r}"
            )
        self._plan = fault_plan
        self._shard_responses = 0
        self._respond_lock = threading.Lock()
        self._contexts: dict[str, tuple] = {}
        self._context_lock = threading.Lock()
        self._results: dict[tuple, tuple] = {}
        self._result_lock = threading.Lock()
        self.shard_cache_hits = 0
        self._shutdown = threading.Event()
        family, target = parse_address(address)
        if family == "tcp":
            self._listener = socket.create_server(target)
            host, port = self._listener.getsockname()[:2]
            self.address = f"{host}:{port}"
        else:
            try:
                os.unlink(target)
            except FileNotFoundError:
                pass
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(target)
            self._listener.listen()
            self.address = target

    # ------------------------------------------------------------------ serve

    def serve_forever(self) -> None:
        """Accept connections until a ``shutdown`` op arrives."""
        self._listener.settimeout(0.2)
        try:
            while not self._shutdown.is_set():
                try:
                    connection, _ = self._listener.accept()
                except socket.timeout:
                    continue
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    daemon=True,
                )
                thread.start()
        finally:
            self._listener.close()

    def close(self) -> None:
        self._shutdown.set()

    def _serve_connection(self, connection: socket.socket) -> None:
        buffer = bytearray()
        try:
            while True:
                frame = read_frame(connection, buffer)
                if frame is None:
                    return
                try:
                    request = parse_fabric_request(frame)
                except ProtocolError as error:
                    connection.sendall(
                        encode_message(
                            error_response(
                                kind=error.kind, message=str(error)
                            )
                        )
                    )
                    if error.fatal:
                        return
                    continue
                if not self._handle(connection, request):
                    return
        except (OSError, ProtocolError):
            return  # the peer (or the stream) is gone; nothing to salvage
        finally:
            connection.close()

    # --------------------------------------------------------------- handlers

    def _handle(self, connection: socket.socket, request: dict) -> bool:
        """Dispatch one request; False ends the connection."""
        op = request["op"]
        request_id = request.get("id")
        if op == "hello":
            connection.sendall(
                encode_message(
                    ok_response(
                        request_id,
                        protocol=PROTOCOL_VERSION,
                        pid=os.getpid(),
                    )
                )
            )
            return True
        if op == "ping":
            connection.sendall(encode_message(ok_response(request_id, pong=True)))
            return True
        if op == "shutdown":
            connection.sendall(encode_message(ok_response(request_id)))
            self._shutdown.set()
            return False
        # op == "shard" — compute inline on this connection's thread.
        try:
            blob = request["context"]
            context = self._context_for(blob)
            shard = tuple(request["shard"])
            # Memoize by (context digest, shard slice): a retried or
            # speculated shard landing on a worker that already ran it is
            # re-served, not recomputed.  Statelessness is preserved — the
            # memo is a pure function of the request, and losing it only
            # costs a recompute.  The re-served copy's stats carry the
            # hit counter so the driver's absorb surfaces it.
            key = (blob_digest(blob), shard)
            with self._result_lock:
                cached = self._results.get(key)
            if cached is not None:
                members, stats = cached
                stats = dict(stats)
                stats["shard_cache_hits"] = (
                    stats.get("shard_cache_hits", 0) + 1
                )
                self.shard_cache_hits += 1
                result = (members, stats)
            else:
                result = run_shard(context, shard)
                with self._result_lock:
                    # One run's shards in practice; bound it like the
                    # context cache so a long-lived worker cannot hoard.
                    if len(self._results) >= 64:
                        self._results.clear()
                    self._results[key] = result
        except Exception as error:  # a failed shard is an answer, not a death
            connection.sendall(
                encode_message(
                    error_response(
                        request_id, kind="internal", message=repr(error)
                    )
                )
            )
            return True
        return self._respond_shard(connection, request_id, result)

    def _context_for(self, blob: str) -> tuple:
        digest = blob_digest(blob)
        with self._context_lock:
            cached = self._contexts.get(digest)
        if cached is not None:
            return cached
        context = decode_blob(blob)
        with self._context_lock:
            # One context per run in practice; keep the cache tiny so a
            # long-lived worker serving many runs cannot hoard tableaux.
            if len(self._contexts) >= 4:
                self._contexts.clear()
            self._contexts[digest] = context
        return context

    def _respond_shard(
        self, connection: socket.socket, request_id, result: tuple
    ) -> bool:
        """The response seam — where armed network faults fire, once."""
        plan = self._plan
        if plan is not None:
            with self._respond_lock:
                self._shard_responses += 1
                due = self._shard_responses == plan.at_check
            if due and plan.claim():
                if plan.kind == "drop-connection":
                    return False  # close instead of answering
                if plan.kind == "delay-response":
                    time.sleep(plan.delay)
                else:  # "garble-frame"
                    connection.sendall(b"\xde\xad\xbe\xef not a frame\n")
                    return False
        connection.sendall(
            encode_message(
                ok_response(request_id, result=encode_blob(result))
            )
        )
        return True


def serve(address: str, *, fault_plan: FaultPlan | None = None) -> None:
    """Bind a :class:`WorkerServer`, announce readiness, serve until told
    to stop.

    Prints ``fabric worker listening on <address>`` (flushed) before
    serving — launchers binding ephemeral TCP ports parse the real
    address from that line.
    """
    server = WorkerServer(address, fault_plan=fault_plan)
    print(f"fabric worker listening on {server.address}", flush=True)
    server.serve_forever()
