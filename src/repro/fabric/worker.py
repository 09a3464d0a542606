"""The stateless fabric shard worker, on the shared JSON-lines front door.

A worker owns no run state: every ``shard`` request carries the full run
context (pickled, content-addressed — decoded once per distinct blob and
cached), so any worker can run any shard, any shard can be re-dispatched
to any surviving worker, and a worker that crashes loses nothing but the
shard it was running.  That statelessness is what makes the
coordinator's at-least-once retry discipline sound end to end: a shard
is a deterministic function of its context and slice, so the driver
keeps the first result of each shard, and the worker contributes by
never accumulating anything a replay could observe.

Binding, framing, malformed-frame answers, ``shutdown`` and the drain are
:class:`~repro.serve.server.JsonLinesService`'s, with the fabric's op
vocabulary and line cap.  A shard computes on an executor thread while
the event loop keeps reading, so a ``ping`` on another connection is
answered while the shard runs — the coordinator's liveness heartbeat
works exactly because probing does not queue behind the shard.

Deterministic network-fault drills: a :class:`~repro.testing.faults.
FaultPlan` whose kind is one of :data:`~repro.testing.faults.
NETWORK_KINDS` arms the service's response seam — the ``at_check``-th
shard response, token-file-claimed so re-dispatched shards reaching
another worker's seam cannot re-fire, is dropped (connection closed
instead of answered), delayed, or garbled (a non-protocol frame),
exercising the coordinator's re-dispatch, straggler, and
framing-distrust paths in isolation.
"""

from __future__ import annotations

import asyncio
import os
import threading

from repro.core.pipeline import run_shard
from repro.fabric.protocol import (
    FABRIC_MAX_LINE_BYTES,
    FABRIC_OPS,
    PROTOCOL_VERSION,
    blob_digest,
    decode_blob,
    encode_blob,
    error_response,
    ok_response,
    parse_address,
)
from repro.serve.server import JsonLinesService
from repro.testing.faults import NETWORK_KINDS, FaultPlan

__all__ = ["WorkerServer", "serve"]


class WorkerServer(JsonLinesService):
    """One fabric worker: bound on construction, served by
    :meth:`serve_forever` until a ``shutdown`` op or :meth:`close`.

    ``address`` is a ``"host:port"`` TCP spec (port 0 binds ephemerally;
    :attr:`address` reports the real one) or a unix socket path.
    ``fault_plan`` arms the deterministic network-fault seam (see module
    docstring); plans with non-network kinds are rejected here — they
    belong to the membership-check seam, not the wire.
    """

    ops = FABRIC_OPS
    max_line_bytes = FABRIC_MAX_LINE_BYTES
    role = "worker"

    def __init__(
        self, address: str, *, fault_plan: FaultPlan | None = None
    ) -> None:
        if fault_plan is not None and fault_plan.kind not in NETWORK_KINDS:
            raise ValueError(
                f"worker fault plans must use a network kind, "
                f"not {fault_plan.kind!r}"
            )
        super().__init__(fault_plan)
        # Shards run on executor threads; one lock guards both memos.
        self._lock = threading.Lock()
        self._contexts: dict[str, tuple] = {}
        self._results: dict[tuple, tuple] = {}
        family, target = parse_address(address)
        if family == "tcp":
            self._bind(None, *target)
            self.address = "{}:{}".format(*self.address)
        else:
            self._bind(target)

    def serve_forever(self) -> None:
        """Serve on a fresh event loop until shut down, then drain."""
        asyncio.run(self.run())

    def close(self) -> None:
        """Shut the worker down; safe to call from any thread."""
        self._draining = True  # seen by run() if the loop is not up yet
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.request_shutdown)
            except RuntimeError:
                pass  # the loop has already closed

    # ------------------------------------------------------------------- ops

    async def _handle_request(
        self, writer: asyncio.StreamWriter, request: dict
    ) -> bool:
        request_id = request.get("id")
        if request["op"] == "shard":
            return await self._serve_work(
                writer, request_id, lambda: self._shard(request)
            )
        if request["op"] == "ping":
            fields = {"pong": True}
        else:  # "hello"
            fields = {"protocol": PROTOCOL_VERSION, "pid": os.getpid()}
        await self._send(writer, ok_response(request_id, **fields))
        return False

    async def _shard(self, request: dict) -> dict:
        try:
            result = await self._loop.run_in_executor(None, self._run_shard, request)
        except Exception as error:  # a failed shard is an answer, not a death
            return error_response(
                request.get("id"), kind="internal", message=repr(error)
            )
        return ok_response(request.get("id"), result=result)

    def _run_shard(self, request: dict) -> str:
        """Run (or re-serve) one shard; returns its result blob."""
        blob = request["context"]
        digest = blob_digest(blob)
        # Memoize by (context digest, shard slice): a retried or
        # speculated shard landing on a worker that already ran it is
        # re-served, not recomputed.  Statelessness is preserved — the
        # memo is a pure function of the request, and losing it only
        # costs a recompute.  The re-served copy's stats carry the hit
        # counter so the driver's absorb surfaces it.
        key = (digest, tuple(request["shard"]))
        with self._lock:
            cached = self._results.get(key)
            context = self._contexts.get(digest)
        if cached is not None:
            members, stats = cached
            stats = dict(stats)
            stats["shard_cache_hits"] = stats.get("shard_cache_hits", 0) + 1
            return encode_blob((members, stats))
        if context is None:
            context = decode_blob(blob)
            with self._lock:
                # One context per run in practice; keep both memos small so
                # a long-lived worker serving many runs cannot hoard.
                if len(self._contexts) >= 4:
                    self._contexts.clear()
                self._contexts[digest] = context
        result = run_shard(context, key[1])
        with self._lock:
            if len(self._results) >= 64:
                self._results.clear()
            self._results[key] = result
        return encode_blob(result)


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
