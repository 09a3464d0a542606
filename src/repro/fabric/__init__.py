"""``repro.fabric`` — the fault-tolerant distributed shard fabric.

The pipeline's one scale-out strategy splits the restricted-growth-string
partition space into prefix slices and reduces each slice to a per-shard
frontier; the driver merges the union of the shard frontiers in global
stream order, so the result is bit-identical to a serial run however the
shards were computed (:func:`repro.core.pipeline._merge_shards`).  This
package lifts that strategy from local slot processes to *network*
workers.  A shard is a deterministic function of the run context and its
slice, so every recovery mechanism below is "just send it again": the
driver keeps the first result of each shard and drops duplicates.

Protocol (:mod:`repro.fabric.protocol`)
    The serving JSON-lines envelope with the fabric's op vocabulary —
    ``hello`` (handshake), ``ping`` (liveness, answered concurrently
    with a running shard), ``shard`` (run one slice; context and result
    travel as base64-pickle blobs), ``shutdown`` — and a shard-sized
    line cap.

Worker (:mod:`repro.fabric.worker`, CLI ``repro worker``)
    A stateless threaded socket server: the full run context arrives
    with every shard request (content-addressed and cached), so any
    worker can run any shard and a crashed worker loses only the shard
    it was running.

Coordinator (:mod:`repro.fabric.coordinator`)
    One dispatcher thread per slot — a worker address, or a local slot
    process on non-fabric runs; detects failure four ways (connection
    faults — EOF/refused/garbled frames; heartbeat faults — no bytes and
    no pong within the heartbeat interval; deadline faults — a shard
    over its per-shard timeout; error faults — the shard raised),
    re-dispatches lost shards
    with capped exponential backoff, speculatively re-executes
    stragglers on idle workers (first result wins), blacklists slots
    after consecutive failures, and degrades to running leftover shards
    in the driver when the slot set empties.  Every detected failure is a
    structured :class:`~repro.fabric.coordinator.ShardFault` in
    ``PipelineResult.faults``.

Deterministic drills: :data:`repro.testing.faults.NETWORK_KINDS`
(``drop-connection`` / ``delay-response`` / ``garble-frame``) arm a
worker's response seam through the same token-file discipline as every
other scripted fault — exactly one firing across all processes, so
re-dispatched shards complete and the drill asserts recovery, not luck.

Entry points: ``run_pipeline(..., fabric=[...])`` /
``ApproximationConfig(fabric_workers=...)`` drive a run over workers
started with ``repro worker --socket PATH`` or ``--host/--port``.
"""

from repro.fabric.coordinator import FabricCoordinator, ShardFault
from repro.fabric.protocol import (
    FABRIC_MAX_LINE_BYTES,
    FABRIC_OPS,
    parse_address,
)
from repro.fabric.worker import WorkerServer, serve

__all__ = [
    "FABRIC_MAX_LINE_BYTES",
    "FABRIC_OPS",
    "FabricCoordinator",
    "ShardFault",
    "WorkerServer",
    "parse_address",
    "serve",
]
