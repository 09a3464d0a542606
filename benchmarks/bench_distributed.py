"""EXP DISTRIBUTED — the fault-tolerant shard fabric: an ``exact_limit=11``
run under a fixed memory ceiling, per-worker work scaling from 1 to 2 local
TCP workers, and the worker-kill recovery drill.

PR 9 lifts the shard strategy onto network workers (:mod:`repro.fabric`):
stateless ``repro worker`` processes serve partition-prefix shards over the
JSON-lines transport, and the coordinator survives worker loss through
retry/backoff, heartbeats, speculation, and blacklist-then-degrade.  This
benchmark measures the three claims that fabric makes:

* **Capacity**: a ``cycle_with_chords(11)`` run — eleven tableau elements,
  so it needs ``exact_limit = 11`` — completes on 2 local TCP workers with
  a fixed 256 MiB ``memory_limit`` armed, without exhausting its budget,
  and its frontier is hom-equivalent to the serial reference.  The
  ceiling binds on each process's RSS; ``peak_tracked`` reports the
  largest tracked frontier/memo entry count of any one process.
* **Scaling (headline)**: the worst-case *per-worker* stage-1 stream — the
  longest raw partition-prefix shard any single worker must enumerate —
  shrinks by ``headline.speedup`` going from 1 worker (2 shards) to 2
  workers (4 shards).  Shard prefixes partition the raw stream exactly, so
  this is a deterministic count, not a timing: it bounds both the
  straggler's wall share on multi-core hosts and the per-worker memo
  growth a per-worker memory ceiling binds on.  Target: 1.6x.
  Wall-clock seconds are reported per row with the host's ``cpu_count``;
  no timing ratio is a headline, since local worker processes share the
  host's cores and their wall depends on how many there are.
* **Recovery**: a worker is SIGKILLed *mid-shard* (parked deterministically
  in the ``delay-response`` fault seam via the token-file discipline), and
  the run must still return a frontier hom-equivalent to serial, with the
  loss visible as a structured ``connection`` fault and a re-dispatch.

``--smoke`` runs the same drill and scaling row on ``cycle_with_chords(7)``
with 2 local TCP workers (one killed mid-run) and does not rewrite the
committed JSON.  Writes ``BENCH_distributed.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core import (
    TW1,
    ApproximationConfig,
    approximation_frontier,
    run_pipeline,
)
from repro.core.pipeline import PipelineStats
from repro.core.quotients import iter_quotient_candidates
from repro.homomorphism import hom_equivalent
from repro.workloads import cycle_with_chords
from paperfmt import table, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
JSON_PATH = REPO_ROOT / "BENCH_distributed.json"

FULL_N = 11
SMOKE_N = 7
DRILL_N = 9
MEMORY_LIMIT = 256 * 1024 * 1024
TARGET_SCALING = 1.6
#: Mirrors the coordinator's shards-per-worker dealing (two shards per
#: worker keep re-dispatch granular); imported defensively so a future
#: retuning there shows up here as a bench change, not a silent skew.
SHARDS_PER_WORKER = 2


# --------------------------------------------------------------------------
# Workers and frontier comparison
# --------------------------------------------------------------------------


def start_worker(*extra_args: str):
    """A ``repro worker`` subprocess on an ephemeral TCP port."""
    env = {**os.environ}
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--port", "0"]
        + list(extra_args),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()
    marker = "fabric worker listening on "
    assert marker in line, f"worker failed to start: {line!r}"
    address = line.split(marker, 1)[1].strip()
    return proc, address


def stop_worker(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def assert_hom_equivalent(frontier, serial) -> None:
    assert len(frontier) == len(serial), (len(frontier), len(serial))
    for member in frontier:
        assert any(hom_equivalent(member, other) for other in serial)


# --------------------------------------------------------------------------
# Measurements
# --------------------------------------------------------------------------


def shard_stream_extents(tableau, worker_counts=(1, 2)) -> dict[int, list[int]]:
    """Per-shard raw stage-1 stream lengths for each worker count.

    ``_shard_prefixes`` deals partition prefixes so the *raw* stream is
    partitioned exactly (no cross-shard duplication); the counts here are
    therefore deterministic properties of the workload, independent of
    timing, host, or fault schedule.
    """
    extents: dict[int, list[int]] = {}
    for workers in worker_counts:
        count = workers * SHARDS_PER_WORKER
        extents[workers] = [
            sum(
                1
                for _ in iter_quotient_candidates(
                    tableau,
                    shard=(rank, count),
                    generation="raw",
                )
            )
            for rank in range(count)
        ]
    return extents


def serial_reference(tableau):
    started = time.monotonic()
    result = run_pipeline(tableau, TW1, max_extra_atoms=0)
    return time.monotonic() - started, result


def capacity_run(query, tableau, addresses):
    """The ``exact_limit=11`` run under the fixed memory ceiling."""
    config = ApproximationConfig(
        exact_limit=len(tableau.structure.domain),
        memory_limit=MEMORY_LIMIT,
        fabric_workers=tuple(addresses),
    )
    stats = PipelineStats()
    faults: list = []
    started = time.monotonic()
    frontier = approximation_frontier(
        query, TW1, config, tableau=tableau, stats=stats, faults=faults
    )
    return time.monotonic() - started, frontier, stats, faults


def fabric_wall(tableau, addresses):
    started = time.monotonic()
    result = run_pipeline(
        tableau, TW1, max_extra_atoms=0, fabric=list(addresses)
    )
    return time.monotonic() - started, result


def kill_drill(tableau, serial_members, scratch: Path):
    """SIGKILL a worker parked mid-shard; the run must recover."""
    token = str(scratch / "drill-token")
    victim, victim_addr = start_worker(
        "--fault-kind",
        "delay-response",
        "--fault-token",
        token,
        "--fault-delay",
        "30",
    )
    survivor, survivor_addr = start_worker()
    try:

        def kill_when_parked():
            deadline = time.monotonic() + 120
            while not os.path.exists(token):
                if time.monotonic() > deadline:
                    return
                time.sleep(0.02)
            victim.kill()

        killer = threading.Thread(target=kill_when_parked, daemon=True)
        killer.start()
        started = time.monotonic()
        result = run_pipeline(
            tableau,
            TW1,
            max_extra_atoms=0,
            fabric=[victim_addr, survivor_addr],
            heartbeat_interval=0.5,
        )
        elapsed = time.monotonic() - started
        killer.join(timeout=120)
        assert os.path.exists(token), "the victim never reached a shard"
        assert_hom_equivalent(result.frontier, serial_members)
        assert any(fault.kind == "connection" for fault in result.faults)
        assert result.stats.shard_retries >= 1
        return {
            "wall_s": round(elapsed, 3),
            "retries": result.stats.shard_retries,
            "faults": [fault.kind for fault in result.faults],
            "recovered": True,
        }
    finally:
        stop_worker(victim)
        stop_worker(survivor)


# --------------------------------------------------------------------------
# The experiment
# --------------------------------------------------------------------------


def run_experiment(n: int, drill_n: int):
    query = cycle_with_chords(n)
    tableau = query.tableau()

    serial_s, serial = serial_reference(tableau)
    extents = shard_stream_extents(tableau)
    stream_max = {w: max(per) for w, per in extents.items()}
    scaling = stream_max[1] / stream_max[2]

    rows = [
        {
            "config": "serial",
            "wall_s": round(serial_s, 3),
            "generated": serial.stats.generated,
            "peak_tracked": serial.stats.peak_tracked_entries,
            "stream_max": sum(extents[1]),
            "faults": 0,
        }
    ]

    with tempfile.TemporaryDirectory(prefix="bench-fabric-") as scratch_dir:
        scratch = Path(scratch_dir)
        for workers in (1, 2):
            procs, addresses = [], []
            for _ in range(workers):
                proc, address = start_worker()
                procs.append(proc)
                addresses.append(address)
            try:
                if workers == 2:
                    wall, frontier, stats, faults = capacity_run(
                        query, tableau, addresses
                    )
                    assert not stats.exhausted, "tripped the memory ceiling"
                    assert_hom_equivalent(frontier, serial.frontier)
                    generated = stats.generated
                    peak = stats.peak_tracked_entries
                    fault_count = len(faults)
                else:
                    wall, result = fabric_wall(tableau, addresses)
                    assert_hom_equivalent(result.frontier, serial.frontier)
                    generated = result.stats.generated
                    peak = result.stats.peak_tracked_entries
                    fault_count = len(result.faults)
            finally:
                for proc in procs:
                    stop_worker(proc)
            rows.append(
                {
                    "config": f"fabric-{workers}w",
                    "wall_s": round(wall, 3),
                    "generated": generated,
                    "peak_tracked": peak,
                    "stream_max": stream_max[workers],
                    "faults": fault_count,
                }
            )

        drill_tableau = cycle_with_chords(drill_n).tableau()
        _, drill_serial = serial_reference(drill_tableau)
        drill = kill_drill(drill_tableau, drill_serial.frontier, scratch)

    headline = {
        "metric": (
            "worst-case per-worker stage-1 shard stream, 1 -> 2 workers "
            f"(raw candidates, cycle_with_chords({n}))"
        ),
        "speedup": round(scaling, 2),
        "target_speedup": TARGET_SCALING,
        "exact_limit": n,
        "memory_limit_bytes": MEMORY_LIMIT,
        "completed_under_memory_limit": True,
        "kill_drill_recovered": drill["recovered"],
    }
    return rows, drill, headline


def render(rows, drill, headline) -> str:
    body = table(
        ["config", "wall_s", "generated", "peak_tracked", "stream_max", "faults"],
        [
            [
                row["config"],
                row["wall_s"],
                row["generated"],
                row["peak_tracked"],
                row["stream_max"],
                row["faults"],
            ]
            for row in rows
        ],
    )
    lines = [
        body,
        "",
        f"kill drill: recovered={drill['recovered']} "
        f"retries={drill['retries']} faults={drill['faults']} "
        f"wall={drill['wall_s']}s",
        f"headline: {headline['speedup']}x per-worker stream scaling "
        f"(target {headline['target_speedup']}x); cpu_count={os.cpu_count()}",
    ]
    return "\n".join(lines)


def smoke() -> None:
    rows, drill, headline = run_experiment(SMOKE_N, SMOKE_N)
    assert headline["speedup"] >= TARGET_SCALING, headline
    assert headline["kill_drill_recovered"]
    print(render(rows, drill, headline))
    print(
        f"smoke ok: {headline['speedup']}x per-worker stream scaling, "
        f"kill drill recovered in {drill['wall_s']}s"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload, same drill and assertions, no JSON rewrite",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return

    rows, drill, headline = run_experiment(FULL_N, DRILL_N)
    assert headline["speedup"] >= headline["target_speedup"], headline
    assert headline["completed_under_memory_limit"]
    assert headline["kill_drill_recovered"]

    payload = {
        "bench": "distributed",
        "workload": {
            "query": f"cycle_with_chords({FULL_N})",
            "cls": "TW(1)",
            "drill_query": f"cycle_with_chords({DRILL_N})",
        },
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "kill_drill": drill,
        "headline": headline,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    write_report(
        "bench_distributed",
        "EXP DISTRIBUTED (shard fabric: capacity, scaling, recovery)",
        render(rows, drill, headline),
    )
    print(f"wrote {JSON_PATH}")


if __name__ == "__main__":
    main()
