"""EXP FLEET — crash-healing throughput of the supervised serving fleet.

PR 10 puts a supervisor (:mod:`repro.serve.fleet`) over N ``repro
serve`` worker processes sharing one disk cache tier, with an asyncio
router balancing by least outstanding requests, retrying connection
faults on another worker, and hedging stragglers.  This benchmark
replays the same Zipfian log of per-request-renamed (hom-equivalent)
queries through a 2-worker fleet twice:

* **undisturbed** — the baseline throughput;
* **disturbed** — one worker ``SIGKILL``'d mid-replay.

The headline is the throughput *ratio* ``disturbed / undisturbed``
(``headline.speedup``, target ≥ 0.8 — "within 20%"), and the run
asserts the kill drill's invariants outright:

1. **zero failed client requests** — every response of the disturbed
   replay is ``ok``;
2. **capacity restored** — the supervisor replaces the killed worker
   (the victim slot's generation advances, both workers live) within
   the restart-backoff budget;
3. **post-restart warm ≡ cold** — after healing, a renamed phrasing of
   every distinct query answers ``cached`` and bit-identical to the
   disturbed replay's own cold answers (the shared disk tier and the
   canonical result key survive the crash).

``--smoke`` replays a scaled-down log with the same assertions minus
the throughput bar (tiny logs make the ratio noise) and never rewrites
the committed JSON.  Writes ``BENCH_fleet.json`` at the repository
root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import time
from pathlib import Path

from repro.serve import FleetConfig, ServerConfig
from repro.testing.chaos import HostedFleet
from repro.workloads import cycle_with_chords
from paperfmt import table, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_fleet.json"

ZIPF_EXPONENT = 1.1
WORKERS = 2
TARGET_RATIO = 0.8

FULL_TEMPLATES = [
    cycle_with_chords(6, ((0, 3),)),
    cycle_with_chords(7, ((0, 3),)),
    cycle_with_chords(7, ((1, 4), (2, 5))),
    cycle_with_chords(7, ((2, 6),)),
    cycle_with_chords(8, ((0, 4),)),
    cycle_with_chords(8, ((0, 3),)),
]
# Long enough that the kill's fixed cost (one failover retry + the
# respawn racing the replay) amortizes: the ratio measures steady-state
# degraded capacity, not a single stall against a short log.
FULL_LOG_LENGTH = 120

SMOKE_TEMPLATES = [
    cycle_with_chords(5),
    cycle_with_chords(6, ((0, 3),)),
    cycle_with_chords(6, ((0, 2), (3, 5))),
]
SMOKE_LOG_LENGTH = 12


# --------------------------------------------------------------------------
# Workload synthesis (mirrors bench_serving: the canonical key, not string
# equality, must do the unification work)
# --------------------------------------------------------------------------


def _rename(query, rng: random.Random) -> str:
    from repro.cq import ConjunctiveQuery

    variables = sorted(query.tableau().structure.domain, key=repr)
    shuffled = list(range(len(variables)))
    rng.shuffle(shuffled)
    mapping = {v: f"f{shuffled[i]}" for i, v in enumerate(variables)}
    return str(ConjunctiveQuery.from_tableau(query.tableau().rename(mapping)))


def _zipf_log(templates, length: int, seed: int) -> list[tuple[int, str]]:
    rng = random.Random(seed)
    weights = [
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(templates))
    ]
    picks = rng.choices(range(len(templates)), weights=weights, k=length)
    return [(index, _rename(templates[index], rng)) for index in picks]


def _fleet_config(run_dir: str) -> FleetConfig:
    return FleetConfig(
        workers=WORKERS,
        socket_path=os.path.join(run_dir, "fleet.sock"),
        run_dir=run_dir,
        worker=ServerConfig(
            cache_dir=os.path.join(run_dir, "cache"),
            max_extra_atoms=0,
        ),
        health_interval=0.2,
        health_timeout=0.8,
        restart_backoff_base=0.1,
        restart_backoff_cap=0.5,
        hedge_after=2.0,
    )


# --------------------------------------------------------------------------
# Replay
# --------------------------------------------------------------------------


def _replay(
    run_dir: str, templates, log, *, kill_at: int | None = None
) -> dict:
    """Drive one fleet through the log; optionally SIGKILL worker 0 at
    request index ``kill_at``.  Returns the replay's metrics."""
    config = _fleet_config(run_dir)
    with HostedFleet(config) as hosted:
        with hosted.client() as client:
            before = client.stats()
            victim = before["slots"][0]
            answers: dict[int, list[str]] = {}
            failures = 0
            started = time.perf_counter()
            for index, (template_index, text) in enumerate(log):
                if index == kill_at:
                    os.kill(victim["pid"], signal.SIGKILL)
                response = client.approximate(
                    text, "TW1", method="exact", check=False
                )
                if not response.get("ok"):
                    failures += 1
                    continue
                answers.setdefault(
                    template_index, response["approximations"]
                )
                assert response["approximations"] == answers[template_index], (
                    f"request {index} diverged from its template's first "
                    f"answer"
                )
            elapsed = time.perf_counter() - started

            healed_s = None
            if kill_at is not None:
                heal_started = time.perf_counter()
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    stats = client.stats()
                    if (
                        stats["slots"][0]["generation"]
                        >= victim["generation"] + 1
                        and stats["live_workers"] == WORKERS
                        and not any(
                            slot["degraded"] for slot in stats["slots"]
                        )
                    ):
                        break
                    time.sleep(0.1)
                else:
                    raise AssertionError(
                        "supervisor did not restore capacity after the kill"
                    )
                healed_s = round(time.perf_counter() - heal_started, 3)

                # Post-restart: every distinct query answers warm and
                # bit-identical to this replay's own cold answers.
                rng = random.Random(10_007)
                for template_index, expected in sorted(answers.items()):
                    probe = client.approximate(
                        _rename(templates[template_index], rng),
                        "TW1",
                        method="exact",
                    )
                    assert probe["cached"], "post-restart answer was cold"
                    assert probe["approximations"] == expected, (
                        "post-restart warm answer not bit-identical"
                    )
            final = client.stats()
    return {
        "seconds": round(elapsed, 3),
        "queries_per_s": round(len(log) / elapsed, 2),
        "failures": failures,
        "router_retries": final["router_retries"],
        "hedges": final["hedges"],
        "worker_restarts": final["worker_restarts"],
        "healed_s": healed_s,
    }


def run_all(templates, log_length: int) -> dict:
    import tempfile

    log = _zipf_log(templates, log_length, seed=20260808)
    kill_at = log_length // 3

    with tempfile.TemporaryDirectory() as run_dir:
        undisturbed = _replay(run_dir, templates, log)
    with tempfile.TemporaryDirectory() as run_dir:
        disturbed = _replay(run_dir, templates, log, kill_at=kill_at)

    assert disturbed["failures"] == 0, (
        f"{disturbed['failures']} client request(s) failed during the kill "
        f"drill — the router must absorb a worker death invisibly"
    )
    assert disturbed["worker_restarts"] >= 1, "the supervisor never healed"

    ratio = round(
        disturbed["queries_per_s"] / undisturbed["queries_per_s"], 3
    )
    return {
        "benchmark": "fleet",
        "description": (
            "2-worker supervised fleet replaying a Zipfian log of "
            "per-request renamed queries, undisturbed vs one worker "
            "SIGKILL'd mid-replay: zero failed requests, supervisor "
            "restores capacity, post-restart warm answers bit-identical "
            "to cold, throughput within 20% of undisturbed"
        ),
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        "log_length": len(log),
        "kill_at": kill_at,
        "workloads": [
            dict(undisturbed, workload="undisturbed"),
            dict(disturbed, workload="sigkill-mid-replay"),
        ],
        "headline": {
            "name": "sigkill-mid-replay",
            "class": "TW1",
            "speedup": ratio,
            "target_speedup": TARGET_RATIO,
            "failures": disturbed["failures"],
            "healed_s": disturbed["healed_s"],
            "note": (
                "disturbed/undisturbed throughput ratio; >= 0.8 means a "
                "worker death costs at most 20% throughput while the "
                "supervisor heals and zero client requests fail"
            ),
        },
    }


def _report(payload: dict) -> None:
    body = table(
        ["replay", "t(s)", "q/s", "failures", "retries", "hedges", "healed(s)"],
        [
            [
                row["workload"],
                row["seconds"],
                row["queries_per_s"],
                row["failures"],
                row["router_retries"],
                row["hedges"],
                row["healed_s"] if row["healed_s"] is not None else "-",
            ]
            for row in payload["workloads"]
        ],
    )
    write_report(
        "bench_fleet",
        "Supervised fleet: crash-healing replay throughput",
        body,
    )


def smoke() -> None:
    payload = run_all(SMOKE_TEMPLATES, SMOKE_LOG_LENGTH)
    headline = payload["headline"]
    # Tiny logs make the throughput ratio noisy; the smoke bar is the
    # drill's correctness invariants plus a non-degenerate ratio.
    assert headline["failures"] == 0
    assert headline["speedup"] > 0.3, (
        f"disturbed replay collapsed: ratio {headline['speedup']}"
    )
    print(
        f"smoke ok: kill drill ratio {headline['speedup']} "
        f"(healed in {headline['healed_s']}s, zero failed requests)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down replay with the drill assertions; no JSON rewrite",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    payload = run_all(FULL_TEMPLATES, FULL_LOG_LENGTH)
    headline = payload["headline"]
    assert headline["speedup"] >= headline["target_speedup"], (
        f"disturbed throughput ratio {headline['speedup']} "
        f"< target {headline['target_speedup']}"
    )
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    _report(payload)
    print(f"wrote {JSON_PATH}")


if __name__ == "__main__":
    main()
