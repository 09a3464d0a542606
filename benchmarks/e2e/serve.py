"""The serve workload: ``repro fleet`` under an open-loop request replay.

A 2-worker fleet runs as a subprocess (``python -m repro fleet``) over a
fresh shared disk cache.  Set-up warms a hot set of queries.  The timed
traffic is a Zipf(1.1) draw over the hot set, every request a fresh
renaming of its query so the canonical key (not string equality) has to
find the cached answer, with 5% of requests first-seen queries that run
the pipeline.  The hit path (canonical key + cache read) and the miss
path (pipeline + cache write) share the fleet, so a gain on one that
costs the other shows.

The load is an open loop from this process over two connections: request
*i* of a rung is due ``i / rate`` seconds after the rung starts and is
timed from that instant, so a stall also charges the requests queued
behind it.  The reference rung (1000 requests at 150 q/s, sent in
segments of 200 with a calibration probe before each) gives the latency
percentiles.  A ladder of fixed higher rates follows, run eight
times over, each time up to its first rung beyond the latency limit; a
backlog that grows through a rung shows as latency from the due time, so
the rate at which the p99 crosses the limit is the highest rate the fleet
serves without one.  Each ladder gives one such rate and ``max_qps`` is
their median: a single rung's p99 hangs on where a few first-seen
queries fall, and one slow second of the host can push it past the limit
at any rate.  Every response must equal the committed cold answer of its
query's canonical class.

This workload is not declared in ``BENCHMARK.json``: its latencies move
with spells of slow process wake-ups on a small shared host, which the
CPU calibration does not see (``run.UNDECLARED``).
"""

from __future__ import annotations

import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from bench_serving import _Hosted, _rename
from repro.cq import ConjunctiveQuery, parse_query
from repro.serve import (
    ProtocolError,
    ServeClient,
    ServeError,
    ServerConfig,
    wait_for_server,
)

from common import Measurement, TraceReport, fresh_engine, span_metrics
from harness import HostSpeed, cpu_seconds, log, percentile
from reference import load_reference
from trace import Tracer, pipeline_targets, serve_targets

WORKLOAD = "serve"
CLS = "TW1"
ZIPF_EXPONENT = 1.1
MISS_SHARE = 0.05
CONNECTIONS = 2

#: The latency limit on a rung's p99; a failed or refused request misses
#: any limit.
LATENCY_LIMIT_MS = 100.0

#: Requests per segment of the reference rung.
REFERENCE_SEGMENT = 200


@dataclass(frozen=True)
class Load:
    #: ``(rate, requests)`` of the reference rung: 1000 requests leave ten
    #: beyond its p99.
    reference: tuple[float, int]
    ladder: tuple[float, ...]  # rates of the ladder's rungs
    rung_seconds: float  # a ladder rung offers rate x rung_seconds requests
    ladders: int  # times the ladder runs
    trace_requests: int  # open-loop requests of a traced run
    replay: int  # requests replayed through the in-process traced server


LOAD = Load((150.0, 1000), (300.0, 400.0, 500.0, 600.0, 700.0), 0.5, 8, 500, 600)
LOAD_SMOKE = Load((150.0, 200), (300.0, 400.0), 0.5, 1, 100, 100)

#: The serving part of each request, in daemon order; ``unaccounted`` is
#: what the client saw beyond their sum (transport, event loop, glue).
PARTS = (
    ("decode", "serve.decode"),
    ("parse", "cq.parse"),
    ("key", "serve.key"),
    ("cache_get", "serve.cache_get"),
    ("compute", "serve.compute"),
    ("cache_put", "serve.cache_put"),
    ("encode", "serve.encode"),
)


@dataclass
class Request:
    text: str
    answer: list[str]


@dataclass
class Sample:
    due: float
    sent: float
    done: float
    response: dict | None


@dataclass
class Rung:
    """One open-loop rung: its offered rate and what it measured."""

    rate: float
    samples: list[Sample]
    failed: int
    wall: float
    cpu: float

    @property
    def latencies_ms(self) -> list[float]:
        return [(s.done - s.due) * 1000 for s in self.samples]

    @property
    def p99_ms(self) -> float:
        """The p99 latency; infinite when a request failed."""
        return math.inf if self.failed else percentile(self.latencies_ms, 0.99)

    def line(self) -> str:
        latencies = self.latencies_ms
        lag = [(s.sent - s.due) * 1000 for s in self.samples]
        return (
            f"rung {self.rate:5.0f} q/s x {len(self.samples)}: p50 "
            f"{percentile(latencies, 0.5):.2f} ms, p99 {self.p99_ms:.2f} ms, "
            f"delivered {len(self.samples) / self.wall:.1f} q/s, generator lag p99 "
            f"{percentile(lag, 0.99):.2f} ms"
        )


def max_rate(rungs: list[Rung]) -> float:
    """The rate at which the p99 reaches :data:`LATENCY_LIMIT_MS`.

    Interpolated linearly between the last rung within the limit (or 0 q/s
    at 0 ms) and the first rung beyond it; the top rung's rate when every
    rung is within the limit.
    """
    rate, p99 = 0.0, 0.0
    for rung in rungs:
        if rung.p99_ms > LATENCY_LIMIT_MS:
            if math.isinf(rung.p99_ms):
                return rate
            share = (LATENCY_LIMIT_MS - p99) / (rung.p99_ms - p99)
            return rate + (rung.rate - rate) * share
        rate, p99 = rung.rate, rung.p99_ms
    return rate


def rename(query_text: str, rng: random.Random) -> str:
    """The query under shuffled variable names."""
    return _rename(parse_query(query_text), rng)


class RequestSource:
    """Seeded request mix: Zipf over the hot set, a share of first-seen.

    First-seen queries come from the pool in its committed order, so every
    run sends the same ones (each is still a miss: every run starts a
    fresh fleet and cache); the seed decides where they fall, one in each
    block of ``1 / MISS_SHARE`` requests.  Which pool queries a run drew,
    and how many fell next to each other, would otherwise move the p99
    from seed to seed.
    """

    def __init__(self, reference: dict, seed: int) -> None:
        self.hot = reference["hot"]
        self.pool = reference["pool"]
        self.rng = random.Random(f"{WORKLOAD}:{seed}")
        self.weights = [
            1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.hot))
        ]
        self.drawn = 0

    def _first_seen(self) -> dict:
        # Past the pool's end entries repeat (and then hit the cache); a
        # run draws 120-600 of the pool's 600.
        entry = self.pool[self.drawn % len(self.pool)]
        self.drawn += 1
        return entry

    def batch(self, count: int) -> list[Request]:
        blocks = round(count * MISS_SHARE)
        misses = {
            int((block + self.rng.random()) * count / blocks) for block in range(blocks)
        }
        requests = []
        for index in range(count):
            if index in misses:
                entry = self._first_seen()
            else:
                entry = self.rng.choices(self.hot, weights=self.weights)[0]
            requests.append(Request(rename(entry["query"], self.rng), entry["answer"]))
        return requests


def send_all(address: str, requests: list[Request], rate: float | None) -> list[Sample]:
    """Send ``requests`` over :data:`CONNECTIONS` connections.

    With a ``rate`` request *i* is due ``i / rate`` seconds after the
    start (open loop: a free connection waits for the due time, a busy one
    sends late); without one every free connection sends the next request
    at once (closed loop).
    """
    samples: list[Sample | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.perf_counter() + 0.01

    def sender() -> None:
        client = None
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + index / rate if rate else time.perf_counter()
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    if client is None:
                        client = ServeClient(address, timeout=120.0)
                    response = client.approximate(
                        requests[index].text, CLS, check=False
                    )
                except (OSError, ConnectionError, ProtocolError):
                    if client is not None:
                        client.close()
                    client, response = None, None
                samples[index] = Sample(due, sent, time.perf_counter(), response)
        finally:
            if client is not None:
                client.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


class FleetProcess:
    """``python -m repro fleet`` in its own session under ``run_dir``."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        # Relative paths keep unix socket names short wherever the
        # checkout lives (the benchmark runs from the repository root).
        self.address = str(run_dir / "fleet.sock")
        self.proc: subprocess.Popen | None = None

    def start(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH="src", TMPDIR=str(self.run_dir.resolve()))
        with open(self.run_dir / "fleet.log", "wb") as log_file:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "fleet",
                    "--workers", "2",
                    "--socket", self.address,
                    "--run-dir", str(self.run_dir),
                    "--cache-dir", str(self.run_dir / "cache"),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=log_file,
                start_new_session=True,
            )
        wait_for_server(self.address, deadline=120.0)

    def stats(self) -> dict:
        with ServeClient(self.address, timeout=60.0) as client:
            return client.stats()

    def stop(self) -> None:
        """Drain the fleet, then make sure its whole process group is gone."""
        if self.proc is None:
            return
        try:
            with ServeClient(self.address, timeout=30.0) as client:
                client.shutdown()
            self.proc.wait(timeout=60)
        except (OSError, ConnectionError, ServeError, subprocess.TimeoutExpired):
            pass
        group = self.proc.pid
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.proc = None
        shutil.rmtree(self.run_dir, ignore_errors=True)


class ServeWorkload:
    name = WORKLOAD

    def __init__(self, seed: int, smoke: bool, host: HostSpeed, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.host = host
        self.load = LOAD_SMOKE if smoke else LOAD
        #: The fixed work of a run; ``compare.py`` refuses to pair runs
        #: whose plans differ.
        self.plan = {
            "reference": self.load.reference,
            "ladder": self.load.ladder,
            "rung_seconds": self.load.rung_seconds,
            "ladders": self.load.ladders,
        }
        self.scratch = scratch
        self.failures: list[str] = []
        self.checked = 0
        self.fleet: FleetProcess | None = None

    # ------------------------------------------------------------ set-up

    def setup(self) -> None:
        reference = load_reference(WORKLOAD, self.smoke)
        self.hot = reference["hot"]
        self.source = RequestSource(reference, self.seed)
        self.fleet = FleetProcess(self.scratch / f"fleet-{os.getpid()}")
        self.fleet.start()
        # Warm both workers: the hot set once over one connection (cold
        # misses, stored in the shared disk tier), then twice over both
        # connections so each worker also holds every entry in memory.
        warm = self._hot_requests(1)
        with ServeClient(self.fleet.address, timeout=600.0) as client:
            for request in warm:
                sent = time.perf_counter()
                response = client.approximate(request.text, CLS, check=False)
                sample = Sample(sent, sent, time.perf_counter(), response)
                self._check([sample], [request])
        warm = self._hot_requests(2)
        self._check(send_all(self.fleet.address, warm, None), warm)

    def _hot_requests(self, rounds: int) -> list[Request]:
        """Every hot query ``rounds`` times, freshly renamed each time."""
        return [
            Request(rename(entry["query"], self.source.rng), entry["answer"])
            for entry in self.hot * rounds
        ]

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None

    def _check(self, samples: list[Sample], requests: list[Request]) -> None:
        for sample, request in zip(samples, requests):
            self.checked += 1
            response = sample.response
            if response is None:
                self.failures.append("connection failure")
            elif not response.get("ok"):
                kind = response.get("error", {}).get("kind")
                self.failures.append(f"refused: {kind}")
            elif response.get("approximations") != request.answer:
                self.failures.append(f"wrong answer for {request.text}")

    # ------------------------------------------------------------ measure

    def _rung(self, rate: float, count: int) -> Rung:
        requests = self.source.batch(count)
        self.host.probe()
        failed_before = len(self.failures)
        cpu_before, wall_before = cpu_seconds(), time.perf_counter()
        samples = send_all(self.fleet.address, requests, rate)
        wall = time.perf_counter() - wall_before
        cpu = cpu_seconds() - cpu_before
        self._check(samples, requests)
        return Rung(rate, samples, len(self.failures) - failed_before, wall, cpu)

    def _reference(self) -> Rung:
        """The reference rung, sent in segments with a probe before each,
        so the host's speed is sampled while the rung runs."""
        rate, count = self.load.reference
        segments = [
            self._rung(rate, min(REFERENCE_SEGMENT, count - start))
            for start in range(0, count, REFERENCE_SEGMENT)
        ]
        return Rung(
            rate,
            [sample for segment in segments for sample in segment.samples],
            sum(segment.failed for segment in segments),
            sum(segment.wall for segment in segments),
            sum(segment.cpu for segment in segments),
        )

    def _ladder(self) -> list[Rung]:
        """The ladder's rungs up to the first one beyond the limit."""
        rungs = []
        for rate in self.load.ladder:
            rungs.append(self._rung(rate, round(rate * self.load.rung_seconds)))
            if rungs[-1].p99_ms > LATENCY_LIMIT_MS:
                break
        return rungs

    def measure(self) -> Measurement:
        load = self.load
        reference = self._reference()
        ladders = [self._ladder() for _ in range(load.ladders)]
        crossings = [max_rate([reference] + ladder) for ladder in ladders]
        rungs = [reference] + [rung for ladder in ladders for rung in ladder]
        values = {
            "max_qps": statistics.median(crossings),
            "cpu_ms": reference.cpu / len(reference.samples) * 1000,
            "op_tail_ms": reference.p99_ms,
        }
        samples = {"reference ms": reference.latencies_ms}
        notes = [rung.line() for rung in rungs] + [
            f"max_qps {values['max_qps']:.1f}: the median of the rates where "
            f"each ladder's p99 crosses {LATENCY_LIMIT_MS:g} ms "
            f"({', '.join(f'{c:.1f}' for c in crossings)})"
        ] + self.failures[:5]
        return Measurement(values, self.checked, len(self.failures), samples, notes)

    # -------------------------------------------------------------- trace

    def trace(self) -> TraceReport:
        metrics: dict = {}
        rung = self._rung(self.load.reference[0], self.load.trace_requests)
        metrics["parallel.cpu_util"] = rung.cpu / (rung.wall * (os.cpu_count() or 1))
        metrics["loadgen.lag_p99_ms"] = percentile(
            [(s.sent - s.due) * 1000 for s in rung.samples], 0.99
        )
        service = {True: [], False: []}
        for sample in rung.samples:
            if sample.response and sample.response.get("ok"):
                service[bool(sample.response["cached"])].append(
                    sample.response["seconds"] * 1000
                )
        metrics["serve.hit_service_ms"] = _median(service[True])
        metrics["serve.miss_service_ms"] = _median(service[False])
        metrics.update(self._fleet_cache_metrics())
        metrics["serve.router_ms"] = self._router_ms()
        metrics["host.calib_s"] = self.host.median
        replay = self.source.batch(self.load.replay)
        untraced_wall, _ = self._replay(replay, None)
        tracer = Tracer()
        with tracer:
            tracer.patch_all(serve_targets() + pipeline_targets())
            traced_wall, kinds = self._replay(replay, tracer)
        metrics.update(span_metrics(tracer, 1))
        table, part_metrics, unaccounted = split_table(tracer, kinds, traced_wall)
        metrics.update(part_metrics)
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        metrics["trace.unaccounted_frac"] = unaccounted / traced_wall
        return TraceReport(metrics, self.checked, len(self.failures), [table], tracer)

    def _fleet_cache_metrics(self) -> dict:
        totals: dict[str, float] = {}
        for worker in self.fleet.stats().get("worker_stats", {}).values():
            for name, value in (worker.get("cache") or {}).items():
                if name != "hit_rate":
                    totals[name] = totals.get(name, 0) + value
        hits = totals.get("memory_hits", 0) + totals.get("disk_hits", 0)
        lookups = hits + totals.get("misses", 0)
        return {
            "serve.cache.hit_rate": hits / lookups if lookups else 0.0,
            "serve.cache.stores": totals.get("stores", 0),
        }

    def _router_ms(self) -> float:
        """Warm-hit p50 through the router minus p50 straight to a worker."""
        probe = self._hot_requests(5)
        p50 = {}
        for label, address in (
            ("router", self.fleet.address),
            ("direct", str(self.fleet.run_dir / "worker-0.sock")),
        ):
            times = []
            with ServeClient(address, timeout=60.0) as client:
                for request in probe:
                    started = time.perf_counter()
                    response = client.approximate(request.text, CLS, check=False)
                    times.append(time.perf_counter() - started)
                    self._check(
                        [Sample(started, started, started, response)], [request]
                    )
            p50[label] = statistics.median(times) * 1000
        return p50["router"] - p50["direct"]

    def _replay(self, requests: list[Request], tracer: Tracer | None):
        """Replay ``requests`` one at a time through a fresh in-process
        server (warmed with the hot set); returns wall seconds and each
        request's hit/miss outcome."""
        fresh_engine()
        socket_path = str(self.scratch / f"inproc-{os.getpid()}.sock")
        kinds = []
        with _Hosted(ServerConfig(socket_path=socket_path)), ServeClient(
            socket_path, timeout=120.0
        ) as client:
            for entry in self.hot:
                client.approximate(entry["query"], CLS)
            started = time.perf_counter()
            for index, request in enumerate(requests):
                if tracer is not None:
                    tracer.op = str(index)
                response = client.approximate(request.text, CLS, check=False)
                kinds.append("hit" if response.get("cached") else "miss")
                self._check([Sample(0, 0, 0, response)], [request])
            wall = time.perf_counter() - started
        if tracer is not None:
            tracer.op = None
        return wall, kinds


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def split_table(tracer: Tracer, kinds: list[str], wall: float):
    """Per-request serving parts, hits and misses apart.

    Returns the printed table, the ``serve.{hit,miss}.*_ms`` metrics plus
    ``cq.parse_ms``, and the unaccounted seconds of the traced replay.
    """
    means = {}
    for kind in ("hit", "miss"):
        ops = [tracer.per_op.get(str(i), {}) for i, k in enumerate(kinds) if k == kind]
        count = max(len(ops), 1)

        def mean_ms(span: str) -> float:
            return sum(op.get(span, (0.0, 0.0))[0] for op in ops) / count * 1000

        parts = {part: mean_ms(span) for part, span in PARTS}
        parts["unaccounted"] = mean_ms("serve.client") - sum(parts.values())
        means[kind] = (len(ops), parts)
    lines = [f"{'serving part (inclusive)':<26} {'hit ms':>9} {'miss ms':>9}"]
    for part in means["hit"][1]:
        lines.append(
            f"{part:<26} {means['hit'][1][part]:>9.3f} {means['miss'][1][part]:>9.3f}"
        )
    lines.append(f"{'requests':<26} {means['hit'][0]:>9} {means['miss'][0]:>9}")
    metrics = {
        f"serve.{kind}.{part}_ms": value
        for kind, (_, parts) in means.items()
        for part, value in parts.items()
        if part != "parse"
    }
    metrics["cq.parse_ms"] = sum(
        count * parts["parse"] for count, parts in means.values()
    ) / max(len(kinds), 1)
    served = sum(
        count * sum(parts.values()) for count, parts in means.values()
    ) / 1000
    unaccounted = wall - served + sum(
        count * parts["unaccounted"] for count, parts in means.values()
    ) / 1000
    lines.append(f"served {served:.4f} s of the traced replay's {wall:.4f} s wall")
    return "\n".join(lines), metrics, unaccounted


# ------------------------------------------------------------- reference


@dataclass(frozen=True)
class Recipe:
    """How the reference hot set and first-seen pool are drawn."""

    #: Chorded cycles ``(length, chords)`` of the hot set, head ``x0``.
    cycles: tuple
    #: Further hot queries: ``random_graph_query`` of this shape.
    random_hot: int
    random_shape: tuple[int, int]
    #: First-seen queries: ``random_graph_query`` of ``pool_shape`` whose
    #: core keeps ``pool_core`` variables.
    pool: int
    pool_shape: tuple[int, int]
    pool_core: int


RECIPE = Recipe(
    cycles=(
        (6, ((0, 3),)),
        (6, ((0, 2),)),
        (6, ((0, 2), (3, 5))),
        (6, ((1, 4),)),
        (7, ((0, 3),)),
        (7, ((0, 2),)),
        (7, ((1, 4), (2, 5))),
        (7, ((2, 6),)),
        (7, ((0, 2), (3, 5))),
        (8, ((0, 4),)),
    ),
    random_hot=10,
    random_shape=(6, 8),
    pool=600,
    pool_shape=(7, 9),
    pool_core=6,
)
RECIPE_SMOKE = Recipe(
    cycles=((5, ()), (6, ((0, 3),)), (6, ((0, 2), (3, 5))), (5, ((0, 2),))),
    random_hot=4,
    random_shape=(5, 7),
    pool=60,
    pool_shape=(6, 8),
    pool_core=5,
)


def write_reference(smoke: bool, scratch: Path) -> dict:
    """Cold answers of the hot set and of a pool of first-seen queries.

    Every query has a distinct canonical class.  The pool keeps the
    candidates whose cold service time lies in a band around their median,
    so which of them a seed draws barely moves the latency tail.
    """
    from repro.serve.cache import canonical_result_key
    from repro.core import class_from_name
    from repro.workloads import cycle_with_chords, random_graph_query

    cls = class_from_name(CLS)
    recipe = RECIPE_SMOKE if smoke else RECIPE
    seen: set = set()

    def admit(query: ConjunctiveQuery, variables: int | None = None) -> bool:
        key = canonical_result_key(query.tableau(), cls, ())
        if key in seen or (variables is not None and len(key[1][0]) != variables):
            return False
        seen.add(key)
        return True

    hot_queries = [
        query
        for query in (
            cycle_with_chords(length, chords, head_size=1)
            for length, chords in recipe.cycles
        )
        if admit(query)
    ]
    seed = 0
    while len(hot_queries) < len(recipe.cycles) + recipe.random_hot:
        query = random_graph_query(*recipe.random_shape, seed=seed, head_size=1)
        seed += 1
        if admit(query, recipe.random_shape[0]):
            hot_queries.append(query)

    socket_path = str(scratch / f"reference-{os.getpid()}.sock")
    fresh_engine()
    with _Hosted(ServerConfig(socket_path=socket_path)), ServeClient(
        socket_path, timeout=600.0
    ) as client:
        hot = [
            {"query": str(query), "answer": client.approximate(str(query), CLS)["approximations"]}
            for query in hot_queries
        ]
        candidates = []
        seed = 10_000
        while len(candidates) < recipe.pool * 3 // 2:
            query = random_graph_query(*recipe.pool_shape, seed=seed, head_size=1)
            seed += 1
            if not admit(query, recipe.pool_core):
                continue
            response = client.approximate(str(query), CLS)
            candidates.append((response["seconds"], str(query), response["approximations"]))
    median = statistics.median(seconds for seconds, _, _ in candidates)
    pool = [
        {"query": text, "answer": answer}
        for seconds, text, answer in candidates
        if 0.75 * median <= seconds <= 1.33 * median
    ][: recipe.pool]
    log(f"serve reference: {len(hot)} hot queries, pool {len(pool)} of "
        f"{len(candidates)} candidates (median cold {median * 1000:.1f} ms)")
    if len(pool) < recipe.pool:
        raise SystemExit("too few first-seen queries inside the cost band")
    return {"hot": hot, "pool": pool}
