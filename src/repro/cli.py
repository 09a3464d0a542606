"""Command-line interface.

Examples::

    python -m repro approximate "Q() :- E(x,y), E(y,z), E(z,x)" --cls TW1
    python -m repro classify "Q() :- E(x,y), E(y,z), E(z,x)"
    python -m repro minimize "Q() :- E(x,y), E(x,z)"
    python -m repro width "Q() :- R(x,y,z), R(z,u,w)"
    python -m repro contains "Q() :- E(x,y), E(y,z)" "Q() :- E(x,y)"
    python -m repro evaluate "Q(x) :- E(x,y)" --db graph.json
    python -m repro serve --socket /tmp/repro.sock --cache-dir /tmp/repro-cache
    python -m repro client --socket /tmp/repro.sock "Q() :- E(x,y), E(y,x)"
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.cq import is_contained_in, minimize, parse_query
from repro.core import (
    ApproximationConfig,
    QueryClass,
    TreewidthClass,
    all_approximations,
    approximate,
    class_from_name,
    classify_boolean_graph_query,
)
from repro.serve import (
    ApproximationServer,
    Fleet,
    FleetConfig,
    RetryPolicy,
    ServeClient,
    ServeError,
)
from repro.serve.server import (
    FAULT_FLAGS,
    POLICY_FLAGS,
    SERVER_FLAGS,
    ServerConfig,
    add_flags,
    flag_values,
    policy_config,
)
from repro.testing.faults import NETWORK_KINDS

#: ``repro fleet``'s worker flags: its own ``--workers`` counts worker
#: processes, so each worker's pipeline pool size stays programmatic, and
#: so does ``--shard-timeout``, which only a sharded run reads.
_FLEET_WORKER_FLAGS = tuple(
    flag
    for flag in POLICY_FLAGS + SERVER_FLAGS
    if flag.field not in ("workers", "shard_timeout")
)
#: ``repro worker`` arms network drills only, which have no corrupt mode.
_WORKER_FAULT_FLAGS = tuple(
    flag._replace(options={**flag.options, "choices": sorted(NETWORK_KINDS)})
    if flag.field == "kind"
    else flag
    for flag in FAULT_FLAGS
    if flag.field != "corrupt_mode"
)
#: ``repro client`` asks for a request deadline; the server clamps it to
#: its own.
_DEADLINE_FLAG = tuple(
    flag for flag in POLICY_FLAGS if flag.field == "request_deadline"
)


def _parse_class(name: str) -> QueryClass:
    try:
        return class_from_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient approximations of conjunctive queries (PODS 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    approx = sub.add_parser("approximate", help="compute C-approximations")
    approx.add_argument("query")
    approx.add_argument("--cls", type=_parse_class, default=TreewidthClass(1))
    approx.add_argument("--all", action="store_true", help="list C-APPR_min(Q)")
    approx.add_argument("--method", choices=["auto", "exact", "greedy"], default="auto")
    add_flags(approx, POLICY_FLAGS)
    approx.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "periodically snapshot the run's frontier, stream cursor and "
            "pruning marks to PATH, and resume from PATH if it exists, "
            "replaying the same candidate stream (serial plain-quotient "
            "runs only); the file is removed when the run completes"
        ),
    )
    approx.add_argument(
        "--greedy-fallback",
        action="store_true",
        help=(
            "when a budgeted exact run exhausts its budget with an empty "
            "frontier, fall back to the greedy descent instead of returning "
            "nothing"
        ),
    )
    approx.add_argument(
        "--fabric-worker",
        action="append",
        default=None,
        metavar="ADDR",
        help=(
            "address of a 'repro worker' process (host:port or unix socket "
            "path; repeatable) — shard the exact pipeline over network "
            "workers with retry/speculation/blacklist fault tolerance "
            "instead of a local pool"
        ),
    )
    approx.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="fabric liveness-probe interval (with --fabric-worker)",
    )
    approx.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (approximations, class, method, timing)",
    )
    approx.add_argument(
        "--stats",
        action="store_true",
        help=(
            "report the pipeline's stage counters (candidates generated, "
            "checks, dominance work, admissions resolved by order, "
            "representative repairs, pool and shard faults); with --json "
            "they join the payload under \"stats\""
        ),
    )

    classify = sub.add_parser("classify", help="Theorem 5.1 trichotomy case")
    classify.add_argument("query")
    classify.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (case, query, timing)",
    )

    mini = sub.add_parser("minimize", help="Chandra-Merlin minimization")
    mini.add_argument("query")

    width = sub.add_parser("width", help="treewidth / hypertree width / acyclicity")
    width.add_argument("query")

    contains = sub.add_parser("contains", help="decide Q1 ⊆ Q2")
    contains.add_argument("query1")
    contains.add_argument("query2")

    evaluate = sub.add_parser("evaluate", help="evaluate a query on a JSON database")
    evaluate.add_argument("query")
    evaluate.add_argument("--db", required=True, help="JSON database file")
    evaluate.add_argument(
        "--method",
        choices=["auto", "yannakakis", "treewidth", "hypertree", "backtracking", "naive"],
        default="auto",
    )
    evaluate.add_argument(
        "--engine",
        choices=["columnar", "tuple"],
        default="columnar",
        help=(
            "relational kernels: 'columnar' (hash-batch engine, numpy fast "
            "path when installed) or 'tuple' (the set-of-tuples oracle)"
        ),
    )
    evaluate.add_argument(
        "--stats",
        action="store_true",
        help=(
            "report the engine's counters (per-operator rows scanned/"
            "hashed/emitted); with --json they join the payload under "
            "\"stats\""
        ),
    )
    evaluate.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (answers, method, engine, timing)",
    )

    quality = sub.add_parser(
        "quality-bench",
        help=(
            "approximate Q in a class, evaluate Q and the approximation on "
            "the same instance, report recall / containment gap / wall-time "
            "ratio"
        ),
    )
    quality.add_argument("query")
    quality.add_argument("--cls", type=_parse_class, default=TreewidthClass(1))
    quality.add_argument(
        "--db", default=None, help="JSON database file (omit to generate)"
    )
    quality.add_argument(
        "--nodes",
        type=int,
        default=2000,
        help="generated digraph: number of nodes (ignored with --db)",
    )
    quality.add_argument(
        "--edges",
        type=int,
        default=20000,
        help="generated digraph: number of edges drawn (ignored with --db)",
    )
    quality.add_argument(
        "--skew",
        type=float,
        default=0.0,
        help="Zipf exponent of the generated value distribution (0 = uniform)",
    )
    quality.add_argument("--seed", type=int, default=0)
    quality.add_argument(
        "--engine", choices=["columnar", "tuple"], default="columnar"
    )
    quality.add_argument(
        "--approx-method",
        choices=["auto", "exact", "greedy"],
        default="auto",
        help="approximation search method (mirrors 'approximate --method')",
    )
    quality.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report (recall, gap, wall-time ratio, timing)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the resident approximation daemon",
        description=(
            "Host one engine process behind a unix or TCP socket speaking a "
            "JSON-lines protocol (one JSON object per line; ops: "
            "approximate, stats/health, shutdown). Results are cached by "
            "the canonical form of the query's core, so hom-equivalent "
            "requests share one slot; with --cache-dir the cache survives "
            "restarts (corrupt entries are quarantined, never fatal). "
            "Admission control sheds load past --queue-limit with a "
            "structured 'overloaded' response; SIGTERM drains in-flight "
            "requests, flushes the cache index, and exits."
        ),
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH", help="unix socket to listen on"
    )
    serve.add_argument(
        "--host", default=None, help="TCP host to bind (alternative to --socket)"
    )
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    add_flags(serve, POLICY_FLAGS + SERVER_FLAGS + FAULT_FLAGS)

    fleet = sub.add_parser(
        "fleet",
        help="run a supervised fleet of approximation daemons",
        description=(
            "Supervise N 'repro serve' worker processes over one shared "
            "disk cache tier behind an asyncio router speaking the same "
            "JSON-lines protocol. Crashed workers are detected (waitpid "
            "plus a health probe where only a pong counts as alive) and "
            "restarted with capped-exponential backoff behind a "
            "restart-storm circuit breaker; the router balances by least "
            "outstanding requests, retries connection faults on a "
            "different worker, and optionally hedges stragglers. SIGTERM "
            "drains rolling-style: in-flight requests finish, then each "
            "worker is drained one at a time. The run-policy and server "
            "flags apply to every worker."
        ),
    )
    fleet.add_argument(
        "--socket", default=None, metavar="PATH", help="router's unix socket"
    )
    fleet.add_argument(
        "--host", default=None, help="router's TCP host (alternative to --socket)"
    )
    fleet.add_argument(
        "--port", type=int, default=0, help="router's TCP port (0 = ephemeral)"
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="serving worker processes to supervise",
    )
    fleet.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory for the per-worker unix sockets (default: the "
            "router socket's directory; required with --host)"
        ),
    )
    add_flags(fleet, _FLEET_WORKER_FLAGS)
    fleet.add_argument(
        "--health-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="supervisor liveness-probe period",
    )
    fleet.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        metavar="N",
        help=(
            "restart-storm circuit breaker: more deaths than this inside "
            "--restart-window puts the slot in degraded mode"
        ),
    )
    fleet.add_argument(
        "--restart-window",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="sliding window of the restart-storm breaker",
    )
    fleet.add_argument(
        "--hedge-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "duplicate a request still outstanding after this long on "
            "another worker; first response wins (results are idempotent "
            "under the canonical key, so the loser is safely dropped)"
        ),
    )

    client = sub.add_parser(
        "client",
        help="query a running approximation daemon",
        description=(
            "Send one request to a repro serve daemon and print its "
            "response. With a query argument, sends an approximate op; "
            "--server-stats and --shutdown send those ops instead."
        ),
    )
    client.add_argument(
        "query", nargs="?", default=None, help="CQ to approximate (rule notation)"
    )
    client.add_argument(
        "--socket", default=None, metavar="PATH", help="daemon's unix socket"
    )
    client.add_argument("--host", default=None, help="daemon's TCP host")
    client.add_argument("--port", type=int, default=None, help="daemon's TCP port")
    client.add_argument("--cls", default="TW1", help="target class spec (e.g. TW1, AC)")
    client.add_argument("--all", action="store_true", help="ask for C-APPR_min(Q)")
    client.add_argument(
        "--method", choices=["auto", "exact", "greedy"], default="auto"
    )
    add_flags(client, _DEADLINE_FLAG)
    client.add_argument(
        "--server-stats",
        action="store_true",
        help="fetch the daemon's health/stats payload instead of approximating",
    )
    client.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the daemon to drain and exit instead of approximating",
    )
    client.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help=(
            "total attempts under a jittered-backoff retry policy: "
            "connection faults reconnect and resend; overloaded/"
            "shutting-down rejections retry after a delay (default 1 = "
            "no retries)"
        ),
    )
    client.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON response frame",
    )

    worker = sub.add_parser(
        "worker",
        help="run a fabric shard worker",
        description=(
            "Serve fabric shard requests (repro.fabric) on a unix socket "
            "or TCP address until a shutdown op arrives. Workers are "
            "stateless: the coordinator ships the full run context with "
            "every shard, so any number of workers can be pointed at by "
            "repro approximate --fabric-worker. Prints 'fabric worker "
            "listening on <address>' once bound (parse it when using "
            "--port 0)."
        ),
    )
    worker.add_argument(
        "--socket", default=None, metavar="PATH", help="unix socket to bind"
    )
    worker.add_argument(
        "--host", default="127.0.0.1", help="TCP host to bind (default loopback)"
    )
    worker.add_argument(
        "--port", type=int, default=None, help="TCP port to bind (0 = ephemeral)"
    )
    add_flags(worker, _WORKER_FAULT_FLAGS)
    return parser


def _usage(args: argparse.Namespace, message: str) -> int:
    print(f"repro {args.command}: {message}", file=sys.stderr)
    return 2


def _fault_plan(args: argparse.Namespace, flags):
    """The fault drill the ``--fault-*`` flags arm, or ``None``."""
    if args.kind is None:
        return None
    from repro.testing.faults import FaultPlan

    return FaultPlan(**flag_values(args, flags))


def _approximation_config(args: argparse.Namespace) -> ApproximationConfig:
    """``repro approximate``'s pipeline configuration."""
    return policy_config(
        args,
        checkpoint_path=args.checkpoint,
        greedy_fallback=args.greedy_fallback,
        fabric_workers=tuple(args.fabric_worker or ()),
        heartbeat_interval=args.heartbeat_interval,
    )


def _server_config(args: argparse.Namespace) -> ServerConfig:
    """``repro serve``'s daemon configuration."""
    return ServerConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        fault_plan=_fault_plan(args, FAULT_FLAGS),
        **flag_values(args, POLICY_FLAGS + SERVER_FLAGS),
    )


def _fleet_config(args: argparse.Namespace) -> FleetConfig:
    """``repro fleet``'s configuration, its workers' included."""
    return FleetConfig(
        workers=args.workers,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        run_dir=args.run_dir,
        worker=ServerConfig(**flag_values(args, _FLEET_WORKER_FLAGS)),
        health_interval=args.health_interval,
        max_restarts=args.max_restarts,
        restart_window=args.restart_window,
        hedge_after=args.hedge_after,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # serve and worker take the drill flags; a drill fires once per token.
    if getattr(args, "kind", None) is not None and args.token_path is None:
        return _usage(args, "--fault-kind requires --fault-token")

    if args.command == "approximate":
        from repro.core import PipelineStats

        query = parse_query(args.query)
        config = _approximation_config(args)
        # Stats are always collected: exhaustion and shard faults must
        # reach the output even when --stats was not requested, and the
        # counters are cheap next to the pipeline.
        budgeted = config.budget() is not None
        stats = PipelineStats()
        faults: list = []
        started = time.perf_counter()
        if args.all:
            results = all_approximations(
                query, args.cls, config, stats=stats, faults=faults
            )
        else:
            results = [
                approximate(
                    query, args.cls, method=args.method, config=config,
                    stats=stats, faults=faults,
                )
            ]
        elapsed = time.perf_counter() - started
        if args.json:
            payload = {
                "command": "approximate",
                "query": args.query,
                "class": args.cls.name,
                "method": args.method,
                "workers": args.workers,
                "all": args.all,
                "approximations": [str(result) for result in results],
                "seconds": round(elapsed, 6),
            }
            if budgeted:
                payload["exhausted"] = stats.exhausted
                if stats.exhausted:
                    payload["exhaustion_reason"] = stats.exhaustion_reason
            if stats.quarantined or faults:
                payload["quarantined"] = stats.quarantined
                payload["faults"] = [fault.as_dict() for fault in faults]
            if args.stats and stats is not None:
                payload["stats"] = {
                    name: round(value, 6) if isinstance(value, float) else value
                    for name, value in stats.as_dict().items()
                }
            print(json.dumps(payload))
        else:
            for result in results:
                print(result)
            if stats is not None and stats.exhausted:
                print(
                    "warning: budget exhausted "
                    f"({stats.exhaustion_reason}); the answer is sound but "
                    "may be incomplete",
                    file=sys.stderr,
                )
            kinds = ", ".join(f"{fault.kind}: {fault.error}" for fault in faults)
            kinds = f" ({kinds})" if kinds else ""
            if stats.quarantined:
                print(
                    f"warning: {stats.quarantined} shard(s) lost to "
                    f"quarantine, {len(faults)} shard fault(s){kinds}; the "
                    "answer is sound but may be incomplete",
                    file=sys.stderr,
                )
            elif faults:
                print(
                    f"note: {len(faults)} shard fault(s), all recovered "
                    f"by retries{kinds}",
                    file=sys.stderr,
                )
            if args.stats and stats is not None:
                print("-- pipeline stats --")
                if stats.generated == 0:
                    print(
                        "(all zero: the exact pipeline did not run — "
                        "greedy method, or the query is already in the "
                        "class)"
                    )
                for name, value in stats.as_dict().items():
                    if isinstance(value, float):
                        value = round(value, 6)
                    print(f"{name:32} {value}")
        return 0

    if args.command == "classify":
        started = time.perf_counter()
        case = classify_boolean_graph_query(parse_query(args.query))
        elapsed = time.perf_counter() - started
        if args.json:
            print(
                json.dumps(
                    {
                        "command": "classify",
                        "query": args.query,
                        "case": case.value,
                        "seconds": round(elapsed, 6),
                    }
                )
            )
        else:
            print(case.value)
        return 0

    if args.command == "minimize":
        print(minimize(parse_query(args.query)))
        return 0

    if args.command == "width":
        from repro.hypergraphs import (
            hypergraph_of_query,
            hypertree_width,
            is_acyclic_query,
            treewidth_of_query,
        )

        query = parse_query(args.query)
        print(f"treewidth       : {treewidth_of_query(query)}")
        print(f"hypertree width : {hypertree_width(hypergraph_of_query(query))}")
        print(f"acyclic         : {is_acyclic_query(query)}")
        return 0

    if args.command == "contains":
        q1, q2 = parse_query(args.query1), parse_query(args.query2)
        verdict = is_contained_in(q1, q2)
        print("contained" if verdict else "not contained")
        return 0 if verdict else 1

    if args.command == "evaluate":
        from repro.evaluation import EvalStats
        from repro.evaluation import evaluate as run
        from repro.io import load_structure

        query = parse_query(args.query)
        db = load_structure(args.db)
        stats = EvalStats() if args.stats else None
        started = time.perf_counter()
        answers = run(
            query, db, method=args.method, engine=args.engine, stats=stats
        )
        elapsed = time.perf_counter() - started
        if args.json:
            payload = {
                "command": "evaluate",
                "query": args.query,
                "method": args.method,
                "engine": args.engine,
                "boolean": query.is_boolean,
                "answer_count": len(answers),
                "answers": sorted((list(row) for row in answers), key=repr),
                "seconds": round(elapsed, 6),
            }
            if stats is not None:
                payload["stats"] = stats.as_dict()
            print(json.dumps(payload))
        else:
            if query.is_boolean:
                print("true" if answers else "false")
            else:
                for row in sorted(answers, key=repr):
                    print("\t".join(map(str, row)))
            if stats is not None:
                print("-- evaluation stats --", file=sys.stderr)
                for name, value in stats.as_dict().items():
                    if name == "operators":
                        for op, bucket in value.items():
                            counters = " ".join(
                                f"{k}={v}" for k, v in bucket.items()
                            )
                            print(f"op:{op:12} {counters}", file=sys.stderr)
                    elif name != "notes":
                        print(f"{name:20} {value}", file=sys.stderr)
        return 0

    if args.command == "quality-bench":
        from repro.core import approximate_then_evaluate
        from repro.workloads import scaled_digraph_db

        query = parse_query(args.query)
        if args.db is not None:
            from repro.io import load_structure

            db = load_structure(args.db)
        else:
            db = scaled_digraph_db(
                args.nodes, args.edges, skew=args.skew, seed=args.seed
            )
        report = approximate_then_evaluate(
            query,
            args.cls,
            db,
            engine=args.engine,
            approx_method=args.approx_method,
        )
        if args.json:
            payload = {"command": "quality-bench", **report.as_dict()}
            print(json.dumps(payload))
        else:
            print(f"query          : {report.query}")
            print(f"approximation  : {report.approximation}")
            print(f"class          : {report.cls}")
            print(f"db tuples      : {report.db_tuples}")
            print(f"exact answers  : {report.exact_answers}")
            print(f"recall         : {report.recall:.4f}")
            print(f"containment gap: {report.containment_gap}")
            print(f"sound          : {report.is_sound}")
            print(
                "wall time      : "
                f"exact {report.exact_eval_seconds:.4f}s, "
                f"approx {report.approx_eval_seconds:.4f}s "
                f"(ratio {report.walltime_ratio:.1f}x; approximation "
                f"search {report.approximation_seconds:.4f}s)"
            )
        return 0 if report.is_sound else 1

    if args.command in ("serve", "fleet"):
        import asyncio

        if (args.socket is None) == (args.host is None):
            return _usage(args, "set exactly one of --socket or --host")
        if args.command == "serve":
            asyncio.run(ApproximationServer(_server_config(args)).run())
        else:
            if args.socket is None and args.run_dir is None:
                return _usage(args, "--host needs --run-dir for the worker sockets")
            asyncio.run(Fleet(_fleet_config(args)).run())
        return 0

    if args.command == "client":
        ops = sum([args.query is not None, args.server_stats, args.shutdown])
        if ops != 1:
            return _usage(
                args, "give exactly one of a query, --server-stats, or --shutdown"
            )
        if (args.socket is None) == (args.host is None):
            return _usage(args, "set exactly one of --socket or --host/--port")
        retry = (
            RetryPolicy(max_attempts=args.retries) if args.retries > 1 else None
        )
        try:
            with ServeClient(args.socket, args.host, args.port, retry=retry) as conn:
                if args.server_stats:
                    response = conn.stats()
                elif args.shutdown:
                    response = conn.shutdown()
                else:
                    response = conn.approximate(
                        args.query,
                        args.cls,
                        all_=args.all,
                        method=args.method,
                        deadline=args.request_deadline,
                    )
        except (ConnectionError, OSError) as exc:
            # No daemon (or it vanished): a clean structured error on a
            # distinct exit code, never a traceback.
            target = args.socket if args.socket is not None else f"{args.host}:{args.port}"
            if args.json:
                print(
                    json.dumps(
                        {
                            "ok": False,
                            "error": {
                                "kind": "connection",
                                "message": f"cannot reach a daemon at {target}: {exc}",
                            },
                        }
                    )
                )
            else:
                print(
                    f"repro client: cannot reach a daemon at {target}: {exc}",
                    file=sys.stderr,
                )
            return 3
        except ServeError as exc:
            # Structured rejection (overloaded / shutting-down / bad-request):
            # surface the frame, exit nonzero.
            if args.json:
                print(json.dumps(exc.response))
            else:
                print(f"repro client: {exc}", file=sys.stderr)
            return 1
        if args.json or args.server_stats or args.shutdown:
            print(json.dumps(response))
        else:
            for approximation in response.get("approximations", []):
                print(approximation)
            if response.get("exhausted"):
                print(
                    "warning: server budget exhausted "
                    f"({response.get('exhaustion_reason')}); the answer is "
                    "sound but may be incomplete",
                    file=sys.stderr,
                )
            if response.get("quarantined"):
                print(
                    f"warning: {response.get('quarantined', 0)} shard(s) "
                    "lost to quarantine on the server; the answer is sound "
                    "but may be incomplete",
                    file=sys.stderr,
                )
        return 0

    if args.command == "worker":
        from repro.fabric import serve as serve_worker

        if (args.socket is None) == (args.port is None):
            return _usage(args, "set exactly one of --socket or --port")
        fault_plan = _fault_plan(args, _WORKER_FAULT_FLAGS)
        address = (
            args.socket
            if args.socket is not None
            else f"{args.host}:{args.port}"
        )
        serve_worker(address, fault_plan=fault_plan)
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
