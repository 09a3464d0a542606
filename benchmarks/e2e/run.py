"""One end-to-end benchmark of the approximation system.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--trace [0|1]]
                                  [--smoke] [--record FILE]
    python3 benchmarks/e2e/run.py --write-reference [--workload W] [--smoke]

Five workloads, each in a fresh Python process: ``solve-plain``,
``solve-ext`` and ``solve-2w`` time ``all_approximations``; ``evaluate``
times ``approximate`` followed by ``evaluate`` on generated data; ``serve``
times requests through a ``repro fleet`` socket.  Without ``--workload``
every workload runs in its own subprocess, one after the other.  The
workloads with regression bounds, the metric names, units and bounds are
declared in ``BENCHMARK.json`` at the repository root; ``serve`` reports
the same metrics but is not declared there (see :data:`UNDECLARED`).

A run first times the workload's set-up three times in fresh interpreters
(``setup_s`` is their median), sets up once more for itself, then does the
workload's fixed amount of work and checks every output against the
committed reference (``reference/``).  Times and rates are reported on the
reference host (``harness.HostSpeed``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
— the end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a
separate traced run.  A wrong or failed output makes the exit code 1.

``--seconds S`` is accepted for callers that pass a run length, and must
equal ``run_seconds`` in ``BENCHMARK.json``: the length of a run is fixed
by the benchmark, so two commits always measure the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import load_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Set-up samples per run (each in a fresh interpreter).
SETUP_PROBES = 3
SETUP_PROBES_SMOKE = 1
READY = "set-up ready"
#: Scratch space for sockets, caches and traces, relative to the root.
SCRATCH = Path(".bench_e2e")

#: Workloads that run and report every metric but carry no regression
#: bounds, so they are not in ``BENCHMARK.json``.  Serving latency on a
#: small shared host moves with spells of slow process wake-ups that last
#: 30-60 s: a fleet's median latency doubled in them while the calibration
#: loop, and the CPU per request, barely moved (README, Findings).
UNDECLARED = ("serve",)


def _workloads(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]] + list(UNDECLARED)


def _parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=_workloads(spec), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"must equal BENCHMARK.json's run_seconds ({spec['run_seconds']})",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: a traced run reporting the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="scaled-down inputs")
    parser.add_argument("--record", metavar="FILE", default=None,
                        help="append this run's record (JSON line) for compare.py")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the committed reference outputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(
            f"--seconds {args.seconds:g}: a run's length is fixed at "
            f"run_seconds = {spec['run_seconds']}"
        )
    return args


def _make_workload(name: str, seed: int, smoke: bool, host):
    if name == "evaluate":
        from evaluate import EvaluateWorkload

        return EvaluateWorkload(seed, smoke, host)
    if name == "serve":
        from serve import ServeWorkload

        return ServeWorkload(seed, smoke, host, SCRATCH)
    from solve import SolveWorkload

    return SolveWorkload(name, seed, smoke, host)


def _probe_setup(args, host) -> list[float]:
    """Seconds from interpreter launch to a ready workload, per probe."""
    samples = []
    command = [
        sys.executable, str(Path(__file__)), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_PROBES_SMOKE if args.smoke else SETUP_PROBES):
        host.probe()
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        # SIGTERM, not SIGKILL: a serve probe must stop the fleet it spawned.
        watchdog = threading.Timer(150, proc.terminate)
        watchdog.start()
        ready = None
        try:
            for line in proc.stdout:
                if ready is None and line.strip() == READY:
                    ready = time.perf_counter() - started
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.terminate()
            code = proc.wait()
        if code != 0 or ready is None:
            raise SystemExit(f"set-up probe of {args.workload} failed (exit {code})")
        samples.append(ready)
    return samples


def _sample_lines(samples: dict[str, list[float]]) -> list[str]:
    from harness import quartiles

    lines = [f"{'samples':<14} {'median':>12} {'q1':>12} {'q3':>12} {'n':>5}"]
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        lines.append(
            f"{name:<14} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {len(values):>5}"
        )
    return lines


def _run_one(args, spec: dict) -> int:
    from harness import (
        REFERENCE_CALIBRATION_S,
        HostSpeed,
        fingerprint,
        log,
        peak_rss_mb,
    )

    speed = HostSpeed()
    workload = _make_workload(args.workload, args.seed, args.smoke, speed)
    if args.setup_probe:
        try:
            workload.setup()
            print(READY, flush=True)
        finally:
            workload.close()
        return 0
    host = fingerprint()
    setup_samples = _probe_setup(args, speed)
    log(f"{args.workload}: set-up probes {[round(s, 3) for s in setup_samples]} s")
    try:
        workload.setup()
        log(f"{args.workload}: measuring {workload.plan}"
            + (" (traced)" if args.trace else ""))
        if args.trace:
            report = workload.trace()
        else:
            measurement = workload.measure()
    finally:
        workload.close()

    print(f"== {args.workload} (seed {args.seed}{', smoke' if args.smoke else ''}"
          f"{', traced' if args.trace else ''})")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    if args.trace:
        declared = spec["per_layer"]
        values = {m["name"]: report.metrics.get(m["name"], 0) for m in declared}
        attempted, failed = report.attempted, report.failed
        trace_path = SCRATCH / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        report.tracer.write_jsonl(trace_path)
        lines = report.tables + [f"spans written to {trace_path}"]
        lines += [
            f"  {m['name']:<32} {values[m['name']]:>14.6g} {m['unit']}"
            for m in declared
        ]
    else:
        declared = spec["end_to_end"]
        measured = dict(
            measurement.values,
            setup_s=statistics.median(setup_samples),
            peak_rss_mb=peak_rss_mb(),
        )
        values = {
            m["name"]: speed.on_reference_host(measured[m["name"]], m["unit"])
            for m in declared
        }
        attempted, failed = measurement.attempted, measurement.failed
        lines = _sample_lines(
            dict(setup_s=setup_samples, **measurement.samples,
                 **{"host.calib_s": speed.samples})
        )
        lines += measurement.notes
        lines.append(
            f"{'metric':<34} {'this host':>14} {'reference host':>14} "
            f"(calibration loop {speed.median * 1000:.1f} ms here, "
            f"{REFERENCE_CALIBRATION_S * 1000:g} ms there)"
        )
        lines += [
            f"  {m['name']:<32} {measured[m['name']]:>14.6g} "
            f"{values[m['name']]:>14.6g} {m['unit']}"
            for m in declared
        ]
    lines.append(f"  {'fail_frac':<32} {failed / max(attempted, 1):>14.6g} "
                 f"({failed} of {attempted} operations failed)")
    print("\n".join(lines))
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    if args.record:
        record = dict(result, workload=args.workload, seed=args.seed,
                      smoke=args.smoke, trace=args.trace, fingerprint=host,
                      plan=workload.plan, setup_samples=setup_samples,
                      calibration=speed.samples)
        if not args.trace:
            record["samples"] = measurement.samples
            record["measured"] = measured
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _run_all(args, spec: dict) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in _workloads(spec):
        command = [
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else []) + (
            ["--record", args.record] if args.record else []
        )
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return status


def _write_reference(args, spec: dict) -> int:
    from harness import log
    from reference import save_reference

    names = [args.workload] if args.workload else _workloads(spec)
    # solve-2w runs solve-plain's queries and shares its reference file.
    names = dict.fromkeys("solve-plain" if n == "solve-2w" else n for n in names)
    for name in names:
        log(f"{name}: computing reference outputs")
        if name == "evaluate":
            from evaluate import write_reference

            payload = write_reference(args.smoke)
        elif name == "serve":
            from serve import write_reference

            payload = write_reference(args.smoke, SCRATCH)
        else:
            from solve import write_reference

            payload = write_reference(name, args.smoke)
        log(f"{name}: wrote {save_reference(name, args.smoke, payload)}")
    return 0


def _exit_on_sigterm(signum, frame) -> None:
    # Unwinds through the workloads' ``finally`` blocks, which stop the
    # fleet (it runs in a session of its own and would outlive us).
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    spec = load_spec()
    args = _parse_args(argv, spec)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # The checkout's own sources, and benchmarks/ for the serving
    # benchmark's in-process server host.
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str((SCRATCH / "tmp").resolve())
    if args.write_reference:
        return _write_reference(args, spec)
    if args.workload is None:
        return _run_all(args, spec)
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
