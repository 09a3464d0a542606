"""Measurement primitives of the end-to-end benchmark.

A *pass* is one fixed unit of a workload's work: every query of a solve
workload answered once, or every pattern approximated and evaluated once.
Each workload runs a fixed number of passes, so the parent and the change
of a comparison always measure the same work.  Each operation is timed
(wall clock, and CPU of this process plus every descendant process).

The host this runs on changes speed by up to 1.6x over minutes, which is
longer than a run, so runs of the same code at different times differ by
that much.  A short pure-Python calibration probe therefore runs before
every timed operation (and every serving rung and set-up), and the end-to-
end metrics are reported on the *reference host*: every time is scaled by
``REFERENCE_CALIBRATION_S / median probe`` and every rate by its inverse
(:class:`HostSpeed`).  The probe is the benchmark's own code, so a change
to the program cannot move it.  Samples are summarised as medians and
quartiles (``statistics.quantiles(values, n=4)``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: The benchmark's declaration: command, workloads, metrics and bounds.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

#: Iterations of the calibration loop: 0.05-0.1 s on a 2020s x86 core.
CALIBRATION_ITERATIONS = 750_000

#: The calibration loop's time on the reference host the end-to-end
#: metrics are reported on.
REFERENCE_CALIBRATION_S = 0.060

#: How a unit scales onto the reference host: times with the host's
#: slowness (exponent 1), rates against it (-1).  Other units (memory) are
#: reported as measured.
HOST_SCALED_UNITS = {"s": 1, "ms": 1, "1/s": -1}


def load_spec(path: Path = BENCHMARK_JSON) -> dict:
    """``BENCHMARK.json``, the one place metric names, units and bounds live."""
    return json.loads(path.read_text(encoding="utf-8"))


def calibration_probe() -> float:
    """Seconds taken by a fixed pure-Python integer loop."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


class HostSpeed:
    """The calibration probes of one run, taken between its timed work.

    A pure-Python integer loop tracked the drift of this host's speed
    better than a dict-and-allocation loop did: over 7 minutes of
    solve-plain passes the spread of 4-pass windows fell from 0.12 to 0.05
    once normalised by it, and to 0.08 by the other.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        self.samples.append(calibration_probe())

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    def on_reference_host(self, value: float, unit: str) -> float:
        """``value``, measured in this run, as on the reference host."""
        exponent = HOST_SCALED_UNITS.get(unit, 0)
        return value * (REFERENCE_CALIBRATION_S / self.median) ** exponent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of the samples (exclusive-method quartiles)."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: list[float], share: float) -> float:
    """The ``share``-quantile of the samples, linearly interpolated."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------- processes


def _descendants(pid: int) -> list[int]:
    """Live descendant pids of ``pid`` (Linux ``/proc``; empty elsewhere)."""
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    children = [int(token) for token in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def _process_cpu(pid: int) -> float:
    """User + system CPU seconds of one live process (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _process_peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def cpu_seconds() -> float:
    """CPU of this process, its reaped children and its live descendants."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(_process_cpu(pid) for pid in _descendants(os.getpid()))
    return time.process_time() + reaped.ru_utime + reaped.ru_stime + live


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any descendant, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = max(
        (_process_peak_rss_kb(pid) for pid in _descendants(os.getpid())),
        default=0,
    )
    return max(own, reaped, live) / 1024.0


def fingerprint() -> dict:
    """The host and toolchain facts a comparison must hold fixed."""
    from repro.evaluation import backend_name

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": backend_name(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# -------------------------------------------------------------------- passes


@dataclass
class Pass:
    """One pass: ``(op name, wall seconds, CPU seconds)`` of every
    user-facing operation in it.  The calibration probes between the
    operations are not part of its time."""

    ops: list[tuple[str, float, float]]

    @property
    def wall(self) -> float:
        return sum(wall for _, wall, _ in self.ops)

    @property
    def cpu(self) -> float:
        return sum(cpu for _, _, cpu in self.ops)


def run_passes(
    body: Callable[[int], tuple[list[tuple[str, float, float]], object]],
    check: Callable[[object], None],
    count: int,
) -> list[Pass]:
    """Run ``body`` for passes ``0 .. count - 1``.

    ``body(index)`` does one pass and returns its op samples plus its
    outputs; ``check(outputs)`` verifies them outside the timed region.
    """
    passes: list[Pass] = []
    for index in range(count):
        ops, outputs = body(index)
        check(outputs)
        passes.append(Pass(ops))
    return passes


def log(message: str) -> None:
    """Progress lines go to stderr; stdout carries tables and the result."""
    print(message, file=sys.stderr, flush=True)
