"""Compare two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the run records ``run.py --record FILE`` appends, one JSON
object per line.  Records pair up per workload in file order, so run the
two commits alternately (parent, change, change, parent, ...) with the
same seeds.  Every workload's end-to-end metric gets one verdict, with the
metric's bound and direction taken from ``BENCHMARK.json``:

``rebaseline``
    the two sets ran on different host fingerprints; nothing compares.
``gain``
    at least 10 pairs, the change wins at least 9 in 10 of them (ties
    count for neither side), and the medians differ by more than the
    parent's interquartile range.
``unresolved``
    either side's interquartile range exceeds the bound (as a share of
    its median), so the data cannot tell a regression from noise.
``better``
    spread too wide to resolve, but every change run beats every parent
    run.
``regression``
    the change's median is worse than the parent's by more than the bound.
``unchanged``
    none of the above.

Runs of one workload must have done the same work (the ``plan`` in each
record: pass counts, request counts and rates); ``compare.py`` refuses
to pair runs whose plans differ.  The exit status is 1 when any metric
regressed, 2 when the plans differ, 3 on ``rebaseline``, and 0
otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass

from harness import load_spec

#: Pairs needed, and the share of them the change must win, for a gain.
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Verdict:
    workload: str
    metric: str
    parent: list[float]
    change: list[float]
    wins: int
    verdict: str

    def row(self) -> str:
        p_med, c_med = statistics.median(self.parent), statistics.median(self.change)
        delta = (c_med - p_med) / p_med if p_med else 0.0
        return (
            f"{self.workload:<12} {self.metric:<12} {p_med:>11.5g} "
            f"{_iqr(self.parent):>10.4g} {c_med:>11.5g} {_iqr(self.change):>10.4g} "
            f"{delta:>+8.1%} {self.wins:>3}/{min(len(self.parent), len(self.change)):<3} "
            f"{self.verdict}"
        )


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def load_bounds() -> dict[str, tuple[float, str]]:
    """metric name -> (bound, "lower" | "higher") from BENCHMARK.json."""
    return {m["name"]: (m["bound"], m["better"]) for m in load_spec()["end_to_end"]}


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def judge(
    parent: list[float], change: list[float], bound: float, better: str
) -> tuple[str, int]:
    """The verdict on one metric plus the number of pairs the change won."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    improved = sign * (p_med - c_med) > 0
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and improved
        and abs(c_med - p_med) > _iqr(parent)
    ):
        return "gain", wins
    spread = max(_iqr(parent) / p_med, _iqr(change) / c_med)
    if spread > bound:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "better", wins
        return "unresolved", wins
    if sign * (c_med - p_med) / p_med > bound:
        return "regression", wins
    return "unchanged", wins


def compare(
    parent: list[dict], change: list[dict], bounds: dict[str, tuple[float, str]]
) -> list[Verdict]:
    """One verdict per (workload, end-to-end metric) present on both sides."""
    parent = [r for r in parent if not r.get("trace")]
    change = [r for r in change if not r.get("trace")]
    workloads = dict.fromkeys(r["workload"] for r in parent + change)
    verdicts = []
    for workload in workloads:
        mine = [r for r in parent if r["workload"] == workload]
        theirs = [r for r in change if r["workload"] == workload]
        if not mine or not theirs:
            continue
        plans = {json.dumps(r["plan"], sort_keys=True) for r in mine + theirs}
        if len(plans) > 1:
            raise ValueError(
                f"{workload}: the runs did different work ({', '.join(sorted(plans))})"
            )
        prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in mine + theirs}
        for metric, (bound, better) in bounds.items():
            p = [r["metrics"][metric]["value"] for r in mine if metric in r["metrics"]]
            c = [r["metrics"][metric]["value"] for r in theirs if metric in r["metrics"]]
            if not p or not c:
                continue
            if len(prints) > 1:
                verdict, wins = "rebaseline", 0
            else:
                verdict, wins = judge(p, c, bound, better)
            verdicts.append(Verdict(workload, metric, p, c, wins, verdict))
    return verdicts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        verdicts = compare(load_records(argv[0]), load_records(argv[1]), load_bounds())
    except ValueError as error:
        print(f"compare.py: {error}", file=sys.stderr)
        return 2
    print(
        f"{'workload':<12} {'metric':<12} {'parent':>11} {'p-IQR':>10} "
        f"{'change':>11} {'c-IQR':>10} {'delta':>8} {'wins':>7} verdict"
    )
    for verdict in verdicts:
        print(verdict.row())
    kinds = {v.verdict for v in verdicts}
    if "rebaseline" in kinds:
        return 3
    return 1 if "regression" in kinds else 0


if __name__ == "__main__":
    sys.exit(main())
