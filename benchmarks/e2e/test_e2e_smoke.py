"""The whole benchmark end to end on scaled-down inputs.

Runs ``run.py --smoke``: all five workloads, each in its own interpreter,
with every output check on.  Marked slow (it spawns a serving fleet and
process pools); the full tier-1 run includes it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from harness import load_spec

RUN_PY = Path(run.__file__).resolve()


@pytest.mark.slow
def test_smoke_run_checks_every_workload():
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--smoke", "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    spec = load_spec()
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            entry = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (workload["name"], metric["name"])
