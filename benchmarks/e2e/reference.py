"""Committed reference outputs and the checks against them.

Every output the benchmark times is checked against a file under
``reference/`` (``<workload>.json``, or ``<workload>.smoke.json`` for the
scaled-down inputs of ``--smoke``):

* solve workloads — each query's frontier as the sorted canonical
  representatives of its members, compared up to hom-equivalence;
* evaluate — each pattern's approximation and the count and sha256 digest
  of its answers (in the data's base labelling), from the tuple-engine
  oracle;
* serve — the cold answer of every hot query and of every first-seen
  query the load generator may draw.

``run.py --write-reference`` regenerates a workload's file; the solve
workloads refuse to write one unless every stage-1 regime agrees.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cq import ConjunctiveQuery, parse_query
from repro.homomorphism.engine import default_engine
from repro.serve.cache import canonical_representative

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, smoke: bool) -> Path:
    suffix = ".smoke.json" if smoke else ".json"
    return REFERENCE_DIR / f"{workload}{suffix}"


def load_reference(workload: str, smoke: bool) -> dict:
    path = reference_path(workload, smoke)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(
            f"missing reference {path}; create it with "
            f"'run.py --workload {workload}{' --smoke' if smoke else ''} "
            "--write-reference'"
        ) from None


def save_reference(workload: str, smoke: bool, payload: dict) -> Path:
    path = reference_path(workload, smoke)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def canonical_text(tableau) -> str:
    """The rule text of a tableau's canonical representative.

    Hom-equivalent tableaux have isomorphic cores, and the representative
    names a core's elements by the engine's canonical labelling, so equal
    texts mean equivalent queries whatever the input's variable names.
    """
    representative = canonical_representative(tableau)
    return str(ConjunctiveQuery.from_tableau(representative, prefix="v"))


def frontier_texts(members) -> list[str]:
    """Sorted canonical texts of a frontier (queries or tableaux)."""
    return sorted(
        canonical_text(m.tableau() if isinstance(m, ConjunctiveQuery) else m)
        for m in members
    )


def same_frontier(members, expected: list[str]) -> bool:
    """Whether ``members`` equals the reference up to hom-equivalence.

    Canonical texts decide the common case; when they differ (the
    canonizer gives up beyond its effort caps and keeps original names)
    the members are matched to the reference one to one by explicit
    hom-equivalence tests.
    """
    got = frontier_texts(members)
    if got == expected:
        return True
    if len(got) != len(expected):
        return False
    engine = default_engine()
    unmatched = [parse_query(text).tableau() for text in expected]
    for text in got:
        tableau = parse_query(text).tableau()
        match = next(
            (i for i, other in enumerate(unmatched)
             if engine.hom_equivalent(tableau, other)),
            None,
        )
        if match is None:
            return False
        unmatched.pop(match)
    return True


def answer_summary(answers, inverse=None) -> dict:
    """Count and sha256 digest of an answer set.

    ``inverse`` maps each data value back to the base labelling the
    reference was computed in (the run's seed permutes the data's labels).
    """
    if inverse is not None:
        answers = (tuple(inverse[value] for value in row) for row in answers)
    rows = sorted(answers)
    digest = hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()
    return {"count": len(rows), "sha256": digest}
