"""Pipeline frontiers against the paper's definitions.

``repro.testing.reference`` computes Corollary 4.3's frontier by brute
force: every quotient, membership from the width definitions, its own
homomorphism test.  Seeded random CQs with at most six variables run
through ``run_pipeline`` under every generation regime and admission
order; each frontier must match the reference up to hom-equivalence, every
knob setting must give the same (``==``) frontier, and every partition the
fine-to-coarse walk skipped must be strictly dominated by a reference
member.
"""

from __future__ import annotations

import pytest

import repro.core.pipeline as pipeline
from repro.core import class_from_name
from repro.core.pipeline import run_pipeline
from repro.testing.reference import (
    equivalent_frontiers,
    partitions,
    quotient,
    reference_frontier,
    strictly_dominated,
    structure_of,
)
from repro.workloads import random_cq, random_graph_query

SETTINGS = [
    (generation, order)
    for generation in ("canonical", "orbit", "raw")
    for order in ("insertion", "fine-to-coarse")
]

CASES = (
    [
        (f"graph(5v,6a,seed={seed})/{cls}", random_graph_query(5, 6, seed=seed), cls)
        for seed, cls in enumerate(["TW(1)", "TW(1)", "TW(2)", "AC", "GHTW(2)"])
    ]
    + [
        (f"graph(6v,8a,seed={seed})/{cls}", random_graph_query(6, 8, seed=seed), cls)
        for seed, cls in enumerate(["TW(1)", "TW(2)", "AC"], start=10)
    ]
    + [
        (
            f"graph(5v,7a,head,seed={seed})/{cls}",
            random_graph_query(5, 7, seed=seed, head_size=1),
            cls,
        )
        for seed, cls in enumerate(["TW(1)", "AC"], start=20)
    ]
    + [
        (f"ternary(6v,3a,seed={seed})/{cls}", random_cq({"R": 3}, 6, 3, seed=seed), cls)
        for seed, cls in enumerate(["AC", "HTW(1)", "GHTW(2)", "TW(2)"], start=30)
    ]
    + [
        (
            f"mixed(6v,4a,seed={seed})/{cls}",
            random_cq({"R": 3, "E": 2}, 6, 4, seed=seed),
            cls,
        )
        for seed, cls in enumerate(["AC", "GHTW(2)", "TW(1)"], start=40)
    ]
    + [
        (
            f"mixed(6v,4a,head2,seed={seed})/{cls}",
            random_cq({"E": 2, "R": 3}, 6, 4, seed=seed, head_size=2),
            cls,
        )
        for seed, cls in [(51, "TW(1)"), (53, "AC"), (53, "GHTW(2)"), (60, "AC")]
    ]
)


def _record_walk(monkeypatch) -> list:
    """Record the codes of every candidate stage 1 hands the reducer.

    The wrapper passes each candidate object through, so the reducer's
    ``strictly_dominated`` marks still reach the walk.
    """
    walked: list = []
    original = pipeline.iter_quotient_candidates

    def recording(*args, **kwargs):
        for candidate in original(*args, **kwargs):
            walked.append(candidate.codes)
            yield candidate

    monkeypatch.setattr(pipeline, "iter_quotient_candidates", recording)
    return walked


@pytest.mark.parametrize(
    "query,class_name", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_frontiers_match_the_definition(monkeypatch, query, class_name):
    tableau = query.tableau()
    cls = class_from_name(class_name)
    base = structure_of(tableau)
    reference = reference_frontier(tableau, cls.name)
    walked = _record_walk(monkeypatch)
    frontiers = {}
    for generation, order in SETTINGS:
        walked.clear()
        result = run_pipeline(
            tableau,
            cls,
            max_extra_atoms=0,
            generation=generation,
            admission_order=order,
        )
        frontiers[generation, order] = result.frontier
        if (generation, order) == ("raw", "fine-to-coarse"):
            # The raw regime emits every partition it reaches, so what it
            # did not emit the walk skipped.
            skipped = set(partitions(base[0])) - set(walked)
            for code in skipped:
                assert strictly_dominated(reference, quotient(base, code)), code
    first = frontiers[SETTINGS[0]]
    for setting, frontier in frontiers.items():
        assert frontier == first, setting
    assert equivalent_frontiers([structure_of(m) for m in first], reference)


@pytest.mark.slow
@pytest.mark.parametrize(
    "query,class_name",
    [case[1:] for case in CASES[::3]],
    ids=[case[0] for case in CASES[::3]],
)
def test_two_workers_match_the_serial_frontier(query, class_name):
    tableau = query.tableau()
    cls = class_from_name(class_name)
    serial = run_pipeline(tableau, cls, max_extra_atoms=0)
    for generation, order in [("auto", "auto"), ("raw", "fine-to-coarse")]:
        sharded = run_pipeline(
            tableau,
            cls,
            max_extra_atoms=0,
            generation=generation,
            admission_order=order,
            workers=2,
        )
        assert sharded.frontier == serial.frontier, (generation, order)
