"""Pipeline frontiers against the paper's definitions.

``repro.testing.reference`` computes Corollary 4.3's frontier by brute
force: every quotient, membership from the width definitions, its own
homomorphism test.  Seeded random CQs with at most six variables run
through ``run_pipeline`` under every generation regime and admission
order; each frontier must match the reference up to hom-equivalence, every
knob setting must give the same (``==``) frontier, and every partition the
fine-to-coarse walk skipped must be strictly dominated by a reference
member.  Extension-space frontiers (Theorem 6.1 / Claim 6.2, one extension
atom, with and without fresh elements) are pinned the same way for
hypergraph classes, and every extended candidate the stream drops as a
memoized rejection must be rejected by the class's definition.
"""

from __future__ import annotations

import sys

import pytest

import repro.core.pipeline as pipeline
from repro.core import class_from_name
from repro.core.pipeline import (
    MembershipTester,
    _base_orbit_data,
    encode_tableau,
    run_pipeline,
    run_shard,
)
from repro.core.quotients import ExtensionCandidate
from repro.cq import parse_query
from repro.testing.reference import (
    equivalent_frontiers,
    member,
    partitions,
    quotient,
    reference_frontier,
    strictly_dominated,
    structure_of,
)
from repro.workloads import cycle_with_chords, random_cq, random_graph_query

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


#: Seeded hypergraph CQs with at most five variables whose extension-space
#: frontiers hold extended candidates, one per class the extension space
#: serves.
EXTENSION_CASES = [
    (f"ternary(5v,4a,seed=73)/{cls}", random_cq({"R": 3}, 5, 4, seed=73), cls)
    for cls in ("AC", "HTW(1)", "GHTW(1)")
] + [
    (
        "ternary(5v,4a,head1,seed=70)/HTW(1)",
        random_cq({"R": 3}, 5, 4, seed=70, head_size=1),
        "HTW(1)",
    ),
    (
        "mixed(5v,4a,seed=74)/GHTW(1)",
        random_cq({"R": 3, "E": 2}, 5, 4, seed=74),
        "GHTW(1)",
    ),
    (
        "ternary(4v,3a,head1,seed=72)/AC",
        random_cq({"R": 3}, 4, 3, seed=72, head_size=1),
        "AC",
    ),
]

EXTENSION_PARAMS = [
    pytest.param(query, class_name, fresh, id=f"{name}{' +fresh' if fresh else ''}")
    for name, query, class_name in EXTENSION_CASES
    for fresh in (False, True)
]


@pytest.mark.parametrize("query,class_name,fresh", EXTENSION_PARAMS)
def test_extension_frontiers_match_the_definition(query, class_name, fresh):
    tableau = query.tableau()
    cls = class_from_name(class_name)
    reference = reference_frontier(
        tableau, cls.name, extra_atoms=1, allow_fresh=fresh
    )
    result = run_pipeline(tableau, cls, max_extra_atoms=1, allow_fresh=fresh)
    base_facts = len(structure_of(tableau)[1])
    assert any(len(m[1]) > base_facts for m in reference), "no extended member"
    assert equivalent_frontiers([structure_of(m) for m in result.frontier], reference)


@pytest.mark.slow
@pytest.mark.parametrize("query,class_name,fresh", EXTENSION_PARAMS[::3])
def test_two_workers_match_the_extension_reference(query, class_name, fresh):
    tableau = query.tableau()
    cls = class_from_name(class_name)
    serial = run_pipeline(tableau, cls, max_extra_atoms=1, allow_fresh=fresh)
    sharded = run_pipeline(
        tableau, cls, max_extra_atoms=1, allow_fresh=fresh, workers=2
    )
    assert sharded.frontier == serial.frontier
    reference = reference_frontier(
        tableau, cls.name, extra_atoms=1, allow_fresh=fresh
    )
    assert equivalent_frontiers(
        [structure_of(m) for m in sharded.frontier], reference
    )


def _record_skips(monkeypatch) -> list:
    """Record every extended candidate the stream drops unkeyed.

    The stream asks :meth:`MembershipTester.known_rejected` with the
    candidate's hypergraph masks only, so the recorder reads the dropped
    candidate itself off the asking frame (the stream's loop state): the
    test then checks what was dropped, not what was asked.  Each entry is
    the :class:`ExtensionCandidate` the stream would have built.
    """
    skipped: list = []
    lookup = MembershipTester.known_rejected

    def recording(self, block_count, edge_masks):
        verdict = lookup(self, block_count, edge_masks)
        if verdict:
            stream = sys._getframe(1).f_locals
            parent = stream["candidate"]
            skipped.append(
                ExtensionCandidate(
                    parent,
                    tuple(stream["pool"][i] for i in stream["combo"]),
                    stream["names"],
                    tuple(
                        sorted(stream["quotient_facts"] + tuple(stream["extension_facts"]))
                    ),
                    block_count,
                    parent.distinguished,
                    None,
                )
            )
        return verdict

    monkeypatch.setattr(MembershipTester, "known_rejected", recording)
    return skipped


CYCLE_6 = cycle_with_chords(6)
TERNARY_C3 = parse_query("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)")

#: The e2e smoke extension specs plus seeded hypergraph CQs.
SKIP_CASES = [
    ("C6/HTW1 +ext", CYCLE_6, "HTW1", False),
    ("ternary-C3(6v)/AC +ext", TERNARY_C3, "AC", False),
    ("C6/HTW1 +fresh-ext", CYCLE_6, "HTW1", True),
    ("ternary(5v,4a,seed=73)/HTW1", random_cq({"R": 3}, 5, 4, seed=73), "HTW1", False),
    (
        "mixed(5v,4a,seed=74)/GHTW1 +fresh",
        random_cq({"R": 3, "E": 2}, 5, 4, seed=74),
        "GHTW1",
        True,
    ),
    (
        "ternary(6v,4a,head1,seed=3)/AC +fresh",
        random_cq({"R": 3}, 6, 4, seed=3, head_size=1),
        "AC",
        True,
    ),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "query,class_name,fresh",
    [case[1:] for case in SKIP_CASES],
    ids=[case[0] for case in SKIP_CASES],
)
def test_skipped_extensions_are_rejected_by_definition(
    monkeypatch, query, class_name, fresh, workers
):
    tableau = query.tableau()
    cls = class_from_name(class_name)
    skipped = _record_skips(monkeypatch)
    if workers == 1:
        run_pipeline(tableau, cls, max_extra_atoms=1, allow_fresh=fresh)
    else:
        # The slot task's body, run in this process so the recorder sees
        # each shard's fresh tester.
        context = (
            encode_tableau(tableau),
            cls,
            1,
            fresh,
            _base_orbit_data(tableau, pipeline.PipelineStats()),
            "insertion",
            "canonical",
            None,
        )
        for index in range(workers):
            run_shard(context, (index, workers))
    assert skipped, "no extended candidate was dropped unkeyed"
    for candidate in skipped:
        extended = candidate.materialize()
        assert not cls.contains_tableau(extended), extended
        assert not member(cls.name, structure_of(extended)), extended
