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
hypergraph classes, under every setting too, and every extended candidate
the stream drops as a memoized rejection must be rejected by the class's
definition.  Padded bases, which no CQ has (domain elements in no fact,
one of them distinguished), run the same comparisons, and on two of them
every quotient and one-atom extension checks the canonical keys against
a brute-force isomorphism test.  On every one of these bases the
automorphisms stage 1 prunes orbits with are the group the definition
gives (every permutation preserving the facts and fixing the head), and
on bases with more than 512 endomorphisms orbit pruning stays on.
"""

from __future__ import annotations

import itertools
import sys

import pytest

import repro.core.pipeline as pipeline
import repro.core.quotients as quotients
from repro.core import class_from_name
from repro.core.pipeline import (
    MembershipTester,
    encode_tableau,
    run_pipeline,
    run_shard,
)
from repro.core.quotients import (
    ExtensionCandidate,
    iter_extended_candidates,
    iter_quotient_candidates,
)
from repro.cq import Structure, Tableau, parse_query
from repro.homomorphism.signatures import canonical_key_indexed
from repro.testing.reference import (
    equivalent_frontiers,
    extensions,
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


def padded(query, isolated: int, *, head: bool):
    """``query``'s tableau plus ``isolated`` domain elements ``w0, w1, ...``
    in no fact, the first appended to the distinguished tuple when
    ``head``: a base no CQ has."""
    tableau = query.tableau()
    structure = tableau.structure
    extra = [f"w{i}" for i in range(isolated)]
    return Tableau(
        Structure(
            structure.relations,
            vocabulary=structure.vocabulary,
            domain=structure.domain | set(extra),
        ),
        tableau.distinguished + tuple(extra[:head]),
    )


def _frontier_across_settings(tableau, cls, **knobs) -> list:
    """The serial frontier under every setting, asserted ``==`` across
    settings."""
    frontiers = {
        (generation, order): run_pipeline(
            tableau, cls, generation=generation, admission_order=order, **knobs
        ).frontier
        for generation, order in SETTINGS
    }
    first = frontiers[SETTINGS[0]]
    for setting, frontier in frontiers.items():
        assert frontier == first, setting
    return first


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
    frontier = _frontier_across_settings(
        tableau, cls, max_extra_atoms=1, allow_fresh=fresh
    )
    base_facts = len(structure_of(tableau)[1])
    assert any(len(m[1]) > base_facts for m in reference), "no extended member"
    assert equivalent_frontiers([structure_of(m) for m in frontier], reference)


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
                    tuple(
                        (stream["names"][stream["pool"][i][0]], stream["pool"][i][1])
                        for i in stream["combo"]
                    ),
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


#: Seeded CQs of at most five variables plus one or two domain elements in
#: no fact (the first distinguished where marked), at most six elements.
#: name -> (query, elements added, first one distinguished, class)
PADDED_CASES = {
    "graph(5v,6a,seed=1)+w(head)/TW(1)": (
        random_graph_query(5, 6, seed=1), 1, True, "TW(1)"
    ),
    "graph(4v,5a,seed=2)+2w(head)/TW(1)": (
        random_graph_query(4, 5, seed=2), 2, True, "TW(1)"
    ),
    "ternary(5v,4a,seed=73)+w/AC": (
        random_cq({"R": 3}, 5, 4, seed=73), 1, False, "AC"
    ),
    "ternary(4v,3a,head1,seed=72)+2w(head)/HTW(1)": (
        random_cq({"R": 3}, 4, 3, seed=72, head_size=1), 2, True, "HTW(1)"
    ),
    "mixed(4v,3a,seed=71)+w(head)/AC": (
        random_cq({"R": 3, "E": 2}, 4, 3, seed=71), 1, True, "AC"
    ),
}

PADDED_PARAMS = [
    pytest.param(
        padded(query, isolated, head=head),
        class_name,
        extra_atoms,
        fresh,
        id=f"{name}{suffix}",
    )
    for name, (query, isolated, head, class_name) in PADDED_CASES.items()
    for extra_atoms, fresh, suffix in [
        (0, False, ""),
        (1, False, " +ext"),
        (1, True, " +fresh-ext"),
    ]
]


@pytest.mark.parametrize("tableau,class_name,extra_atoms,fresh", PADDED_PARAMS)
def test_padded_frontiers_match_the_definition(
    tableau, class_name, extra_atoms, fresh
):
    cls = class_from_name(class_name)
    reference = reference_frontier(
        tableau, cls.name, extra_atoms=extra_atoms, allow_fresh=fresh
    )
    frontier = _frontier_across_settings(
        tableau, cls, max_extra_atoms=extra_atoms, allow_fresh=fresh
    )
    assert equivalent_frontiers([structure_of(m) for m in frontier], reference)


@pytest.mark.slow
@pytest.mark.parametrize(
    "tableau,class_name,extra_atoms,fresh", PADDED_PARAMS[::2]
)
def test_two_workers_match_the_padded_reference(
    tableau, class_name, extra_atoms, fresh
):
    cls = class_from_name(class_name)
    knobs = dict(max_extra_atoms=extra_atoms, allow_fresh=fresh)
    serial = run_pipeline(tableau, cls, **knobs)
    sharded = run_pipeline(tableau, cls, workers=2, **knobs)
    assert sharded.frontier == serial.frontier
    reference = reference_frontier(
        tableau, cls.name, extra_atoms=extra_atoms, allow_fresh=fresh
    )
    assert equivalent_frontiers(
        [structure_of(m) for m in sharded.frontier], reference
    )


def _isomorphic(a, b) -> bool:
    """Whether a bijection maps structure ``a`` onto ``b``, head onto head:
    a search over bijections that drops a partial one as soon as a fact
    whose elements it has all placed misses ``b``."""
    n, facts, head = a
    if (n, len(facts), len(head)) != (b[0], len(b[1]), len(b[2])):
        return False
    image: dict[int, int] = {}
    for element, value in zip(head, b[2]):
        if image.setdefault(element, value) != value:
            return False
    if len(set(image.values())) != len(image):
        return False
    order = [v for v in range(n) if v not in image]
    due: dict[int, list] = {}
    for name, row in facts:
        free = [v for v in row if v not in image]
        due.setdefault(max(free, default=-1), []).append((name, row))

    def holds(element) -> bool:
        return all(
            (name, tuple(image[v] for v in row)) in b[1]
            for name, row in due.get(element, ())
        )

    def assign(position: int) -> bool:
        if position == len(order):
            return True
        element = order[position]
        for value in set(range(n)) - set(image.values()):
            image[element] = value
            if holds(element) and assign(position + 1):
                return True
            del image[element]
        return False

    return holds(-1) and assign(0)


def _invariant(structure) -> tuple:
    """An isomorphism invariant: each element's (relation, position) slots
    and head positions, as a sorted multiset."""
    n, facts, head = structure
    slots: list[list] = [[] for _ in range(n)]
    for name, row in facts:
        for position, v in enumerate(row):
            slots[v].append((name, position))
    for position, v in enumerate(head):
        slots[v].append(("head", position))
    return n, len(facts), tuple(sorted(tuple(sorted(s)) for s in slots))


#: Padded bases with every quotient and one-atom extension canonized and
#: checked against the brute-force isomorphism test.
COLLISION_CASES = [
    pytest.param(
        padded(parse_query("Q() :- E(x, y), E(y, z), E(z, x)"), 1, head=True),
        True,
        id="C3+w(head) +fresh",
    ),
    pytest.param(
        padded(random_cq({"R": 3}, 4, 2, seed=5), 2, head=True),
        False,
        id="ternary(4v,2a,seed=5)+2w(head)",
    ),
]


@pytest.mark.parametrize("tableau,fresh", COLLISION_CASES)
def test_equal_keys_mean_isomorphic_and_the_stream_keeps_one_per_class(
    tableau, fresh
):
    base = structure_of(tableau)
    relation_ids = {
        name: i for i, name in enumerate(sorted(tableau.structure.vocabulary))
    }
    space = [
        candidate
        for code in partitions(base[0])
        for plain in [quotient(base, code)]
        for candidate in itertools.chain([plain], extensions(plain, fresh))
    ]
    by_key: dict = {}
    for candidate in space:
        n, facts, head = candidate
        key = canonical_key_indexed(
            n, sorted((relation_ids[name], row) for name, row in facts), head
        )
        assert key is not None
        by_key.setdefault(key, []).append(candidate)
    for group in by_key.values():
        for candidate in group[1:]:
            assert _isomorphic(group[0], candidate), (group[0], candidate)

    quotients = [quotient(base, code) for code in partitions(base[0])]
    for stream, full in [
        (iter_quotient_candidates(tableau, generation="canonical"), quotients),
        (
            iter_extended_candidates(
                tableau,
                max_extra_atoms=1,
                allow_fresh=fresh,
                generation="canonical",
            ),
            space,
        ),
    ]:
        kept: dict = {}
        for candidate in stream:
            structure = structure_of(candidate.materialize())
            kept.setdefault(_invariant(structure), []).append(structure)
        for candidate in full:
            copies = kept.get(_invariant(candidate), [])
            matches = sum(_isomorphic(candidate, copy) for copy in copies)
            assert matches == 1, candidate


def _stage1_orbit_data(monkeypatch, tableau) -> list:
    """The automorphisms ``iter_quotient_candidates`` derives for
    ``tableau``'s orbit pruning, recorded from the stream's own call."""
    found = []
    search = quotients._integer_automorphisms

    def recording(*args, **kwargs):
        perms = search(*args, **kwargs)
        found.append(perms)
        return perms

    monkeypatch.setattr(quotients, "_integer_automorphisms", recording)
    next(iter_quotient_candidates(tableau, generation="orbit"))
    monkeypatch.undo()
    assert len(found) == 1
    return found[0]


def _is_automorphism(tableau, image: dict) -> bool:
    """Whether ``image`` maps the fact set onto itself, fixing each
    distinguished element."""
    structure = tableau.structure
    facts = {
        (name, row)
        for name in structure.vocabulary
        for row in structure.tuples(name)
    }
    return all(image[d] == d for d in tableau.distinguished) and facts == {
        (name, tuple(image[value] for value in row)) for name, row in facts
    }


def _brute_force_automorphisms(tableau) -> set:
    """Every non-identity automorphism of the tableau by the definition,
    as an image permutation over the ``repr``-sorted element indexes."""
    elements = sorted(tableau.structure.domain, key=repr)
    index_of = {element: index for index, element in enumerate(elements)}
    found = set()
    for images in itertools.permutations(elements):
        if images != tuple(elements) and _is_automorphism(
            tableau, dict(zip(elements, images))
        ):
            found.add(tuple(index_of[image] for image in images))
    return found


#: Every base of at most six elements above: the seeded CQs, the padded
#: bases and the collision bases.
ORBIT_BASES = (
    [pytest.param(query.tableau(), id=name) for name, query, _ in CASES]
    + [pytest.param(query.tableau(), id=name) for name, query, _ in EXTENSION_CASES]
    + [
        pytest.param(padded(query, isolated, head=head), id=name)
        for name, (query, isolated, head, _) in PADDED_CASES.items()
    ]
    + [pytest.param(case.values[0], id=case.id) for case in COLLISION_CASES]
)


@pytest.mark.parametrize("tableau", ORBIT_BASES)
def test_base_orbit_data_is_the_automorphism_group(monkeypatch, tableau):
    assert len(tableau.structure.domain) <= 6
    found = _stage1_orbit_data(monkeypatch, tableau)
    assert len(found) == len({tuple(perm) for perm in found})
    assert {tuple(perm) for perm in found} == _brute_force_automorphisms(tableau)


def _star(leaves: int):
    return parse_query(
        "Q() :- " + ", ".join(f"E(c, l{i})" for i in range(leaves))
    ).tableau()


#: Bases with more than 512 endomorphisms, where a search through the
#: endomorphisms that gives up there would turn orbit pruning off.  The
#: star's 5040 automorphisms are past the backtracker's node cap, so its
#: stream prunes with the subset found.
ORBIT_CAP_CASES = [
    pytest.param(
        parse_query(
            "Q() :- E(a, b), E(b, c), E(c, a), "
            "E(a, p1), E(a, p2), E(a, p3), E(a, p4)"
        ).tableau(),
        24,
        id="triangle+4pendants/TW(1)",
    ),
    pytest.param(
        padded(
            parse_query("Q() :- E(a, b), E(b, c), E(c, d), E(d, a)"), 3, head=False
        ),
        24,
        id="C4+3w/TW(1)",
    ),
    pytest.param(_star(7), None, id="star(7 leaves)/TW(1)"),
]


@pytest.mark.parametrize("tableau,group_order", ORBIT_CAP_CASES)
def test_orbit_pruning_stays_on_past_the_endomorphism_count(
    monkeypatch, tableau, group_order
):
    found = _stage1_orbit_data(monkeypatch, tableau)
    elements = sorted(tableau.structure.domain, key=repr)
    for perm in found:
        image = {element: elements[perm[i]] for i, element in enumerate(elements)}
        assert _is_automorphism(tableau, image)
    assert found
    if group_order is not None:
        assert len(found) == group_order - 1
    cls = class_from_name("TW(1)")
    _frontier_across_settings(tableau, cls)
    generated = {
        generation: run_pipeline(tableau, cls, generation=generation).stats.generated
        for generation in ("orbit", "raw")
    }
    assert generated["orbit"] < generated["raw"], generated
