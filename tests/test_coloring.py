from __future__ import annotations

import random

import pytest

from listpacking import (
    NOT_DISJOINT,
    NOT_IN_LIST,
    NOT_PROPER,
    Graph,
    ListAssignment,
    Packing,
    Violation,
    complete_graph,
    extract_packing,
    is_proper_coloring,
    is_proper_packing,
    lift_lists,
    product_id,
    solve_list_coloring,
)
from listpacking import FOUND, solve_packing
from .helpers import cycle_graph, enumerated_packing_report, konig_pack, path_graph


def const_lists(g, colors):
    return ListAssignment({v: frozenset(colors) for v in g.vertices()})


def test_proper_coloring_accepts_and_rejects():
    k2 = complete_graph(2)
    ell = const_lists(k2, {1, 2})
    assert is_proper_coloring(k2, ell, {1: 1, 2: 2}).ok

    report = is_proper_coloring(k2, ell, {1: 1, 2: 1})
    assert not report.ok
    kinds = {(v.kind, v.where) for v in report.violations}
    assert kinds == {(NOT_PROPER, (1, 2))}

    ell2 = ListAssignment({1: frozenset({1}), 2: frozenset({2})})
    report = is_proper_coloring(k2, ell2, {1: 2, 2: 1})
    kinds = {(v.kind, v.where) for v in report.violations}
    assert kinds == {(NOT_IN_LIST, (1,)), (NOT_IN_LIST, (2,))}


def test_proper_coloring_domain_mismatch():
    k2 = complete_graph(2)
    with pytest.raises(ValueError):
        is_proper_coloring(k2, const_lists(k2, {1}), {1: 1})
    with pytest.raises(ValueError):
        is_proper_coloring(k2, ListAssignment({1: frozenset({1})}), {1: 1, 2: 1})


def test_proper_packing_accepts_the_two_row_swap():
    k2 = complete_graph(2)
    ell = const_lists(k2, {1, 2})
    assert is_proper_packing(k2, ell, Packing(({1: 1, 2: 2}, {1: 2, 2: 1}))).ok


def test_proper_packing_reports_disjointness():
    k2 = complete_graph(2)
    ell = const_lists(k2, {1, 2})
    report = is_proper_packing(k2, ell, Packing(({1: 1, 2: 2}, {1: 1, 2: 2})))
    assert not report.ok
    found = {(v.kind, v.where, v.indices) for v in report.violations}
    assert (NOT_DISJOINT, (1,), (1, 2)) in found
    assert (NOT_DISJOINT, (2,), (1, 2)) in found


def test_proper_packing_latin_rows():
    k3 = complete_graph(3)
    ell = const_lists(k3, {1, 2, 3})
    rows = ({1: 1, 2: 2, 3: 3}, {1: 2, 2: 3, 3: 1}, {1: 3, 2: 1, 3: 2})
    assert is_proper_packing(k3, ell, Packing(rows)).ok


def test_packing_report_composes_row_reports():
    k2 = complete_graph(2)
    ell = const_lists(k2, {1, 2})
    report = is_proper_packing(k2, ell, Packing(({1: 1, 2: 1}, {1: 2, 2: 2})))
    assert {(v.kind, v.indices) for v in report.violations} == {
        (NOT_PROPER, (1,)),
        (NOT_PROPER, (2,)),
    }


def test_column_injectivity_matches_naive_double_loop():
    rng = random.Random(7)
    k3 = complete_graph(3)
    ell = const_lists(k3, {1, 2, 3, 4})
    for _ in range(50):
        rows = tuple(
            {v: rng.choice([1, 2, 3, 4]) for v in k3.vertices()} for _ in range(3)
        )
        packing = Packing(rows)
        report = is_proper_packing(k3, ell, packing)
        naive_disjoint = all(
            len({row[v] for row in rows}) == len(rows) for v in k3.vertices()
        )
        has_disjoint_violation = any(
            v.kind == NOT_DISJOINT for v in report.violations
        )
        assert naive_disjoint == (not has_disjoint_violation)


def _brute_row_violations(g, ell, f, indices):
    off_list = [v for v in g.vertices() if f[v] not in ell[v]]
    improper = [(u, v) for u, v in g.edges if f[u] == f[v]]
    return [Violation(NOT_IN_LIST, (v,), indices) for v in off_list] + [
        Violation(NOT_PROPER, e, indices) for e in improper
    ]


def test_injective_row_still_reports_an_off_list_color():
    # No two vertices share a color, so the edge loop is skipped; the list
    # check must still run.
    k3 = complete_graph(3)
    ell = const_lists(k3, {1, 2, 3})
    report = is_proper_packing(k3, ell, Packing(({1: 1, 2: 2, 3: 7}, {1: 2, 2: 3, 3: 1})))
    assert report.violations == (Violation(NOT_IN_LIST, (3,), (1,)),)
    assert is_proper_coloring(k3, ell, {1: 4, 2: 2, 3: 3}).violations == (
        Violation(NOT_IN_LIST, (1,), ()),
    )


def test_row_violations_match_a_brute_force_in_order():
    rng = random.Random(11)
    edges = [(u, v) for u in range(1, 7) for v in range(u + 1, 7) if rng.random() < 0.6]
    g = Graph.from_edges(6, edges)
    ell = ListAssignment({v: frozenset(rng.sample(range(1, 7), 3)) for v in g.vertices()})
    seen_improper = seen_injective = 0
    for _ in range(300):
        row = {v: rng.randint(1, 7) for v in g.vertices()}
        expected = _brute_row_violations(g, ell, row, ())
        assert is_proper_coloring(g, ell, row).violations == tuple(expected)
        seen_improper += any(x.kind == NOT_PROPER for x in expected)
        seen_injective += len(set(row.values())) == len(row)
    assert seen_improper and seen_injective
    rows = tuple({v: rng.randint(1, 7) for v in g.vertices()} for _ in range(3))
    expected = [
        x for i, row in enumerate(rows, start=1) for x in _brute_row_violations(g, ell, row, (i,))
    ]
    report = is_proper_packing(g, ell, Packing(rows))
    assert [x for x in report.violations if x.kind != NOT_DISJOINT] == expected


def _valid_packings(rng):
    """Seeded proper packings of K_4 and K_5 (by Konig's theorem), of C_5
    and of random graphs (by the exhaustive solver), with their lists."""
    for n in (4, 5):
        for m in (n, n + 1):
            for _ in range(4):
                ell = ListAssignment(
                    {v: frozenset(rng.sample(range(1, 2 * m + 1), m)) for v in range(1, n + 1)}
                )
                yield complete_graph(n), ell, konig_pack(n, ell, m)
    graphs = [cycle_graph(5)] * 4
    for _ in range(8):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        graphs.append(Graph.from_edges(n, [e for e in pairs if rng.random() < 0.4]))
    for g in graphs:
        k = rng.randint(1, 3)
        while True:
            ell = ListAssignment(
                {v: frozenset(rng.sample(range(1, 3 * k + 2), k + 1)) for v in g.vertices()}
            )
            result = solve_packing(g, ell, k)
            if result.status == FOUND:
                yield g, ell, result.witness
                break


def _corrupt(rng, g, rows, edits):
    """Copies of `rows` with `edits` random entries overwritten: by a color
    in no list, by a neighbour's entry in the same row, or by another row's
    entry at the same vertex."""
    rows = [dict(row) for row in rows]
    for _ in range(edits):
        j, v = rng.randrange(len(rows)), rng.choice(g.vertices())
        kind = rng.choice(["list", "proper", "disjoint"])
        if kind == "proper" and g.neighbors(v):
            rows[j][v] = rows[j][rng.choice(g.neighbors(v))]
        elif kind == "disjoint" and len(rows) > 1:
            rows[j][v] = rows[rng.choice([i for i in range(len(rows)) if i != j])][v]
        else:
            rows[j][v] = 1000 + rng.randrange(3)
    return Packing(tuple(rows))


def test_packing_check_matches_the_enumerated_report():
    rng = random.Random(17)
    seen = set()
    for g, ell, packing in _valid_packings(rng):
        assert is_proper_packing(g, ell, packing) == enumerated_packing_report(g, ell, packing)
        assert is_proper_packing(g, ell, packing).ok
        for edits in (1, 1, 1, 1, 2, 3):
            bad = _corrupt(rng, g, packing.rows, edits)
            report = is_proper_packing(g, ell, bad)
            assert report == enumerated_packing_report(g, ell, bad), (g, ell, bad)
            seen.add(frozenset(v.kind for v in report.violations))
    # Each kind alone, and kinds mixed, were checked.
    for kind in (NOT_IN_LIST, NOT_PROPER, NOT_DISJOINT):
        assert frozenset({kind}) in seen
    assert any(len(kinds) > 1 for kinds in seen)


def test_packing_check_raises_as_the_enumeration_does():
    k4 = complete_graph(4)
    ell = const_lists(k4, range(1, 5))
    rows = tuple({v: (v + j) % 4 + 1 for v in k4.vertices()} for j in range(4))
    short = ListAssignment({v: ell[v] for v in (1, 2, 3)})
    cases = [
        (k4, short, Packing(rows)),
        (k4, short, Packing(rows[:1] + ({1: 1},))),
        (k4, ell, Packing(rows[:2] + ({1: 1, 2: 2, 3: 3},) + rows[3:])),
        (k4, ell, Packing(rows[:3] + ({**rows[3], 5: 1},))),
        (k4, ell, Packing(({1: 1},) + rows[1:2] + ({},))),
        (Graph.from_edges(0, []), ell, Packing(())),
    ]
    for g, lists, packing in cases:
        with pytest.raises(ValueError) as fast:
            is_proper_packing(g, lists, packing)
        with pytest.raises(ValueError) as enumerated:
            enumerated_packing_report(g, lists, packing)
        assert str(fast.value) == str(enumerated.value)
    empty = (Graph.from_edges(0, []), ListAssignment({}))
    for packing in (Packing(()), Packing(({},)), Packing(({}, {}))):
        assert is_proper_packing(*empty, packing) == enumerated_packing_report(*empty, packing)


def test_lift_lists_shapes():
    k1 = complete_graph(1)
    h, lifted = lift_lists(k1, ListAssignment({1: frozenset({5, 7})}), 2)
    assert h.edges == ((1, 2),)
    assert lifted[1] == lifted[2] == frozenset({5, 7})

    k2 = complete_graph(2)
    h, lifted = lift_lists(k2, const_lists(k2, {1, 2}), 2)
    assert len(h.edges) == 4  # the 4-cycle
    assert all(lifted[v] == frozenset({1, 2}) for v in h.vertices())

    k3 = complete_graph(3)
    ell = ListAssignment(
        {1: frozenset({1, 2, 3}), 2: frozenset({2, 3, 4}), 3: frozenset({1, 4, 5})}
    )
    h, lifted = lift_lists(k3, ell, 3)
    assert h.n == 9
    for i in k3.vertices():
        for j in range(1, 4):
            assert lifted[product_id(i, j, 3)] == ell[i]


def test_extract_packing_identity_and_square():
    k2 = complete_graph(2)
    packing = extract_packing(k2, 1, {1: 4, 2: 9})
    assert packing.rows == ({1: 4, 2: 9},)

    # f on K_2 box K_2: (1,1)->1 (1,2)->2 (2,1)->2 (2,2)->1
    packing = extract_packing(k2, 2, {1: 1, 2: 2, 3: 2, 4: 1})
    assert packing.rows == ({1: 1, 2: 2}, {1: 2, 2: 1})


def test_extract_packing_requires_product_domain():
    with pytest.raises(ValueError):
        extract_packing(complete_graph(2), 2, {1: 1, 2: 2, 3: 1})


def test_extract_round_trip_through_exhaustive_solver():
    # Any proper coloring of the lift slices into a proper packing.
    rng = random.Random(11)
    for g in [complete_graph(2), complete_graph(3), path_graph(3)]:
        for _ in range(10):
            ell = ListAssignment(
                {v: frozenset(rng.sample(range(1, 7), 3)) for v in g.vertices()}
            )
            h, lifted = lift_lists(g, ell, 2)
            result = solve_list_coloring(h, lifted)
            if result.status != FOUND:
                continue
            packing = extract_packing(g, 2, result.witness)
            assert is_proper_packing(g, ell, packing).ok


def test_list_assignment_validation():
    with pytest.raises(ValueError):
        ListAssignment.from_dict({1: []})
    with pytest.raises(ValueError):
        ListAssignment.from_dict({1: [0, 1]})
    ell = ListAssignment.from_dict({1: [2, 1], 2: [1, 2]})
    assert ell.is_k_assignment(2) and ell.uniform_size() == 2
