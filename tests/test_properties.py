"""Property-based tests: the list coloring search against brute force, the
packing search against the lift route on small random graphs and lists, the
constructive packer against the independent packing checker, and the
checkers against the enumerated reference report."""

from __future__ import annotations

from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from listpacking import (  # noqa: E402
    ABSENT,
    EXHAUSTED,
    FOUND,
    Graph,
    ListAssignment,
    Packing,
    PackRequest,
    SearchBudget,
    Violation,
    complete_graph,
    is_proper_coloring,
    is_proper_packing,
    pack_complete,
    solve_list_coloring,
    solve_packing,
    solve_packing_via_lift,
)

from .helpers import enumerated_packing_report  # noqa: E402


def draw_graph(draw, n: int) -> Graph:
    """A graph on vertices 1..n, each possible edge kept or not."""
    pairs = list(combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, kept in zip(pairs, keep) if kept])


@st.composite
def coloring_instances(draw):
    """A graph on at most 6 vertices and lists of 1 to 3 colors drawn from
    at most 5 colors spaced `stride` apart."""
    n = draw(st.integers(1, 6))
    g = draw_graph(draw, n)
    palette = draw(st.integers(1, 5))
    stride = draw(st.sampled_from((1, 7, 1000)))
    one_list = st.sets(st.integers(1, palette), min_size=1, max_size=min(3, palette))
    lists = {v: frozenset(c * stride for c in draw(one_list)) for v in range(1, n + 1)}
    return g, ListAssignment(lists)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coloring_instances())
@example((Graph.from_edges(0, []), ListAssignment({})))
def test_solve_list_coloring_agrees_with_brute_force(instance):
    # Independent of the package's search: try every choice from the lists.
    g, ell = instance
    colorable = any(
        all(choice[u - 1] != choice[v - 1] for u, v in g.edges)
        for choice in product(*(sorted(ell[v]) for v in g.vertices()))
    )
    result = solve_list_coloring(g, ell)
    assert result.status == (FOUND if colorable else ABSENT)
    if result.status == FOUND:
        assert type(result.witness) is dict
        assert is_proper_coloring(g, ell, result.witness).ok


@st.composite
def packing_instances(draw):
    """A graph on at most 5 vertices and k-lists, k <= 3, drawn from at most
    k + 3 colors spaced `stride` apart, each list at most one color longer
    than k."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    g = draw_graph(draw, n)
    palette = draw(st.integers(k, k + 3))
    stride = draw(st.sampled_from((1, 7, 1000)))
    one_list = st.sets(st.integers(1, palette), min_size=k, max_size=min(k + 1, palette))
    lists = {v: frozenset(c * stride for c in draw(one_list)) for v in range(1, n + 1)}
    return g, ListAssignment(lists), k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(packing_instances())
def test_solve_packing_agrees_with_the_lift_route(instance):
    g, ell, k = instance
    budget = SearchBudget(node_limit=200_000)
    direct = solve_packing(g, ell, k, budget)
    lifted = solve_packing_via_lift(g, ell, k, budget)
    assert direct.status != EXHAUSTED and lifted.status != EXHAUSTED
    assert direct.status == lifted.status in (FOUND, ABSENT)
    if direct.status == FOUND:
        assert is_proper_packing(g, ell, direct.witness).ok
        assert is_proper_packing(g, ell, lifted.witness).ok


@st.composite
def complete_graph_assignments(draw):
    """An m-assignment of K_n, n <= m <= 10, with every list drawn from a
    palette of m to m^2 colors."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, m))
    palette = draw(st.integers(m, m * m))
    one_list = st.sets(st.integers(1, palette), min_size=m, max_size=m)
    return n, m, ListAssignment({v: frozenset(draw(one_list)) for v in range(1, n + 1)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(complete_graph_assignments())
def test_pack_complete_returns_a_proper_packing(instance):
    n, m, ell = instance
    packing = pack_complete(PackRequest(n, ell, m))
    assert packing.size == m
    assert is_proper_packing(complete_graph(n), ell, packing).ok


@st.composite
def arbitrary_packings(draw):
    """A graph on at most 6 vertices, lists from 1..4, and 0 to 4 rows whose
    entries are drawn from 1..6, so they may leave every list."""
    n = draw(st.integers(0, 6))
    g = draw_graph(draw, n)
    one_list = st.sets(st.integers(1, 4), min_size=1, max_size=4)
    ell = ListAssignment({v: frozenset(draw(one_list)) for v in range(1, n + 1)})
    one_row = st.lists(st.integers(1, 6), min_size=n, max_size=n)
    rows = draw(st.lists(one_row, max_size=4))
    return g, ell, Packing(tuple(dict(enumerate(row, start=1)) for row in rows))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arbitrary_packings())
def test_checkers_match_the_enumerated_report(instance):
    g, ell, packing = instance
    report = is_proper_packing(g, ell, packing)
    assert report == enumerated_packing_report(g, ell, packing)
    for idx, row in enumerate(packing.rows, start=1):
        own = [Violation(x.kind, x.where) for x in report.violations if x.indices == (idx,)]
        assert is_proper_coloring(g, ell, row).violations == tuple(own)
