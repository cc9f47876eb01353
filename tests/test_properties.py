"""Property-based tests: the packing search against the lift route on
small random graphs and lists, and the constructive packer against the
independent packing checker."""

from __future__ import annotations

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from listpacking import (  # noqa: E402
    ABSENT,
    EXHAUSTED,
    FOUND,
    Graph,
    ListAssignment,
    PackRequest,
    SearchBudget,
    complete_graph,
    is_proper_packing,
    pack_complete,
    solve_packing,
    solve_packing_via_lift,
)


@st.composite
def packing_instances(draw):
    """A graph on at most 5 vertices and k-lists, k <= 3, drawn from at most
    k + 3 colors spaced `stride` apart, each list at most one color longer
    than k."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    pairs = list(combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, kept in zip(pairs, keep) if kept]
    palette = draw(st.integers(k, k + 3))
    stride = draw(st.sampled_from((1, 7, 1000)))
    one_list = st.sets(st.integers(1, palette), min_size=k, max_size=min(k + 1, palette))
    lists = {v: frozenset(c * stride for c in draw(one_list)) for v in range(1, n + 1)}
    return Graph.from_edges(n, edges), ListAssignment(lists), k


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
