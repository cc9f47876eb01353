from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from listpacking import (
    ABSENT,
    EXHAUSTED,
    FOUND,
    Graph,
    ListAssignment,
    PackRequest,
    SearchBudget,
    SearchResult,
    UnsupportedRegimeError,
    complete_bipartite,
    complete_graph,
    is_proper_packing,
    pack_complete,
    solve_packing,
    solve_packing_via_lift,
)
from listpacking.galvin import list_edge_color
from .helpers import konig_pack, path_graph


def test_pack_single_vertex():
    ell = ListAssignment({1: frozenset({3, 8})})
    packing = pack_complete(PackRequest(1, ell, 2))
    assert sorted(row[1] for row in packing.rows) == [3, 8]


def test_pack_k2_identical_lists():
    k2 = complete_graph(2)
    ell = ListAssignment({1: frozenset({1, 2}), 2: frozenset({1, 2})})
    packing = pack_complete(PackRequest(2, ell, 2))
    assert is_proper_packing(k2, ell, packing).ok
    assert set(map(tuple, (sorted(r.items()) for r in packing.rows))) == {
        ((1, 1), (2, 2)),
        ((1, 2), (2, 1)),
    }


def is_latin_square(rows, n):
    array = [[row[i] for i in range(1, n + 1)] for row in rows]
    symbols = set(range(1, n + 1))
    return all(set(r) == symbols for r in array) and all(
        {array[j][i] for j in range(n)} == symbols for i in range(n)
    )


def test_pack_k4_identical_lists_is_a_latin_square():
    ell = ListAssignment({v: frozenset({1, 2, 3, 4}) for v in range(1, 5)})
    packing = pack_complete(PackRequest(4, ell, 4))
    assert is_latin_square(packing.rows, 4)


def test_pack_rejects_small_m():
    ell = ListAssignment({v: frozenset({1, 2}) for v in range(1, 4)})
    with pytest.raises(UnsupportedRegimeError):
        pack_complete(PackRequest(3, ell, 2))


def test_pack_rejects_non_uniform_lists():
    ell = ListAssignment({1: frozenset({1, 2}), 2: frozenset({1, 2, 3})})
    with pytest.raises(ValueError):
        pack_complete(PackRequest(2, ell, 2))


def test_pack_random_assignments_verify():
    rng = random.Random(1)
    for n in range(2, 5):
        for m in range(n, n + 3):
            for _ in range(10):
                ell = ListAssignment(
                    {
                        v: frozenset(rng.sample(range(1, 3 * m + 1), m))
                        for v in range(1, n + 1)
                    }
                )
                packing = pack_complete(PackRequest(n, ell, m))
                assert packing.size == m
                assert is_proper_packing(complete_graph(n), ell, packing).ok


def test_konig_reference_and_pack_complete_both_verify():
    rng = random.Random(1916)
    for _ in range(50):
        m = rng.randint(1, 12)
        n = rng.randint(1, m)
        palette = rng.randint(m, m * m)
        ell = ListAssignment(
            {v: frozenset(rng.sample(range(1, palette + 1), m)) for v in range(1, n + 1)}
        )
        g = complete_graph(n)
        for packing in (konig_pack(n, ell, m), pack_complete(PackRequest(n, ell, m))):
            assert packing.size == m
            assert is_proper_packing(g, ell, packing).ok


def test_pullback_is_bit_exact():
    # Row j of the packing is read off the edges at y_j: the color values of
    # the K_{n,m} edge coloring come through untouched.
    n = m = 3
    ell = ListAssignment({v: frozenset({2, 4, 6}) for v in range(1, n + 1)})
    knm, bip = complete_bipartite(n, m)
    edge_lists = {(i, n + j): ell[i] for i in range(1, n + 1) for j in range(1, m + 1)}
    ec = list_edge_color(knm, bip, edge_lists)
    packing = pack_complete(PackRequest(n, ell, m))
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            assert packing.rows[j - 1][i] == ec.colors[(i, n + j)]


def test_pack_monotone_regime_with_truncated_lists():
    rng = random.Random(4)
    for n in (2, 3):
        m = n + 2
        full = {v: sorted(rng.sample(range(1, 3 * m + 1), m)) for v in range(1, n + 1)}
        for m_prime in range(n, m + 1):
            ell = ListAssignment(
                {v: frozenset(full[v][:m_prime]) for v in range(1, n + 1)}
            )
            packing = pack_complete(PackRequest(n, ell, m_prime))
            assert is_proper_packing(complete_graph(n), ell, packing).ok
            assert solve_packing(complete_graph(n), ell, m_prime).status == FOUND


# The lift route, `solve_packing_via_lift`: pack via the product g box K_k.


def test_pack_via_product_present_and_absent():
    k2 = complete_graph(2)
    ell = ListAssignment({1: frozenset({1, 2}), 2: frozenset({1, 2})})
    result = solve_packing_via_lift(k2, ell, 2)
    assert result.status == FOUND and is_proper_packing(k2, ell, result.witness).ok

    k3 = complete_graph(3)
    ell3 = ListAssignment({v: frozenset({1, 2}) for v in range(1, 4)})
    assert solve_packing_via_lift(k3, ell3, 2) == SearchResult(ABSENT, nodes=6)


def test_pack_via_product_agrees_with_direct_search():
    rng = random.Random(12)
    p3 = path_graph(3)
    for _ in range(30):
        ell = ListAssignment(
            {v: frozenset(rng.sample(range(1, 5), 2)) for v in p3.vertices()}
        )
        via = solve_packing_via_lift(p3, ell, 2)
        direct = solve_packing(p3, ell, 2)
        assert via.status == direct.status in (FOUND, ABSENT)


def test_pack_via_product_surfaces_solver_lies(monkeypatch):
    k2 = complete_graph(2)
    ell = ListAssignment({1: frozenset({1, 2}), 2: frozenset({1, 2})})

    def lying_solver(h, lifted, budget=None):
        return SearchResult(FOUND, {v: 1 for v in h.vertices()}, 1)

    monkeypatch.setattr("listpacking.packing.solve_list_coloring", lying_solver)
    with pytest.raises(RuntimeError, match="internal error"):
        solve_packing_via_lift(k2, ell, 2)


def test_pack_via_product_requires_wide_lists():
    k2 = complete_graph(2)
    ell = ListAssignment({1: frozenset({1}), 2: frozenset({1, 2})})
    with pytest.raises(ValueError, match="every list needs at least k=2 colors"):
        solve_packing_via_lift(k2, ell, 2)


def _random_lift_instances(count, seed):
    """Seeded graphs on at most 5 vertices with k-lists from k+1..k+3
    colors, k from 1 to 3, some lists one color longer than k."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        k = rng.randint(1, 3)
        density = rng.choice((0.3, 0.6, 0.9))
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < density]
        colors = range(1, k + rng.randint(1, 3) + 1)
        lists = {
            v: frozenset(rng.sample(colors, rng.randint(k, min(k + 1, len(colors)))))
            for v in range(1, n + 1)
        }
        yield Graph.from_edges(n, edges), ListAssignment(lists), k


# SHA-256 over (status, nodes, witness rows) of every instance, recorded from
# the route that passed a solver callback into a generic lift/solve/extract
# helper.
LIFT_ROUTE_SHA256 = "1bc7aff32a553377ccde18f666227d29ba7408b233f476510dba227d56cd99d5"


def test_lift_route_outputs_match_pinned_digest():
    digest = hashlib.sha256()
    statuses = Counter()
    for g, ell, k in _random_lift_instances(200, 2026):
        result = solve_packing_via_lift(g, ell, k, SearchBudget(node_limit=20))
        rows = None if result.witness is None else [sorted(r.items()) for r in result.witness.rows]
        digest.update(repr((result.status, result.nodes, rows)).encode())
        statuses[result.status] += 1
    assert min(statuses[FOUND], statuses[ABSENT], statuses[EXHAUSTED]) > 0
    assert digest.hexdigest() == LIFT_ROUTE_SHA256


def test_pack_complete_rows_are_the_same_cold_and_warm():
    from listpacking import galvin, packing

    caches = (packing._complete_graph, packing._complete_bipartite, galvin._preferences)
    # More shapes than the caches hold, so cycling through them evicts each
    # entry before it comes round again; the second call of a pair is a hit.
    shapes = ((2, 3), (3, 3), (4, 6))
    assert all(cache.cache_info().maxsize < len(shapes) for cache in caches)
    rng = random.Random(22)
    requests = {}
    for n, m in shapes:
        lists = {v: frozenset(rng.sample(range(1, 2 * m + 1), m)) for v in range(1, n + 1)}
        requests[n, m] = PackRequest(n, ListAssignment(lists), m)
    cold = {}
    for shape, req in requests.items():
        for cache in caches:
            cache.cache_clear()
        cold[shape] = pack_complete(req).rows
    before = [cache.cache_info() for cache in caches]
    for _ in range(2):
        for shape, req in requests.items():
            assert pack_complete(req).rows == cold[shape]
            assert pack_complete(req).rows == cold[shape]
    for cache, info in zip(caches, before):
        after = cache.cache_info()
        assert after.misses - info.misses == after.hits - info.hits == 2 * len(shapes)
