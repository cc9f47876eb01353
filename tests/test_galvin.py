from __future__ import annotations

import hashlib
import random
import tracemalloc
from collections import Counter, defaultdict
from itertools import chain, combinations

import pytest

from listpacking import (
    Bipartition,
    Graph,
    ListAssignment,
    PackRequest,
    PreferenceSystem,
    bipartition,
    complete_bipartite,
    edge_color_bipartite,
    list_edge_color,
    list_edge_color_trace,
    pack_complete,
    verify_edge_coloring,
)
from listpacking.galvin import kernel_check, stable_matching
from .helpers import (
    as_pool,
    cycle_graph,
    reference_edge_color_augmenting,
    reference_kernel_check,
    reference_order,
    reference_stable_matching,
    reference_verify_edge_coloring,
)


def test_closed_form_on_k23():
    g, bip = complete_bipartite(2, 3)
    ec = edge_color_bipartite(g, bip)
    # x_i y_j carries ((i + j - 2) mod 3) + 1
    assert ec.colors == {
        (1, 3): 1, (1, 4): 2, (1, 5): 3,
        (2, 3): 2, (2, 4): 3, (2, 5): 1,
    }
    assert ec.palette_size == 3


def test_single_edge_gets_color_one():
    g, bip = complete_bipartite(1, 1)
    ec = edge_color_bipartite(g, bip)
    assert ec.colors == {(1, 2): 1} and ec.palette_size == 1


def test_six_cycle_two_colors():
    g = cycle_graph(6)
    bip = bipartition(g)
    ec = edge_color_bipartite(g, bip)
    assert ec.palette_size == 2
    assert set(ec.colors.values()) == {1, 2}
    assert verify_edge_coloring(g, ec.colors) == []


def test_closed_form_proper_for_all_small_sizes():
    for n in range(1, 9):
        for m in range(n, 9):
            g, bip = complete_bipartite(n, m)
            ec = edge_color_bipartite(g, bip)
            assert ec.palette_size == max(n, m)
            assert verify_edge_coloring(g, ec.colors) == []
            for x in range(1, n + 1):
                cs = {ec.colors[(x, n + j)] for j in range(1, m + 1)}
                assert len(cs) == m
            for j in range(1, m + 1):
                cs = {ec.colors[(x, n + j)] for x in range(1, n + 1)}
                assert len(cs) == n


def _random_bipartite(rng, n, m, keep=0.6):
    full, bip = complete_bipartite(n, m)
    edges = [e for e in full.edges if rng.random() < keep]
    if not edges:
        edges = [full.edges[0]]
    return Graph.from_edges(n + m, edges), bip


def test_augmenting_path_coloring_on_random_bipartite():
    rng = random.Random(3)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        g, bip = _random_bipartite(rng, n, m)
        ec = edge_color_bipartite(g, bip)
        assert ec.palette_size == g.max_degree()
        assert all(1 <= c <= ec.palette_size for c in ec.colors.values())
        assert verify_edge_coloring(g, ec.colors) == []


def test_augmenting_path_coloring_on_complete_bipartite_shapes():
    # Bypass the closed form so the alternating-path swaps actually fire
    # (K_{3,3} hits one at edge (2,6) already).
    from listpacking.galvin import _edge_color_augmenting

    for n in range(1, 6):
        for m in range(n, 6):
            g, _ = complete_bipartite(n, m)
            ec = _edge_color_augmenting(g, g.max_degree())
            assert ec.palette_size == max(n, m)
            assert verify_edge_coloring(g, ec.colors) == []


def test_augmenting_path_flip_handles_shared_path_vertices():
    # Regression: consecutive path edges share a vertex, so the color index
    # must be cleared in full before re-inserting; interleaving the two
    # corrupts it and a later insertion reuses an occupied color.
    g = Graph.from_edges(
        8,
        [(1, 4), (1, 7), (1, 8), (2, 5), (2, 6), (2, 8), (3, 4), (3, 6), (3, 7)],
    )
    bip = bipartition(g)
    ec = edge_color_bipartite(g, bip)
    assert ec.palette_size == g.max_degree() == 3
    assert verify_edge_coloring(g, ec.colors) == []


def test_augmenting_path_coloring_matches_the_free_list_reference():
    # The first-free-color scans make the choices of the earlier free-list
    # intersection, kept in tests/helpers.py, in the same insertion order:
    # 200 seeded graphs with sides up to 40 and densities from sparse to
    # complete (where flips fire), plus the shared-vertex flip graph.
    from listpacking.galvin import _edge_color_augmenting

    rng = random.Random(2121)
    graphs = [
        Graph.from_edges(
            8, [(1, 4), (1, 7), (1, 8), (2, 5), (2, 6), (2, 8), (3, 4), (3, 6), (3, 7)]
        )
    ]
    for _ in range(200):
        n, m = rng.randint(1, 40), rng.randint(1, 40)
        keep = rng.choice((0.05, 0.2, 0.5, 0.8, 0.95, 1.0))
        graphs.append(_random_bipartite(rng, n, m, keep)[0])
    assert max(g.max_degree() for g in graphs) >= 35
    for g in graphs:
        delta = g.max_degree()
        ec = _edge_color_augmenting(g, delta)
        expected = reference_edge_color_augmenting(g, delta)
        assert list(ec.colors.items()) == list(expected.colors.items()), g.edges
        assert ec.palette_size == expected.palette_size == delta


def test_edge_color_rejects_non_bipartite_input():
    g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    from listpacking import Bipartition

    with pytest.raises(ValueError):
        edge_color_bipartite(g, Bipartition(frozenset({1, 2}), frozenset({3})))


def test_engine_rejects_a_bad_bipartition_before_reading_any_list():
    g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    # None is not a mapping: reading it would raise TypeError, not ValueError.
    with pytest.raises(ValueError, match="does not cross"):
        list_edge_color_trace(g, Bipartition(frozenset({1, 2}), frozenset({3})), None)


def test_engine_splits_each_edge_at_most_twice(monkeypatch):
    calls = []
    split = Bipartition.split_edge

    def counting(bip, e):
        calls.append(e)
        return split(bip, e)

    monkeypatch.setattr(Bipartition, "split_edge", counting)
    rng = random.Random(8)
    for n, m in ((6, 6), (5, 7)):
        for g, bip in (complete_bipartite(n, m), _random_bipartite(rng, n, m)):
            delta = g.max_degree()
            lists = {e: frozenset(rng.sample(range(1, 2 * delta + 1), delta)) for e in g.edges}
            calls.clear()
            list_edge_color_trace(g, bip, lists)
            assert len(calls) <= 2 * len(g.edges)


def test_engine_splits_no_edge_on_a_graph_it_has_seen(monkeypatch):
    from listpacking import galvin

    calls = []
    split = Bipartition.split_edge

    def counting(bip, e):
        calls.append(e)
        return split(bip, e)

    monkeypatch.setattr(Bipartition, "split_edge", counting)
    rng = random.Random(9)
    for g, bip in (complete_bipartite(5, 7), _random_bipartite(rng, 6, 6)):
        delta = g.max_degree()
        lists = {e: frozenset(rng.sample(range(1, 2 * delta + 1), delta)) for e in g.edges}
        galvin._preferences.cache_clear()
        calls.clear()
        cold = list_edge_color_trace(g, bip, lists)
        assert 0 < len(calls) <= 2 * len(g.edges)
        # Equal but not identical inputs: the cache keys on value.
        g2 = Graph.from_edges(g.n, reversed(g.edges))
        bip2 = Bipartition(frozenset(sorted(bip.X)), frozenset(sorted(bip.Y)))
        assert (g2, bip2) == (g, bip) and g2 is not g and bip2 is not bip
        calls.clear()
        warm = list_edge_color_trace(g2, bip2, lists)
        assert calls == []
        assert _trace_key(warm) == _trace_key(cold)


def _trace_key(result):
    ec, trace = result
    rounds = [(r.color, r.pool, r.matched) for r in trace.rounds]
    return rounds, trace.deletions, ec.colors


def test_swapped_sides_get_their_own_preference_tables():
    from listpacking import galvin

    g, bip = complete_bipartite(3, 3)
    swapped = Bipartition(bip.Y, bip.X)
    rng = random.Random(10)
    lists = {e: frozenset(rng.sample(range(1, 7), 3)) for e in g.edges}
    galvin._preferences.cache_clear()
    list_edge_color_trace(g, bip, lists)
    warm = list_edge_color_trace(g, swapped, lists)
    prefs, swapped_prefs = galvin._preferences(g, bip), galvin._preferences(g, swapped)
    assert prefs is not swapped_prefs
    assert swapped_prefs.oriented[0] == prefs.oriented[1]  # X-ends are the other side
    assert swapped_prefs.order_ids != prefs.order_ids
    galvin._preferences.cache_clear()
    assert _trace_key(list_edge_color_trace(g, swapped, lists)) == _trace_key(warm)


def test_a_bad_bipartition_raises_on_every_call():
    from listpacking import galvin

    g, good = complete_bipartite(2, 3)
    bad = Bipartition(frozenset({1, 3}), frozenset({2, 4, 5}))  # (1, 3) stays in X
    lists = {e: frozenset({1, 2, 3}) for e in g.edges}
    galvin._preferences.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="does not cross"):
            list_edge_color_trace(g, bad, lists)
        list_edge_color_trace(g, good, lists)
        with pytest.raises(ValueError, match="does not cross"):
            list_edge_color_trace(g, bad, lists)
    assert galvin._preferences.cache_info().currsize == 1


def test_the_per_graph_caches_stay_within_their_bound():
    from listpacking import galvin, packing

    caches = (galvin._preferences, packing._complete_graph, packing._complete_bipartite)
    assert all(cache.cache_info().maxsize is not None for cache in caches)
    bound = max(cache.cache_info().maxsize for cache in caches)
    rng = random.Random(11)
    for n in range(1, bound + 4):
        m = n + n % 2
        lists = ListAssignment(
            {v: frozenset(rng.sample(range(1, 2 * m + 1), m)) for v in range(1, n + 1)}
        )
        pack_complete(PackRequest(n, lists, m))
        g, bip = _random_bipartite(rng, n, m)
        delta = g.max_degree()
        list_edge_color(g, bip, {e: frozenset(range(1, delta + 1)) for e in g.edges})
        for cache in caches:
            info = cache.cache_info()
            assert info.currsize <= info.maxsize


def _prefs(g, bip):
    return PreferenceSystem(edge_color_bipartite(g, bip), bip)


def _ids(prefs, edges):
    return {prefs.index[e] for e in edges}


def _pool(prefs, edges):
    return as_pool(_ids(prefs, edges), prefs)


def test_stable_matching_single_proposer_takes_best():
    g, bip = complete_bipartite(1, 3)
    prefs = _prefs(g, bip)
    pool = list(g.edges)
    best = max(pool, key=prefs.base.colors.__getitem__)
    assert stable_matching(_pool(prefs, pool), prefs) == _ids(prefs, [best])


def test_stable_matching_singleton_pool():
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    assert stable_matching(_pool(prefs, [(1, 3)]), prefs) == {prefs.index[(1, 3)]}
    with pytest.raises(ValueError):
        stable_matching(as_pool([], prefs), prefs)


def test_stable_matching_on_k22_is_a_brute_force_kernel():
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    pool = _ids(prefs, g.edges)
    proposals = as_pool(pool, prefs)
    matched = stable_matching(proposals, prefs)
    kernels = []
    for r in range(len(pool) + 1):
        for subset in combinations(sorted(pool), r):
            if kernel_check(proposals, prefs, set(subset)):
                kernels.append(set(subset))
    assert kernels, "brute force found no kernel at all"
    assert matched in kernels


def test_stable_matching_is_always_a_kernel():
    rng = random.Random(5)
    trials = 0
    while trials < 200:
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        g, bip = _random_bipartite(rng, n, m)
        if not g.edges:
            continue
        pool = [e for e in g.edges if rng.random() < 0.7] or [g.edges[0]]
        prefs = _prefs(g, bip)
        pool = _pool(prefs, pool)
        matched = stable_matching(pool, prefs)
        assert kernel_check(pool, prefs, matched)
        trials += 1


def test_kernel_check_rejects_bad_sets():
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    pool = _pool(prefs, g.edges)
    assert not kernel_check(pool, prefs, set())
    assert not kernel_check(pool, prefs, _ids(prefs, [(1, 3), (1, 4)]))  # shares vertex 1


def test_list_edge_color_identical_lists_specializes():
    g, bip = complete_bipartite(3, 4)
    delta = g.max_degree()
    lists = {e: frozenset(range(1, delta + 1)) for e in g.edges}
    ec = list_edge_color(g, bip, lists)
    assert set(ec.colors.values()) <= set(range(1, delta + 1))
    assert verify_edge_coloring(g, ec.colors, lists) == []


def test_list_edge_color_single_edge_any_color():
    g, bip = complete_bipartite(1, 1)
    ec = list_edge_color(g, bip, {(1, 2): frozenset({42})})
    assert ec.colors == {(1, 2): 42}


def test_list_edge_color_rejects_short_lists():
    g, bip = complete_bipartite(2, 2)
    lists = {e: frozenset({1, 2}) for e in g.edges}
    lists[(1, 3)] = frozenset({1})
    with pytest.raises(ValueError):
        list_edge_color(g, bip, lists)


def test_a_short_list_is_named_as_the_first_in_edge_list_order():
    # Of several short lists, the first in the order of the edge lists is
    # named, whatever the shortest is.
    g, bip = complete_bipartite(3, 3)
    lists = {e: frozenset({1, 2, 3}) for e in reversed(g.edges)}
    lists[(1, 4)] = frozenset({7})
    lists[(2, 6)] = frozenset({1, 2})
    lists[(3, 5)] = frozenset()
    with pytest.raises(ValueError) as info:
        list_edge_color(g, bip, lists)
    assert str(info.value) == "list at edge (3, 5) has 0 colors, need at least 3"
    del lists[(3, 5)]
    lists[(3, 5)] = frozenset({1, 2, 3})  # moved behind the other short lists
    with pytest.raises(ValueError) as info:
        list_edge_color(g, bip, lists)
    assert str(info.value) == "list at edge (2, 6) has 2 colors, need at least 3"


_DOMAIN_MESSAGE = "edge list domain does not match the edge set"


def _k23_lists():
    g, bip = complete_bipartite(2, 3)  # X = {1, 2}, Y = {3, 4, 5}, degree 3
    return g, bip, {e: frozenset({1, 2, 3}) for e in g.edges}


@pytest.mark.parametrize("change", ["missing edge", "extra key", "reversed key"])
def test_lists_off_the_edge_set_are_refused(change):
    g, bip, lists = _k23_lists()
    if change == "missing edge":
        del lists[(2, 4)]
    elif change == "extra key":
        lists[(1, 2)] = frozenset({1, 2, 3})  # both ends in X: no edge
    else:
        lists[(4, 2)] = lists.pop((2, 4))  # as many keys as edges, one reversed
    with pytest.raises(ValueError) as info:
        list_edge_color_trace(g, bip, lists)
    assert str(info.value) == _DOMAIN_MESSAGE


@pytest.mark.parametrize("extra", [False, True])
def test_a_defaultdict_lacking_an_edge_is_refused_and_left_unchanged(extra):
    # Its missing edge must be neither filled in by the default nor added.
    g, bip, plain = _k23_lists()
    lists = defaultdict(frozenset, plain)
    del lists[(2, 4)]
    if extra:
        lists[(4, 2)] = frozenset({1, 2, 3})
    keys = len(lists)
    with pytest.raises(ValueError) as info:
        list_edge_color_trace(g, bip, lists)
    assert str(info.value) == _DOMAIN_MESSAGE
    assert len(lists) == keys and (2, 4) not in lists


@pytest.mark.parametrize("extra", [False, True])
def test_the_domain_is_named_before_a_short_list(extra):
    # The short list sits at the first X-vertex, the missing edge at the last.
    g, bip, lists = _k23_lists()
    lists[(1, 3)] = frozenset({1})
    del lists[(2, 5)]
    if extra:
        lists[(5, 2)] = frozenset({1, 2, 3})
    with pytest.raises(ValueError) as info:
        list_edge_color_trace(g, bip, lists)
    assert str(info.value) == _DOMAIN_MESSAGE


def _exhaustive_list_edge_colorable(g, lists) -> bool:
    edges = list(g.edges)

    def place(idx, colors):
        if idx == len(edges):
            return True
        u, v = edges[idx]
        for c in sorted(lists[edges[idx]]):
            conflict = any(
                colors.get(other) == c
                for other in edges[:idx]
                if u in other or v in other
            )
            if conflict:
                continue
            colors[edges[idx]] = c
            if place(idx + 1, colors):
                return True
            del colors[edges[idx]]
        return False

    return place(0, {})


def test_list_edge_color_k33_random_lists_always_succeeds():
    rng = random.Random(9)
    g, bip = complete_bipartite(3, 3)
    for _ in range(100):
        lists = {e: frozenset(rng.sample(range(1, 10), 3)) for e in g.edges}
        ec = list_edge_color(g, bip, lists)
        assert verify_edge_coloring(g, ec.colors, lists) == []
        assert _exhaustive_list_edge_colorable(g, lists)


def test_trace_invariants_on_random_instances():
    rng = random.Random(17)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        g, bip = complete_bipartite(n, m)
        delta = g.max_degree()
        lists = {e: frozenset(rng.sample(range(1, 3 * delta + 1), delta)) for e in g.edges}
        prefs = PreferenceSystem(edge_color_bipartite(g, bip), bip)
        ec, trace = list_edge_color_trace(g, bip, lists)
        assert verify_edge_coloring(g, ec.colors, lists) == []
        for rnd in trace.rounds:
            assert rnd.matched, "a round committed no edges"
            # Kept as id tuples, the matching sorted, and decoded when read.
            assert type(rnd.pool_ids) is tuple and type(rnd.matched_ids) is tuple
            assert list(rnd.matched_ids) == sorted(rnd.matched_ids)
            assert rnd.pool == tuple(prefs.edges[i] for i in rnd.pool_ids)
            assert kernel_check(_pool(prefs, rnd.pool), prefs, _ids(prefs, rnd.matched))
        assert all(d <= delta - 1 for d in trace.deletions.values())


def test_list_edge_color_deterministic():
    rng = random.Random(23)
    g, bip = complete_bipartite(3, 3)
    lists = {e: frozenset(rng.sample(range(1, 10), 3)) for e in g.edges}
    first = list_edge_color(g, bip, lists)
    second = list_edge_color(g, bip, lists)
    assert first == second


def test_kernel_check_rejects_one_unabsorbed_pool_edge():
    # K_{2,2} base colors: (1,3)=1, (1,4)=2, (2,3)=2, (2,4)=1.  (2,3) is
    # absorbed at y=3 by the lower (1,3); (1,4) meets only a LOWER matched
    # color at x=1, which does not absorb on the X side.
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    assert not kernel_check(_pool(prefs, [(1, 3), (1, 4), (2, 3)]), prefs, _ids(prefs, [(1, 3)]))
    # (1,3) meets only a HIGHER matched color at y=3: no absorption there.
    assert not kernel_check(_pool(prefs, [(1, 3), (2, 3)]), prefs, _ids(prefs, [(2, 3)]))


def test_kernel_check_rejects_a_matching_that_shares_a_y_vertex():
    # Nothing is left to absorb, so only vertex-disjointness can reject it.
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    assert not kernel_check(_pool(prefs, [(1, 3), (2, 3)]), prefs, _ids(prefs, [(1, 3), (2, 3)]))
    assert not kernel_check(_pool(prefs, [(1, 3), (1, 4)]), prefs, _ids(prefs, [(1, 3), (1, 4)]))


def test_kernel_check_rejects_matched_edge_outside_pool():
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    # A disjoint matching that absorbs (1,3) at x=1, but (2,3) is not in the pool.
    assert not kernel_check(_pool(prefs, [(1, 3), (1, 4)]), prefs, _ids(prefs, [(1, 4), (2, 3)]))


def test_kernel_check_counts_each_matched_id_in_the_pool_once():
    # The check proves the matching lies in the pool by counting the matched
    # ids it meets there, so a pool that meets one matched id twice must not
    # stand in for one that holds two.  K_{2,2}: (1,3) and (2,4) are disjoint
    # and the pool holds only (1,3), as two proposer lists.
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    a, b = prefs.index[(1, 3)], prefs.index[(2, 4)]
    assert kernel_check([[a], [b]], prefs, {a, b})
    assert not kernel_check([[a], [a]], prefs, {a, b})


def test_kernel_check_rejects_out_of_range_matching_ids():
    # Not in the pool, so not a kernel, whatever the id.  A negative id would
    # read from the end of the id tables, and a float or a string would fail
    # as a list index: each is refused before any read.  1.0 equals the
    # matched id 1, so it takes that id's place.
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    pool = _pool(prefs, g.edges)
    matched = stable_matching(pool, prefs)
    assert 1 in matched
    assert kernel_check(pool, prefs, matched)
    for bad in (-1, len(prefs.edges), 1.5, "0", 1.0):
        assert not kernel_check(pool, prefs, {bad})
        assert not kernel_check(pool, prefs, (matched - {bad}) | {bad})


def test_a_non_int_id_is_refused_without_a_comparison():
    # A range tests anything but an int by comparing it with each member,
    # so kernel_check tests a matched id's type first: the id below counts
    # the comparisons made with it.
    class Counted:
        eqs = 0
        __hash__ = object.__hash__

        def __eq__(self, other):
            Counted.eqs += 1
            return False

    odd = Counted()
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    assert not kernel_check(_pool(prefs, g.edges), prefs, {odd})
    assert Counted.eqs == 0


def test_kernel_check_accepts_absorption_at_one_end_only():
    g, bip = complete_bipartite(2, 2)
    prefs = _prefs(g, bip)
    # X end only: (1,3) meets the higher (1,4) at x=1, nothing at y=3.
    assert kernel_check(_pool(prefs, [(1, 3), (1, 4)]), prefs, _ids(prefs, [(1, 4)]))
    # Y end only: (2,3) meets the lower (1,3) at y=3, nothing at x=2.
    assert kernel_check(_pool(prefs, [(1, 3), (2, 3)]), prefs, _ids(prefs, [(1, 3)]))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_engine_outputs_match_pinned_digests():
    # Digests recorded from the double-loop kernel check, the per-edge
    # remaining-list scan and the sorted-list deferred acceptance; the
    # indexed engine must reproduce them exactly.
    rng = random.Random(2022)
    n, m = 12, 14
    lists = ListAssignment(
        {v: frozenset(rng.sample(range(1, 3 * m + 1), m)) for v in range(1, n + 1)}
    )
    packing = pack_complete(PackRequest(n, lists, m))
    assert _digest([sorted(row.items()) for row in packing.rows]) == (
        "8db4b7fbeaef68a3ff5cc5b6953233e34352af58374c8d8b9b3e235a52d0c412"
    )

    # Not complete, so the base coloring comes from augmenting paths.
    rng = random.Random(31)
    full, bip = complete_bipartite(6, 7)
    g = Graph.from_edges(13, [e for e in full.edges if rng.random() < 0.6])
    delta = g.max_degree()
    edge_lists = {e: frozenset(rng.sample(range(1, 3 * delta + 1), delta)) for e in g.edges}
    ec, trace = list_edge_color_trace(g, bip, edge_lists)
    assert len(g.edges) < len(full.edges)
    rounds = [(r.color, r.pool, r.matched) for r in trace.rounds]
    assert _digest((rounds, sorted(trace.deletions.items()), sorted(ec.colors.items()))) == (
        "31b5412e571bf41db1843b2215e1cb136f4e0d00b94e4b3a43fd940db0456c70"
    )


def test_shared_list_engine_output_matches_pinned_digest():
    # pack_complete's shape: every edge at x_i carries x_i's one list object,
    # and several x_i hold equal lists (both as distinct objects and as one
    # shared object).  Recorded on the per-edge color index.
    rng = random.Random(77)
    n = m = 8
    g, bip = complete_bipartite(n, m)
    per_x = {x: frozenset(rng.sample(range(1, 13), m)) for x in range(1, n + 1)}
    per_x[3] = frozenset(sorted(per_x[1]))  # equal to x_1's, another object
    per_x[5] = per_x[6] = per_x[2]  # one object at three X-vertices
    per_x[8] = frozenset(sorted(per_x[2], reverse=True))
    edge_lists = {(x, n + j): per_x[x] for x in range(1, n + 1) for j in range(1, m + 1)}
    ec, trace = list_edge_color_trace(g, bip, edge_lists)
    rounds = [(r.color, r.pool, r.matched) for r in trace.rounds]
    digest = _digest((rounds, sorted(trace.deletions.items()), sorted(ec.colors.items())))
    assert digest == "d32fe5e694d7401af13d5b40e39a1abf147d4eb15a08028ef250c8dd13d8e8f0"


def test_each_round_calls_the_matching_and_the_kernel_check_once(monkeypatch):
    # The benchmark's tracer times these two layers by wrapping them on the
    # galvin module, so the engine must reach them through its module globals.
    from listpacking import galvin

    calls = {"stable_matching": 0, "kernel_check": 0}

    def counting(name):
        original = getattr(galvin, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(galvin, name, counting(name))
    rng = random.Random(41)
    for n, m in ((1, 1), (3, 4), (6, 6)):
        g, bip = complete_bipartite(n, m)
        delta = g.max_degree()
        lists = {e: frozenset(rng.sample(range(1, 2 * delta + 1), delta)) for e in g.edges}
        calls.update(dict.fromkeys(calls, 0))
        _, trace = list_edge_color_trace(g, bip, lists)
        assert trace.rounds
        assert calls == dict.fromkeys(calls, len(trace.rounds))


def _random_engine_instance(rng):
    """A bipartite graph, complete or not, with lists of sizes delta..delta+2:
    either one list per edge, or one list object per X-vertex, some X-vertices
    sharing one object."""
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    g, bip = complete_bipartite(n, m)
    if rng.random() < 0.5:
        g, bip = _random_bipartite(rng, n, m)
    delta = g.max_degree()
    palette = range(1, 2 * delta + 5)
    if rng.random() < 0.5:
        return g, bip, {
            e: frozenset(rng.sample(palette, delta + rng.randint(0, 2))) for e in g.edges
        }
    shared = frozenset(rng.sample(palette, delta + rng.randint(0, 2)))
    per_x = {
        x: shared if rng.random() < 0.4 else frozenset(rng.sample(palette, delta + rng.randint(0, 2)))
        for x in range(1, n + 1)
    }
    return g, bip, {e: per_x[e[0]] for e in g.edges}


def test_random_bipartite_engine_outputs_match_pinned_digest():
    # 200 seeded instances over both base colorings and both list shapes.
    # Recorded on the tuple-keyed engine; the id engine must reproduce it.
    rng = random.Random(2207)
    runs = []
    for _ in range(200):
        g, bip, edge_lists = _random_engine_instance(rng)
        ec, trace = list_edge_color_trace(g, bip, edge_lists)
        rounds = [(r.color, r.pool, r.matched) for r in trace.rounds]
        runs.append((rounds, sorted(trace.deletions.items()), sorted(ec.colors.items())))
    assert _digest(runs) == (
        "b151e18af8cc44bf07cab09dcc992576d1ec6a372bd04a3e43874fe3e954018f"
    )


def test_deletions_are_read_off_the_coloring_and_the_pools():
    # deletions[e] counts the colors of L(e) below e's color, and equally the
    # rounds whose pool held e without matching it.
    rng = random.Random(2207)
    for _ in range(200):
        g, bip, edge_lists = _random_engine_instance(rng)
        ec, trace = list_edge_color_trace(g, bip, edge_lists)
        unmatched = Counter(
            e for r in trace.rounds for e in set(r.pool) - set(r.matched)
        )
        assert trace.deletions.keys() == ec.colors.keys()
        for e, d in trace.deletions.items():
            assert d == sum(c < ec.colors[e] for c in edge_lists[e]) == unmatched[e]


def test_end_guard_names_the_first_uncolored_edge(monkeypatch):
    # A matching that colors nothing, waved through by the kernel check,
    # leaves every edge uncolored after the last round.
    from listpacking import galvin

    monkeypatch.setattr(galvin, "stable_matching", lambda pool, prefs: set())
    monkeypatch.setattr(galvin, "kernel_check", lambda pool, prefs, matching: True)
    g, bip = complete_bipartite(2, 3)
    lists = {e: frozenset(range(1, 4)) for e in g.edges}
    lists[(1, 3)] = frozenset(range(1, 6))
    with pytest.raises(RuntimeError, match=r"list at \(1, 3\) ran dry: 5 colors"):
        list_edge_color_trace(g, bip, lists)


def test_pack_complete_rows_match_pinned_digest():
    # The benchmark's shape: m-assignments of K_48 with m = 48, lists from 50
    # and from 48^2 colors, two seeds each.  Recorded on the edge-pool engine.
    n = 48
    runs = []
    for palette in (n + 2, n * n):
        for seed in (1, 2):
            rng = random.Random(seed)
            lists = ListAssignment(
                {v: frozenset(rng.sample(range(1, palette + 1), n)) for v in range(1, n + 1)}
            )
            packing = pack_complete(PackRequest(n, lists, n))
            runs.append([sorted(row.items()) for row in packing.rows])
    assert _digest(runs) == (
        "cf728d0af1f342515d4ae7b626e2cc451bb77653912c68f051179cb797a36328"
    )


def test_wide_palette_pack_complete_rows_match_pinned_digest():
    # The pack-wide regime at n = m = 24: lists from n*m = 576 colors, so
    # about 87% of the rounds have one or two proposers, where the digests
    # above mostly have many.  Recorded on the engine that found a matched
    # edge's live group through its X-vertex and its list.
    n = 24
    runs = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        lists = ListAssignment(
            {v: frozenset(rng.sample(range(1, n * n + 1), n)) for v in range(1, n + 1)}
        )
        packing = pack_complete(PackRequest(n, lists, n))
        runs.append([sorted(row.items()) for row in packing.rows])
    assert _digest(runs) == (
        "89193158469484389e22f9f03fb66dfa2ac5a5725c5c493a1d99aeba31afc68d"
    )


def test_stable_matching_matches_the_queue_reference_on_every_round_pool(monkeypatch):
    # Proposal order does not change deferred acceptance's result under strict
    # preferences, so the one-loop matching returns the earlier FIFO-queue
    # version's set (kept in tests/helpers.py) on every pool the engine forms:
    # the 200 seeded random instances and the four K_48 pack_complete inputs.
    from listpacking import galvin

    original = galvin.stable_matching
    pools = []

    def checking(pool, prefs):
        matched = original(pool, prefs)
        ids = [*chain.from_iterable(pool)]
        assert matched == reference_stable_matching(ids, prefs), ids
        pools.append(len(ids))
        return matched

    monkeypatch.setattr(galvin, "stable_matching", checking)
    rng = random.Random(2207)
    for _ in range(200):
        list_edge_color_trace(*_random_engine_instance(rng))
    n = 48
    for palette in (n + 2, n * n):
        for seed in (1, 2):
            rng = random.Random(seed)
            lists = ListAssignment(
                {v: frozenset(rng.sample(range(1, palette + 1), n)) for v in range(1, n + 1)}
            )
            pack_complete(PackRequest(n, lists, n))
    assert len(pools) > 3000 and max(pools) == n * n


def test_the_trace_builds_its_rounds_only_when_read(monkeypatch):
    # list_edge_color drops the trace, so it builds no RoundTrace at all; a
    # caller that reads the rounds gets them built once and cached.
    from listpacking import galvin

    built = []
    original = galvin.RoundTrace

    def counting(*args):
        built.append(args[0])
        return original(*args)

    monkeypatch.setattr(galvin, "RoundTrace", counting)
    n = 48
    g, bip = complete_bipartite(n, n)
    rng = random.Random(48)
    lists = {e: frozenset(rng.sample(range(1, n + 3), n)) for e in g.edges}
    ec = list_edge_color(g, bip, lists)
    assert built == []
    ec2, trace = list_edge_color_trace(g, bip, lists)
    assert ec2 == ec and built == []
    rounds = trace.rounds
    assert trace.rounds is rounds
    assert built == [r.color for r in rounds] and len(rounds) == len(trace.records)
    assert all(list(r.matched_ids) == sorted(r.matched_ids) for r in rounds)


def _k48_requests():
    """The benchmark's shape: m-assignments of K_48 with m = 48, lists from
    50 and from 48^2 colors, two seeds each."""
    n = 48
    for palette in (n + 2, n * n):
        for seed in (1, 2):
            rng = random.Random(seed)
            lists = ListAssignment(
                {v: frozenset(rng.sample(range(1, palette + 1), n)) for v in range(1, n + 1)}
            )
            yield PackRequest(n, lists, n)


def test_kernel_check_matches_the_set_difference_reference_on_every_round_pool(monkeypatch):
    # The one-pass check returns the earlier set-difference version's verdict
    # (kept in tests/helpers.py) on every pool the engine forms, for three
    # matchings: the engine's own, that one less an edge, and that one plus
    # an unmatched pool edge.  The pools are the 200 seeded random instances'
    # and the four K_48 pack_complete inputs'.
    from listpacking import galvin

    original = galvin.kernel_check
    verdicts = Counter()
    fully_matched = 0

    def checking(pool, prefs, matching):
        nonlocal fully_matched
        ids = frozenset(chain.from_iterable(pool))
        matched = set(matching)
        fully_matched += matched == ids
        variants = [matched, matched - {min(matched)}]
        if unmatched := ids - matched:
            variants.append(matched | {min(unmatched)})
        for m in variants:
            verdict = original(pool, prefs, m)
            assert verdict == reference_kernel_check(ids, prefs, m), (sorted(ids), sorted(m))
            verdicts[verdict] += 1
        return original(pool, prefs, matching)

    monkeypatch.setattr(galvin, "kernel_check", checking)
    rng = random.Random(2207)
    for _ in range(200):
        list_edge_color_trace(*_random_engine_instance(rng))
    for request in _k48_requests():
        pack_complete(request)
    # Every engine matching is a kernel and neither variant is; a pool the
    # matching covers whole has no edge to add, and tests that a matching
    # may equal its pool.
    rounds = verdicts[True]
    assert rounds > 3000 and fully_matched > 100
    assert verdicts == Counter({True: rounds, False: 2 * rounds - fully_matched})


def test_round_functions_allocate_nothing_sized_by_the_vertex_count():
    # A round costs O(|pool|): on a perfect matching of 2 * 20,000 vertices,
    # matching and checking a one-edge pool take a few hundred bytes, not a
    # table as long as the vertex set.  With a distinct one-color list per
    # edge, the engine runs 20,000 such rounds there.
    n = 20_000
    g = Graph.from_edges(2 * n, [(k, n + k) for k in range(1, n + 1)])
    bip = Bipartition(frozenset(range(1, n + 1)), frozenset(range(n + 1, 2 * n + 1)))
    prefs = _prefs(g, bip)
    pool = as_pool((7,), prefs)
    assert stable_matching(pool, prefs) == {7}  # builds the cached tables
    tracemalloc.start()
    try:
        assert stable_matching(pool, prefs) == {7}
        assert kernel_check(pool, prefs, {7}) and not kernel_check(pool, prefs, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_384, peak


def test_order_ids_follow_the_reference_order():
    # order_ids equals the spelled-out, directly sorted table
    # (tests/helpers.py) without its colors and Y-ends, keys in the same
    # order, on K_{3,3}, on its swapped sides and on a graph whose base
    # coloring flips an alternating path.
    g, bip = complete_bipartite(3, 3)
    flip = Graph.from_edges(
        8, [(1, 4), (1, 7), (1, 8), (2, 5), (2, 6), (2, 8), (3, 4), (3, 6), (3, 7)]
    )
    for g, bip in ((g, bip), (g, Bipartition(bip.Y, bip.X)), (flip, bipartition(flip))):
        prefs = _prefs(g, bip)
        expected = reference_order(prefs)
        assert list(prefs.order_ids) == list(expected)
        assert prefs.order_ids == {x: tuple(i for *_, i in ts) for x, ts in expected.items()}


def test_stable_matching_matches_the_queue_reference_where_x_vertices_merge_groups(monkeypatch):
    # With a list per edge, an X-vertex can hold several groups (its edges of
    # one list) that want one color; the engine merges their live ids best
    # first for that round.  On every round pool of seeded per-edge instances,
    # complete and not, each proposer's list is its pool edges best first,
    # the lists split the pool, and the matching is the FIFO-queue one.
    from listpacking import galvin

    original = galvin.stable_matching
    merged_rounds = 0

    def checking(pool, prefs):
        nonlocal merged_rounds
        x_end, _, base_color = prefs.oriented
        for ids in pool:
            assert len({x_end[i] for i in ids}) == 1
            assert [base_color[i] for i in ids] == sorted(map(base_color.__getitem__, ids))[::-1]
            merged_rounds += len({lists[prefs.edges[i]] for i in ids}) > 1
        pool_ids = [*chain.from_iterable(pool)]
        assert len(set(pool_ids)) == len(pool_ids)
        matched = original(pool, prefs)
        assert matched == reference_stable_matching(pool_ids, prefs), sorted(pool_ids)
        return matched

    monkeypatch.setattr(galvin, "stable_matching", checking)
    for g, bip, lists in _per_edge_instances(random.Random(2817), 100):
        list_edge_color_trace(g, bip, lists)
    assert merged_rounds > 500


def test_each_round_hands_both_round_functions_one_pool_in_their_form(monkeypatch):
    # The round functions trust their pool: one nonempty list per X-vertex,
    # of in-range int ids, strictly falling in base color.  On every round of
    # the 200 seeded random instances (a list per edge in about half, so
    # some X-vertices merge groups), the per-edge instances and the K_48
    # inputs, the engine hands both functions one such list object.
    from listpacking import galvin

    matching, checking = galvin.stable_matching, galvin.kernel_check
    handed = []
    merged = 0

    def matching_in_form(pool, prefs):
        nonlocal merged
        x_end, _, base_color = prefs.oriented
        edge_ids = range(len(prefs.edges))
        assert type(pool) is list and pool
        for ids in pool:
            assert type(ids) is list and ids
            assert all(type(i) is int and i in edge_ids for i in ids)
            assert len({x_end[i] for i in ids}) == 1
            colors = [base_color[i] for i in ids]
            assert all(a > b for a, b in zip(colors, colors[1:]))
            merged += lists is not None and len({lists[prefs.edges[i]] for i in ids}) > 1
        assert len({x_end[ids[0]] for ids in pool}) == len(pool)
        handed.append(pool)
        return matching(pool, prefs)

    def checking_the_same(pool, prefs, matched):
        assert pool is handed[-1]
        handed.append(pool)
        return checking(pool, prefs, matched)

    monkeypatch.setattr(galvin, "stable_matching", matching_in_form)
    monkeypatch.setattr(galvin, "kernel_check", checking_the_same)
    rng = random.Random(2207)
    instances = [_random_engine_instance(rng) for _ in range(200)]
    instances += _per_edge_instances(random.Random(2817), 100)
    rounds = 0
    for g, bip, lists in instances:
        handed.clear()
        _, trace = list_edge_color_trace(g, bip, lists)
        assert handed[::2] == handed[1::2] and len(handed) == 2 * len(trace.rounds)
        rounds += len(trace.rounds)
    lists = None  # pack_complete's lists are one per X-vertex: none merge
    for request in _k48_requests():
        handed.clear()
        pack_complete(request)
        assert handed[::2] == handed[1::2] and len(handed) >= 2 * 48
        rounds += len(handed) // 2
    assert rounds > 3000 and merged > 500


def test_only_a_read_of_the_deletions_counts_them(monkeypatch):
    # list_edge_color and pack_complete drop the trace, so they count no
    # deletions; a caller that reads them gets one bisect per edge, once,
    # and each count equals the colors of the edge's list below its own.
    from listpacking import galvin

    bisects = []
    original = galvin.bisect_left

    def counting(ranked, c):
        bisects.append(c)
        return original(ranked, c)

    monkeypatch.setattr(galvin, "bisect_left", counting)
    n = 40
    g, bip = complete_bipartite(n, n)
    rng = random.Random(40)
    lists = {e: frozenset(rng.sample(range(1, 2 * n + 1), n)) for e in g.edges}
    ec = list_edge_color(g, bip, lists)
    for request in _k48_requests():
        pack_complete(request)
    assert bisects == []
    ec2, trace = list_edge_color_trace(g, bip, lists)
    assert ec2 == ec and bisects == []
    deletions = trace.deletions
    assert trace.deletions is deletions and len(bisects) == len(g.edges)
    assert list(deletions) == list(g.edges)
    assert deletions == {e: sum(c < ec.colors[e] for c in lists[e]) for e in g.edges}


def test_kernel_check_matches_the_reference_on_every_subset_of_small_pools():
    # Seeded random bipartite graphs, a pool of at most 10 of their edges,
    # and every subset of the pool as the matching, alone and with an edge
    # from outside the pool: the check that reads only the edges ahead of
    # each match returns the set-difference reference's verdict.
    rng = random.Random(1029)
    verdicts = Counter()
    for _ in range(40):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        g, bip = complete_bipartite(n, m) if rng.random() < 0.4 else _random_bipartite(rng, n, m)
        prefs = _prefs(g, bip)
        pool = rng.sample(range(len(prefs.edges)), min(len(prefs.edges), rng.randint(6, 10)))
        proposals = as_pool(pool, prefs)
        outside = tuple(i for i in range(len(prefs.edges)) if i not in pool)[:1]
        for size in range(len(pool) + 1):
            for subset in combinations(pool, size):
                for matching in {subset, subset + outside}:
                    expected = reference_kernel_check(pool, prefs, matching)
                    assert kernel_check(proposals, prefs, matching) == expected, (pool, matching)
                    verdicts[expected] += 1
    # Every pool has a stable matching among its subsets.
    assert verdicts[True] >= 40 and verdicts[False] > 10 * verdicts[True], verdicts


def _per_edge_instances(rng, count):
    """Bipartite graphs, complete or not, with a list per edge from a palette
    barely wider than the maximum degree, so X-vertices often merge groups."""
    for _ in range(count):
        n, m = rng.randint(2, 7), rng.randint(2, 7)
        g, bip = complete_bipartite(n, m) if rng.random() < 0.5 else _random_bipartite(rng, n, m)
        delta = g.max_degree()
        palette = range(1, delta + rng.randint(1, 3))
        yield g, bip, {e: frozenset(rng.sample(palette, delta)) for e in g.edges}


def test_kernel_check_matches_the_reference_where_one_match_moves(monkeypatch):
    # On every round pool of the 200 seeded random instances, the per-edge
    # instances and the K_48 inputs, one proposer (drawn per round) has its
    # match moved one step worse in its list, one step better, or taken
    # away, with "unmatched" the place past its worst edge.  Each variant
    # gets the reference's verdict.  A move that changes a kernel breaks it,
    # so True comes where the move leaves the proposer where it was: worse
    # or away from unmatched, better from its best edge.
    from listpacking import galvin

    original = galvin.kernel_check
    draw = random.Random(5)
    verdicts = {kind: Counter() for kind in ("worse", "better", "unmatched")}

    def checking(pool, prefs, matching):
        ids = draw.choice(pool)
        rest = set(matching).difference(ids)
        place = next((k for k, i in enumerate(ids) if i in matching), len(ids))
        places = {
            "worse": min(place + 1, len(ids)),
            "better": max(place - 1, 0),
            "unmatched": len(ids),
        }
        for kind, k in places.items():
            m = rest | set(ids[k : k + 1])
            verdict = original(pool, prefs, m)
            pool_ids = [*chain.from_iterable(pool)]
            assert verdict == reference_kernel_check(pool_ids, prefs, m), (kind, sorted(pool_ids), m)
            assert verdict == (k == place)
            verdicts[kind][verdict] += 1
        return original(pool, prefs, matching)

    monkeypatch.setattr(galvin, "kernel_check", checking)
    rng = random.Random(2207)
    for _ in range(200):
        list_edge_color_trace(*_random_engine_instance(rng))
    rng = random.Random(2817)
    for instance in _per_edge_instances(rng, 100):
        list_edge_color_trace(*instance)
    for request in _k48_requests():
        pack_complete(request)
    for kind, counts in verdicts.items():
        assert counts[True] > 100 and counts[False] > 100, (kind, counts)


def test_the_trace_rebuilds_each_round_pool_the_matching_saw(monkeypatch):
    # Rounds are recorded without their pools; trace.rounds rebuilds each
    # one off the lists and the final coloring.  Every rebuilt pool equals
    # the sorted ids that stable_matching was handed in that round, on the
    # random, the per-edge and the K_48 instances.
    from listpacking import galvin

    seen: list[list[int]] = []
    checked_runs = 0
    matching, engine = galvin.stable_matching, galvin.list_edge_color_trace

    def recording(pool, prefs):
        seen.append(sorted(chain.from_iterable(pool)))
        return matching(pool, prefs)

    def checking(*args):
        nonlocal checked_runs
        seen.clear()
        coloring, trace = engine(*args)
        assert [list(r.pool_ids) for r in trace.rounds] == seen
        checked_runs += 1
        return coloring, trace

    monkeypatch.setattr(galvin, "stable_matching", recording)
    monkeypatch.setattr(galvin, "list_edge_color_trace", checking)
    rng = random.Random(2207)
    for _ in range(200):
        galvin.list_edge_color_trace(*_random_engine_instance(rng))
    rng = random.Random(2817)
    for instance in _per_edge_instances(rng, 100):
        galvin.list_edge_color_trace(*instance)
    for request in _k48_requests():
        pack_complete(request)
    assert checked_runs == 304


def test_list_edge_color_keeps_no_round_pool():
    # An m-assignment of K_{150,150} from m + 2 colors, one list per X-vertex
    # as pack_complete makes: the rounds' pools hold about 1.7 million ids
    # in all, about 15 MiB of tracemalloc peak when each round kept its pool
    # as a tuple.  Kept as (color, matched ids), the call peaks near 2.4 MiB.
    n = 150
    g, bip = complete_bipartite(n, n)
    rng = random.Random(150)
    per_x = {x: frozenset(rng.sample(range(1, n + 3), n)) for x in range(1, n + 1)}
    lists = {e: per_x[e[0]] for e in g.edges}
    expected = list_edge_color(g, bip, lists)  # builds the cached tables
    tracemalloc.start()
    try:
        assert list_edge_color(g, bip, lists) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_an_improper_base_coloring_fails_before_any_round(monkeypatch):
    # The order check where order_ids is built is what lets the kernel check
    # read only the edges ahead of each match, so a base coloring that ties
    # two edges at one X-vertex must stop the engine before a round runs.
    from listpacking import galvin

    def tied(g, bip):
        ec = edge_color_bipartite(g, bip)
        colors = dict(ec.colors)
        colors[(1, 5)] = colors[(1, 4)]
        return galvin.EdgeColoring(colors, ec.palette_size)

    calls = []
    monkeypatch.setattr(galvin, "edge_color_bipartite", tied)
    monkeypatch.setattr(galvin, "stable_matching", lambda *args: calls.append(args))
    monkeypatch.setattr(galvin, "kernel_check", lambda *args: calls.append(args))
    g, bip = complete_bipartite(3, 3)
    lists = {e: frozenset({1, 2, 3}) for e in g.edges}
    galvin._preferences.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="internal error: X-vertex 1's base colors"):
            list_edge_color(g, bip, lists)
    finally:
        galvin._preferences.cache_clear()
    assert calls == []


def test_verify_edge_coloring_matches_the_reference_on_faulty_colorings():
    # Seeded colorings, proper or not, of bipartite and other graphs with
    # isolated vertices and of the empty graph, each with one injected fault:
    # two equal colors at a vertex, a color outside its list, a missing edge
    # or an extra key.  Same problems, in the same order, lists or not.
    rng = random.Random(3030)
    seen = Counter()
    for _ in range(600):
        n = rng.randint(0, 9)
        pairs = list(combinations(range(1, n + 1), 2))
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        try:
            colors = dict(edge_color_bipartite(g, bipartition(g)).colors)
            seen["bipartite"] += 1
        except ValueError:
            colors = {e: rng.randint(1, 4) for e in g.edges}
            seen["not bipartite"] += 1
        seen["isolated"] += any(g.degree(v) == 0 for v in g.vertices())
        seen["empty"] += n == 0
        lists = {e: frozenset(rng.sample(range(1, 7), 3)) | {c} for e, c in colors.items()}
        fault = rng.choice(("repeat", "off list", "missing", "extra"))
        at = [v for v in g.vertices() if g.degree(v) > 1]
        if fault == "repeat" and at:
            v = rng.choice(at)
            e, f = rng.sample([(min(v, w), max(v, w)) for w in g.neighbors(v)], 2)
            colors[f] = colors[e]
            lists[f] |= {colors[e]}
        elif fault == "off list" and colors:
            e = rng.choice(g.edges)
            lists[e] -= {colors[e]}
        elif fault == "missing" and colors:
            del colors[rng.choice(g.edges)]
        elif fault == "extra":
            colors[(n + 1, n + 2)] = 1
        else:
            fault = "none"
        seen[fault] += 1
        expected = [reference_verify_edge_coloring(g, colors, given) for given in (None, lists)]
        assert [verify_edge_coloring(g, colors, given) for given in (None, lists)] == expected
        seen["named"] += bool(expected[1])
    assert min(seen.values()) > 10, seen


def test_each_handed_out_result_is_checked_once(monkeypatch):
    # pack_complete checks its packing, which under K_n box K_m = L(K_{n,m})
    # checks the edge coloring too; list_edge_color checks its coloring.
    from listpacking import galvin, packing

    calls = Counter()
    for module, name in ((galvin, "verify_edge_coloring"), (packing, "is_proper_packing")):
        original = getattr(module, name)

        def counting(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    for request in _k48_requests():
        calls.clear()
        pack_complete(request)
        assert calls == {"is_proper_packing": 1}
    g, bip = complete_bipartite(3, 4)
    calls.clear()
    list_edge_color(g, bip, {e: frozenset({1, 2, 3, 4}) for e in g.edges})
    assert calls == {"verify_edge_coloring": 1}
