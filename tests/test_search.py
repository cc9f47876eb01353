from __future__ import annotations

import gc
import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations, count, islice, permutations, product
from types import SimpleNamespace

import pytest

from listpacking import (
    ABSENT,
    EXHAUSTED,
    FOUND,
    BoundExceededError,
    ChiListResult,
    ChiStarResult,
    Graph,
    ListAssignment,
    SearchBudget,
    SearchExhaustedError,
    cartesian_product,
    chromatic_number,
    coloring_number,
    complete_bipartite,
    complete_graph,
    enumerate_canonical_assignments,
    find_bad_assignment,
    is_proper_coloring,
    is_proper_packing,
    list_chromatic_number,
    list_packing_number,
    solve_list_coloring,
    solve_packing,
    solve_packing_via_lift,
)
from listpacking import search
from .helpers import (
    ROOT,
    all_graphs_up_to_iso,
    burnside_count,
    cycle_graph,
    long_path_instance,
    orbit_count,
    path_graph,
    reference_iter_canonical,
    reference_packing_search,
)


def const_lists(g, colors):
    return ListAssignment({v: frozenset(colors) for v in g.vertices()})


def classic_bad_k24():
    g, _ = complete_bipartite(2, 4)
    ell = ListAssignment(
        {
            1: frozenset({1, 2}),
            2: frozenset({3, 4}),
            3: frozenset({1, 3}),
            4: frozenset({1, 4}),
            5: frozenset({2, 3}),
            6: frozenset({2, 4}),
        }
    )
    return g, ell


def test_solve_list_coloring_found_and_absent():
    k3 = complete_graph(3)
    result = solve_list_coloring(k3, const_lists(k3, {1, 2, 3}))
    assert result.status == FOUND
    assert sorted(result.witness.values()) == [1, 2, 3]
    assert solve_list_coloring(k3, const_lists(k3, {1, 2})).status == ABSENT


def test_solve_list_coloring_classic_bad_assignment():
    g, ell = classic_bad_k24()
    # Independent exhaustive check over every list choice.
    choices = [sorted(ell[v]) for v in g.vertices()]
    assert not any(
        all(f[u - 1] != f[v - 1] for u, v in g.edges)
        for f in product(*choices)
    )
    assert solve_list_coloring(g, ell).status == ABSENT


def test_budget_exhaustion_is_distinct():
    k3 = complete_graph(3)
    result = solve_list_coloring(k3, const_lists(k3, {1, 2}), SearchBudget(node_limit=1))
    assert result.status == EXHAUSTED


def test_budget_rejects_nan_limits():
    with pytest.raises(ValueError, match="positive"):
        SearchBudget(time_limit=float("nan"))
    with pytest.raises(ValueError, match="positive"):
        SearchBudget(node_limit=float("nan"))
    assert SearchBudget(time_limit=float("inf")).time_limit == float("inf")


def test_budget_bounds_a_whole_scan():
    # One node allowance for the whole call, not a fresh one per inner
    # solve: each of these needs far more than 100 nodes in total.
    k4 = complete_graph(4)
    budget = SearchBudget(node_limit=100)
    result = find_bad_assignment(k4, 4, budget)
    assert result.status == EXHAUSTED and result.nodes == 101
    with pytest.raises(SearchExhaustedError):
        list_packing_number(k4, 4, budget)
    with pytest.raises(SearchExhaustedError):
        list_chromatic_number(cycle_graph(4), 4, budget)
    with pytest.raises(SearchExhaustedError):
        chromatic_number(k4, SearchBudget(node_limit=20))


def test_solve_packing_small_cases():
    k2 = complete_graph(2)
    ell = ListAssignment({1: frozenset({1, 2}), 2: frozenset({2, 3})})
    # Brute force over ordered injective pairs per vertex: p colors vertex 1
    # across the two rows, q vertex 2, adjacency forces rowwise difference.
    rows_exist = any(
        p[0] != q[0] and p[1] != q[1]
        for p in permutations([1, 2], 2)
        for q in permutations([2, 3], 2)
    )
    assert rows_exist
    result = solve_packing(k2, ell, 2)
    assert result.status == FOUND
    assert is_proper_packing(k2, ell, result.witness).ok

    k3 = complete_graph(3)
    assert solve_packing(k3, const_lists(k3, {1, 2, 3}), 3).status == FOUND
    assert solve_packing(k3, const_lists(k3, {1, 2}), 2).status == ABSENT


def test_solve_packing_rejects_a_list_assignment_missing_a_vertex():
    k3 = complete_graph(3)
    short = ListAssignment({1: frozenset({1, 2}), 2: frozenset({1, 2})})
    with pytest.raises(ValueError, match="list assignment domain does not match the vertex set"):
        solve_packing(k3, short, 2)
    with pytest.raises(ValueError, match="list assignment domain does not match the vertex set"):
        solve_list_coloring(k3, short)
    with pytest.raises(ValueError, match="list assignment domain does not match the vertex set"):
        solve_packing_via_lift(k3, short, 2)


def test_solve_list_coloring_rejects_an_empty_list():
    # Built directly, a ListAssignment skips from_dict's nonempty check.
    g = Graph.from_edges(3, [(1, 3)])
    ell = ListAssignment({1: frozenset({1}), 2: frozenset({1, 2}), 3: frozenset()})
    with pytest.raises(ValueError, match="every list needs at least k=1 colors"):
        solve_list_coloring(g, ell)
    with pytest.raises(ValueError, match="every list needs at least k=1 colors"):
        solve_packing(g, ell, 1)


def test_packing_routes_agree_on_random_instances():
    rng = random.Random(2)
    for g in [complete_graph(3), path_graph(3), cycle_graph(4)]:
        for _ in range(15):
            ell = ListAssignment(
                {v: frozenset(rng.sample(range(1, 6), 2)) for v in g.vertices()}
            )
            direct = solve_packing(g, ell, 2)
            lifted = solve_packing_via_lift(g, ell, 2)
            assert direct.status == lifted.status


def _random_packing_instances(count, seed):
    """Seeded graphs on at most 8 vertices with k-lists from k+1..k+3
    colors, k from 1 to 4, some lists one color longer than k."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        k = rng.randint(1, 4)
        density = rng.choice((0.3, 0.6, 0.9))
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < density]
        colors = range(1, k + rng.randint(1, 3) + 1)
        lists = {
            v: frozenset(rng.sample(colors, rng.randint(k, min(k + 1, len(colors)))))
            for v in range(1, n + 1)
        }
        yield Graph.from_edges(n, edges), ListAssignment(lists), k


# SHA-256 over (status, nodes, witness rows) of every instance, recorded from
# the search that compared color tuples coordinate by coordinate, then
# re-recorded when k = 1 stopped running the same search twice: the 78 k = 1
# instances found halved their node counts, and nothing else changed.
SOLVE_PACKING_SHA256 = "5339bc870da9dc487993f5276f07b318ed2fab9f1d074f939ef83dae8da92584"


def test_solve_packing_outputs_match_pinned_digest():
    digest = hashlib.sha256()
    statuses = Counter()
    for g, ell, k in _random_packing_instances(600, 2024):
        result = solve_packing(g, ell, k, SearchBudget(node_limit=5000))
        rows = None if result.witness is None else [sorted(r.items()) for r in result.witness.rows]
        digest.update(repr((result.status, result.nodes, rows)).encode())
        statuses[result.status] += 1
    assert min(statuses[FOUND], statuses[ABSENT], statuses[EXHAUSTED]) > 0
    assert digest.hexdigest() == SOLVE_PACKING_SHA256


def _against_reference(g, ell, k, node_limit=5000):
    """Run the packing search and the reference node loop on one instance
    and one node limit; both give the same rows, or both run out, after
    the same number of nodes.  Returns that outcome and node count."""
    colors, ranks = search._rank_colors(g, ell)
    later = [()] + [tuple(w for w in g.neighbors(v) if w > v) for v in g.vertices()]

    def current(ticker):
        chosen = search._packing_search(later, ranks, k, ticker)
        if chosen is None:
            return None
        rows = tuple({} for _ in range(k))
        for v in g.vertices():
            search._decode_tuple(chosen[v], v, colors, rows)
        return rows

    outcomes = []
    for run in (current, lambda ticker: reference_packing_search(g, colors, ranks, k, ticker)):
        ticker = search._Ticker(SearchBudget(node_limit=node_limit))
        try:
            outcome = run(ticker)
        except search._BudgetHit:
            outcome = EXHAUSTED
        outcomes.append((outcome, ticker.nodes))
    assert outcomes[0] == outcomes[1], (g, ell, k, node_limit)
    return outcomes[0]


def _workload_instances(count, seed):
    """Seeded graphs shaped like the benchmark's solve workload: 8 vertices,
    14 edges, 3-lists from the colors 1..5."""
    rng = random.Random(seed)
    pairs = list(combinations(range(1, 9), 2))
    for _ in range(count):
        lists = {v: frozenset(rng.sample(range(1, 6), 3)) for v in range(1, 9)}
        yield Graph.from_edges(8, rng.sample(pairs, 14)), ListAssignment(lists)


def test_packing_search_matches_the_reference_node_loop_on_edge_shapes():
    # No vertices, one vertex, no edges, isolated vertices, the last vertex
    # without any neighbour, vertex 1 without a neighbour above it.
    shapes = [
        (Graph.from_edges(0, []), {}),
        (Graph.from_edges(1, []), {1: {1, 2, 3, 4}}),
        (Graph.from_edges(4, []), {v: {1, 2, 3, 4} for v in range(1, 5)}),
        (Graph.from_edges(5, [(1, 3), (3, 4)]), {v: {1, 2, 3, 4} for v in range(1, 6)}),
        (path_graph(3), {1: {1, 2, 3, 4}, 2: {1, 2, 3, 4}, 3: {2, 3, 4, 5}}),
        (Graph.from_edges(4, [(2, 3), (2, 4), (3, 4)]), {v: {1, 2, 3, 4} for v in range(1, 5)}),
    ]
    for g, raw in shapes:
        ell = ListAssignment({v: frozenset(cs) for v, cs in raw.items()})
        for k in range(1, 5):
            rows, _ = _against_reference(g, ell, k)
            assert rows is not None and rows != EXHAUSTED
    # Vertex 1's first color wipes out the domain of its last forward
    # neighbour, 3, and not that of 2; its second color goes through.
    star = Graph.from_edges(3, [(1, 2), (1, 3)])
    ell = ListAssignment({1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({1})})
    assert _against_reference(star, ell, 1) == (({1: 2, 2: 3, 3: 1},), 4)
    # On a triangle colored from {1, 2}, each color of vertex 2 wipes out
    # vertex 3, its last forward neighbour, under each color of vertex 1.
    assert _against_reference(complete_graph(3), const_lists(complete_graph(3), {1, 2}), 1) == (
        None,
        4,
    )


def test_packing_search_matches_the_reference_node_loop_on_random_instances():
    outcomes = Counter()
    for g, ell, k in _random_packing_instances(300, 41):
        rows, _ = _against_reference(g, ell, k)
        outcomes[rows if rows in (None, EXHAUSTED) else FOUND] += 1
    for g, ell in _workload_instances(200, 42):
        rows, _ = _against_reference(g, ell, 3)
        outcomes[rows if rows in (None, EXHAUSTED) else FOUND] += 1
    assert min(outcomes[None], outcomes[EXHAUSTED], outcomes[FOUND]) > 0


def test_packing_search_runs_out_at_the_reference_node():
    # Every node limit below an instance's node count runs out at the same
    # node in both loops, and the count itself suffices for both.
    tried = 0
    for g, ell in _workload_instances(40, 43):
        outcome, nodes = _against_reference(g, ell, 3)
        if not 30 <= nodes <= 150:
            continue
        tried += 1
        for limit in range(1, nodes):
            assert _against_reference(g, ell, 3, limit) == (EXHAUSTED, limit + 1)
        assert _against_reference(g, ell, 3, nodes) == (outcome, nodes)
    assert tried >= 3


_FAILING_CHECK = """
import sys
from listpacking import ListAssignment, VerifyReport, complete_graph, search
from listpacking import list_packing_number, solve_packing

passes = int(sys.argv[1])  # packing checks that pass before the rest fail


def check(g, ell, packing):
    global passes
    passes -= 1
    return VerifyReport(passes >= 0, ())


search.is_proper_packing = check
k3 = complete_graph(3)
if sys.argv[2] == "solve":
    solve_packing(k3, ListAssignment({v: frozenset({1, 2, 3}) for v in k3.vertices()}), 3)
else:
    list_packing_number(k3, 3)
"""


def test_a_packing_failing_its_check_is_an_error_under_python_O():
    # python -O strips asserts; the check of every packing found must stay.
    # On K_3 with {1, 2, 3} everywhere, the cold solve's packing is checked
    # first, and the scan at k = 3 re-fits the next one.
    pythonpath = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=pythonpath)

    def run(passes, call):
        return subprocess.run(
            [sys.executable, "-O", "-c", _FAILING_CHECK, str(passes), call],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    for passes, call in ((0, "solve"), (0, "scan"), (1, "scan")):
        done = run(passes, call)
        assert done.returncode == 1, done.stderr
        last = done.stderr.strip().splitlines()[-1]
        assert last == "RuntimeError: internal error: packing failed verification: ()"
    assert run(99, "solve").returncode == 0
    assert run(99, "scan").returncode == 0


def _random_coloring_instances(count, seed):
    """Seeded graphs on at most 10 vertices with lists of 1 to 4 colors
    from a palette at most 3 colors wider than the list size."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        size = rng.randint(1, 3)
        density = rng.choice((0.3, 0.6, 0.9))
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < density]
        colors = range(1, size + rng.randint(1, 3) + 1)
        lists = {
            v: frozenset(rng.sample(colors, rng.randint(size, min(size + 1, len(colors)))))
            for v in range(1, n + 1)
        }
        yield Graph.from_edges(n, edges), ListAssignment(lists)


# SHA-256 over (status, nodes, witness) of every instance, recorded from the
# coloring search that runs apart from the packing search.
SOLVE_LIST_COLORING_SHA256 = "24cdf087886e0e454f66b9780664762dcb776d96c18fe85dd646af7b63fb133d"


def test_solve_list_coloring_outputs_match_pinned_digest():
    digest = hashlib.sha256()
    statuses = Counter()
    for g, ell in _random_coloring_instances(600, 2025):
        result = solve_list_coloring(g, ell, SearchBudget(node_limit=30))
        witness = None if result.witness is None else sorted(result.witness.items())
        digest.update(repr((result.status, result.nodes, witness)).encode())
        statuses[result.status] += 1
    assert min(statuses[FOUND], statuses[ABSENT], statuses[EXHAUSTED]) > 0
    assert digest.hexdigest() == SOLVE_LIST_COLORING_SHA256


def test_solve_packing_at_k_1_runs_one_search():
    k1 = Graph.from_edges(1, [])
    assert solve_packing(k1, ListAssignment({1: frozenset({1})}), 1).nodes == 1
    statuses = Counter()
    for g, ell in _random_coloring_instances(300, 31):
        result = solve_packing(g, ell, 1)
        assert result.nodes == solve_list_coloring(g, ell).nodes
        statuses[result.status] += 1
    assert min(statuses[FOUND], statuses[ABSENT]) > 0


def test_canonical_enumeration_k2_size_one_and_two():
    k2 = complete_graph(2)
    singles = [a for a in enumerate_canonical_assignments(k2, 1)]
    assert [(sorted(a[1]), sorted(a[2])) for a in singles] == [([1], [1]), ([1], [2])]
    pairs = [a for a in enumerate_canonical_assignments(k2, 2)]
    assert [(sorted(a[1]), sorted(a[2])) for a in pairs] == [
        ([1, 2], [1, 2]),
        ([1, 2], [1, 3]),
        ([1, 2], [3, 4]),
    ]


def test_canonical_enumeration_matches_naive_orbit_count():
    # Naive oracle: every triple of 2-subsets over colors [6], deduplicated
    # under all 720 color permutations.
    subsets = list(combinations(range(1, 7), 2))
    maps = []
    for perm in permutations(range(1, 7)):
        relabel = {c: perm[c - 1] for c in range(1, 7)}
        maps.append({s: tuple(sorted((relabel[s[0]], relabel[s[1]]))) for s in subsets})
    orbits = {
        min(tuple(m[s] for s in triple) for m in maps)
        for triple in product(subsets, repeat=3)
    }
    g = complete_graph(3)
    ours = [
        tuple(tuple(sorted(ell[v])) for v in g.vertices())
        for ell in enumerate_canonical_assignments(g, 2)
    ]
    assert len(ours) == len(set(ours)) == 16
    assert set(ours) == orbits


# SHA-256 of the (4,4) sequence, one flattened assignment per line, recorded
# from the enumerator that searched relabelings explicitly.
K4_SEQUENCE_SHA256 = "750a63e84445340c64b81aaee3266eb2c3e73e31f56de8b76e29bf0a3845343e"


def test_canonical_enumeration_counts_and_order_are_pinned():
    for (n, k), count in {
        (3, 3): 39,
        (4, 2): 139,
        (4, 3): 862,
        (4, 4): 4079,
        (5, 3): 35775,
    }.items():
        ours = sum(1 for _ in enumerate_canonical_assignments(complete_graph(n), k))
        assert ours == count == orbit_count(n, k), (n, k)
    g = complete_graph(4)
    text = "\n".join(
        ",".join(str(c) for v in g.vertices() for c in sorted(ell[v]))
        for ell in enumerate_canonical_assignments(g, 4)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == K4_SEQUENCE_SHA256


def test_canonical_assignments_stay_within_color_cap():
    g = complete_graph(3)
    for k in (1, 2):
        for ell in enumerate_canonical_assignments(g, k):
            assert ell.is_k_assignment(k)
            assert max(max(ell[v]) for v in g.vertices()) <= g.n * k


def test_canonical_walk_matches_the_recursive_reference():
    cases = [
        (g.n, k, group)
        for g in all_graphs_up_to_iso(4)
        for group in (search._automorphisms(g), None)
        for k in (1, 2, 3)
    ]
    k4 = search._automorphisms(complete_graph(4))
    cases += [(4, 4, k4), (4, 4, None), (0, 2, None)]
    for g in (complete_graph(5), cycle_graph(5)):
        cases += [(5, k, search._automorphisms(g)) for k in (1, 2)]
    for n, k, group in cases:
        ours = list(search._iter_canonical(n, k, group))
        assert ours == list(reference_iter_canonical(n, k, group)), (n, k, group)
    for stop in (1, 5, 40):  # walks dropped part way
        ours = list(islice(search._iter_canonical(4, 3, k4), stop))
        assert ours == list(islice(reference_iter_canonical(4, 3, k4), stop))


def test_a_dropped_walk_leaves_no_reference_cycle():
    group = search._automorphisms(complete_graph(4))
    list(search._iter_canonical(4, 3, group))  # fills the caches the walk keeps
    gc.disable()
    try:
        gc.collect()
        walk = search._iter_canonical(4, 3, group)
        next(walk)
        del walk
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_packability_is_renaming_invariant():
    rng = random.Random(6)
    g = path_graph(3)
    for _ in range(100):
        ell = ListAssignment(
            {v: frozenset(rng.sample(range(1, 7), 2)) for v in g.vertices()}
        )
        colors = sorted({c for v in g.vertices() for c in ell[v]})
        image = rng.sample(range(1, 20), len(colors))
        relabel = dict(zip(colors, image))
        renamed = ListAssignment(
            {v: frozenset(relabel[c] for c in ell[v]) for v in g.vertices()}
        )
        assert solve_packing(g, ell, 2).status == solve_packing(g, renamed, 2).status


def test_find_bad_assignment_small():
    k3 = complete_graph(3)
    result = find_bad_assignment(k3, 2)
    assert result.status == FOUND
    assert all(result.witness[v] == frozenset({1, 2}) for v in k3.vertices())

    k2 = complete_graph(2)
    assert find_bad_assignment(k2, 2).status == ABSENT


def test_find_bad_assignment_rejects_list_sizes_below_one():
    # Lists are nonempty, so there is no 0-assignment to call bad.
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"list size must be positive, got {k}"):
            find_bad_assignment(complete_graph(2), k)
        with pytest.raises(ValueError, match=f"list size must be positive, got {k}"):
            next(enumerate_canonical_assignments(complete_graph(2), k))


def test_find_bad_assignment_k4():
    k4 = complete_graph(4)
    result = find_bad_assignment(k4, 3)
    assert result.status == FOUND
    assert all(result.witness[v] == frozenset({1, 2, 3}) for v in k4.vertices())
    # the witness re-fails a fresh search
    assert solve_packing(k4, result.witness, 3).status == ABSENT


def _cold_scan(g, k, ticker, size):
    """The scan of k-assignments without a warm start: a cold solve per
    color-renaming class for a packing of the given size (1 for list
    colorings), up to the first class with none."""
    scanned = 0
    for lists, _ in search._iter_canonical(g.n, k):
        scanned += 1
        ell = ListAssignment({v: frozenset(lists[v - 1]) for v in g.vertices()})
        if search._solve_packing(g, ell, size, ticker) is None:
            return SimpleNamespace(bad=ell, scanned=scanned)
    return SimpleNamespace(bad=None, scanned=scanned)


def _cold_levels(g, packing: bool):
    """Scan k = 1, 2, ... cold until no k-assignment is bad: that k, the
    bad (k-1)-assignment, and the classes the last scan covered.  Packings
    of size k give the list packing number, colorings the list chromatic
    number."""
    ticker = search._Ticker(SearchBudget())
    witness = None
    for k in range(1, 5):
        scan = _cold_scan(g, k, ticker, k if packing else 1)
        if scan.bad is None:
            return k, witness, scan.scanned
        witness = scan.bad
    raise AssertionError("every graph on at most 4 vertices has value at most 4")


def test_warm_scans_match_a_cold_reference_scan():
    for g in all_graphs_up_to_iso(4):
        assert list_packing_number(g, 4) == ChiStarResult(*_cold_levels(g, packing=True))
        k, witness, _ = _cold_levels(g, packing=False)
        assert list_chromatic_number(g, 4) == ChiListResult(k, witness)
        for k in range(1, 4):
            scan = _cold_scan(g, k, search._Ticker(SearchBudget()), k)
            warm = find_bad_assignment(g, k)
            assert warm.status == (ABSENT if scan.bad is None else FOUND)
            assert warm.witness == scan.bad


def test_automorphism_groups_have_the_expected_orders():
    star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    for g, order in (
        (complete_graph(4), 24),
        (cycle_graph(4), 8),
        (star, 6),
        (path_graph(4), 2),
        (Graph.from_edges(4, []), 24),
    ):
        group = search._automorphisms(g)
        assert len(group) == len(set(group)) == order
        assert group[0] == tuple(range(g.n))
        for p in group:
            image = sorted(tuple(sorted((p[u - 1] + 1, p[v - 1] + 1))) for u, v in g.edges)
            assert image == list(g.edges)


def test_a_passed_deadline_stops_a_scan_before_its_first_assignment(monkeypatch):
    # Each clock reading is 1000 s after the last, so the 60 s deadline set
    # when the ticker starts has passed by the check before the first
    # assignment, whatever the resolution of the real clock.
    clock = count(0.0, 1000.0)
    monkeypatch.setattr(search.time, "monotonic", lambda: next(clock))
    k4 = complete_graph(4)
    with pytest.raises(SearchExhaustedError, match="scanning 1-assignments"):
        list_packing_number(k4, 4, SearchBudget())
    with pytest.raises(SearchExhaustedError, match="scanning 1-assignments"):
        list_chromatic_number(k4, 4, SearchBudget())
    result = find_bad_assignment(k4, 2, SearchBudget())
    assert result.status == EXHAUSTED and result.nodes == 0


def test_the_quotient_scan_spends_the_budget():
    with pytest.raises(SearchExhaustedError, match="on a 4-assignment"):
        list_packing_number(complete_graph(4), 4, SearchBudget(node_limit=100))


def test_symmetry_walk_matches_a_burnside_count():
    for g in all_graphs_up_to_iso(4):
        group = search._automorphisms(g)
        for k in range(1, 5):
            reps = list(search._iter_canonical(g.n, k, group))
            assert len(reps) == burnside_count(g.n, k, group), (g.edges, k)
            assert sum(orbit for _, orbit in reps) == orbit_count(g.n, k), (g.edges, k)
    k4 = complete_graph(4)
    assert sum(1 for _ in search._iter_canonical(4, 4, search._automorphisms(k4))) == 332


def _renaming_class(lists):
    """An assignment's class under color renaming, as the number of colors
    lying in exactly the lists of S, for each vertex set S (0-based)."""
    where: dict[int, set[int]] = {}
    for v, colors in enumerate(lists):
        for c in colors:
            where.setdefault(c, set()).add(v)
    return Counter(frozenset(s) for s in where.values())


def test_symmetry_walk_keeps_the_first_assignment_of_each_class():
    # Naive oracle: walk the renaming classes in order, key each by the
    # least image of its counts under the group, and keep the first
    # assignment of every key with the number of renaming classes in it.
    cases = [(g, k) for g in all_graphs_up_to_iso(4) for k in (1, 2, 3)]
    cases.append((complete_graph(4), 4))
    for g, k in cases:
        group = search._automorphisms(g)
        first: dict[tuple, list] = {}
        for lists, _ in search._iter_canonical(g.n, k):
            counts = _renaming_class(lists)
            key = min(
                tuple(sorted((tuple(sorted(p[v] for v in s)), a) for s, a in counts.items()))
                for p in group
            )
            first.setdefault(key, [lists, 0])[1] += 1
        expected = [tuple(entry) for entry in first.values()]
        assert list(search._iter_canonical(g.n, k, group)) == expected, (g.edges, k)


def _intersection_key(lists):
    """The intersection sizes of a list sequence: for each depth j >= 1
    (0-based), |L_j & the lists at T| for every T within 0..j-1, ordered
    by whether T holds 0, holders first, then by whether it holds 1, and
    so on, so the empty T comes last."""
    sets = [set(colors) for colors in lists]
    key = []
    for j in range(1, len(sets)):
        subsets = [T for size in range(j + 1) for T in combinations(range(j), size)]
        for T in sorted(subsets, key=lambda T: [t not in T for t in range(j)]):
            key.append(len(sets[j].intersection(*(sets[t] for t in T))))
    return tuple(key)


def test_intersection_sizes_order_canonical_forms():
    # Without the symmetry walk: a larger key is a lex-smaller canonical
    # form, and an image's key is read off the original's sizes.
    for n in range(1, 5):
        perms = list(permutations(range(n)))
        readers = {p: [search._reader(p[: j + 1]) for j in range(1, n)] for p in perms}
        for k in range(1, 4):
            reps = [lists for lists, _ in search._iter_canonical(n, k)]
            keys = [_intersection_key(lists) for lists in reps]
            assert sorted(reps, key=_intersection_key, reverse=True) == reps, (n, k)
            assert len(set(keys)) == len(keys), (n, k)
            for lists in reps:
                sizes = [
                    len(set.intersection(*(set(lists[t]) for t in range(n) if S >> t & 1)))
                    if S
                    else 0
                    for S in range(1 << n)
                ]
                for p in perms:
                    read = sum((reader(sizes) for reader in readers[p]), ())
                    assert read == _intersection_key([lists[t] for t in p]), (lists, p)


def test_symmetry_walk_at_five_vertices():
    # One level deeper than the graphs on 4 vertices, with |Aut| up to 120.
    graphs = [
        complete_graph(5),
        cycle_graph(5),
        complete_bipartite(2, 3)[0],
        Graph.from_edges(5, []),
    ]
    for g in graphs:
        group = search._automorphisms(g)
        for k in range(1, 4):
            reps = list(search._iter_canonical(g.n, k, group))
            assert len(reps) == burnside_count(g.n, k, group), (g.edges, k)
            assert sum(orbit for _, orbit in reps) == orbit_count(g.n, k), (g.edges, k)


def test_symmetry_walk_keeps_the_first_assignment_of_each_class_on_k5():
    # The first-of-class oracle of the test on 4 vertices, on K_5 at k = 2.
    g, k = complete_graph(5), 2
    group = search._automorphisms(g)
    first: dict[tuple, list] = {}
    for lists, _ in search._iter_canonical(g.n, k):
        counts = _renaming_class(lists)
        key = min(
            tuple(sorted((tuple(sorted(p[v] for v in s)), a) for s, a in counts.items()))
            for p in group
        )
        first.setdefault(key, [lists, 0])[1] += 1
    expected = [tuple(entry) for entry in first.values()]
    assert list(search._iter_canonical(g.n, k, group)) == expected


def test_scan_refits_spend_budget():
    # The K_4 scan at k = 4 takes 4693 nodes, almost all of them re-fits.
    k4 = complete_graph(4)
    assert find_bad_assignment(k4, 4).nodes == 4693
    result = find_bad_assignment(k4, 4, SearchBudget(node_limit=3000))
    assert result.status == EXHAUSTED and result.nodes == 3001


# The nodes every scan up to k = 4 spends, per graph on at most 4 vertices
# and the graph without vertices, as warm starts and cold solves share them.
SCAN_NODES_SHA256 = "369070b64aa6856f7fa1f8f2f86445ba286ee04460245e774a1e760d0c82d49f"


def test_scan_node_counts_are_pinned():
    lines = []
    for g in [Graph.from_edges(0, [])] + all_graphs_up_to_iso(4):
        for number in (list_packing_number, list_chromatic_number):
            ticker = search._Ticker(SearchBudget())
            value = number(g, 4, ticker=ticker).value
            lines.append(f"{number.__name__} {g.n} {g.edges} {value} {ticker.nodes}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == SCAN_NODES_SHA256


def test_every_scanned_packing_gets_the_full_check(monkeypatch):
    # One full check per packing the K_4 scans find, re-fitted or cold.
    calls = []

    def counted(g, ell, packing):
        calls.append(ell)
        return is_proper_packing(g, ell, packing)

    monkeypatch.setattr(search, "is_proper_packing", counted)
    assert list_packing_number(complete_graph(4), 4).value == 4
    assert len(calls) == 332


def test_chromatic_numbers():
    assert chromatic_number(complete_graph(5)) == 5
    assert chromatic_number(cycle_graph(5)) == 3
    prod = cartesian_product(complete_graph(3), complete_graph(5))
    assert chromatic_number(prod) == 5


def test_coloring_number_is_a_list_size_guarantee():
    rng = random.Random(8)
    for g in [cycle_graph(5), path_graph(4), complete_graph(4)]:
        k = coloring_number(g)
        for _ in range(10):
            ell = ListAssignment(
                {v: frozenset(rng.sample(range(1, 4 * k), k)) for v in g.vertices()}
            )
            assert solve_list_coloring(g, ell).status == FOUND


def _naive_coloring_number(g):
    """1 + the largest minimum degree over the subgraphs induced by
    nonempty vertex sets, straight from the definition of degeneracy."""
    best = 0
    for size in range(1, g.n + 1):
        for subset in combinations(g.vertices(), size):
            inside = set(subset)
            best = max(best, min(sum(w in inside for w in g.neighbors(v)) for v in subset))
    return best + 1


def test_coloring_number_matches_a_naive_reference():
    graphs = []
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(2 ** len(pairs)):
            graphs.append(Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(6, 12)
        p = rng.random()
        graphs.append(
            Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])
        )
    for g in graphs:
        assert coloring_number(g) == _naive_coloring_number(g), g


def test_coloring_number_is_linear_on_an_edgeless_graph():
    g = Graph.from_edges(4000, [])
    start = time.perf_counter()
    assert coloring_number(g) == 1
    assert time.perf_counter() - start < 0.2


def test_list_chromatic_numbers():
    assert list_chromatic_number(complete_graph(3), 4).value == 3
    assert list_chromatic_number(cycle_graph(4), 4).value == 2
    g, _ = complete_bipartite(2, 4)
    result = list_chromatic_number(g, 3, SearchBudget(time_limit=300))
    assert result.value == 3
    # the recorded witness is a genuinely uncolorable 2-assignment
    assert result.lower_witness.is_k_assignment(2)
    assert solve_list_coloring(g, result.lower_witness).status == ABSENT


def test_list_chromatic_number_bound_exceeded():
    with pytest.raises(BoundExceededError) as err:
        list_chromatic_number(complete_graph(3), 2)
    assert err.value.bound == 2
    assert solve_list_coloring(complete_graph(3), err.value.witness).status == ABSENT


def test_the_trivial_group_walk_builds_no_state_per_vertex_set():
    # chi-list walks the trivial group, so it needs none of the 2^n sizes,
    # intersections and readers of the symmetry test.  On a path the answer
    # comes at the first leaf: the constant 1-assignment is bad.
    tracemalloc.start()
    try:
        result = list_chromatic_number(path_graph(18), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.value == 2
    assert peak < 1 << 20, peak


def test_list_packing_numbers_tiny():
    r2 = list_packing_number(complete_graph(2), 3)
    assert r2.value == 2
    assert solve_packing(complete_graph(2), r2.lower_witness, 1).status == ABSENT

    r3 = list_packing_number(complete_graph(3), 3)
    assert r3.value == 3
    assert r3.lower_witness.is_k_assignment(2)
    assert solve_packing(complete_graph(3), r3.lower_witness, 2).status == ABSENT

    # decided by exhausting every canonical 2-assignment of the path
    rp = list_packing_number(path_graph(3), 3)
    assert rp.value == 2


def test_list_packing_number_guards():
    with pytest.raises(ValueError):
        list_packing_number(complete_graph(5), 3)
    with pytest.raises(BoundExceededError):
        list_packing_number(complete_graph(3), 2)


def test_chi_star_matches_other_oracles():
    # list_packing_number(K_n) = n agrees with pack_complete succeeding at
    # m = n and find_bad_assignment succeeding at k = n - 1.
    from listpacking import PackRequest, pack_complete

    for n in (2, 3):
        g = complete_graph(n)
        assert list_packing_number(g, n).value == n
        ell = const_lists(g, set(range(1, n + 1)))
        assert is_proper_packing(g, ell, pack_complete(PackRequest(n, ell, n))).ok
        assert find_bad_assignment(g, n - 1).status == FOUND


def test_subgraph_monotonicity_spot_check():
    # Same labeled vertex set, nested edge sets, both values computed
    # (K_4 falls outside the k <= 3 scan and drops out).
    values: dict[tuple, int] = {}
    graphs = all_graphs_up_to_iso(4)
    for g in graphs:
        try:
            values[(g.n, g.edges)] = list_packing_number(g, 3).value
        except BoundExceededError:
            pass
    checked = 0
    for g in graphs:
        for h in graphs:
            if (
                h.n == g.n
                and set(h.edges) <= set(g.edges)
                and (h.n, h.edges) in values
                and (g.n, g.edges) in values
            ):
                assert values[(h.n, h.edges)] <= values[(g.n, g.edges)]
                checked += 1
    assert checked > 20


def test_certificates_reverify():
    rng = random.Random(10)
    for g in [complete_graph(3), cycle_graph(4)]:
        for _ in range(10):
            ell = ListAssignment(
                {v: frozenset(rng.sample(range(1, 8), 3)) for v in g.vertices()}
            )
            result = solve_list_coloring(g, ell)
            if result.status == FOUND:
                assert is_proper_coloring(g, ell, result.witness).ok
            result = solve_packing(g, ell, 2)
            if result.status == FOUND:
                assert is_proper_packing(g, ell, result.witness).ok


def test_solve_packing_on_a_long_path():
    g, ell = long_path_instance()
    result = solve_packing(g, ell, 3)
    assert result.status == FOUND
    assert is_proper_packing(g, ell, result.witness).ok
    assert solve_list_coloring(g, ell).status == FOUND


def test_scans_and_enumeration_run_past_the_recursion_limit():
    # The walk goes one list deeper per vertex: 1,200 lists is past Python's
    # default recursion limit of 1,000.
    g = path_graph(1200)
    assert list_chromatic_number(g, 3).value == 2
    assert find_bad_assignment(g, 1).status == FOUND
    first = next(enumerate_canonical_assignments(g, 2))
    assert set(first.lists.values()) == {frozenset({1, 2})}


def test_the_trivial_group_walk_is_not_quadratic():
    start = time.perf_counter()
    assert list_chromatic_number(path_graph(10_000), 3).value == 2
    assert time.perf_counter() - start < 5
