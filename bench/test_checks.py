"""Tests of the benchmark's own checkers.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import random
import sys
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import listpacking as lp  # noqa: E402
from checks import (  # noqa: E402
    find_packing,
    galvin_round_problems,
    naive_orbit_count,
    orbit_count,
    packing_problems,
)


def _complete(n):
    return list(combinations(range(1, n + 1), 2))


def _latin_rows(n):
    return tuple({i: (i + j) % n + 1 for i in range(1, n + 1)} for j in range(n))


def _every_corruption(rows, colors):
    """Each packing that differs from `rows` in exactly one cell."""
    for j, row in enumerate(rows):
        for v, old in row.items():
            for new in colors:
                if new != old:
                    bad = [dict(r) for r in rows]
                    bad[j][v] = new
                    yield bad


def test_packing_checker_accepts_a_latin_square_and_rejects_every_one_cell_change():
    n = 5
    lists = {v: frozenset(range(1, n + 1)) for v in range(1, n + 1)}
    rows = _latin_rows(n)
    assert packing_problems(range(1, n + 1), _complete(n), lists, rows, n) == []
    for bad in _every_corruption(rows, range(1, n + 2)):
        assert packing_problems(range(1, n + 1), _complete(n), lists, bad, n)


def test_packing_checker_rejects_one_corrupted_cell_of_a_pack_complete_output():
    rng = random.Random(3)
    n = 6
    plain = {v: frozenset(rng.sample(range(1, 3 * n + 1), n)) for v in range(1, n + 1)}
    packing = lp.pack_complete(lp.PackRequest(n, lp.ListAssignment(plain), n))
    edges = _complete(n)
    assert packing_problems(range(1, n + 1), edges, plain, packing.rows, n) == []
    for bad in _every_corruption(packing.rows, range(1, 3 * n + 1)):
        assert packing_problems(range(1, n + 1), edges, plain, bad, n)


def test_packing_checker_rejects_wrong_row_count_and_missing_vertices():
    lists = {1: frozenset({1, 2}), 2: frozenset({1, 2})}
    rows = ({1: 1, 2: 2}, {1: 2, 2: 1})
    assert packing_problems([1, 2], [(1, 2)], lists, rows, 2) == []
    assert packing_problems([1, 2], [(1, 2)], lists, rows[:1], 2)
    assert packing_problems([1, 2], [(1, 2)], lists, ({1: 1}, {1: 2, 2: 1}), 2)


def _galvin_run(n, seed):
    rng = random.Random(seed)
    g, bip = lp.complete_bipartite(n, n)
    edge_lists = {e: frozenset(rng.sample(range(1, 3 * n + 1), n)) for e in g.edges}
    coloring, trace = lp.list_edge_color_trace(g, bip, edge_lists)
    rounds = [(r.color, r.pool, r.matched) for r in trace.rounds]
    return edge_lists, dict(coloring.colors), rounds, dict(trace.deletions)


def test_galvin_checker_accepts_real_traces():
    for seed in range(5):
        assert galvin_round_problems(*_galvin_run(4, seed)) == []


def test_galvin_checker_rejects_broken_rounds():
    edge_lists, colors, rounds, deletions = _galvin_run(4, 0)
    color, pool, matched = next(r for r in rounds if len(r[2]) < len(r[1]))
    index = rounds.index((color, pool, matched))
    clash = next(e for e in pool if e not in matched)  # shares an end with a matched edge
    outside = next(e for e in edge_lists if e not in pool)
    for bad_matched in ((*matched, clash), (*matched, outside), ()):
        bad = list(rounds)
        bad[index] = (color, pool, bad_matched)
        assert galvin_round_problems(edge_lists, colors, bad, deletions)
    wrong_color = dict(colors)
    wrong_color[matched[0]] = color + 1000
    assert galvin_round_problems(edge_lists, wrong_color, rounds, deletions)
    miscounted = dict(deletions)
    miscounted[clash] += 1
    assert galvin_round_problems(edge_lists, colors, rounds, miscounted)


def test_galvin_checker_enforces_headroom():
    edge_lists, colors, rounds, deletions = _galvin_run(4, 1)
    e, lost = max(deletions.items(), key=lambda item: item[1])
    assert lost >= 1
    short = dict(edge_lists)
    short[e] = frozenset(sorted(edge_lists[e])[:lost])  # no color left to spare
    assert any("lost" in p for p in galvin_round_problems(short, colors, rounds, deletions))


@pytest.mark.parametrize("n,k", [(1, 4), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_orbit_count_matches_naive_count(n, k):
    assert orbit_count(n, k) == naive_orbit_count(n, k)


def test_orbit_count_reproduces_the_readme_figures():
    figures = {(3, 3): 39, (4, 2): 139, (4, 3): 862, (4, 4): 4079, (5, 3): 35775}
    assert {nk: orbit_count(*nk) for nk in figures} == figures


def _naive_packable(vertices, edges, lists, k):
    for choice in product(*(list(permutations(sorted(lists[v]), k)) for v in vertices)):
        tuples = dict(zip(vertices, choice))
        if all(a != b for u, v in edges for a, b in zip(tuples[u], tuples[v])):
            return True
    return False


def test_find_packing_agrees_with_brute_force_on_tiny_graphs():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(150):
        n, k = rng.randint(2, 5), rng.randint(2, 3)
        vertices = range(1, n + 1)
        edges = [e for e in _complete(n) if rng.random() < 0.6]
        lists = {v: frozenset(rng.sample(range(1, k + 4), rng.randint(k, k + 1))) for v in vertices}
        found = find_packing(vertices, edges, lists, k)
        expected = _naive_packable(vertices, edges, lists, k)
        assert (found is not None) == expected
        if found is not None:
            assert packing_problems(vertices, edges, lists, found, k) == []
        outcomes.add(expected)
    assert outcomes == {True, False}
