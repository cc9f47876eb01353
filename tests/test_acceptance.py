"""Acceptance suite: one test per exit criterion, each with its tolerance and
time bound pinned, printing one PASS line (visible with `pytest -s`, or on
failure).

Run with:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import random
import time

from listpacking import (
    ABSENT,
    FOUND,
    BoundExceededError,
    ListAssignment,
    PackRequest,
    PreferenceSystem,
    SearchBudget,
    cartesian_product,
    chromatic_number,
    complete_bipartite,
    complete_graph,
    edge_color_bipartite,
    enumerate_canonical_assignments,
    find_bad_assignment,
    is_proper_packing,
    kernel_check,
    line_graph,
    list_chromatic_number,
    list_edge_color_trace,
    list_packing_number,
    pack_complete,
    product_coords,
    solve_packing,
    solve_packing_via_lift,
    verify_edge_coloring,
)
from .helpers import all_graphs_up_to_iso


def report(number: int, name: str, elapsed: float, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS in {elapsed:.2f}s{suffix}")


def test_criterion_1_constructive_upper_bound():
    # n in 2..6, m in n..n+3, 50 random m-assignments each, colors from [3m],
    # seed 0: pack_complete always returns and verifies; < 30 s total.
    start = time.monotonic()
    rng = random.Random(0)
    runs = 0
    for n in range(2, 7):
        g = complete_graph(n)
        for m in range(n, n + 4):
            for _ in range(50):
                ell = ListAssignment(
                    {
                        v: frozenset(rng.sample(range(1, 3 * m + 1), m))
                        for v in range(1, n + 1)
                    }
                )
                packing = pack_complete(PackRequest(n, ell, m))
                assert packing.size == m
                assert is_proper_packing(g, ell, packing).ok
                runs += 1
    elapsed = time.monotonic() - start
    assert runs == 1000
    assert elapsed < 30.0
    report(1, "constructive-upper-bound", elapsed, f"{runs} packings, 0 failures")


def test_criterion_2_exact_values_for_tiny_cliques():
    # Full canonical enumeration gives chi*_l(K_2) = 2 and chi*_l(K_3) = 3,
    # each under 120 s, with lower witnesses re-verified unpackable.
    for n, expected in ((2, 2), (3, 3)):
        start = time.monotonic()
        g = complete_graph(n)
        result = list_packing_number(g, n + 1, SearchBudget(time_limit=120))
        elapsed = time.monotonic() - start
        assert result.value == expected
        assert result.upper_evidence > 0
        assert result.lower_witness is not None
        fresh = solve_packing(g, result.lower_witness, expected - 1)
        assert fresh.status == ABSENT
        assert elapsed < 120.0
        report(
            2,
            f"exact-value-K{n}",
            elapsed,
            f"value {result.value}, {result.upper_evidence} canonical assignments",
        )


def test_criterion_3_lower_bound_mechanism():
    # find_bad_assignment(K_n, n-1) succeeds for n in 2..6 with the identical
    # lists [n-1] as the witness; < 1 s each.
    for n in range(2, 7):
        start = time.monotonic()
        g = complete_graph(n)
        result = find_bad_assignment(g, n - 1)
        elapsed = time.monotonic() - start
        assert result.status == FOUND
        identical = frozenset(range(1, n))
        assert all(result.witness[v] == identical for v in g.vertices())
        assert elapsed < 1.0
        report(3, f"lower-bound-K{n}", elapsed, f"witness = identical lists [{n-1}]")


def test_criterion_4_galvin_engine_soundness():
    # 500 random instances, 1 <= n <= m <= 5, random max-degree-size edge
    # lists over [3m]: always succeeds, every round is a kernel, per-edge
    # deletions never exceed max degree - 1; < 20 s total.
    start = time.monotonic()
    rng = random.Random(0)
    shapes = [(n, m) for n in range(1, 6) for m in range(n, 6)]
    for trial in range(500):
        n, m = shapes[trial % len(shapes)]
        g, bip = complete_bipartite(n, m)
        delta = g.max_degree()
        lists = {
            e: frozenset(rng.sample(range(1, 3 * m + 1), delta)) for e in g.edges
        }
        ec, trace = list_edge_color_trace(g, bip, lists)
        assert verify_edge_coloring(g, ec.colors, lists) == []
        prefs = PreferenceSystem(edge_color_bipartite(g, bip), bip)
        for rnd in trace.rounds:
            pool = {prefs.index[e] for e in rnd.pool}
            assert kernel_check(pool, prefs, {prefs.index[e] for e in rnd.matched})
        assert all(d <= delta - 1 for d in trace.deletions.values())
    elapsed = time.monotonic() - start
    assert elapsed < 20.0
    report(4, "galvin-soundness", elapsed, "500 instances, 0 violations")


def test_criterion_5_structure_facts():
    # The line graph of K_{n,m} is K_n box K_m, with edge x_i y_j as product
    # vertex (i, j), for n, m <= 4, and brute-force chi(K_n box K_m) =
    # max(n, m); < 10 s.
    start = time.monotonic()
    for n in range(1, 5):
        for m in range(1, 5):
            knm, _ = complete_bipartite(n, m)
            lg = line_graph(knm)
            prod = cartesian_product(complete_graph(n), complete_graph(m))
            assert lg.edges == prod.edges
            for v in lg.vertices():
                i, j = product_coords(v, m)
                assert knm.edges[v - 1] == (i, n + j)
            assert chromatic_number(prod) == max(n, m)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(5, "structure-facts", elapsed, "16 (n,m) pairs")


def test_criterion_6_oracle_equivalence():
    # Every graph with <= 4 vertices (all isomorphism-distinct edge sets,
    # naively generated), every canonical 2-assignment: the direct packing
    # search and the lift-and-color route agree; < 5 min.
    start = time.monotonic()
    checked = 0
    for g in all_graphs_up_to_iso(4):
        for ell in enumerate_canonical_assignments(g, 2):
            direct = solve_packing(g, ell, 2)
            lifted = solve_packing_via_lift(g, ell, 2)
            assert direct.status in (FOUND, ABSENT)
            assert direct.status == lifted.status
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(6, "oracle-equivalence", elapsed, f"{checked} instances, 0 disagreements")


def test_criterion_7_latin_square():
    # pack_complete on identical lists [n] with m = n is an n x n Latin
    # square for n in 2..6; < 1 s.
    start = time.monotonic()
    for n in range(2, 7):
        ell = ListAssignment(
            {v: frozenset(range(1, n + 1)) for v in range(1, n + 1)}
        )
        packing = pack_complete(PackRequest(n, ell, n))
        array = [[row[i] for i in range(1, n + 1)] for row in packing.rows]
        symbols = set(range(1, n + 1))
        assert all(set(row) == symbols for row in array)
        assert all({array[j][i] for j in range(n)} == symbols for i in range(n))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(7, "latin-square", elapsed, "n = 2..6")


def test_criterion_8_chain_property():
    # chi <= chi_l <= chi*_l on every graph with <= 4 vertices, all three
    # values computed (scans capped at k = 4, which K_4 needs).
    start = time.monotonic()
    computed = 0
    skipped = 0
    for g in all_graphs_up_to_iso(4):
        chi = chromatic_number(g)
        try:
            chi_list = list_chromatic_number(g, 4).value
            chi_star = list_packing_number(g, 4).value
        except BoundExceededError:
            skipped += 1
            continue
        assert chi <= chi_list <= chi_star, (g.n, g.edges, chi, chi_list, chi_star)
        computed += 1
    elapsed = time.monotonic() - start
    assert skipped == 0
    assert computed == 18
    report(
        8,
        "chain-property",
        elapsed,
        f"{computed} graphs checked, {skipped} beyond the k<=4 scan",
    )
