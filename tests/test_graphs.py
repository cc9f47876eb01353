from __future__ import annotations

import random
import time

import pytest

from listpacking import (
    Graph,
    NotBipartiteError,
    bipartition,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    line_graph,
    product_coords,
    product_id,
)
from .helpers import cycle_graph, path_graph


def test_complete_graph_small():
    g1 = complete_graph(1)
    assert g1.n == 1 and g1.edges == ()
    g3 = complete_graph(3)
    assert len(g3.edges) == 3
    assert all(g3.degree(v) == 2 for v in g3.vertices())
    assert len(complete_graph(6).edges) == 15


def test_complete_graph_rejects_zero():
    with pytest.raises(ValueError):
        complete_graph(0)


def test_complete_bipartite_shapes():
    g, bip = complete_bipartite(1, 1)
    assert g.edges == ((1, 2),)
    g, bip = complete_bipartite(2, 3)
    assert len(g.edges) == 6
    assert [g.degree(v) for v in g.vertices()] == [3, 3, 2, 2, 2]
    assert bip.X == frozenset({1, 2}) and bip.Y == frozenset({3, 4, 5})
    g, _ = complete_bipartite(4, 4)
    assert len(g.edges) == 16
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)


def test_complete_graphs_hold_one_int_object_per_vertex():
    # Ids above CPython's small-int cache (256) are fresh objects unless the
    # edges share them; pack_complete keeps the last graphs alive.
    for g in (complete_bipartite(200, 100)[0], complete_graph(300)):
        assert len({id(v) for e in g.edges for v in e}) == g.n == 300


def test_cartesian_product_square():
    c4 = cartesian_product(complete_graph(2), complete_graph(2))
    assert c4.edges == ((1, 2), (1, 3), (2, 4), (3, 4))
    assert all(c4.degree(v) == 2 for v in c4.vertices())


def test_cartesian_product_identity_factor():
    h = path_graph(4)
    prod = cartesian_product(complete_graph(1), h)
    assert prod.edges == h.edges
    assert prod == h


def test_cartesian_product_prism():
    prism = cartesian_product(complete_graph(3), complete_graph(2))
    assert prism.n == 6 and len(prism.edges) == 9
    assert all(prism.degree(v) == 3 for v in prism.vertices())


def test_product_degree_law():
    for g, h in [
        (complete_graph(3), path_graph(3)),
        (cycle_graph(4), complete_graph(2)),
        (path_graph(2), cycle_graph(5)),
    ]:
        prod = cartesian_product(g, h)
        for i in g.vertices():
            for j in h.vertices():
                v = product_id(i, j, h.n)
                assert prod.degree(v) == g.degree(i) + h.degree(j)
                assert product_coords(v, h.n) == (i, j)


def test_line_graph_small():
    assert line_graph(complete_graph(2)).n == 1
    lp3 = line_graph(path_graph(3))
    assert lp3.n == 2 and lp3.edges == ((1, 2),)
    with pytest.raises(ValueError):
        line_graph(Graph.from_edges(3, []))


def test_line_graph_of_k22_is_the_product_square():
    # Identical to K_2 box K_2, with edge x_i y_j as product vertex (i, j).
    k22, _ = complete_bipartite(2, 2)
    lg = line_graph(k22)
    prod = cartesian_product(complete_graph(2), complete_graph(2))
    assert lg == prod
    for v in lg.vertices():
        i, j = product_coords(v, 2)
        assert k22.edges[v - 1] == (i, 2 + j)


def test_line_graph_product_identity_all_small_sizes():
    for n in range(1, 5):
        for m in range(1, 5):
            knm, _ = complete_bipartite(n, m)
            lg = line_graph(knm)
            prod = cartesian_product(complete_graph(n), complete_graph(m))
            assert lg == prod
            for v in lg.vertices():
                i, j = product_coords(v, m)
                assert knm.edges[v - 1] == (i, n + j)


def test_bipartition_builds_expected_classes():
    g, _ = complete_bipartite(2, 3)
    bip = bipartition(g)
    assert bip.X == frozenset({1, 2}) and bip.Y == frozenset({3, 4, 5})
    c4 = cycle_graph(4)
    bip = bipartition(c4)
    assert len(bip.X) == 2 and len(bip.Y) == 2
    for u, v in c4.edges:
        assert (u in bip.X) != (v in bip.X)


def test_bipartition_classes_have_no_internal_edges():
    for g in [complete_bipartite(3, 4)[0], cycle_graph(6), path_graph(5)]:
        bip = bipartition(g)
        for u, v in g.edges:
            assert (u in bip.X) != (v in bip.X)


def test_bipartition_is_linear_on_a_wide_component():
    # A star's whole leaf set sits in the BFS queue at once.
    leaves = 100_000
    g = Graph.from_edges(leaves + 1, [(1, v) for v in range(2, leaves + 2)])
    g.neighbors(1)
    start = time.perf_counter()
    bip = bipartition(g)
    assert time.perf_counter() - start < 0.5
    assert bip.X == frozenset({1}) and len(bip.Y) == leaves


def test_bipartition_odd_cycle_witness():
    with pytest.raises(NotBipartiteError) as err:
        bipartition(complete_graph(3))
    cycle = err.value.cycle
    assert len(cycle) % 2 == 1 and len(cycle) >= 3
    assert len(set(cycle)) == len(cycle)
    g = complete_graph(3)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert g.has_edge(a, b)

    with pytest.raises(NotBipartiteError) as err:
        bipartition(cycle_graph(5))
    cycle = err.value.cycle
    assert len(cycle) == 5


def test_constructors_are_deterministic():
    assert complete_graph(4) == complete_graph(4)
    assert complete_bipartite(2, 3) == complete_bipartite(2, 3)
    a = cartesian_product(complete_graph(3), complete_graph(2))
    b = cartesian_product(complete_graph(3), complete_graph(2))
    assert a == b and hash(a) == hash(b)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 2), (2, 1)])


def test_from_edges_sorts_shuffled_mixed_orientation_input():
    rng = random.Random(5)
    for n, m in ((1, 1), (4, 7), (12, 9)):
        g, _ = complete_bipartite(n, m)
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(shuffled)
        h = Graph.from_edges(g.n, shuffled)
        assert h == g and h.edges == tuple(sorted(g.edges))
    assert Graph.from_edges(5, [(5, 4), (3, 1), (1, 2), (4, 1)]).edges == (
        (1, 2), (1, 3), (1, 4), (4, 5),
    )
    for edges, message in (
        ([(1, 2), (3, 3)], "loop edge (3,3) rejected"),
        ([(2, 1), (1, 4)], "edge (1,4) out of range 1..3"),
        ([(2, 3), (1, 2), (3, 2)], "duplicate edge (3,2) rejected"),
    ):
        with pytest.raises(ValueError) as info:
            Graph.from_edges(3, edges)
        assert str(info.value) == message


def test_neighbors_and_degree_reject_vertices_outside_the_graph():
    g = Graph.from_edges(3, [(2, 3)])
    assert g.neighbors(3) == (2,) and g.degree(1) == 0
    for v in (0, -1, 4):
        with pytest.raises(ValueError, match=f"vertex {v} out of range 1..3"):
            g.neighbors(v)
        with pytest.raises(ValueError, match=f"vertex {v} out of range 1..3"):
            g.degree(v)
    with pytest.raises(ValueError, match="vertex 1 out of range 1..0"):
        Graph.from_edges(0, []).neighbors(1)
